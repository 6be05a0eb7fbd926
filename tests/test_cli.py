"""CLI tests: every subcommand runs and prints what it promises."""

import io

import pytest

from repro.cli import main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestWorkloadsCommand:
    def test_lists_all_four(self):
        code, text = run_cli(["workloads"])
        assert code == 0
        for name in ("readmission", "dpm", "sa", "autolearn"):
            assert name in text

    def test_shows_stage_chains(self):
        _, text = run_cli(["workloads"])
        assert "dataset -> clean -> extract -> model" in text


class TestDemoCommand:
    def test_readmission_demo(self):
        code, text = run_cli(
            ["demo", "readmission", "--scale", "0.3", "--seed", "1"]
        )
        assert code == 0
        assert "metric-driven merge" in text
        assert "master.0.2" in text
        assert "diff" in text

    def test_demo_ablation_mode(self):
        code, text = run_cli(
            ["demo", "readmission", "--scale", "0.3", "--mode", "pc_only"]
        )
        assert code == 0
        assert "evaluated" in text

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["demo", "nonexistent"])


class TestExperimentCommand:
    def test_linear_prints_three_figures(self):
        code, text = run_cli([
            "experiment", "linear", "--scale", "0.3",
            "--iterations", "4", "--apps", "readmission",
        ])
        assert code == 0
        assert "Fig 5" in text and "Fig 6" in text and "Fig 7" in text

    def test_merge_prints_fig8_and_speedups(self):
        code, text = run_cli([
            "experiment", "merge", "--scale", "0.3", "--apps", "readmission",
        ])
        assert code == 0
        assert "Fig 8" in text
        assert "speedup" in text

    def test_search_prints_table1(self):
        code, text = run_cli([
            "experiment", "search", "--scale", "0.3",
            "--trials", "10", "--apps", "readmission",
        ])
        assert code == 0
        assert "Table I" in text

    def test_distributed_prints_fig11(self):
        code, text = run_cli(["experiment", "distributed"])
        assert code == 0
        assert "Fig 11a" in text and "Fig 11b" in text

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            run_cli([])

    def test_lint_is_not_a_verb(self):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["lint"])
        assert exit_info.value.code == 2


def build_two_branch_repo_dir(path: str) -> None:
    """An on-disk readmission repository with diverged master/dev tips."""
    from repro.core.repository import MLCask
    from repro.workloads import ALL_WORKLOADS, apply_nonlinear_history, nonlinear_script

    workload = ALL_WORKLOADS["readmission"](scale=0.3, seed=0)
    repo = MLCask(metric=workload.metric, seed=0)
    apply_nonlinear_history(repo, nonlinear_script(workload))
    repo.save_dir(path)


REBIND = ["--workload", "readmission", "--scale", "0.3", "--seed", "0"]


class TestRunCommand:
    def test_runs_head_with_warm_checkpoints(self, tmp_path):
        repo_dir = str(tmp_path / "repo")
        build_two_branch_repo_dir(repo_dir)
        code, text = run_cli(["run", repo_dir, *REBIND])
        assert code == 0
        assert "score" in text and "4 reused" in text

    def test_workers_flag_accepted(self, tmp_path):
        repo_dir = str(tmp_path / "repo")
        build_two_branch_repo_dir(repo_dir)
        code, text = run_cli(["run", repo_dir, "--workers", "4", *REBIND])
        assert code == 0
        assert "4 worker(s)" in text

    def test_dev_branch_runnable(self, tmp_path):
        repo_dir = str(tmp_path / "repo")
        build_two_branch_repo_dir(repo_dir)
        code, text = run_cli(["run", repo_dir, "--branch", "dev", *REBIND])
        assert code == 0
        assert "ran readmission:dev" in text

    def test_missing_workload_hints_rebind(self, tmp_path):
        repo_dir = str(tmp_path / "repo")
        build_two_branch_repo_dir(repo_dir)
        code, text = run_cli(["run", repo_dir])
        assert code == 1
        assert "--workload" in text


class TestMergeCommand:
    def test_wide_window_merge_commits_winner(self, tmp_path):
        repo_dir = str(tmp_path / "repo")
        build_two_branch_repo_dir(repo_dir)
        code, text = run_cli(
            ["merge", repo_dir, "master", "dev", "--workers", "4", *REBIND]
        )
        assert code == 0
        assert "metric-driven merge" in text
        assert "winner: master.0.2" in text
        # The merge persisted: the new head runs (and is fully reused).
        code, text = run_cli(["run", repo_dir, *REBIND])
        assert code == 0
        assert "4 reused" in text

    def test_negative_time_budget_is_an_error_not_a_traceback(self, tmp_path):
        repo_dir = str(tmp_path / "repo")
        build_two_branch_repo_dir(repo_dir)
        code, text = run_cli(
            ["merge", repo_dir, "master", "dev", "--time-budget", "-1", *REBIND]
        )
        assert code == 1
        assert "error: time_budget_seconds must be non-negative" in text

    def test_default_window_matches_wide_window_winner(self, tmp_path):
        scores = {}
        for label, extra in (("seq", []), ("par", ["--workers", "4"])):
            repo_dir = str(tmp_path / label)
            build_two_branch_repo_dir(repo_dir)
            code, text = run_cli(["merge", repo_dir, "master", "dev", *extra, *REBIND])
            assert code == 0
            scores[label] = next(
                line for line in text.splitlines() if "score" in line
            )
        assert scores["seq"] == scores["par"]

    def test_budget_flag_accepted(self, tmp_path):
        repo_dir = str(tmp_path / "repo")
        build_two_branch_repo_dir(repo_dir)
        code, text = run_cli(
            ["merge", repo_dir, "master", "dev", "--budget", "3", *REBIND]
        )
        assert code == 0
        assert "3 evaluated" in text

    def test_exhaustive_with_workers_rejected(self, tmp_path):
        repo_dir = str(tmp_path / "repo")
        build_two_branch_repo_dir(repo_dir)
        code, text = run_cli(
            ["merge", repo_dir, "master", "dev",
             "--search", "exhaustive", "--workers", "2", *REBIND]
        )
        assert code == 1
        assert "exhaustive" in text
