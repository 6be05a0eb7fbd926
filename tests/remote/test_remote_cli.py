"""CLI remote verbs: init/serve/clone/push/pull over repository dirs."""

import io
import socket
import threading


from repro import MLCask
from repro.cli import main
from repro.workloads import ALL_WORKLOADS


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def init_repo(path, commits=1):
    code, text = run_cli([
        "init", str(path), "--workload", "readmission",
        "--scale", "0.3", "--seed", "0", "--commits", str(commits),
    ])
    assert code == 0, text
    return text


def registry_for(repo):
    """Re-bind the init'd history to live workload components."""
    workload = ALL_WORKLOADS["readmission"](scale=0.3, seed=0)
    for component in workload.initial_components().values():
        repo.registry.register(component)
    for idx in range(1, 6):
        repo.registry.register(workload.model_version(idx))
    return workload


class TestInit:
    def test_creates_repository_directory(self, tmp_path):
        text = init_repo(tmp_path / "A", commits=2)
        assert "master.0.2" in text
        assert (tmp_path / "A" / "state.json").is_file()
        assert (tmp_path / "A" / "objects").is_dir()
        assert (tmp_path / "A" / "recipes.0.jsonl").is_file()


class TestCloneCommand:
    def test_clone_directory_remote(self, tmp_path):
        init_repo(tmp_path / "A")
        code, text = run_cli(["clone", str(tmp_path / "A"), str(tmp_path / "B")])
        assert code == 0
        assert "bytes on the wire" in text
        a = MLCask.load_dir(tmp_path / "A")
        b = MLCask.load_dir(tmp_path / "B")
        assert len(a.graph) == len(b.graph)

    def test_clone_onto_existing_file_fails_cleanly(self, tmp_path):
        init_repo(tmp_path / "A")
        target = tmp_path / "a_file"
        target.write_text("not a directory")
        code, text = run_cli(["clone", str(tmp_path / "A"), str(target)])
        assert code == 1
        assert "error:" in text
        assert target.read_text() == "not a directory"

    def test_clone_into_non_empty_target_fails_cleanly(self, tmp_path):
        init_repo(tmp_path / "A")
        target = tmp_path / "B"
        target.mkdir()
        (target / "precious.txt").write_text("do not clobber")
        code, text = run_cli(["clone", str(tmp_path / "A"), str(target)])
        assert code == 1
        assert "error:" in text and "not empty" in text
        assert (target / "precious.txt").read_text() == "do not clobber"


class TestPushPullCommands:
    def grow(self, path, idx, message):
        """Add one model-update commit to an on-disk repository."""
        repo = MLCask.load_dir(path)
        workload = registry_for(repo)
        repo.commit(
            workload.name,
            {"model": workload.model_version(idx)},
            message=message,
        )
        repo.save_dir(path)

    def test_pull_fast_forward_and_up_to_date(self, tmp_path):
        init_repo(tmp_path / "A")
        run_cli(["clone", str(tmp_path / "A"), str(tmp_path / "B")])
        self.grow(tmp_path / "A", 2, "upstream work")
        code, text = run_cli(["pull", str(tmp_path / "B"), str(tmp_path / "A")])
        assert code == 0 and "fast-forward" in text
        code, text = run_cli(["pull", str(tmp_path / "B"), str(tmp_path / "A")])
        assert code == 0 and "up-to-date" in text

    def test_push_persists_on_directory_remote(self, tmp_path):
        init_repo(tmp_path / "A")
        run_cli(["clone", str(tmp_path / "A"), str(tmp_path / "B")])
        self.grow(tmp_path / "B", 2, "clone work")
        code, text = run_cli(["push", str(tmp_path / "B"), str(tmp_path / "A")])
        assert code == 0 and "pushed" in text
        a = MLCask.load_dir(tmp_path / "A")
        assert a.head_commit("readmission").message == "clone work"

    def test_diverged_push_rejected_with_clean_error(self, tmp_path):
        init_repo(tmp_path / "A")
        run_cli(["clone", str(tmp_path / "A"), str(tmp_path / "B")])
        self.grow(tmp_path / "A", 2, "upstream work")
        self.grow(tmp_path / "B", 3, "clone work")
        code, text = run_cli(["push", str(tmp_path / "B"), str(tmp_path / "A")])
        assert code == 1
        assert "error:" in text and "non-fast-forward" in text

    def test_diverged_pull_without_workload_hints_at_flag(self, tmp_path):
        init_repo(tmp_path / "A")
        run_cli(["clone", str(tmp_path / "A"), str(tmp_path / "B")])
        self.grow(tmp_path / "A", 2, "upstream work")
        self.grow(tmp_path / "B", 3, "clone work")
        code, text = run_cli(["pull", str(tmp_path / "B"), str(tmp_path / "A")])
        assert code == 1
        assert "--workload" in text

    def test_diverged_pull_with_workload_runs_metric_merge_then_push(self, tmp_path):
        """The full advertised recovery: diverge, pull --workload (the
        metric-driven merge resolves it), push fast-forwards."""
        init_repo(tmp_path / "A")
        run_cli(["clone", str(tmp_path / "A"), str(tmp_path / "B")])
        self.grow(tmp_path / "A", 2, "upstream work")
        self.grow(tmp_path / "B", 3, "clone work")
        code, text = run_cli([
            "pull", str(tmp_path / "B"), str(tmp_path / "A"),
            "--workload", "readmission", "--scale", "0.3", "--seed", "0",
        ])
        assert code == 0, text
        assert "merged" in text and "metric-driven merge" in text
        code, text = run_cli(["push", str(tmp_path / "B"), str(tmp_path / "A")])
        assert code == 0, text
        a = MLCask.load_dir(tmp_path / "A")
        heads = a.head_commit("readmission")
        assert len(heads.parents) == 2  # the merge commit landed upstream


class TestServeCommand:
    def test_serve_and_clone_over_http(self, tmp_path):
        init_repo(tmp_path / "A")
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        # A clone is exactly three requests: manifest, fetch, get_chunks.
        server_out = io.StringIO()
        thread = threading.Thread(
            target=main,
            args=(
                ["serve", str(tmp_path / "A"), "--port", str(port), "--requests", "3"],
            ),
            kwargs={"out": server_out},
        )
        thread.start()
        deadline = 50
        url = f"http://127.0.0.1:{port}"
        code, text = None, ""
        for _ in range(deadline):
            code, text = run_cli(["clone", url, str(tmp_path / "C")])
            if code == 0:
                break
            import shutil
            import time

            shutil.rmtree(tmp_path / "C", ignore_errors=True)
            time.sleep(0.1)
        thread.join(timeout=10)
        assert code == 0, text
        assert "serving" in server_out.getvalue()
        c = MLCask.load_dir(tmp_path / "C")
        assert len(c.graph) == 2
