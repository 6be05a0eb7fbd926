"""Retrospective research over a pipeline's history (paper challenge 3).

Hospitals must "manage the database and model development for
accountability and verifiability purposes" (section VIII). With the whole
evolution under version control, the retrospective questions become
queries: what changed between two deployments, which component updates
moved the metric, and which version was best — plus saving the audit
trail to disk and reloading it later.

Run:  python examples/retrospective_audit.py
"""

import tempfile
from pathlib import Path

from repro import MLCask
from repro.workloads import linear_script, readmission_workload


def main() -> None:
    workload = readmission_workload(scale=0.5, seed=1)
    repo = MLCask(metric=workload.metric, seed=1)

    # Re-play eight iterations of component evolution.
    for step in linear_script(workload, n_iterations=8, seed=11)[:-1]:
        if step.iteration == 1:
            repo.create_pipeline(
                workload.spec, workload.initial_components(),
                message="initial deployment",
            )
        else:
            repo.commit(workload.name, step.updates, message=step.description)

    # A merge leaves losing candidates in the store (reclaimed below).
    # Version indices 8/9 are beyond what the replay used, so the merge
    # genuinely evaluates new combinations rather than reusing history.
    repo.branch(workload.name, "audit-dev")
    repo.commit(
        workload.name,
        {workload.model_stage: workload.model_version(8)},
        branch="audit-dev",
        message="candidate model for next deployment",
    )
    repo.commit(
        workload.name,
        {workload.clean_stage: workload.stage_version(workload.clean_stage, 9)},
        message="cleaning hotfix",
    )
    repo.merge(workload.name, "master", "audit-dev")

    print("=== full history ===")
    print(repo.log(workload.name))

    print("\n=== what changed between deployment 1 and today? ===")
    first = repo.history(workload.name)[0]
    print(repo.diff(workload.name, first.commit_id, "master"))

    print("\n=== which stage's evolution moved the metric? ===")
    for stage, delta in sorted(
        repo.improvement_by_stage(workload.name).items(), key=lambda kv: -kv[1]
    ):
        print(f"  {stage:12s} {delta:+.4f}")

    best = repo.best_commit(workload.name)
    print(f"\nbest-ever version: {best.label} (accuracy {best.score:.3f})")

    # Persist the audit trail and reload it in a fresh process context.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dpm-history"
        repo.save_dir(path)
        reloaded = MLCask.load_dir(path, registry=repo.registry)
        assert reloaded.best_commit(workload.name).score == best.score
        size = sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
        print(f"\naudit trail saved ({size} bytes) and reloaded: "
              f"{len(reloaded.graph)} commits intact")

    # Reclaim outputs no deployment references anymore.
    report = repo.gc()
    print(f"garbage collection swept {report.swept_chunks} chunks "
          f"({report.swept_bytes/1e3:.0f} KB) not referenced by any commit")


if __name__ == "__main__":
    main()
