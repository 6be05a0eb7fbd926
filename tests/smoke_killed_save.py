"""A save that is killed (``-9``) between its chunk appends and its
journals: ``python tests/smoke_killed_save.py <dir>`` on a directory made
by ``repro init <dir> --workload readmission --scale 0.3``.

Commits one more model version, then saves with ``os.fdatasync`` rigged
to SIGKILL the process: by then the new chunks and their index rows are
in ``objects/``, no journal row and no header is. The directory must
read as it did before (CI's smoke step and
``tests/core/test_repository_dir.py`` compare ``repro stats``)."""

import os
import signal
import sys

from repro import MLCask
from repro.workloads import ALL_WORKLOADS


def main(directory: str) -> None:
    workload = ALL_WORKLOADS["readmission"](scale=0.3, seed=0)
    repo = MLCask.load_dir(directory)
    for component in workload.initial_components().values():
        repo.registry.register(component)
    repo.registry.register(workload.model_version(1))  # the head init left
    repo.commit(
        workload.name, {"model": workload.model_version(7)}, message="never saved"
    )
    os.fdatasync = lambda fd: os.kill(os.getpid(), signal.SIGKILL)
    repo.save_dir(directory)
    raise SystemExit("the save was not killed: it appended no chunk")


if __name__ == "__main__":
    main(sys.argv[1])
