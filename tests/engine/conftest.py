"""Fixtures shared by the search oracles of this directory."""

import pytest

from repro.core.repository import MLCask
from repro.workloads import ALL_WORKLOADS, apply_nonlinear_history, nonlinear_script

#: the size the budget's quick pass runs the apps at, the smallest any
#: harness of this repository uses
APP_SCALE = 0.15


@pytest.fixture(scope="module")
def app_history(tmp_path_factory):
    """app -> (pipeline, build): each build loads a fresh copy of the
    app's two-branch history, trained once and saved."""
    built = {}

    def history(app: str):
        workload = ALL_WORKLOADS[app](scale=APP_SCALE, seed=0)
        if app not in built:
            repo = MLCask(metric=workload.metric, seed=0)
            apply_nonlinear_history(repo, nonlinear_script(workload))
            built[app] = tmp_path_factory.mktemp(app)
            repo.save_dir(str(built[app]))

        def build() -> MLCask:
            repo = MLCask.load_dir(str(built[app]))
            workload.rebind(repo)
            return repo

        return workload.name, build

    return history
