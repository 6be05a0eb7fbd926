"""The ML tier runs BLAS on the calling thread.

Importing :mod:`repro.ml` sets every OpenBLAS the process has mapped
(numpy's and scipy's) to one thread (:func:`repro.ml.blas.one_blas_thread`),
so their idle worker pools stop spinning beside the apps' small kernels.
A process that does not load the ML tier keeps OpenBLAS's default, so
does one whose environment sets a thread count, and the apps' outputs do
not depend on the setting. Each case runs in a fresh process: the
setting is process-wide and this one has it already.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.ml import blas

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Loads ``repro/ml/blas.py`` on its own, without the package (whose
#: import runs the helper), then runs the case's code.
PRELUDE = f"""
import importlib.util, json, os, sys, time
spec = importlib.util.spec_from_file_location("blas", {blas.__file__!r})
blas = importlib.util.module_from_spec(spec)
spec.loader.exec_module(blas)
"""

#: Imports the ML tier, then, run with ``per-core``, puts one thread per
#: core back into each OpenBLAS pool.
SET_BACK = """
import repro.ml
if sys.argv[1] == "per-core":
    for _, set_threads, _ in blas.openblas_pools():
        set_threads(os.cpu_count())
"""

#: The stage outputs and scores of every commit of the four apps' linear
#: scripts, at the scale the paper's figures run (1.0), where
#: readmission's products engage a pool too.
APP_OUTPUTS = SET_BACK + """
from repro import MLCask
from repro.workloads import ALL_WORKLOADS, linear_script
outputs = {"threads": sorted(blas.blas_threads().values())}
for app in ("readmission", "dpm", "sa", "autolearn"):
    workload = ALL_WORKLOADS[app](scale=1.0, seed=0)
    repo = MLCask(metric=workload.metric, seed=0)
    commits = [repo.create_pipeline(workload.spec, workload.initial_components())[0]]
    for step in linear_script(workload, seed=0)[1:]:
        if not step.expect_incompatible:
            commits.append(repo.commit(workload.name, step.updates)[0])
    outputs[app] = [[commit.stage_outputs, commit.score] for commit in commits]
print(json.dumps(outputs))
"""

#: Process CPU over wall time across ``WordEmbedder.fit`` calls, sa's
#: costliest kernel (ARPACK through scipy's OpenBLAS), for 0.3 s.
FIT_CPU_OVER_WALL = SET_BACK + """
from repro.data.synthetic import make_reviews
from repro.ml import Vocabulary, WordEmbedder, tokenize
docs = [tokenize(str(text)) for text in make_reviews(300, seed=4)["text"]]
vocab = Vocabulary(max_size=250).fit(docs)
encoded = [vocab.encode(doc) for doc in docs]
WordEmbedder(dimensions=16, seed=0).fit(encoded, vocab)
wall, cpu = time.perf_counter(), time.process_time()
while time.perf_counter() - wall < 0.3:
    WordEmbedder(dimensions=16, seed=0).fit(encoded, vocab)
print(json.dumps((time.process_time() - cpu) / (time.perf_counter() - wall)))
"""


def cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


pytestmark = [
    pytest.mark.skipif(not blas.openblas_pools(), reason="no OpenBLAS is loaded"),
    pytest.mark.skipif(cores() < 2, reason="one core: every pool runs one thread anyway"),
]


def fresh_process_prints(code: str, *args: str, **settings: str):
    """What a fresh interpreter running ``PRELUDE + code`` prints, as JSON;
    its environment sets no thread count but ``settings``."""
    env = {k: v for k, v in os.environ.items() if k not in blas.THREAD_SETTINGS}
    env.update(settings)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + code, *args],
        capture_output=True, text=True, timeout=180, env=env,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


THREADS = "print(json.dumps(sorted(blas.blas_threads().values())))"


def test_importing_the_ml_tier_runs_every_openblas_on_one_thread():
    threads = fresh_process_prints(SET_BACK + THREADS, "pinned")
    assert len(threads) == len(blas.openblas_pools())
    assert threads == [1] * len(threads)


def test_a_process_without_the_ml_tier_keeps_the_default_thread_count():
    default = fresh_process_prints("import numpy\n" + THREADS)
    assert default and min(default) > 1
    assert fresh_process_prints("import repro, numpy\n" + THREADS) == default


@pytest.mark.parametrize("setting", blas.THREAD_SETTINGS)
def test_a_thread_count_the_environment_sets_is_kept(setting):
    # OpenBLAS read it when it loaded; the import, and a second call,
    # leave each pool at it.
    code = "print(json.dumps([blas.one_blas_thread(), sorted(blas.blas_threads().values())]))"
    took, threads = fresh_process_prints(SET_BACK + code, "pinned", **{setting: "2"})
    assert took == 0
    assert threads == [2] * len(blas.openblas_pools())


def test_with_no_openblas_mapped_the_helper_returns_0_and_changes_nothing():
    took, mapped, loaded = fresh_process_prints(
        "took = blas.one_blas_thread()\n"
        "print(json.dumps([took, 'openblas' in open('/proc/self/maps').read(),"
        " 'numpy' in sys.modules]))"
    )
    assert (took, mapped, loaded) == (0, False, False)


def test_the_apps_give_the_same_outputs_at_one_thread_and_at_one_per_core():
    pinned = fresh_process_prints(APP_OUTPUTS, "pinned")
    per_core = fresh_process_prints(APP_OUTPUTS, "per-core")
    assert set(pinned.pop("threads")) == {1}
    assert min(per_core.pop("threads")) > 1
    assert pinned == per_core
    assert all(len(commits) > 5 for commits in pinned.values())


def test_an_embedding_fit_loop_spends_no_more_cpu_than_wall_time():
    # At one thread per core scipy's idle pool spins on the other cores
    # after every ARPACK step: the same loop reads about 2x on two cores.
    assert fresh_process_prints(FIT_CPU_OVER_WALL, "pinned") <= 1.25
