"""The three import tiers: what each kind of process is allowed to load.

* **serving** — the CLI dispatcher, ``repro.remote``, ``repro.hub`` and
  everything a hub or a sync verb needs is stdlib-only at import;
* **client** — numpy arrives with the modules that produce or consume
  bytes (``storage.chunking``, ``repro.data``);
* **ML** — scipy arrives with ``repro.ml`` and what is built on it.

Every check runs in a fresh interpreter: this process has long since
imported numpy.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

import repro
import repro.data
import repro.storage
from repro.errors import PushRejectedError
from repro.hub import RepositoryHub
from repro.remote import HttpTransport, clone_repository

from helpers import fresh_toy_repo, toy_model

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ENV = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))

ML_TIER = (
    "repro.ml", "repro.workloads", "repro.experiments", "repro.baselines",
    "repro.data.synthetic",
)
SERVING = ("numpy", "scipy") + ML_TIER
CLIENT = ("scipy",) + ML_TIER

#: entry point -> module prefixes it must not have loaded.
TIERS = [
    ("import repro.cli", SERVING),
    ("import repro.hub", SERVING),
    ("import repro.remote", SERVING),
    ("import repro.core.repository", SERVING),
    ("from repro import MLCask", SERVING),
    ("import repro.storage.chunking", CLIENT),
    ("import repro.data", CLIENT),
    ("from repro.cli import main; main(['--help'])", SERVING),
]


def fresh_python(*args, code: str):
    return subprocess.run(
        [sys.executable, *args, "-c", code],
        capture_output=True, text=True, env=ENV, timeout=120,
    )


def modules_after(statement):
    """``sys.modules`` of a fresh interpreter that ran ``statement`` (a
    verb's ``SystemExit`` included)."""
    done = fresh_python(code=(
        f"try:\n    {statement}\nexcept SystemExit:\n    pass\n"
        "import sys, json\nprint(json.dumps(sorted(sys.modules)))"
    ))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_under(prefixes, modules):
    return sorted(
        m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)
    )


# ------------------------------------------------------------ (a) the table
@pytest.mark.parametrize("statement,forbidden", TIERS, ids=[t[0] for t in TIERS])
def test_entry_point_loads_only_its_tier(statement, forbidden):
    assert loaded_under(forbidden, modules_after(statement)) == []


def test_client_tier_does_load_numpy():
    """The table above is not vacuous: the client tier is where numpy is."""
    done = fresh_python(code="import repro.data, sys; print('numpy' in sys.modules)")
    assert done.stdout.strip() == "True", done.stderr


def test_ml_tier_does_load_scipy_and_the_ml_stack():
    loaded = modules_after("import repro.workloads")
    assert {"numpy", "scipy", "repro.ml"} <= set(loaded)


def test_without_scipy_everything_but_the_ml_tier_imports():
    """scipy is a dependency of the ML tier only (``ml.embeddings``, the
    ``sa`` workload): a box without it still serves, syncs and commits."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import repro.cli, repro.hub, repro.remote\n"
        "from repro import MLCask\n"
        "try:\n"
        "    import repro.ml.embeddings\n"
        "except ModuleNotFoundError as error:\n"
        "    print('blocked:', error)\n"
    )
    done = fresh_python(code=code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("blocked:") and "scipy" in done.stdout


# ------------------------------------------------------- (b) a live hub
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/<pid>/maps")
def test_a_hub_that_served_real_traffic_mapped_neither_numpy_nor_scipy(tmp_path):
    root = str(tmp_path / "hub")
    RepositoryHub(root).add_tenant("ana", tokens=["tok"])
    log = open(tmp_path / "hub.stderr", "w+")
    hub = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "hub", "serve", root, "--port", "0"],
        stdout=subprocess.PIPE, stderr=log, text=True, env=ENV,
    )
    watchdog = threading.Timer(60, hub.kill)  # a hung hub ends the read below
    watchdog.start()
    try:
        base = None
        for line in hub.stdout:
            event = json.loads(line) if line.startswith("{") else {}
            if event.get("event") == "hub.ready":
                base = event["endpoint"].split("/t/")[0]
                break
        assert base, (log.seek(0), log.read())[1]
        url = base + "/t/ana/toy"

        def connect():
            return HttpTransport(url, token="tok", timeout=30)

        alice = fresh_toy_repo()
        origin = alice.add_remote("origin", connect())
        assert origin.push("toy").commits_sent == 1                       # push
        bob = clone_repository(connect(), registry=alice.registry)       # clone
        assert len(bob.graph) == 1
        assert bob.remote("origin").fetch().commits_received == 0        # up to date
        alice.commit("toy", {"model": toy_model(1, 0.6)})
        origin.push("toy")
        bob.commit("toy", {"model": toy_model(2, 0.7)})
        with pytest.raises(PushRejectedError):                           # rejected
            bob.remote("origin").push("toy")
        assert origin.stats()["repository"]["commits"] >= 2              # stats
        # a sync verb's own process, against the live hub
        verb = ["stats", base, "--tenant", "ana/toy", "--token", "tok", "--json"]
        stats = modules_after(f"from repro.cli import main; assert main({verb!r}) == 0")
        assert loaded_under(SERVING, stats) == []

        with open(f"/proc/{hub.pid}/maps") as maps:
            mapped = {line.split()[-1] for line in maps if "/" in line}
        assert [p for p in mapped if "numpy" in p or "scipy" in p] == []
    finally:
        watchdog.cancel()
        hub.terminate()
        try:
            hub.wait(timeout=20)
        except subprocess.TimeoutExpired:
            hub.kill()
            hub.wait()
        hub.stdout.close()
        log.close()


# ------------------------------------------------- (c) the public surface
@pytest.mark.parametrize("package", [repro, repro.storage, repro.data], ids=lambda p: p.__name__)
def test_every_exported_name_is_the_object_its_defining_module_holds(package):
    for name in package.__all__:
        value = getattr(package, name)
        defined_in = getattr(value, "__module__", None)  # constants have none
        if defined_in is not None:
            assert getattr(sys.modules[defined_in], name) is value, name


def test_lazy_names_are_listed_bound_by_star_and_unknown_ones_refused():
    assert set(repro.__all__) <= set(dir(repro))
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["MLCask"] is sys.modules["repro.core.repository"].MLCask
    exec("from repro.storage import *", namespace)
    chunking = sys.modules["repro.storage.chunking"]
    assert namespace["ContentDefinedChunker"] is chunking.ContentDefinedChunker
    for package in (repro, repro.storage):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
    with pytest.raises(ImportError):
        exec("from repro import no_such_name")


def test_importing_the_cli_raises_no_warning():
    done = fresh_python("-W", "error", code="import repro.cli")
    assert done.returncode == 0 and done.stderr == "", done.stderr


def test_default_chunker_is_built_on_first_use_and_stays_assignable():
    from repro.storage import ContentDefinedChunker, FixedSizeChunker, ObjectStore

    store = ObjectStore()
    assert "chunker" not in vars(store)
    assert isinstance(store.chunker, ContentDefinedChunker)
    assert store.chunker is store.chunker
    fixed = FixedSizeChunker(64)
    store.chunker = fixed
    assert store.chunker is fixed
    assert ObjectStore(chunker=fixed).chunker is fixed
