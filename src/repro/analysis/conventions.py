"""The naming contract between the codebase and the analyzer.

The lock-discipline rules do not guess: the patterns below are the
documented, stable convention the rest of ``src/repro`` promises to
follow (and the analyzer promises to recognize). Code that names a lock
outside this grammar is invisible to the lint — treat an addition here
as an API change, not a tweak.

Lock idioms recognized
----------------------

``with self._lock:`` (and ``_count_lock``, ``_config_lock``, ...)
    Any instance attribute matching :data:`MUTEX_ATTR_RE` entered
    directly as a context manager is a **plain mutex** (``Lock`` /
    ``RLock``). Identity is ``Module.Class.<attr>`` — one lock per
    attribute per class.

``with self._cond:`` / ``with self._work:``
    Attributes matching :data:`CONDITION_ATTR_RE` are **conditions**
    (``threading.Condition``). They count as exclusive mutexes for
    ordering purposes; ``.wait()`` on the condition you hold is the
    one blessed blocking call under it.

``with self._rwlock.read_locked():`` / ``.write_locked():``
    An attribute matching :data:`RWLOCK_ATTR_RE` whose
    :data:`RWLOCK_SHARED` / :data:`RWLOCK_EXCLUSIVE` method is entered
    is a **reader-writer lock** acquired in shared/exclusive mode
    (:class:`repro.remote.server.RWLock` is the one implementation).

``with self._tenant_lock(name):``
    A method matching :data:`LOCK_MAP_RE` is a **lock-map helper**: it
    returns one mutex out of a keyed family (per-tenant, per-digest).
    The whole family shares one identity, ``Module.Class.<method>()``
    — lock-order rules treat any two members as the same rank. The
    helper body itself runs *before* the acquisition, so locks it
    takes internally are not "held" by the caller.

``@contextmanager`` helpers (``_locked(mode)``, ``maintenance()``)
    Project context managers are analyzed at their ``yield``: whatever
    locks are held there are held by every ``with`` over the helper.

Blocking-call vocabulary
------------------------

:data:`BLOCKING_CALLS` / :data:`BLOCKING_ATTRS` name the operations the
LK002 rule considers blocking (file I/O, socket I/O, sleeps, and the
project's own persistence helpers). RWLock sides and lock-map members
are exempt from LK002 by design: the per-repo write lock *is* the
designed exclusion point for persistence, and a lock-map member only
serializes one tenant/digest, not the service.
"""

from __future__ import annotations

import re

#: Plain mutex attributes: ``_lock``, ``_count_lock``, ``_config_lock``...
MUTEX_ATTR_RE = re.compile(r"^_(?:[a-z0-9]+_)*lock$")

#: Condition attributes (``threading.Condition``).
CONDITION_ATTR_RE = re.compile(r"^_(?:cond|work)$")

#: Reader-writer lock attributes.
RWLOCK_ATTR_RE = re.compile(r"^_rw(?:lock)?$")

#: RWLock acquisition method names (the contract of
#: :class:`repro.remote.server.RWLock`).
RWLOCK_SHARED = "read_locked"
RWLOCK_EXCLUSIVE = "write_locked"

#: Lock-map helper methods: ``_tenant_lock``, ``_digest_lock``, ... The
#: plain ``_lock`` attribute is matched by MUTEX_ATTR_RE first; this
#: pattern requires a keyed prefix.
LOCK_MAP_RE = re.compile(r"^_[a-z0-9]+(?:_[a-z0-9]+)*_lock$")

#: Lock kinds (the ``kind`` of :class:`repro.analysis.callgraph.Lock`).
KIND_MUTEX = "mutex"
KIND_CONDITION = "condition"
KIND_RWLOCK = "rwlock"
KIND_MAP = "map"

#: Acquisition modes.
MODE_EXCLUSIVE = "exclusive"
MODE_SHARED = "shared"
#: A context manager that acquires one of several modes depending on an
#: argument (``RepositoryServer._locked``): treated as possibly-shared
#: for LK003 and as an ordinary acquisition for LK001.
MODE_MIXED = "mixed"

#: Plain function names considered blocking when called under a mutex.
BLOCKING_CALLS = frozenset(
    {
        "open",
        # repro.core.persistence — every entry point that reads or
        # writes (and fsyncs) a repository file or directory
        "write_json_atomic",
        "append_journal",
        "read_journal",
        "load_repository",
        "save_repository_dir",
        "load_repository_dir",
        "restore_repository_dir",
        "gc_repository_dir",
        "read_repository_header",
        "read_holdings",
    }
)

#: Dotted calls considered blocking (matched on the trailing parts).
BLOCKING_DOTTED = frozenset(
    {
        "time.sleep",
        "os.makedirs",
        "os.replace",
        "os.rename",
        "os.remove",
        "os.unlink",
        "os.listdir",
        "os.scandir",
        "os.fsync",
        "json.load",
        "json.dump",
        "shutil.rmtree",
        "shutil.copyfile",
    }
)

#: Method/attribute names considered blocking on *any* receiver (socket
#: and HTTP connection verbs, sleeps). Deliberately excludes generic
#: names like ``read``/``write``/``close`` — too many in-memory hits.
BLOCKING_ATTRS = frozenset(
    {
        "sleep",
        "connect",
        "request",
        "getresponse",
        "recv",
        "sendall",
        "accept",
        "makedirs",
        "rmtree",
    }
)

#: Inline suppression comment: ``# repro-lint: disable=LK002[,LK004] [- reason]``
#: on the finding's line, the line above it, or the enclosing ``def``.
SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9*,\s]+?)(?:\s+-\s*(?P<reason>.*))?$"
)


def lock_kind_of_attr(attr: str) -> str | None:
    """The lock kind a bare ``with self.<attr>:`` denotes, or None."""
    if CONDITION_ATTR_RE.match(attr):
        return KIND_CONDITION
    if MUTEX_ATTR_RE.match(attr):
        return KIND_MUTEX
    return None


def is_lock_map_helper(name: str) -> bool:
    """True for methods like ``_tenant_lock`` (but not the plain
    ``_lock`` attribute, which has no keyed prefix)."""
    return name != "_lock" and LOCK_MAP_RE.match(name) is not None
