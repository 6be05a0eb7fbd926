"""Exception hierarchy for the MLCask reproduction.

Every error raised by :mod:`repro` derives from :class:`MLCaskError` so that
callers can catch the library's failures with a single ``except`` clause while
still distinguishing the finer-grained categories below.
"""

from __future__ import annotations


class MLCaskError(Exception):
    """Base class for all errors raised by this library."""


class StorageError(MLCaskError):
    """A storage-engine operation failed (missing chunk, bad recipe, ...)."""


class ChunkNotFoundError(StorageError):
    """A content hash was requested that the chunk store does not hold."""

    def __init__(self, digest: str):
        super().__init__(f"chunk not found: {digest}")
        self.digest = digest


class ObjectNotFoundError(StorageError):
    """A logical object (blob/commit/value) is absent from the store."""

    def __init__(self, key: str):
        super().__init__(f"object not found: {key}")
        self.key = key


class ChunkIntegrityError(StorageError):
    """A chunk's bytes do not hash to their claimed content address.

    Raised when importing chunks received from an untrusted source (a
    remote peer, an on-disk object directory): content addressing makes
    corruption detectable at the moment of receipt, before the bad bytes
    can ever be served back under a digest they do not match.
    """

    def __init__(self, digest: str):
        super().__init__(f"chunk integrity check failed for {digest}")
        self.digest = digest


class VersionError(MLCaskError):
    """Semantic-version parsing or bumping failed."""


class ComponentError(MLCaskError):
    """A pipeline component is malformed or misused."""


class PipelineError(MLCaskError):
    """A pipeline definition is invalid (cycle, dangling edge, ...)."""


class IncompatibleComponentsError(PipelineError):
    """Two adjacent components have mismatched input/output schemas.

    This is the failure mode the compatibility LUT (paper section VI-A)
    exists to prevent: raised when a component is asked to consume an output
    whose schema tag it does not understand.
    """

    def __init__(self, producer: str, consumer: str):
        super().__init__(
            f"component {consumer!r} cannot consume the output of {producer!r}: "
            "output/input schema mismatch"
        )
        self.producer = producer
        self.consumer = consumer


class RepositoryError(MLCaskError):
    """Repository-level failure (unknown branch, duplicate commit, ...)."""


class BranchNotFoundError(RepositoryError):
    def __init__(self, branch: str):
        super().__init__(f"branch not found: {branch}")
        self.branch = branch


class CommitNotFoundError(RepositoryError):
    def __init__(self, commit_id: str):
        super().__init__(f"commit not found: {commit_id}")
        self.commit_id = commit_id


class MergeError(MLCaskError):
    """The merge operation could not produce a result."""


class NoCandidateError(MergeError):
    """Every pre-merge pipeline candidate was pruned or failed to execute."""


class SearchBudgetExhausted(MergeError):
    """A prioritized search ran out of its time/evaluation budget.

    Carries the best pipeline found so far, so callers can still use the
    suboptimal result (paper section VII-E: trade-off between time complexity
    and solution quality).
    """

    def __init__(self, best=None):
        super().__init__("search budget exhausted before covering all candidates")
        self.best = best


class RemoteError(MLCaskError):
    """A remote-repository operation (clone/fetch/push/pull) failed."""


class TransportError(RemoteError):
    """The transport could not deliver a request or response."""


class RemoteProtocolError(RemoteError):
    """A wire message was malformed or of an unsupported version."""


#: Why a push whose new head does not descend from the server's head is
#: refused; the server says it, and so does a client that can tell first.
NON_FAST_FORWARD = (
    "non-fast-forward (branches diverged); pull, resolve with the "
    "metric-driven merge, then push the result"
)


class PushRejectedError(RemoteError):
    """The server refused a ref update (non-fast-forward push).

    Mirrors git's behaviour: the client must first pull — which, when the
    branches diverged, resolves the divergence through the metric-driven
    merge — and push the merge result instead.
    """

    def __init__(self, pipeline: str, branch: str, reason: str):
        super().__init__(
            f"push of {pipeline}:{branch} rejected: {reason}"
        )
        self.pipeline = pipeline
        self.branch = branch
        self.reason = reason


class HubError(RemoteError):
    """A multi-tenant repository hub rejected or failed a request.

    Hub denials are *admission* failures — they happen before the request
    touches any repository state, so a rejected operation is guaranteed
    not to have mutated the target repo. Each subclass travels over the
    wire as a typed error response (see
    :func:`repro.remote.protocol.raise_remote_error`) so clients can
    distinguish "retry with credentials" from "buy more quota" from
    "back off".
    """


class AuthenticationError(HubError):
    """The request carried no token, or a token the hub does not know."""

    def __init__(self, message: str = "missing or invalid bearer token"):
        super().__init__(message)


class AuthorizationError(HubError):
    """A valid token tried to act outside its tenant's namespace."""

    def __init__(self, message: str = "token does not grant access to this tenant"):
        super().__init__(message)


class QuotaExceededError(HubError):
    """A write would push the tenant's *logical* usage past its quota.

    Quotas charge reachable bytes per tenant (every chunk a tenant holds
    counted in full) even though the hub stores each chunk once
    deployment-wide — cross-tenant dedup is the operator's saving, not
    the tenant's.
    """

    def __init__(self, message: str = "tenant storage quota exceeded"):
        super().__init__(message)


class RateLimitedError(HubError):
    """The tenant's token bucket is empty; retry after it refills."""

    def __init__(self, message: str = "tenant request rate limit exceeded"):
        super().__init__(message)


class RepositoryNotFoundError(HubError):
    """The addressed {tenant}/{repo} does not exist on the hub."""

    def __init__(self, message: str = "no such repository on this hub"):
        super().__init__(message)


class ServerOverloadedError(HubError):
    """The health model reported overload and admission shed the request.

    Raised by the hub's admission pipeline *before* any repository state
    is touched (the same never-partially-mutate contract as auth, quota,
    and rate denials), so a shed request is guaranteed side-effect-free.
    ``retry_after`` is the server's backoff hint in seconds; it rides the
    typed error response across the wire and
    :meth:`repro.remote.client.Remote` honors it with jittered
    exponential backoff.
    """

    def __init__(
        self,
        message: str = "server overloaded; retry later",
        retry_after: float = 1.0,
    ):
        super().__init__(message)
        self.retry_after = retry_after


class ProvenanceError(MLCaskError):
    """A lineage-ledger operation or query failed."""


class LineageNotFoundError(ProvenanceError):
    """A lineage query matched nothing (unknown ref or component).

    Travels over the wire as a typed error response (see
    :func:`repro.remote.protocol.raise_remote_error`), so a client asking
    about an artifact the server never recorded gets this rather than a
    generic protocol failure.
    """

    def __init__(self, message: str = "no lineage recorded for that query"):
        super().__init__(message)


class NotFittedError(MLCaskError):
    """An estimator was used before ``fit`` (mirrors sklearn semantics)."""

    def __init__(self, estimator: str):
        super().__init__(f"{estimator} must be fitted before use")
        self.estimator = estimator
