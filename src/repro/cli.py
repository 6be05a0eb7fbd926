"""Command-line interface: demos, experiment drivers, and remote sync.

Usage::

    python -m repro workloads                 # list the evaluated pipelines
    python -m repro demo readmission          # Fig. 3 scenario + merge
    python -m repro experiment table1_optimal_found   # one paper figure/table

    python -m repro init REPO --workload readmission   # repo dir on disk
    python -m repro serve REPO --port 8321             # expose it over HTTP
    python -m repro clone SRC DEST                     # SRC: URL or repo dir
    python -m repro push REPO REMOTE                   # fast-forward publish
    python -m repro pull REPO REMOTE                   # sync (+merge) back
    python -m repro stats REMOTE                       # telemetry readout
    python -m repro stats REMOTE --watch 2             # re-render every 2s
    python -m repro health REMOTE                      # health readout
    python -m repro lineage REMOTE REF                 # provenance closure
    python -m repro impact REMOTE COMPONENT            # what-if analysis
    python -m repro gc REPO                            # sweep dead chunks

    python -m repro run REPO --workload readmission    # run the branch head
    python -m repro merge REPO master dev              # metric-driven merge

    python -m repro hub init HUB                       # multi-tenant hub dir
    python -m repro hub add-tenant HUB ana --token SECRET --quota-bytes 10000000
    python -m repro hub serve HUB --port 8321          # serve every repo
    # then, from any client:
    python -m repro push REPO http://host:8321 --tenant ana/proj --token SECRET

Remotes are either ``http://host:port`` endpoints (a running ``serve``)
or plain repository-directory paths, synced in-process through the same
wire protocol; hub-hosted repositories are addressed as
``http://host:port/t/<tenant>/<repo>`` (or a base URL plus
``--tenant tenant/repo``) with a ``--token`` bearer credential.
``--scale`` resizes workloads, ``--seed`` fixes all randomness; an
``experiment`` runs at the sizes of ``repro.experiments.figures``.
"""

from __future__ import annotations

import argparse
import sys


def _positive_int(value: str) -> int:
    number = int(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return number


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MLCask reproduction: pipeline version control demos "
        "and experiment drivers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the paper's evaluated pipelines")

    demo = sub.add_parser("demo", help="run the Fig. 3 two-branch scenario")
    demo.add_argument("workload", choices=["readmission", "dpm", "sa", "autolearn"])
    demo.add_argument("--scale", type=float, default=0.5)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--mode", choices=["pcpr", "pc_only", "none"], default="pcpr",
        help="merge mode (ablations: pc_only = w/o PR, none = w/o PCPR)",
    )

    experiment = sub.add_parser("experiment", help="regenerate a paper figure/table")
    experiment.add_argument(
        "name", help="a record name of repro.experiments.figures.FIGURES, "
        "e.g. fig5_linear_total_time or table1_optimal_found",
    )
    experiment.add_argument("--seed", type=int, default=0)

    init = sub.add_parser(
        "init", help="create an on-disk repository seeded with a workload"
    )
    init.add_argument("repo", help="repository directory to create")
    init.add_argument(
        "--workload", choices=["readmission", "dpm", "sa", "autolearn"],
        default="readmission",
    )
    init.add_argument("--scale", type=float, default=0.5)
    init.add_argument("--seed", type=int, default=0)
    init.add_argument(
        "--commits", type=int, default=1,
        help="model-update commits to create after master.0.0",
    )

    run = sub.add_parser(
        "run", help="run a pipeline's branch head against the checkpoint store"
    )
    run.add_argument("repo", help="repository directory (see `repro init`)")
    run.add_argument("--pipeline", default=None)
    run.add_argument("--branch", default="master")
    run.add_argument(
        "--workers", type=_positive_int, default=1,
        help="stage-parallel threads for pipelines that branch (default 1: "
        "sequential; every bundled workload is a chain and runs inline at "
        "any value)",
    )
    _add_rebind_arguments(run)

    merge = sub.add_parser(
        "merge", help="metric-driven merge of one branch into another"
    )
    merge.add_argument("repo", help="repository directory (see `repro init`)")
    merge.add_argument("head_branch", help="branch merged into (HEAD)")
    merge.add_argument("merge_head_branch", help="branch merged from (MERGE_HEAD)")
    merge.add_argument("--pipeline", default=None)
    merge.add_argument(
        "--mode", choices=["pcpr", "pc_only", "none"], default="pcpr",
        help="merge mode (ablations: pc_only = w/o PR, none = w/o PCPR)",
    )
    merge.add_argument(
        "--search", choices=["prioritized", "random", "exhaustive"],
        default="prioritized",
        help="candidate order (default: the paper's prioritized search; "
        "exhaustive enumerates depth-first and is always sequential)",
    )
    merge.add_argument(
        "--budget", type=_positive_int, default=None,
        help="cap on evaluated candidates (default: search everything)",
    )
    merge.add_argument(
        "--time-budget", type=float, default=None,
        help="wall-clock budget in seconds for the ordered searches",
    )
    merge.add_argument(
        "--workers", type=_positive_int, default=1,
        help="width W of the ordered search's draw window: each pick sees "
        "the scores of all but the last W-1 candidates drawn (default 1: "
        "the paper's sequential search; candidates always run one at a "
        "time on one thread)",
    )
    _add_rebind_arguments(merge)

    serve = sub.add_parser(
        "serve", help="serve a repository directory over HTTP"
    )
    serve.add_argument("repo", help="repository directory to serve")
    _add_serve_arguments(
        serve,
        cache_help="read-response cache slots, invalidated on push (0 disables)",
    )

    clone = sub.add_parser("clone", help="clone a remote into a new directory")
    clone.add_argument("source", help="http:// URL or repository directory")
    clone.add_argument("dest", help="directory to create the clone in")
    _add_max_pack_bytes_argument(clone, "wire message")
    _add_hub_client_arguments(clone)

    push = sub.add_parser("push", help="publish a branch to a remote")
    push.add_argument("repo", help="local repository directory")
    push.add_argument("remote", help="http:// URL or repository directory")
    push.add_argument("--pipeline", default=None)
    push.add_argument("--branch", default="master")
    _add_max_pack_bytes_argument(push, "wire message")
    _add_hub_client_arguments(push)

    pull = sub.add_parser("pull", help="sync a branch from a remote")
    pull.add_argument("repo", help="local repository directory")
    pull.add_argument("remote", help="http:// URL or repository directory")
    pull.add_argument("--pipeline", default=None)
    pull.add_argument("--branch", default="master")
    _add_max_pack_bytes_argument(pull, "wire message")
    _add_hub_client_arguments(pull)

    stats = sub.add_parser(
        "stats",
        help="read a server's telemetry (request counts, cache hit rate, "
        "storage bytes) over the wire",
    )
    stats.add_argument("target", help="http:// URL or repository directory")
    _add_json_argument(stats, "the raw stats object")
    stats.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="re-fetch and re-render every SECONDS seconds until "
        "interrupted (Ctrl-C exits cleanly)",
    )
    _add_hub_client_arguments(stats)

    health = sub.add_parser(
        "health",
        help="read a server's sliding-window health model: readiness, "
        "per-op latency percentiles vs objectives, error-budget "
        "burn, and overload-shedding state",
    )
    health.add_argument("target", help="http:// URL or repository directory")
    _add_json_argument(health, "the raw health object")
    _add_hub_client_arguments(health)

    lineage = sub.add_parser(
        "lineage",
        help="query a repository's provenance ledger: the upstream closure "
        "of an output, or its consumers",
    )
    lineage.add_argument("target", help="http:// URL or repository directory")
    lineage.add_argument(
        "ref", help="output ref (full digest or unique prefix)",
    )
    lineage.add_argument(
        "--consumers", action="store_true",
        help="list what consumed REF downstream instead of its upstream "
        "closure",
    )
    _add_json_argument(lineage, "the raw lineage object")
    _add_hub_client_arguments(lineage)

    impact = sub.add_parser(
        "impact",
        help="what-if analysis: which checkpoints and branch heads a "
        "component change would invalidate",
    )
    impact.add_argument("target", help="http:// URL or repository directory")
    impact.add_argument(
        "component",
        help="component identifier (name or name@version, e.g. mlp@2.0.0)",
    )
    impact.add_argument(
        "--component-version", default=None, metavar="VERSION",
        help="restrict the match to one version of the component",
    )
    _add_json_argument(impact, "the raw impact object")
    _add_hub_client_arguments(impact)

    gc = sub.add_parser(
        "gc", help="sweep chunks no commit references from a repository directory"
    )
    gc.add_argument("repo", help="repository directory (see `repro init`)")
    gc.add_argument(
        "--keep-checkpoints", action="store_true",
        help="treat archived checkpoint records as live roots too "
        "(default: prune records whose output no commit references)",
    )

    hub = sub.add_parser(
        "hub", help="multi-tenant repository hub (many repos, one process)"
    )
    hub_sub = hub.add_subparsers(dest="hub_command", required=True)

    hub_init = hub_sub.add_parser("init", help="create an empty hub directory")
    hub_init.add_argument("root", help="hub directory to create")

    hub_tenant = hub_sub.add_parser(
        "add-tenant", help="register (or reconfigure) a tenant"
    )
    hub_tenant.add_argument("root", help="hub directory")
    hub_tenant.add_argument("name", help="tenant name")
    hub_tenant.add_argument(
        "--token", action="append", required=True, dest="tokens",
        help="bearer token for this tenant (repeatable; replaces prior set)",
    )
    hub_tenant.add_argument(
        "--quota-bytes", type=_positive_int, default=None,
        help="cap on tenant-logical reachable bytes (default: unlimited)",
    )

    hub_create = hub_sub.add_parser(
        "create-repo", help="create an empty repository in a tenant namespace"
    )
    hub_create.add_argument("root", help="hub directory")
    hub_create.add_argument("slug", help="tenant/repo")
    hub_create.add_argument("--metric", default=None)
    hub_create.add_argument("--seed", type=int, default=None)

    hub_gc = hub_sub.add_parser(
        "gc", help="sweep a hosted repository's unreferenced content"
    )
    hub_gc.add_argument("root", help="hub directory")
    hub_gc.add_argument("slug", help="tenant/repo")

    hub_serve = hub_sub.add_parser(
        "serve", help="serve every hosted repository over HTTP"
    )
    hub_serve.add_argument("root", help="hub directory")
    _add_serve_arguments(
        hub_serve, cache_help="per-repo read-response cache slots (0 disables)"
    )
    hub_serve.add_argument(
        "--max-loaded-repos", type=_positive_int, default=None,
        help="repositories kept resident before LRU eviction (default 16)",
    )
    pull.add_argument(
        "--workload", choices=["readmission", "dpm", "sa", "autolearn"],
        default=None,
        help="rebind component executables from this workload family so a "
        "diverged pull can run the metric-driven merge (use the same "
        "--scale/--seed the repository was built with)",
    )
    pull.add_argument("--scale", type=float, default=0.5)
    pull.add_argument("--seed", type=int, default=0)
    return parser


def _add_json_argument(parser, what: str) -> None:
    parser.add_argument(
        "--json", action="store_true", help=f"emit {what} as one JSON document"
    )


def _add_max_pack_bytes_argument(parser, per: str) -> None:
    parser.add_argument(
        "--max-pack-bytes", type=_positive_int, default=None,
        help=f"chunk payload window per {per} (default 4 MiB)",
    )


def _add_hub_client_arguments(parser) -> None:
    """Options the remote verbs need to talk to a multi-tenant hub."""
    parser.add_argument(
        "--token", default=None,
        help="bearer token for a multi-tenant hub remote",
    )
    parser.add_argument(
        "--tenant", default=None, metavar="TENANT/REPO",
        help="address a hub-hosted repository: the remote URL is taken as "
        "the hub base and TENANT/REPO is appended as /t/TENANT/REPO",
    )


def _add_serve_arguments(parser, cache_help: str) -> None:
    """Listening and sizing flags shared by ``serve`` and ``hub serve``."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321)
    parser.add_argument(
        "--requests", type=int, default=None,
        help="exit after handling N requests (default: serve forever)",
    )
    _add_max_pack_bytes_argument(parser, "get_chunks response")
    parser.add_argument("--cache-entries", type=int, default=128, help=cache_help)
    parser.add_argument(
        "--max-request-bytes", type=_positive_int, default=256 * 1024 * 1024,
        help="reject request bodies above this size with HTTP 413 "
        "(default 256 MiB)",
    )


def _add_rebind_arguments(parser) -> None:
    """Options shared by verbs that must *execute* loaded pipelines: a
    repository directory carries commits, not executables (the paper's
    library-repository separation), so live components are rebound from a
    workload family (fingerprint-verified)."""
    parser.add_argument(
        "--workload", choices=["readmission", "dpm", "sa", "autolearn"],
        default=None,
        help="rebind component executables from this workload family "
        "(use the same --scale/--seed the repository was built with)",
    )
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)


def _load_runnable_repo(args, out):
    """Load a repository directory, rebinding workload executables."""
    from .core.repository import MLCask

    repo = MLCask.load_dir(args.repo)
    if args.workload is not None:
        from .workloads import ALL_WORKLOADS

        workload = ALL_WORKLOADS[args.workload](scale=args.scale, seed=args.seed)
        bound = workload.rebind(repo)
        print(
            f"rebound {bound} components from workload {args.workload!r}", file=out
        )
    return repo


def _hint_rebind(error):
    from .errors import RepositoryError

    if "unknown component" in str(error):
        return RepositoryError(
            f"{error}; executing loaded history needs live components — "
            "retry with --workload (and the --scale/--seed the repository "
            "was built with)"
        )
    return error


def _cmd_run(args, out) -> int:
    from .errors import RepositoryError

    repo = _load_runnable_repo(args, out)
    pipeline = _only_pipeline(repo, args.pipeline)
    try:
        report = repo.run_head(pipeline, args.branch, workers=args.workers)
    except RepositoryError as error:
        raise _hint_rebind(error) from error
    for stage_report in report.stage_reports:
        status = "reused" if stage_report.reused else (
            "failed" if stage_report.failed else "executed"
        )
        print(
            f"  {stage_report.stage:12s} {status:8s} "
            f"{stage_report.run_seconds + stage_report.store_seconds:8.3f}s  "
            f"{stage_report.component_id}",
            file=out,
        )
    if report.failed:
        print(
            f"run failed at {report.failure_stage!r}: {report.failure_reason}",
            file=out,
        )
        return 1
    repo.save_dir(args.repo)  # persist newly archived checkpoints
    score = "n/a" if report.score is None else f"{report.score:.4f}"
    print(
        f"ran {pipeline}:{args.branch} with {args.workers} worker(s): "
        f"score {score}, {report.n_executed} executed / "
        f"{report.n_reused} reused, {report.pipeline_seconds:.3f}s pipeline time",
        file=out,
    )
    return 0


def _cmd_merge(args, out) -> int:
    from .errors import RepositoryError

    repo = _load_runnable_repo(args, out)
    pipeline = _only_pipeline(repo, args.pipeline)
    try:
        outcome = repo.merge(
            pipeline,
            args.head_branch,
            args.merge_head_branch,
            mode=args.mode,
            search=args.search,
            budget=args.budget,
            time_budget_seconds=args.time_budget,
            workers=args.workers,
        )
    except RepositoryError as error:
        raise _hint_rebind(error) from error
    repo.save_dir(args.repo)
    print(outcome.summary(), file=out)
    print(f"winner: {outcome.commit.describe()}", file=out)
    return 0


def _cmd_workloads(out) -> int:
    from .workloads import ALL_WORKLOADS

    for name, factory in ALL_WORKLOADS.items():
        workload = factory()
        stages = " -> ".join(["dataset", *workload.stage_names])
        print(f"{name:12s} {stages}  (metric: {workload.metric})", file=out)
    return 0


def _cmd_demo(args, out) -> int:
    from .core.repository import MLCask
    from .workloads import ALL_WORKLOADS, apply_nonlinear_history, nonlinear_script

    workload = ALL_WORKLOADS[args.workload](scale=args.scale, seed=args.seed)
    repo = MLCask(metric=workload.metric, seed=args.seed)
    print(f"building the Fig. 3 history for {workload.name!r} ...", file=out)
    apply_nonlinear_history(repo, nonlinear_script(workload))
    print(repo.log(workload.name, "dev"), file=out)
    print(repo.log(workload.name, "master"), file=out)
    outcome = repo.merge(workload.name, "master", "dev", mode=args.mode)
    print(f"\n{outcome.summary()}", file=out)
    print(f"winner: {outcome.commit.describe()}", file=out)
    print(f"\n{repo.diff(workload.name, outcome.commit.parents[0], 'master')}", file=out)
    return 0


def _cmd_experiment(args, out) -> int:
    from .experiments.figures import FIGURES

    figure = FIGURES.get(args.name)
    if figure is None:
        print(
            f"error: unknown figure {args.name!r}; one of: {', '.join(FIGURES)}",
            file=out,
        )
        return 2
    record = figure.run(figure.sizes["full"], args.seed)
    print(record["table"], file=out)
    return 0


# ------------------------------------------------------------ remote verbs
def _split_slug(slug: str, expects: str) -> tuple[str, str]:
    """``TENANT/REPO`` -> ``(tenant, repo)``; ``expects`` opens the error."""
    from .errors import RemoteError

    parts = slug.split("/")
    if len(parts) != 2 or not all(parts):
        raise RemoteError(f"{expects} TENANT/REPO, got {slug!r}")
    return parts[0], parts[1]


def _resolve_remote_target(target: str, tenant: str | None) -> str:
    """Append a ``--tenant tenant/repo`` slug to a hub base URL."""
    from .errors import RemoteError

    if tenant is None:
        return target
    if not target.startswith(("http://", "https://")):
        raise RemoteError(
            "--tenant addresses a hub over HTTP; the remote must be an "
            "http(s) base URL"
        )
    tenant, repo = _split_slug(tenant, "--tenant expects")
    return f"{target.rstrip('/')}/t/{tenant}/{repo}"


def _transport_for(target: str, persist: bool = False, token: str | None = None):
    """A transport to ``target``: HTTP URL or repository-directory path.

    Directory remotes are loaded and served in-process over the same wire
    protocol as HTTP; with ``persist`` every ref-moving push is saved
    back to the directory before it is answered (what it added is
    appended to the journals, then committed by the header).
    ``token`` rides as a bearer credential on HTTP remotes (hubs).
    """
    from .core.repository import MLCask
    from .errors import RemoteError
    from .remote.server import RepositoryServer
    from .remote.transport import HttpTransport, LocalTransport

    if target.startswith(("http://", "https://")):
        return HttpTransport(target, token=token)
    if token is not None:
        raise RemoteError("--token only applies to http(s) remotes")
    on_change = (lambda repo: repo.save_dir(target)) if persist else None
    return LocalTransport(
        RepositoryServer(MLCask.load_dir(target), on_change=on_change)
    )


def _only_pipeline(repo, requested: str | None) -> str:
    from .errors import RepositoryError

    if requested is not None:
        return requested
    pipelines = repo.branches.pipelines()
    if len(pipelines) == 1:
        return pipelines[0]
    raise RepositoryError(
        f"--pipeline required (repository has {len(pipelines)} pipelines: "
        f"{', '.join(pipelines) or 'none'})"
    )


def _cmd_init(args, out) -> int:
    from .core.repository import MLCask
    from .workloads import ALL_WORKLOADS

    workload = ALL_WORKLOADS[args.workload](scale=args.scale, seed=args.seed)
    repo = MLCask(metric=workload.metric, seed=args.seed)
    repo.create_pipeline(
        workload.spec, workload.initial_components(), message="initial pipeline"
    )
    for idx in range(1, args.commits + 1):
        repo.commit(
            workload.name,
            {workload.model_stage: workload.model_version(idx)},
            message=f"model update {idx}",
        )
    repo.save_dir(args.repo)
    head = repo.head_commit(workload.name)
    print(
        f"initialized {args.repo}: pipeline {workload.name!r} "
        f"at {head.label} ({len(repo.graph)} commits)",
        file=out,
    )
    return 0


def _cmd_serve(args, out) -> int:
    from .core.repository import MLCask
    from .remote.pack import DEFAULT_MAX_PACK_BYTES
    from .remote.server import serve

    def start(idle_timeout):
        repo = MLCask.load_dir(args.repo)
        server = serve(
            repo,
            host=args.host,
            port=args.port,
            on_change=lambda r: r.save_dir(args.repo),
            max_pack_bytes=(
                args.max_pack_bytes
                if args.max_pack_bytes is not None
                else DEFAULT_MAX_PACK_BYTES
            ),
            cache_entries=args.cache_entries,
            max_request_bytes=args.max_request_bytes,
            idle_timeout=idle_timeout,
        )
        print(f"serving {args.repo} at {server.url}/rpc", file=out)
        return server, "serve.ready", {
            "endpoint": f"{server.url}/rpc",
            "repo": args.repo,
            "commits": len(repo.graph),
        }

    return _serve_endpoint(args, out, start)


def _serve_endpoint(args, out, start) -> int:
    """The one body of ``serve`` and ``hub serve``, from binding the
    server to serving until the budget is spent.

    ``start(idle_timeout)`` builds what is served and binds the server
    with the idle timeout both verbs share, prints its banner
    and returns ``(server, ready event, its fields)``. Before it runs,
    malloc is capped at one heap (:func:`~repro.remote.server.share_one_heap`),
    so no handler thread gets a heap of its own.
    Bounded serving (``--requests N``) counts handled *requests*, not
    accepted connections — keep-alive clients multiplex many requests
    over one socket (handlers stop honouring keep-alive once the budget
    is spent, see request_limit). The accept timeout lets the loop
    re-check the count while the last connection is still open, and
    daemon_threads=False makes server_close() join the handler threads
    so no response is left in flight.
    """
    from .obs.events import emit
    from .remote.server import share_one_heap

    share_one_heap()
    server, event, fields = start(
        # Bounded serving must return promptly after the Nth request even
        # when clients leave keep-alive sockets open: a short idle timeout
        # lets server_close() join the handler threads without waiting out
        # the default 60s (clients transparently reconnect if they resume).
        # 5s, not shorter: the same timeout governs mid-body reads, and a
        # request stalled past it is dropped *and* charged to the budget.
        idle_timeout=5.0 if args.requests is not None else None,
    )
    # One machine-parseable readiness line after the human one: tests and
    # supervisors wait on the event instead of sleeping or scraping prose.
    emit(
        event,
        stream=out,
        **fields,
        request_budget=args.requests,
        max_request_bytes=args.max_request_bytes,
    )
    try:
        if args.requests is not None:
            server.daemon_threads = False
            server.timeout = 0.2
            server.request_limit = args.requests
            while server.endpoint.requests_handled < args.requests:
                server.handle_request()
        else:
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_clone(args, out) -> int:
    import os

    from .core.repository import MLCask
    from .errors import RemoteError

    if os.path.exists(args.dest) and (
        not os.path.isdir(args.dest) or os.listdir(args.dest)
    ):
        raise RemoteError(f"destination {args.dest!r} exists and is not empty")
    source = _resolve_remote_target(args.source, args.tenant)
    transport = _transport_for(source, token=args.token)
    try:
        repo = MLCask.clone(transport, max_pack_bytes=args.max_pack_bytes)
    finally:
        transport.close()
    repo.save_dir(args.dest)
    n_refs = sum(
        len([b for b in repo.branches.branches(p) if "/" not in b])
        for p in repo.branches.pipelines()
    )
    print(
        f"cloned {args.source} -> {args.dest}: {len(repo.graph)} commits, "
        f"{n_refs} refs, {transport.bytes_transferred} bytes on the wire",
        file=out,
    )
    return 0


def _cmd_push(args, out) -> int:
    from .core.repository import MLCask

    repo = MLCask.load_dir(args.repo)
    pipeline = _only_pipeline(repo, args.pipeline)
    remote = repo.add_remote(
        "origin",
        _transport_for(
            _resolve_remote_target(args.remote, args.tenant),
            persist=True,
            token=args.token,
        ),
        max_pack_bytes=args.max_pack_bytes,
    )
    try:
        result = remote.push(pipeline, args.branch)
    finally:
        remote.transport.close()
    if result.up_to_date:
        print(f"{pipeline}:{args.branch} already up to date", file=out)
    else:
        print(
            f"pushed {pipeline}:{args.branch}: {result.commits_sent} commits, "
            f"{result.chunks_sent} chunks ({result.chunk_bytes_sent} bytes)",
            file=out,
        )
    return 0


def _cmd_pull(args, out) -> int:
    from .core.repository import MLCask

    repo = MLCask.load_dir(args.repo)
    pipeline = _only_pipeline(repo, args.pipeline)
    remote = repo.add_remote(
        "origin",
        _transport_for(
            _resolve_remote_target(args.remote, args.tenant), token=args.token
        ),
        max_pack_bytes=args.max_pack_bytes,
    )
    if args.workload is not None:
        from .workloads import ALL_WORKLOADS

        # Fetch first so components referenced only by upstream commits
        # are part of the history being rebound.
        remote.fetch(pipeline, [args.branch])
        workload = ALL_WORKLOADS[args.workload](scale=args.scale, seed=args.seed)
        bound = workload.rebind(repo)
        print(f"rebound {bound} components from workload {args.workload!r}", file=out)
    from .errors import RemoteError, RepositoryError

    try:
        result = remote.pull(pipeline, args.branch)
    except RepositoryError as error:
        if "unknown component" in str(error):
            raise RemoteError(
                f"{error}; a diverged pull runs the metric-driven merge, "
                "which needs live components — retry with --workload "
                "(and the --scale/--seed the repository was built with)"
            ) from error
        raise
    finally:
        remote.transport.close()
    repo.save_dir(args.repo)
    line = (
        f"pulled {pipeline}:{args.branch}: {result.action}, "
        f"{result.fetch.commits_received} commits, "
        f"{result.fetch.chunks_received} chunks received"
    )
    if result.outcome is not None:
        line += f"\n{result.outcome.summary()}"
    print(line, file=out)
    return 0


def _readout(args, out, query, render) -> int:
    """The readout verbs' one body: resolve the target -> transport ->
    ``query(remote)`` on one repository-less :class:`Remote` -> close ->
    ``--json`` or ``render(args, result, out)``.

    ``stats --watch N`` repeats query and output every N seconds on the
    one transport (keep-alive, not a fresh connection per refresh), each
    stamped, until Ctrl-C — its documented exit path."""
    import json
    import time

    from .remote.client import Remote

    target = _resolve_remote_target(args.target, args.tenant)
    transport = _transport_for(target, token=args.token)
    # repo=None: a readout is a pure query, no local repository involved
    # (the same probe shape clone uses for the manifest).
    remote = Remote(repo=None, transport=transport)
    watch = getattr(args, "watch", None)

    def once() -> None:
        result = query(remote)
        if watch is not None:
            print(f"--- {time.strftime('%H:%M:%S')} ---", file=out)
        if args.json:
            print(json.dumps(result, indent=2, sort_keys=True), file=out)
        else:
            render(args, result, out)

    try:
        once()
        while watch is not None:
            time.sleep(max(watch, 0.1))
            once()
    except KeyboardInterrupt:
        if watch is None:
            raise
    finally:
        transport.close()
    return 0


def _cmd_stats(args, out) -> int:
    """The ``stats`` op as a verb: one server's counters, human or JSON;
    ``--watch N`` re-fetches and re-renders every N seconds."""
    return _readout(args, out, lambda remote: remote.stats(), _render_stats)


def _render_stats(args, stats, out) -> None:
    cache = stats.get("cache", {})
    storage = stats.get("storage", {})
    repository = stats.get("repository", {})
    lineage = stats.get("lineage", {})
    health = stats.get("health", {})
    if health:
        state = "ready" if health.get("ready") else (
            "NOT READY: " + "; ".join(health.get("reasons", []))
        )
        print(
            f"health: {state} ({health.get('window_seconds', 0):g}s window)",
            file=out,
        )
    print(
        f"requests handled: {stats.get('requests_handled', 0)}\n"
        f"cache: {cache.get('hits', 0)} hits, {cache.get('misses', 0)} misses "
        f"(hit rate {cache.get('hit_rate', 0.0):.1%}; "
        f"{cache.get('entries', 0)} entries, {cache.get('bytes', 0)} bytes)\n"
        f"storage: {storage.get('logical_bytes', 0)} logical bytes, "
        f"{storage.get('physical_bytes', 0)} physical, "
        f"{storage.get('read_bytes', 0)} read back\n"
        f"repository: {repository.get('commits', 0)} commits, "
        f"{repository.get('pipelines', 0)} pipelines, "
        f"{repository.get('checkpoints', 0)} checkpoint records\n"
        f"lineage: {lineage.get('records', 0)} records "
        f"({lineage.get('collected', 0)} collected)",
        file=out,
    )


def _cmd_health(args, out) -> int:
    """The ``health`` op as a verb: the sliding-window report, human or
    JSON — readiness, per-op percentiles vs objectives, burn, shedding."""
    return _readout(args, out, lambda remote: remote.health(), _render_health)


def _render_health(args, report, out) -> None:
    from .obs.health import AVAILABILITY

    state = "ready" if report["ready"] else (
        "NOT READY: " + "; ".join(report.get("reasons", []))
    )
    burn = report.get("burn", {})
    shedding = report.get("shedding", {})
    print(
        f"{state} ({report.get('window_seconds', 0):g}s window)\n"
        f"error budget: {AVAILABILITY:.2%} availability "
        f"target; burn {burn.get('burn', 0.0):.2f}x",
        file=out,
    )
    active = "ACTIVE" if shedding.get("active") else "idle"
    print(
        f"shedding: {active}, {shedding.get('total', 0)} shed",
        file=out,
    )
    for op, summary in sorted(report.get("ops", {}).items()):
        if not summary.get("count"):
            continue
        breach = "  << over objective" if summary.get("breach") else ""
        objective = summary.get("objective_p99_seconds")
        objective_text = "-" if objective is None else f"{objective * 1000.0:.0f}"
        print(
            f"  {op:14s} {summary['count']:6d} reqs  "
            f"p50 {summary['p50'] * 1000.0:7.1f} ms  "
            f"p95 {summary['p95'] * 1000.0:7.1f} ms  "
            f"p99 {summary['p99'] * 1000.0:7.1f} ms  "
            f"(objective {objective_text} ms){breach}",
            file=out,
        )


def _cmd_lineage(args, out) -> int:
    """Provenance queries as a verb: closure or consumers."""

    def query(remote):
        if args.consumers:
            return remote.lineage_consumers(args.ref)
        return remote.lineage(args.ref)

    return _readout(args, out, query, _render_lineage)


def _render_lineage(args, result, out) -> None:
    if args.consumers:
        print(
            f"{result['ref'][:12]} feeds {len(result['consumers'])} "
            f"downstream record(s) across {len(result['refs'])} output(s)",
            file=out,
        )
        for record in result["consumers"]:
            print(
                f"  {record['stage']}: {record['component_id']} "
                f"-> {record['output_ref'][:12]} ({record['via']})",
                file=out,
            )
        for commit in result["commits"]:
            kind = "merge" if commit["merge"] else "commit"
            print(
                f"  {kind} {commit['commit_id'][:12]} "
                f"[{commit['pipeline']}:{commit['branch']}] {commit['message']}",
                file=out,
            )
        return
    print(
        f"lineage of {result['ref'][:12]}: {len(result['nodes'])} node(s), "
        f"{len(result['edges'])} edge(s)",
        file=out,
    )
    for node in result["nodes"]:
        swept = " [collected]" if node["collected"] else ""
        print(
            f"  {node['ref'][:12]} {node['stage']}: "
            f"{node['component_id']} "
            f"(executed {node['events'] - node['reuses']}x, "
            f"reused {node['reuses']}x){swept}",
            file=out,
        )
    for commit in result["commits"]:
        kind = "merge" if commit["merge"] else "commit"
        print(
            f"  consumed by {kind} {commit['commit_id'][:12]} "
            f"[{commit['pipeline']}:{commit['branch']}] {commit['message']}",
            file=out,
        )


def _cmd_impact(args, out) -> int:
    """What-if analysis: the downstream invalidation set of a component."""
    return _readout(
        args,
        out,
        lambda remote: remote.impact(args.component, version=args.component_version),
        _render_impact,
    )


def _render_impact(args, result, out) -> None:
    versions = ", ".join(result["matched_versions"]) or "-"
    print(
        f"impact of {result['component']} (versions: {versions}):\n"
        f"  {len(result['outputs'])} direct output(s), "
        f"{len(result['invalidated'])} downstream checkpoint(s) invalidated "
        f"across stages: {', '.join(result['stages']) or '-'}",
        file=out,
    )
    for head in result["branches"]:
        print(f"  would invalidate {head['pipeline']}:{head['branch']}", file=out)
    for commit in result["commits"]:
        kind = "merge" if commit["merge"] else "commit"
        print(
            f"  reaches {kind} {commit['commit_id'][:12]} "
            f"[{commit['pipeline']}:{commit['branch']}]",
            file=out,
        )


def _cmd_gc(args, out) -> int:
    from .core.persistence import gc_repository_dir

    report, pruned_records = gc_repository_dir(
        args.repo, keep_checkpoints=args.keep_checkpoints
    )
    print(
        f"gc {args.repo}: swept {report.swept_chunks} chunks "
        f"({report.swept_bytes} bytes), kept {report.live_chunks} live chunks "
        f"across {report.live_blobs} live blobs, "
        f"pruned {pruned_records} checkpoint records",
        file=out,
    )
    return 0


# --------------------------------------------------------------- hub verbs
def _hub_for(args, **kwargs):
    from .hub import RepositoryHub

    return RepositoryHub(args.root, **kwargs)


def _cmd_hub_init(args, out) -> int:
    hub = _hub_for(args)
    print(
        f"initialized hub at {args.root} "
        f"({len(hub.authenticator.tenants())} tenants); next: "
        f"`repro hub add-tenant {args.root} NAME --token SECRET`",
        file=out,
    )
    return 0


def _cmd_hub_add_tenant(args, out) -> int:
    hub = _hub_for(args)
    config = hub.add_tenant(
        args.name,
        tokens=args.tokens,
        quota_bytes=args.quota_bytes,
    )
    quota = "unlimited" if config.quota_bytes is None else str(config.quota_bytes)
    print(
        f"tenant {config.name!r}: {len(config.tokens)} token(s), "
        f"quota {quota} bytes",
        file=out,
    )
    return 0


def _cmd_hub_create_repo(args, out) -> int:
    tenant, name = _split_slug(args.slug, "expected")
    hub = _hub_for(args)
    repo = hub.create_repo(tenant, name, metric=args.metric, seed=args.seed).server.repo
    print(
        f"created {tenant}/{name} (metric {repo.metric!r}, seed {repo.seed})",
        file=out,
    )
    return 0


def _cmd_hub_gc(args, out) -> int:
    tenant, name = _split_slug(args.slug, "expected")
    hub = _hub_for(args)
    report = hub.gc_repo(tenant, name)
    print(
        f"gc {tenant}/{name}: swept {report.swept_chunks} chunks "
        f"({report.swept_bytes} bytes), kept {report.live_chunks} live "
        f"chunks across {report.live_blobs} live blobs; tenant "
        f"{tenant!r} now uses {hub.tenant_usage(tenant)} bytes",
        file=out,
    )
    return 0


def _cmd_hub_serve(args, out) -> int:
    from .hub import serve_hub

    kwargs = {}
    if args.max_loaded_repos is not None:
        kwargs["max_loaded_repos"] = args.max_loaded_repos
    if args.max_pack_bytes is not None:
        kwargs["max_pack_bytes"] = args.max_pack_bytes

    def start(idle_timeout):
        hub = _hub_for(args, cache_entries=args.cache_entries, **kwargs)
        server = serve_hub(
            hub,
            host=args.host,
            port=args.port,
            max_request_bytes=args.max_request_bytes,
            idle_timeout=idle_timeout,
        )
        tenants = hub.authenticator.tenants()
        print(
            f"serving hub {args.root} at {server.url}/t/<tenant>/<repo>/rpc "
            f"(tenants: {', '.join(c.name for c in tenants) or 'none'})",
            file=out,
        )
        return server, "hub.ready", {
            "endpoint": f"{server.url}/t/<tenant>/<repo>/rpc",
            "root": args.root,
            "tenants": len(tenants),
            "repos": sum(len(hub.list_repos(c.name)) for c in tenants),
            "max_loaded_repos": hub.max_loaded_repos,
        }

    return _serve_endpoint(args, out, start)


def _cmd_hub(args, out) -> int:
    handler = {
        "init": _cmd_hub_init,
        "add-tenant": _cmd_hub_add_tenant,
        "create-repo": _cmd_hub_create_repo,
        "gc": _cmd_hub_gc,
        "serve": _cmd_hub_serve,
    }[args.hub_command]
    return handler(args, out)


def main(argv: list[str] | None = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    from .errors import MLCaskError

    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    if args.command == "workloads":
        return _cmd_workloads(out)
    if args.command == "demo":
        return _cmd_demo(args, out)
    handler = {
        "init": _cmd_init,
        "serve": _cmd_serve,
        "clone": _cmd_clone,
        "push": _cmd_push,
        "pull": _cmd_pull,
        "stats": _cmd_stats,
        "health": _cmd_health,
        "lineage": _cmd_lineage,
        "impact": _cmd_impact,
        "run": _cmd_run,
        "merge": _cmd_merge,
        "gc": _cmd_gc,
        "hub": _cmd_hub,
    }.get(args.command)
    if handler is not None:
        try:
            return handler(args, out)
        except MLCaskError as error:
            print(f"error: {error}", file=out)
            return 1
    return _cmd_experiment(args, out)


if __name__ == "__main__":
    raise SystemExit(main())
