"""Launch ``repro hub serve`` with the layer wrappers installed.

    python traced_hub.py <trace-file> hub serve <root> --port 0

Exactly the command the untraced hub runs, except that the benchmark's
wrappers are in place before ``repro.cli.main`` starts serving. Spans
stay in memory; on SIGTERM the server loop is interrupted, the spans are
folded into the per-layer summary and written to ``<trace-file>``. If the
driver left a ``<trace-file>.window`` (``[start, end]`` on the shared
monotonic clock), only spans inside it count — the timed section, not the
set-up and verification traffic around it.
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import Tracer  # noqa: E402 - needs the path entry above


def main(argv: list[str]) -> int:
    trace_path, serve_args = argv[0], argv[1:]

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, interrupt)
    import repro.cli

    tracer = Tracer().install()
    try:
        code = repro.cli.main(serve_args)  # returns when interrupted
    finally:
        tracer.uninstall()
    window = None
    if os.path.exists(trace_path + ".window"):
        with open(trace_path + ".window") as fh:
            window = tuple(json.load(fh))
    with open(trace_path + ".tmp", "w") as fh:
        json.dump(tracer.summary(window), fh)
    os.replace(trace_path + ".tmp", trace_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
