"""Structured one-line JSON events: the operator-facing log surface.

An *event* is one JSON object on one line — machine-parseable (a test
or supervisor can wait on ``"event": "serve.ready"`` instead of
sleeping) and still readable by a human tailing the stream. Events are
flushed immediately: readiness lines must be visible the moment the
endpoint is bound, even through a pipe's block buffering — the failure
mode that made ``repro serve`` look silent to anything but a terminal.

Used for lifecycle signals (server startup, shutdown) and structured
warnings (a transport replaying onto a fresh socket); high-frequency
per-request signals belong in :mod:`repro.obs.metrics` instead.
"""

from __future__ import annotations

import json
import sys
import time


def emit(event: str, stream=None, **fields) -> dict:
    """Write one structured event line to ``stream`` (default stderr).

    Returns the record (with its ``event`` name and ``ts`` wall-clock
    timestamp) so callers can reuse or assert on it. Fields must be
    JSON-serializable; anything that is not is stringified rather than
    killing the caller — an event line is telemetry, never control flow.
    """
    record = {"event": event, "ts": round(time.time(), 6), **fields}
    try:
        line = json.dumps(record, sort_keys=True)
    except (TypeError, ValueError):
        line = json.dumps(
            {k: str(v) for k, v in record.items()}, sort_keys=True
        )
    out = stream if stream is not None else sys.stderr
    print(line, file=out, flush=True)
    return record
