"""Declarative service-level objectives for the serving stack.

The policy half of self-aware serving (:mod:`repro.obs.health` is the
measurement half): an :class:`SLOConfig` names, per wire operation, the
latency the server promises (p99 seconds) and, globally, how much
failure the deployment tolerates (the error budget) and how fast
burning through that budget may go before readiness flips.

Two consumers with deliberately different signals:

* **readiness** (``GET /readyz``) flips on error-budget *burn* — a
  symptom that outlasts any single request;
* **load shedding** (the hub admission pipeline) triggers on windowed
  per-op latency exceeding its objective, never on burn: shed requests
  are answered as typed errors, and an error-driven shedder would feed
  its own signal and latch itself on.

Everything here is plain data — JSON-loadable via :meth:`SLOConfig.load`
(the ``--slo-config`` flag on both serve verbs) — so operators tune
objectives without touching code. :data:`DEFAULT_OP_OBJECTIVES` is
derived from the op table (:mod:`repro.ops`), where an entry cannot be
written without its objective — a new RPC cannot ship invisible to the
health model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..ops import OP_TABLE

#: Default per-op p99 latency objectives (seconds): the ``p99_seconds``
#: column of the op table, so it covers every wire op by construction.
DEFAULT_OP_OBJECTIVES = {
    spec.name: spec.p99_seconds for spec in OP_TABLE.values()
}

#: Default availability objective: at most 1% of requests may fail
#: before the error budget is spent.
DEFAULT_AVAILABILITY = 0.99

#: Burn-rate threshold: readiness flips when the window burns budget at
#: >= 14.4x the sustainable rate (the classic page-worthy figure: a
#: 30-day budget gone in ~2 days).
DEFAULT_BURN = 14.4


@dataclass(frozen=True)
class SLObjective:
    """One operation's promise: p99 latency under ``p99_seconds``."""

    op: str
    p99_seconds: float

    def to_dict(self) -> dict:
        return {"op": self.op, "p99_seconds": self.p99_seconds}


@dataclass
class SLOConfig:
    """The serving stack's objectives plus the knobs that act on them.

    ``window_seconds``/``tick_seconds`` shape the one sliding window the
    health model aggregates over — the horizon of both the shed signal
    and the error-budget burn readiness watches (``burn_threshold``).
    ``min_samples`` keeps one slow outlier (or one failure) from
    tripping the shedder (or readiness) on a quiet server.
    ``retry_after_seconds`` rides every
    :class:`~repro.errors.ServerOverloadedError` as the client's backoff
    hint; ``shed_enabled`` turns admission shedding off wholesale
    (readiness keeps reporting either way).
    """

    objectives: dict[str, SLObjective] = field(default_factory=dict)
    availability: float = DEFAULT_AVAILABILITY
    window_seconds: float = 30.0
    tick_seconds: float = 1.0
    burn_threshold: float = DEFAULT_BURN
    min_samples: int = 20
    retry_after_seconds: float = 1.0
    shed_enabled: bool = True

    def __post_init__(self) -> None:
        # Plain ``{op: seconds}`` dicts are accepted wherever objectives
        # go (constructor, JSON config) and normalized here once.
        self.objectives = {
            op: value
            if isinstance(value, SLObjective)
            else SLObjective(op, float(value))
            for op, value in self.objectives.items()
        }
        self.availability = min(1.0, max(0.0, self.availability))
        self.window_seconds = max(1.0, self.window_seconds)
        self.tick_seconds = max(0.05, self.tick_seconds)

    @property
    def error_budget(self) -> float:
        """Tolerated failure fraction; floored so burn stays finite."""
        return max(1.0 - self.availability, 1e-6)

    def objective_for(self, op: str) -> SLObjective | None:
        return self.objectives.get(op)

    @classmethod
    def default(cls) -> "SLOConfig":
        """The stock config: every wire op covered at its default p99."""
        return cls(
            objectives={
                op: SLObjective(op, seconds)
                for op, seconds in DEFAULT_OP_OBJECTIVES.items()
            }
        )

    @classmethod
    def from_dict(cls, data: dict) -> "SLOConfig":
        """Build from a JSON-shaped dict; unlisted ops keep defaults.

        Shape (all keys optional; exactly the keys :meth:`to_dict`
        emits — anything else, and an objective for an op that is not
        in the op table, is refused by name, so a typo cannot load as a
        silently ignored setting)::

            {"objectives": {"push": 2.0, ...},
             "availability": 0.999,
             "window_seconds": 30, "tick_seconds": 1,
             "burn_threshold": 14.4,
             "min_samples": 20,
             "retry_after_seconds": 1.0, "shed_enabled": true}
        """
        if not isinstance(data, dict):
            raise ValueError("SLO config must be a JSON object")
        config = cls.default()
        unknown = sorted(set(data) - set(config.to_dict()))
        if unknown:
            raise ValueError(f"unknown SLO config key {unknown[0]!r}")
        objectives = data.get("objectives", {})
        if not isinstance(objectives, dict):
            raise ValueError("'objectives' must map op names to seconds")
        for op, seconds in objectives.items():
            if op not in OP_TABLE:
                raise ValueError(f"objective for unknown op {op!r}")
            if not isinstance(seconds, (int, float)) or seconds <= 0:
                raise ValueError(
                    f"objective for {op!r} must be positive seconds"
                )
            config.objectives[op] = SLObjective(op, float(seconds))
        for name in (
            "availability",
            "window_seconds",
            "tick_seconds",
            "burn_threshold",
            "retry_after_seconds",
        ):
            if name in data:
                value = data[name]
                if not isinstance(value, (int, float)) or isinstance(
                    value, bool
                ):
                    raise ValueError(f"{name!r} must be a number")
                setattr(config, name, float(value))
        if "min_samples" in data:
            value = data["min_samples"]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError("'min_samples' must be an integer")
            config.min_samples = value
        if "shed_enabled" in data:
            if not isinstance(data["shed_enabled"], bool):
                raise ValueError("'shed_enabled' must be a boolean")
            config.shed_enabled = data["shed_enabled"]
        config.__post_init__()  # re-clamp after overrides
        return config

    @classmethod
    def load(cls, path: str) -> "SLOConfig":
        """Read a JSON config file (the ``--slo-config`` flag)."""
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "objectives": {
                op: objective.p99_seconds
                for op, objective in sorted(self.objectives.items())
            },
            "availability": self.availability,
            "window_seconds": self.window_seconds,
            "tick_seconds": self.tick_seconds,
            "burn_threshold": self.burn_threshold,
            "min_samples": self.min_samples,
            "retry_after_seconds": self.retry_after_seconds,
            "shed_enabled": self.shed_enabled,
        }


__all__ = [
    "DEFAULT_AVAILABILITY",
    "DEFAULT_BURN",
    "DEFAULT_OP_OBJECTIVES",
    "SLObjective",
    "SLOConfig",
]
