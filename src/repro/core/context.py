"""Execution context threaded through component runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


@dataclass
class ExecutionContext:
    """Carries the run's seeded RNG and the metric being optimized.

    Components receive the RNG (never the global numpy state) so that
    identical (component version, input) pairs produce identical outputs —
    a precondition for checkpoint reuse to be semantically safe.
    """

    seed: int = 0
    metric: str = "accuracy"
    extras: dict = field(default_factory=dict)

    def rng_for(self, component_fingerprint: str) -> np.random.Generator:
        """Per-component generator derived from the run seed and the
        component identity, so reordering stages cannot leak randomness
        between components. Uses the fingerprint's own hex digits rather
        than ``hash()``, which is process-salted and would break
        cross-process determinism."""
        import numpy as np  # drawn only where a component runs (client tier)

        stable = int(component_fingerprint[:15] or "0", 16)
        mixed = (self.seed * 1_000_003 + stable) % (2**63)
        return np.random.default_rng(mixed)
