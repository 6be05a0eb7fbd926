"""The performance budget's contract with ``src/repro``.

``benchmarks/budget/layers.py`` wraps callables by dotted name at run
time; a rename (or a method that becomes merely inherited) crashes the
traced benchmark pass. Resolving every target here, with the budget's
own resolver, makes that a tier-1 failure instead of an acceptance-
pipeline one.
"""

import importlib.util
import os

import pytest

LAYERS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir, os.pardir, "benchmarks", "budget", "layers.py",
)


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("budget_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_resolves(layers):
    targets = [
        target for entries in layers.LAYERS.values() for target, _ in entries
    ]
    assert len(targets) > 40
    for target in targets:
        _, _, function = layers._resolve(target)
        assert callable(function), target
