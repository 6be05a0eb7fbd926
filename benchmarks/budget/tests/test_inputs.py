"""Seed in, inputs out: the same seed gives the same plan and the same bytes."""

import numpy as np

from feed import APPEND_SHARE, REWRITE_SHARE, Feed
from repro.data.serialize import payload_to_bytes
from workloads import ReadStorm, WORKLOADS


def test_same_seed_same_feed_bytes():
    one, two = Feed(11, stream=1, rows=2000), Feed(11, stream=1, rows=2000)
    for version in (0, 3, 1):  # also out of order: a replay from the base
        assert payload_to_bytes(one.table(version)) == payload_to_bytes(two.table(version))
    assert payload_to_bytes(one.table(2)) != payload_to_bytes(Feed(12, 1, 2000).table(2))
    assert payload_to_bytes(one.table(2)) != payload_to_bytes(Feed(11, 2, 2000).table(2))


def test_a_version_rewrites_a_slab_and_appends():
    feed = Feed(5, rows=1000)
    old, new = feed._matrix(0).copy(), feed._matrix(1)
    appended = int(1000 * APPEND_SHARE)
    assert new.shape[0] == old.shape[0] + appended
    changed = np.flatnonzero((new[: old.shape[0]] != old).any(axis=1))
    assert len(changed) == int(1000 * REWRITE_SHARE)
    assert changed[-1] - changed[0] == len(changed) - 1  # one contiguous slab


def test_same_seed_same_components():
    one, two = Feed(4), Feed(4)
    for stage in ("dataset", "clean", "model"):
        assert one.component(stage, 2).fingerprint == two.component(stage, 2).fingerprint
        assert one.component(stage, 2).fingerprint != one.component(stage, 3).fingerprint


def test_same_seed_same_read_plan_with_the_fixed_mix():
    first = ReadStorm(9, 14.0, quick=True)
    again = ReadStorm(9, 14.0, quick=True)
    other = ReadStorm(10, 14.0, quick=True)
    assert first.plan(0) == again.plan(0)
    assert first.plan(0) != first.plan(1)
    assert first.plan(0) != other.plan(0)
    for block in first.plan(0):
        assert sorted(block) == sorted(ReadStorm.BLOCK)  # 6 polls, 3 fetches, 1 clone


def test_op_counts_follow_from_seconds_alone():
    for cls in WORKLOADS.values():
        sizes = [vars(cls(seed, 14.0)) for seed in (1, 2)]
        for key in ("cycles", "blocks", "iterations", "rounds", "history"):
            assert sizes[0].get(key) == sizes[1].get(key)
    assert WORKLOADS["collab_cycle"](0, 28.0).cycles == 2 * WORKLOADS["collab_cycle"](0, 14.0).cycles
