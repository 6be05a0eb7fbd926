"""The two loops over a merge tree that ``search_window`` replaced, against it.

``search_window`` is the only loop over a merge tree: an exhaustive merge
is the loop under the depth-first picker, and a simulated trial is the
loop over ``SearchSimulator.evaluate`` on the simulator's clock.
``reference.py`` keeps the two loops they replaced, frozen:
``reference_execute_tree`` (Algorithm 2's walk) and
``ReferenceSearchSimulator`` (the simulator's own draw loop).

* An exhaustive merge through each agrees in the evaluation sequence,
  every stage of every candidate, the executed/reused flags, the ledger
  rows in order, the totals, the winner and the stored bytes.
* A simulated trial through each agrees step by step: rank, path key,
  score and end time, exactly. Every leaf has a recorded score, as in a
  merge's records, where a history-trained leaf's score is its commit's.
"""

from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.merge import (
    SearchSimulator,
    build_compatibility_lut,
    build_merge_scope,
    build_search_tree,
    leaves,
    mark_checkpointed_nodes,
    metric_merge,
    path_key_of,
    prune_incompatible,
)
from repro.core.merge.metric_merge import MERGE_MODES
from repro.workloads import ALL_WORKLOADS

from engine.reference import ReferenceSearchSimulator, reference_execute_tree
from helpers import oracle_settings
from test_search_oracle import TOY_HISTORIES, flags, merged, stages, summary


def reference_search(root, scope, executor, context, method, **_window):
    assert method == "exhaustive"
    return reference_execute_tree(root, scope, executor, context)


def assert_walks_agree(pipeline, build, mode, seed):
    search = dict(search="exhaustive", mode=mode, seed=seed)
    ours_repo, ours = merged(pipeline, build, **search)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metric_merge, "run_ordered_search", reference_search)
        theirs_repo, theirs = merged(pipeline, build, **search)

    assert stages(ours) == stages(theirs)
    assert flags(ours) == flags(theirs)
    assert summary(ours_repo, ours) == summary(theirs_repo, theirs)
    assert ours.commit.commit_id == theirs.commit.commit_id
    assert ours_repo.lineage.records() == theirs_repo.lineage.records()


@pytest.mark.timeout(300)
@oracle_settings(max_examples=15)
@given(
    history=st.sampled_from(sorted(TOY_HISTORIES)),
    mode=st.sampled_from(MERGE_MODES),
    seed=st.integers(0, 2**16),
)
def test_toy_exhaustive_walks_agree(history, mode, seed):
    assert_walks_agree(*TOY_HISTORIES[history], mode, seed)


@pytest.mark.timeout(300)
@pytest.mark.parametrize("app", sorted(ALL_WORKLOADS))
def test_bundled_app_exhaustive_walks_agree(app_history, app):
    for mode, seed in zip(MERGE_MODES, (0, 3, 0)):
        assert_walks_agree(*app_history(app), mode, seed)


@lru_cache(maxsize=None)
def toy_scope(history: str):
    """The merge scope of a toy history, its component identifiers, and
    path key -> history score of each leaf a commit trained."""
    pipeline, build = TOY_HISTORIES[history]
    repo = build()
    scope = build_merge_scope(
        repo.graph,
        repo.registry,
        repo.spec(pipeline),
        repo.head_commit(pipeline, "master"),
        repo.head_commit(pipeline, "dev"),
    )
    root = build_search_tree(scope)
    mark_checkpointed_nodes(root, scope)
    trained = {
        path_key_of(leaf): leaf.score for leaf in leaves(root) if leaf.score is not None
    }
    keys = [path_key_of(leaf) for leaf in leaves(root)]
    components = sorted({c.identifier for s in scope.stage_order for c in scope.space(s)})
    return scope, components, keys, trained


@st.composite
def simulator_inputs(draw):
    """A toy scope with drawn leaf scores (few distinct values, so ties
    are common) and drawn component costs."""
    history = draw(st.sampled_from(sorted(TOY_HISTORIES)))
    scope, components, keys, trained = toy_scope(history)
    values = st.sampled_from([0.25, 0.5, 0.6, 0.8, 1.0])
    scores = {key: trained.get(key, draw(values)) for key in keys}
    cost = st.floats(0, 1, allow_nan=False)
    costs = {identifier: draw(cost) for identifier in components}
    return scope, scores, costs


@pytest.mark.timeout(300)
@oracle_settings(max_examples=100)
@given(
    inputs=simulator_inputs(),
    mark_history=st.booleans(),
    pruned=st.booleans(),
    method=st.sampled_from(["exhaustive", "prioritized", "random"]),
    seed=st.integers(0, 2**16),
)
def test_simulated_trials_agree(inputs, mark_history, pruned, method, seed):
    scope, scores, costs = inputs
    lut = build_compatibility_lut(scope)
    prune = (lambda root: prune_incompatible(root, lut)) if pruned else None
    ours, theirs = (
        simulator(scope, scores, costs, mark_history, prune).run_trials(method, 3, seed)
        for simulator in (SearchSimulator, ReferenceSearchSimulator)
    )
    assert ours == theirs
