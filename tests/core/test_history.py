"""Commit graph and common-ancestor tests (section V anchor queries)."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commit import PipelineCommit, make_commit_id
from repro.core.history import CommitGraph
from repro.core import SemVer
from repro.errors import CommitNotFoundError, MergeError


def commit(label: str, parents=(), sequence=0) -> PipelineCommit:
    version = SemVer.parse_dotted(label)
    return PipelineCommit(
        commit_id=f"c-{label}",
        pipeline="p",
        version=version,
        branch=version.branch,
        parents=tuple(parents),
        component_versions={},
        component_fingerprints={},
        sequence=sequence,
    )


def fig2_graph() -> tuple[CommitGraph, dict]:
    """master.0.0 -> dev.0.0 -> dev.0.1 -> dev.0.2 (fast-forward shape)."""
    graph = CommitGraph()
    commits = {}
    commits["master.0.0"] = commit("master.0.0", sequence=1)
    commits["dev.0.0"] = commit("dev.0.0", ["c-master.0.0"], 2)
    commits["dev.0.1"] = commit("dev.0.1", ["c-dev.0.0"], 3)
    commits["dev.0.2"] = commit("dev.0.2", ["c-dev.0.1"], 4)
    for c in commits.values():
        graph.add(c)
    return graph, commits


def fig3_graph() -> tuple[CommitGraph, dict]:
    """Two diverged branches as in Fig. 3."""
    graph = CommitGraph()
    commits = {}
    commits["master.0.0"] = commit("master.0.0", sequence=1)
    commits["dev.0.0"] = commit("dev.0.0", ["c-master.0.0"], 2)
    commits["dev.0.1"] = commit("dev.0.1", ["c-dev.0.0"], 3)
    commits["dev.0.2"] = commit("dev.0.2", ["c-dev.0.1"], 4)
    commits["master.0.1"] = commit("master.0.1", ["c-master.0.0"], 5)
    for c in commits.values():
        graph.add(c)
    return graph, commits


class TestGraphBasics:
    def test_add_and_get(self):
        graph, commits = fig2_graph()
        assert graph.get("c-dev.0.1").label == "dev.0.1"
        assert len(graph) == 4

    def test_duplicate_rejected(self):
        graph, _ = fig2_graph()
        with pytest.raises(MergeError):
            graph.add(commit("master.0.0"))

    def test_unknown_parent_rejected(self):
        graph = CommitGraph()
        with pytest.raises(CommitNotFoundError):
            graph.add(commit("dev.0.0", ["missing"]))

    def test_missing_commit(self):
        with pytest.raises(CommitNotFoundError):
            CommitGraph().get("nope")

    def test_all_commits_in_sequence_order(self):
        graph, _ = fig3_graph()
        labels = [c.label for c in graph.all_commits()]
        assert labels == ["master.0.0", "dev.0.0", "dev.0.1", "dev.0.2", "master.0.1"]


class TestAncestry:
    def test_ancestors_inclusive(self):
        graph, _ = fig2_graph()
        assert graph.ancestors("c-dev.0.1") == {
            "c-dev.0.1", "c-dev.0.0", "c-master.0.0",
        }

    def test_ancestors_exclusive(self):
        graph, _ = fig2_graph()
        assert "c-dev.0.1" not in graph.ancestors("c-dev.0.1", include_self=False)

    def test_is_ancestor(self):
        graph, _ = fig3_graph()
        assert graph.is_ancestor("c-master.0.0", "c-dev.0.2")
        assert not graph.is_ancestor("c-dev.0.2", "c-master.0.1")

    def test_multi_parent_ancestry(self):
        graph, _ = fig3_graph()
        merge = commit("master.0.2", ["c-master.0.1", "c-dev.0.2"], 6)
        graph.add(merge)
        ancestors = graph.ancestors("c-master.0.2")
        assert {"c-master.0.1", "c-dev.0.2", "c-master.0.0"} <= ancestors


class TestCommonAncestor:
    def test_diverged_branches(self):
        graph, _ = fig3_graph()
        anc = graph.common_ancestor("c-master.0.1", "c-dev.0.2")
        assert anc.label == "master.0.0"

    def test_fast_forward_shape(self):
        """When HEAD has no commits after the fork, HEAD *is* the ancestor."""
        graph, _ = fig2_graph()
        anc = graph.common_ancestor("c-master.0.0", "c-dev.0.2")
        assert anc.label == "master.0.0"

    def test_after_merge_uses_merge_base(self):
        graph, _ = fig3_graph()
        merge = commit("master.0.2", ["c-master.0.1", "c-dev.0.2"], 6)
        graph.add(merge)
        dev_next = commit("dev.0.3", ["c-dev.0.2"], 7)
        graph.add(dev_next)
        anc = graph.common_ancestor("c-master.0.2", "c-dev.0.3")
        assert anc.label == "dev.0.2"  # the most recent shared commit

    def test_disjoint_graphs_raise(self):
        graph = CommitGraph()
        graph.add(commit("master.0.0", sequence=1))
        graph.add(commit("other.0.0", sequence=2))
        with pytest.raises(MergeError):
            graph.common_ancestor("c-master.0.0", "c-other.0.0")


class TestCommitsBetween:
    def test_linear_range(self):
        graph, _ = fig2_graph()
        labels = [
            c.label for c in graph.commits_between("c-dev.0.2", "c-master.0.0")
        ]
        assert labels == ["master.0.0", "dev.0.0", "dev.0.1", "dev.0.2"]

    def test_exclusive_ancestor(self):
        graph, _ = fig2_graph()
        labels = [
            c.label
            for c in graph.commits_between(
                "c-dev.0.2", "c-master.0.0", include_ancestor=False
            )
        ]
        assert labels == ["dev.0.0", "dev.0.1", "dev.0.2"]

    def test_not_an_ancestor_raises(self):
        graph, _ = fig3_graph()
        with pytest.raises(MergeError):
            graph.commits_between("c-master.0.1", "c-dev.0.2")

    def test_first_parent_chain(self):
        graph, _ = fig3_graph()
        labels = [c.label for c in graph.first_parent_chain("c-dev.0.2")]
        assert labels == ["dev.0.2", "dev.0.1", "dev.0.0", "master.0.0"]


def commits_between_by_definition(graph, head_id, ancestor_id, include_ancestor=True):
    """The body ``commits_between`` had before it became one pass: one
    full ancestor search per ancestor of the head. Kept as the oracle."""
    head_ancestors = graph.ancestors(head_id)
    if ancestor_id not in head_ancestors:
        raise MergeError(f"{ancestor_id[:12]} is not an ancestor of {head_id[:12]}")
    selected = [
        graph.get(c) for c in head_ancestors if graph.is_ancestor(ancestor_id, c)
    ]
    if not include_ancestor:
        selected = [c for c in selected if c.commit_id != ancestor_id]
    return sorted(selected, key=lambda c: c.sequence)


@st.composite
def random_dags(draw):
    """A graph of up to 14 commits, each with 0-2 parents among the
    commits added before it, and unique sequences in an order unrelated
    to arrival (as after importing a peer's commits)."""
    size = draw(st.integers(1, 14))
    sequences = draw(st.permutations(range(1, size + 1)))
    graph = CommitGraph()
    for i in range(size):
        parents = draw(st.lists(st.integers(0, i - 1), max_size=2, unique=True)) if i else []
        graph.add(commit(f"b.0.{i}", [f"c-b.0.{p}" for p in parents], sequences[i]))
    return graph, size


class TestCommitsBetweenOnePass:
    @settings(max_examples=150, deadline=None)
    @given(random_dags(), st.data())
    def test_equals_the_definition_on_random_dags(self, dag, data):
        graph, size = dag
        head = f"c-b.0.{data.draw(st.integers(0, size - 1))}"
        ancestor = f"c-b.0.{data.draw(st.integers(0, size - 1))}"
        for include_ancestor in (True, False):
            try:
                expected = commits_between_by_definition(graph, head, ancestor, include_ancestor)
            except MergeError as error:
                with pytest.raises(MergeError, match=re.escape(str(error))):
                    graph.commits_between(head, ancestor, include_ancestor)
            else:
                assert graph.commits_between(head, ancestor, include_ancestor) == expected

    def test_unknown_head_raises_commit_not_found(self):
        graph, _ = fig2_graph()
        with pytest.raises(CommitNotFoundError):
            graph.commits_between("nope", "c-master.0.0")

    def test_ancestor_search_runs_once_on_a_long_chain(self, monkeypatch):
        """It used to run once per ancestor of the head: 401 searches of
        up to 400 commits each for this call."""
        graph = CommitGraph()
        graph.add(commit("b.0.0", sequence=0))
        for i in range(1, 400):
            graph.add(commit(f"b.0.{i}", [f"c-b.0.{i - 1}"], i))
        calls = []
        original = CommitGraph.ancestors

        def counted(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CommitGraph, "ancestors", counted)
        between = graph.commits_between("c-b.0.399", "c-b.0.100")
        assert [c.sequence for c in between] == list(range(100, 400))
        assert len(calls) <= 2


class TestCommitObject:
    def test_commit_id_content_derived(self):
        a = make_commit_id("p", SemVer("master", 0, 1), ("x",), {"s": "f1"})
        b = make_commit_id("p", SemVer("master", 0, 1), ("x",), {"s": "f1"})
        c = make_commit_id("p", SemVer("master", 0, 1), ("x",), {"s": "f2"})
        assert a == b != c

    def test_describe_contains_label_and_score(self):
        c = commit("master.0.1")
        object.__setattr__(c, "score", 0.9)
        assert "master.0.1" in c.describe()
        assert "0.9" in c.describe()
