"""Commit graph: lineage queries and common-ancestor search.

The merge operation's search space is anchored at "the common ancestor of
HEAD and MERGE_HEAD" (section V); versions before it "are not considered
since they could be outdated or irrelevant". This module provides exactly
those queries over the commit DAG: ancestor sets, the (best) common
ancestor, and the commits lying between an ancestor and a head.
"""

from __future__ import annotations

from collections import deque
from itertools import islice

from ..errors import CommitNotFoundError, MergeError
from .commit import PipelineCommit


class CommitGraph:
    """Append-only DAG of :class:`PipelineCommit` objects.

    ``revision`` counts mutations — a cheap staleness token consumers
    (e.g. the remote server's response cache) compare instead of hashing
    repository state.
    """

    def __init__(self) -> None:
        self._commits: dict[str, PipelineCommit] = {}
        self.revision = 0

    def add(self, commit: PipelineCommit) -> None:
        if commit.commit_id in self._commits:
            raise MergeError(f"duplicate commit id {commit.commit_id[:12]}")
        for parent in commit.parents:
            if parent not in self._commits:
                raise CommitNotFoundError(parent)
        self._commits[commit.commit_id] = commit
        self.revision += 1

    def get(self, commit_id: str) -> PipelineCommit:
        if commit_id not in self._commits:
            raise CommitNotFoundError(commit_id)
        return self._commits[commit_id]

    def __contains__(self, commit_id: str) -> bool:
        return commit_id in self._commits

    def __len__(self) -> int:
        return len(self._commits)

    def all_commits(self) -> list[PipelineCommit]:
        return sorted(self._commits.values(), key=lambda c: c.sequence)

    def arrivals(self, start: int = 0) -> list[PipelineCommit]:
        """Commits in the order they were added, from the ``start``-th on.

        This order only ever grows at its end and a parent always
        precedes its children, whatever ``sequence`` the commits carry —
        what an append-only journal needs; and unlike :meth:`all_commits`
        it costs the tail asked for, not a sort of the whole graph."""
        return list(islice(self._commits.values(), start, None))

    # --------------------------------------------------------------- queries
    def ancestors(self, commit_id: str, include_self: bool = True) -> set[str]:
        """Every commit reachable through parent edges."""
        start = self.get(commit_id)  # validates existence
        seen: set[str] = {start.commit_id} if include_self else set()
        queue = deque(start.parents)
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            queue.extend(self.get(current).parents)
        return seen

    def is_ancestor(self, maybe_ancestor: str, descendant: str) -> bool:
        return maybe_ancestor in self.ancestors(descendant)

    def common_ancestor(self, a: str, b: str) -> PipelineCommit:
        """Best common ancestor: the latest-created commit reachable from
        both sides. For two-branch histories this is the branch point; for
        repeated merges it picks the most recent merge base, matching
        git's merge-base behaviour on these shapes."""
        shared = self.ancestors(a) & self.ancestors(b)
        if not shared:
            raise MergeError(
                f"no common ancestor between {a[:12]} and {b[:12]}"
            )
        return max((self._commits[c] for c in shared), key=lambda c: c.sequence)

    def commits_between(
        self, head_id: str, ancestor_id: str, include_ancestor: bool = True
    ) -> list[PipelineCommit]:
        """Commits on the path(s) from ``ancestor`` (inclusive by default)
        up to and including ``head``, in creation order. These are the
        pipeline versions whose components populate the merge search
        space."""
        head_ancestors = self.ancestors(head_id)
        if ancestor_id not in head_ancestors:
            raise MergeError(
                f"{ancestor_id[:12]} is not an ancestor of {head_id[:12]}"
            )
        # One pass in arrival order (a parent always precedes its children):
        # a head ancestor descends from ``ancestor`` iff one of its parents does.
        reaches = {ancestor_id}
        selected = [self._commits[ancestor_id]] if include_ancestor else []
        for commit_id, commit in self._commits.items():
            if commit_id in head_ancestors and not reaches.isdisjoint(commit.parents):
                reaches.add(commit_id)
                selected.append(commit)
        return sorted(selected, key=lambda c: c.sequence)

    def first_parent_chain(self, head_id: str) -> list[PipelineCommit]:
        """Linear history following first parents, head first."""
        chain = []
        cursor: str | None = head_id
        while cursor is not None:
            commit = self.get(cursor)
            chain.append(commit)
            cursor = commit.parents[0] if commit.parents else None
        return chain
