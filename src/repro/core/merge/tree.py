"""The pipeline search tree: Algorithm 1 of the paper.

Every path from the virtual root to a leaf is one pre-merge pipeline
candidate. Each :class:`TreeNode` records "the reference to a set of child
nodes, its corresponding pipeline component, an execution status flag, and
the reference to the component's output" (section V) — plus the state the
ordered searches of section VII-E keep on the nodes: a score and the
number of leaves beneath that no search has drawn yet.

Because "every node has only one parent node ... the nodes sharing the
same parent node also share the same path to the tree root" (section
VI-B): once a node is executed, every candidate through it reuses its
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..component import Component
from .search_space import MergeScope


@dataclass
class TreeNode:
    """One node of the pipeline search tree.

    Besides the links, the searches read three fields of a node:

    * ``score`` — a searched leaf's result, an internal node's mean over
      its scored children (section VII-E);
    * ``executed`` — with a score, marks a leaf trained in the commit
      history; the simulator's reuse cost model reads it on every node;
    * ``unrun`` — how many leaves beneath the node the search has not
      drawn yet (1 or 0 on a leaf, 0 on a childless virtual root). A
      ``SearchStep`` sets it when it is built and decrements it along the
      ancestry of every leaf it draws.
    """

    component: Component | None = None  # None only for the virtual root
    stage: str | None = None
    executed: bool = False
    output_ref: str = ""
    score: float | None = None
    unrun: int = 0
    children: list["TreeNode"] = field(default_factory=list)
    parent: "TreeNode | None" = field(default=None, repr=False)

    @property
    def is_root(self) -> bool:
        return self.component is None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def identifier(self) -> str:
        return self.component.identifier if self.component else "<root>"

    def path_from_root(self) -> list["TreeNode"]:
        """Nodes from the first real component down to this node."""
        path: list[TreeNode] = []
        node: TreeNode | None = self
        while node is not None and not node.is_root:
            path.append(node)
            node = node.parent
        path.reverse()
        return path

    def add_child(self, child: "TreeNode") -> "TreeNode":
        child.parent = self
        self.children.append(child)
        return child


def build_search_tree(scope: MergeScope) -> TreeNode:
    """Algorithm 1: level ``i`` holds every version in ``S(f_i)``.

    The virtual root is created pre-executed; then, for each pipeline
    stage in order, every node at the previous level receives one child
    per component version in that stage's search space.
    """
    root = TreeNode(component=None, stage=None, executed=True)
    frontier = [root]
    for stage in scope.stage_order:
        versions = scope.space(stage)
        next_frontier: list[TreeNode] = []
        for node in frontier:
            for component in versions:
                child = node.add_child(
                    TreeNode(component=component, stage=stage, executed=False)
                )
                next_frontier.append(child)
        frontier = next_frontier
    return root


def nodes_at_level(root: TreeNode, level: int) -> list[TreeNode]:
    """All nodes ``level`` edges below the root (root itself is level 0)."""
    frontier = [root]
    for _ in range(level):
        frontier = [child for node in frontier for child in node.children]
    return frontier


def iter_nodes(root: TreeNode):
    """Depth-first iteration over every node including the root."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def leaves(root: TreeNode) -> list[TreeNode]:
    return [node for node in iter_nodes(root) if node.is_leaf and not node.is_root]


def count_candidates(root: TreeNode) -> int:
    """Number of root-to-leaf paths currently in the tree."""
    return len(leaves(root))


def count_feasible_components(root: TreeNode) -> int:
    """Nodes still needing execution (the orange nodes of Fig. 4)."""
    return sum(
        1 for node in iter_nodes(root) if not node.is_root and not node.executed
    )


def candidate_components(leaf: TreeNode) -> dict[str, Component]:
    """stage -> component binding along a leaf's path."""
    return {node.stage: node.component for node in leaf.path_from_root()}
