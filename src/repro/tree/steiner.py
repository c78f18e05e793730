"""Rectilinear Steiner tree construction.

The paper (like CUGR) uses FLUTE lookup tables; lookup tables are not
redistributable, so we build the tree from scratch with the classic
two-step construction that FLUTE approximates:

1. a Manhattan-metric minimum spanning tree over the distinct pin
   locations (Prim, O(n^2) — nets have at most a dozen pins), then
2. greedy *steinerisation*: wherever a node has two tree neighbours, the
   component-wise median of the triple is a candidate Steiner point; if
   inserting it shortens total tree length it replaces the two edges.
   Iterated to a fixed point.

The result is a tree whose total Manhattan length is never longer than
the MST (a property the tests assert), spanning every pin location.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.grid.geometry import Point, manhattan
from repro.netlist.net import Net


@dataclass
class TreeNode:
    """A vertex of a Steiner tree: a 2-D point plus any pins there."""

    index: int
    point: Point
    pin_layers: Tuple[int, ...] = ()
    neighbors: List[int] = field(default_factory=list)

    @property
    def is_pin(self) -> bool:
        """Return True when at least one net pin sits at this node."""
        return bool(self.pin_layers)

    @property
    def degree(self) -> int:
        """Number of incident tree edges."""
        return len(self.neighbors)


class SteinerTree:
    """An undirected tree over 2-D points."""

    def __init__(self, nodes: Sequence[TreeNode]) -> None:
        self.nodes: List[TreeNode] = list(nodes)

    @property
    def n_nodes(self) -> int:
        """Number of tree vertices."""
        return len(self.nodes)

    def edges(self) -> List[Tuple[int, int]]:
        """Return each undirected edge once, as ``(lo_index, hi_index)``."""
        result = []
        for node in self.nodes:
            for nbr in node.neighbors:
                if node.index < nbr:
                    result.append((node.index, nbr))
        return result

    def length(self) -> int:
        """Total Manhattan length over all edges."""
        return sum(
            manhattan(self.nodes[a].point, self.nodes[b].point)
            for a, b in self.edges()
        )

    def add_edge(self, a: int, b: int) -> None:
        """Insert undirected edge ``(a, b)``."""
        self.nodes[a].neighbors.append(b)
        self.nodes[b].neighbors.append(a)

    def remove_edge(self, a: int, b: int) -> None:
        """Delete undirected edge ``(a, b)``."""
        self.nodes[a].neighbors.remove(b)
        self.nodes[b].neighbors.remove(a)

    def validate(self) -> None:
        """Raise if the structure is not a single connected tree."""
        n = self.n_nodes
        n_edges = len(self.edges())
        if n == 0:
            raise ValueError("empty tree")
        if n_edges != n - 1:
            raise ValueError(f"tree has {n} nodes but {n_edges} edges")
        seen = {0}
        stack = [0]
        while stack:
            current = stack.pop()
            for nbr in self.nodes[current].neighbors:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        if len(seen) != n:
            raise ValueError("tree is disconnected")


def _collect_pin_nodes(net: Net) -> List[TreeNode]:
    """Merge pins sharing a G-cell into single tree nodes, numbered in
    ``(x, y)`` order."""
    layers_by_cell: Dict[Tuple[int, int], Set[int]] = {}
    for pin in net.pins:
        layers_by_cell.setdefault((pin.x, pin.y), set()).add(pin.layer)
    return [
        TreeNode(index, Point(x, y), tuple(sorted(layers)))
        for index, ((x, y), layers) in enumerate(sorted(layers_by_cell.items()))
    ]


def _prim_mst(nodes: List[TreeNode]) -> List[Tuple[int, int]]:
    """Return MST edges over the nodes under the Manhattan metric."""
    n = len(nodes)
    if n <= 1:
        return []
    xs = [node.point.x for node in nodes]
    ys = [node.point.y for node in nodes]
    in_tree = [False] * n
    best_from = [0] * n
    in_tree[0] = True
    best_dist = [abs(xs[0] - x) + abs(ys[0] - y) for x, y in zip(xs, ys)]
    edges: List[Tuple[int, int]] = []
    for _ in range(n - 1):
        best = -1
        for j in range(n):
            if not in_tree[j] and (best < 0 or best_dist[j] < best_dist[best]):
                best = j
        in_tree[best] = True
        edges.append((best_from[best], best))
        bx, by = xs[best], ys[best]
        for j in range(n):
            if not in_tree[j]:
                d = abs(bx - xs[j]) + abs(by - ys[j])
                if d < best_dist[j]:
                    best_dist[j] = d
                    best_from[j] = best
    return edges


def _steinerize(tree: SteinerTree, max_rounds: int = 8) -> None:
    """Insert median Steiner points while they shorten the tree."""
    nodes = tree.nodes
    for _ in range(max_rounds):
        improved = False
        points = [(node.point.x, node.point.y) for node in nodes]
        for node in list(nodes):
            if node.degree < 2:
                continue
            # Try every pair of neighbours of this node.
            nbrs = list(node.neighbors)
            px, py = p = points[node.index]
            for i in range(len(nbrs)):
                ax, ay = pa = points[nbrs[i]]
                for j in range(i + 1, len(nbrs)):
                    bx, by = pb = points[nbrs[j]]
                    # The component-wise median of the triple.
                    sx = max(min(px, ax), min(max(px, ax), bx))
                    sy = max(min(py, ay), min(max(py, ay), by))
                    s_point = (sx, sy)
                    if s_point == p or s_point == pa or s_point == pb:
                        continue
                    old = abs(px - ax) + abs(py - ay) + abs(px - bx) + abs(py - by)
                    new = (
                        abs(sx - px) + abs(sy - py) + abs(sx - ax) + abs(sy - ay)
                        + abs(sx - bx) + abs(sy - by)
                    )
                    if new < old:
                        a, b = nbrs[i], nbrs[j]
                        steiner = TreeNode(len(nodes), Point(sx, sy))
                        nodes.append(steiner)
                        tree.remove_edge(node.index, a)
                        tree.remove_edge(node.index, b)
                        tree.add_edge(steiner.index, node.index)
                        tree.add_edge(steiner.index, a)
                        tree.add_edge(steiner.index, b)
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
        if not improved:
            return


def build_steiner_tree(net: Net, steinerize: bool = True) -> SteinerTree:
    """Build a rectilinear Steiner tree for ``net``.

    With ``steinerize=False`` the plain Manhattan MST is returned (used
    by ablations and as a test oracle upper bound).
    """
    nodes = _collect_pin_nodes(net)
    tree = SteinerTree(nodes)
    for a, b in _prim_mst(nodes):
        tree.add_edge(a, b)
    if steinerize and tree.n_nodes > 2:
        _steinerize(tree)
    tree.validate()
    return tree


__all__ = ["TreeNode", "SteinerTree", "build_steiner_tree"]
