"""Directed-graph core: cycle detection, deterministic topological order."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import CycleError

if TYPE_CHECKING:  # pragma: no cover
    from .modelspec import NodeDecl

__all__ = ["CompiledModel", "detect_cycle", "topo_sort"]


@dataclass(frozen=True)
class CompiledModel:
    """Validated model: declaration-ordered nodes plus derived graph structure.

    ``parents`` maps each node to its parent names in first-mention order;
    ``topo_order`` puts every parent before its children, breaking ties by
    declaration order.
    """

    nodes: tuple["NodeDecl", ...]
    parents: dict[str, list[str]]
    topo_order: list[str]
    selection: str | None
    stratify: str | None
    by_name: dict[str, "NodeDecl"] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "by_name", {n.name: n for n in self.nodes})


def detect_cycle(edges: dict[str, list[str]]) -> list[str] | None:
    """Return None if the parent map is acyclic, else one witness cycle.

    The witness follows parent links and is rotated to start at its
    lexicographically smallest member, keeping messages stable.  Iterative
    DFS, so arbitrarily deep graphs cannot exhaust the call stack.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in edges}
    for root in edges:
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        stack = [(root, iter(edges.get(root, ())))]
        while stack:
            node, remaining = stack[-1]
            descended = False
            for p in remaining:
                if p not in color:
                    continue
                if color[p] == GRAY:
                    cycle = path[path.index(p):]
                    low = min(range(len(cycle)), key=lambda i: cycle[i])
                    return cycle[low:] + cycle[:low]
                if color[p] == WHITE:
                    color[p] = GRAY
                    path.append(p)
                    stack.append((p, iter(edges.get(p, ()))))
                    descended = True
                    break
            if not descended:
                stack.pop()
                path.pop()
                color[node] = BLACK
    return None


def topo_sort(names: list[str], edges: dict[str, list[str]]) -> list[str]:
    """Kahn's algorithm over a child -> parents map.

    When several nodes are ready, the one earliest in ``names`` (declaration
    order) is emitted first, so the order is a deterministic function of the
    model alone.  A graph Kahn cannot finish is a CycleError carrying
    ``detect_cycle``'s witness, so an acyclic graph is searched only once.
    """
    decl_index = {name: i for i, name in enumerate(names)}
    children: dict[str, list[str]] = {name: [] for name in names}
    indegree = {name: 0 for name in names}
    for child, parents in edges.items():
        for p in parents:
            children[p].append(child)
            indegree[child] += 1

    ready = [decl_index[n] for n in names if indegree[n] == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        name = names[heapq.heappop(ready)]
        order.append(name)
        for child in children[name]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, decl_index[child])
    if len(order) != len(names):
        raise CycleError(detect_cycle(edges))
    return order
