"""Directed-graph core: deterministic topological order, which names a cycle when there is one."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import CycleError
from .frozen import Frozen

if TYPE_CHECKING:  # pragma: no cover
    from .modelspec import NodeDecl

__all__ = ["CompiledModel", "detect_cycle", "topo_sort"]


@dataclass(init=False, repr=False, eq=False)
class CompiledModel(Frozen):
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

    def __init__(self, nodes, parents, topo_order, selection, stratify):
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "topo_order", topo_order)
        object.__setattr__(self, "selection", selection)
        object.__setattr__(self, "stratify", stratify)
        object.__setattr__(self, "by_name", {n.name: n for n in nodes})


def detect_cycle(edges: dict[str, list[str]]) -> list[str] | None:
    """Return None if the parent map is acyclic, else ``topo_sort``'s witness cycle.

    Parents that are not keys of ``edges`` are ignored.
    """
    try:
        topo_sort(list(edges), {c: [p for p in ps if p in edges] for c, ps in edges.items()})
    except CycleError as err:
        return err.cycle
    return None


def topo_sort(names: list[str], edges: dict[str, list[str]]) -> list[str]:
    """Kahn's algorithm over a child -> parents map.

    When several nodes are ready, the one earliest in ``names`` (declaration
    order) is emitted first, so the order is a deterministic function of the
    model alone.  A graph Kahn cannot finish is a CycleError whose witness
    is a closed walk along parent links, rotated to start at its smallest
    member so messages are stable.
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
        # Every node left over has a parent that is left over too, so following
        # first such parents from the first leftover must come back on itself.
        node = next(n for n in names if indegree[n])
        walk: dict[str, int] = {}  # node -> step at which the walk reached it
        while node not in walk:
            walk[node] = len(walk)
            node = next(p for p in edges[node] if indegree[p])
        cycle = list(walk)[walk[node]:]
        low = cycle.index(min(cycle))
        raise CycleError(cycle[low:] + cycle[:low])
    return order
