import random

import pytest

from dagforge import detect_cycle, topo_sort
from dagforge.errors import CycleError


def brute_force_cyclic(edges):
    """Independent oracle: a cycle exists iff some node reaches itself."""

    def reaches_self(src):
        seen, stack = set(), [src]
        while stack:
            v = stack.pop()
            for p in edges.get(v, ()):
                if p == src:
                    return True
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return False

    return any(reaches_self(v) for v in edges)


def test_detect_cycle_acyclic():
    assert detect_cycle({"B": ["A"], "A": []}) is None


def test_detect_cycle_two_cycle():
    assert detect_cycle({"A": ["B"], "B": ["A"]}) == ["A", "B"]


def test_detect_cycle_three_cycle_witness():
    edges = {"A": ["C"], "B": ["A"], "C": ["B"]}
    witness = detect_cycle(edges)
    assert witness == ["A", "C", "B"]
    # oracle: the witness must be a closed walk along parent links, starting
    # at its smallest member; verify against all cyclic rotations
    assert witness[0] == min(witness)
    for i, v in enumerate(witness):
        succ = witness[(i + 1) % len(witness)]
        assert succ in edges[v]
    assert brute_force_cyclic(edges)


def test_topo_sort_chain_declared_backwards():
    order = topo_sort(["C", "B", "A"], {"C": ["B"], "B": ["A"], "A": []})
    assert order == ["A", "B", "C"]


def test_topo_sort_tie_break_is_declaration_order():
    assert topo_sort(["Y", "X"], {"Y": [], "X": []}) == ["Y", "X"]
    assert topo_sort(["X", "Y"], {"Y": [], "X": []}) == ["X", "Y"]


def test_topo_sort_raises_on_cycle():
    with pytest.raises(CycleError):
        topo_sort(["A", "B"], {"A": ["B"], "B": ["A"]})


def test_cycle_error_carries_the_witness():
    edges = {"C": ["B"], "B": ["A"], "A": ["C"], "D": []}
    with pytest.raises(CycleError, match="graph contains a cycle: A -> C -> B") as exc:
        topo_sort(["D", "C", "B", "A"], edges)
    assert exc.value.cycle == detect_cycle(edges) == ["A", "C", "B"]


def _random_parent_map(rng, n, p):
    names = [f"n{i}" for i in range(n)]
    return names, {
        c: [p_ for p_ in names if p_ != c and rng.random() < p] for c in names
    }


def test_random_graphs_match_brute_force_oracle():
    rng = random.Random(1234)
    checked_cyclic = checked_acyclic = 0
    for _ in range(150):
        names, edges = _random_parent_map(rng, rng.randint(1, 10), 0.3)
        witness = detect_cycle(edges)
        assert (witness is not None) == brute_force_cyclic(edges)
        if witness is not None:
            checked_cyclic += 1
            assert witness[0] == min(witness)
            for i, v in enumerate(witness):
                assert witness[(i + 1) % len(witness)] in edges[v]
            with pytest.raises(CycleError) as exc:
                topo_sort(names, edges)
            assert exc.value.cycle == witness
        else:
            checked_acyclic += 1
            order = topo_sort(names, edges)
            assert sorted(order) == sorted(names)
            position = {name: i for i, name in enumerate(order)}
            for child, parents in edges.items():
                for parent in parents:
                    assert position[parent] < position[child]
    assert checked_cyclic and checked_acyclic


def test_the_named_cycle_is_reached_from_the_first_node_left_unordered():
    edges = {"D": ["Y"], "B": ["A"], "A": ["B"], "Y": ["X"], "X": ["Y"]}
    with pytest.raises(CycleError) as exc:
        topo_sort(["D", "B", "A", "Y", "X"], edges)
    assert exc.value.cycle == ["X", "Y"]  # D is left first and its parent Y is on the X-Y cycle
    with pytest.raises(CycleError) as exc:
        topo_sort(["B", "D", "A", "Y", "X"], edges)
    assert exc.value.cycle == ["A", "B"]


def test_detect_cycle_ignores_parents_that_are_not_keys():
    assert detect_cycle({"A": ["Z"]}) is None
    assert detect_cycle({"A": ["B", "Z"], "B": ["A"]}) == ["A", "B"]


def test_topo_sort_deterministic():
    rng = random.Random(7)
    names, edges = _random_parent_map(rng, 9, 0.2)
    if detect_cycle(edges) is None:
        assert topo_sort(names, edges) == topo_sort(list(names), dict(edges))
