"""Independent reference for the first rows of every workload's output.

Re-implements, from SCHEMA.md, FORMATS.md and docs/stdlib.md and without
importing dagforge, the keyed SplitMix64 streams, the built-ins and example
functions the three workloads call, and the CSV cell format.  The benchmark
compares the first ``k`` kept rows a ``dagforge run`` child wrote against
this, so outputs are checked at every seed, not only at the one whose hashes
are recorded in ``baseline.json``.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math

from workloads import INTERVENTION_EXPR, PLATE_SIZE, SELECT_P, STRATA, Node, Workload, node_expression

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SEED_TWEAK = 0xD6E8FEB86659FD93


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _name_key(name: str) -> int:
    h = 0xCBF29CE484222325
    for b in name.encode("utf-8"):
        h = _mix(h ^ b)
    return h


class Stream:
    """Draw i (1-based) of node N at sample s is mix(state(seed, s, N) + i * golden)."""

    def __init__(self, seed: int, index: int, name: str):
        s = _mix((seed ^ _SEED_TWEAK) & _MASK)
        s = _mix((s + index) & _MASK)
        self.state = _mix((s + _name_key(name)) & _MASK)
        self.count = 0

    def word(self) -> int:
        self.count += 1
        return _mix((self.state + self.count * _GOLDEN) & _MASK)

    def unit(self) -> float:
        return (self.word() >> 11) * 2.0**-53


def uniform(r: Stream, a: float, b: float) -> float:
    return a + (b - a) * r.unit()


def bernoulli(r: Stream, p: float) -> int:
    return 1 if r.unit() < p else 0


def normal(r: Stream, mu: float, sigma: float) -> float:
    u1 = ((r.word() >> 11) + 1) * 2.0**-53
    u2 = r.unit()
    return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def randint(r: Stream, lo: int, hi: int) -> int:
    return lo + r.word() % (hi - lo)


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


# --- CSV cells (FORMATS.md) ---------------------------------------------------

class Tensor:
    def __init__(self, shape, data):
        self.shape, self.data = shape, data


MISSING = object()


def _json(v):
    if v is MISSING:
        return None
    if isinstance(v, Tensor):
        return {"shape": list(v.shape), "data": list(v.data)}
    if isinstance(v, list):
        return [_json(x) for x in v]
    return v


def cell(v) -> str:
    if v is MISSING:
        text = ""
    elif isinstance(v, bool):
        text = "true" if v else "false"
    elif isinstance(v, (int, float)):
        text = repr(v)
    elif isinstance(v, str):
        text = v
    else:
        text = json.dumps(_json(v), separators=(",", ":"))
    if any(c in text for c in '",\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def topo_order(names: list[str], parents: dict[str, list[str]]) -> list[str]:
    """Parents first; among ready nodes the earliest declared goes first."""
    index = {n: i for i, n in enumerate(names)}
    waiting = {n: len(set(parents[n])) for n in names}
    children: dict[str, list[str]] = {n: [] for n in names}
    for n in names:
        for p in set(parents[n]):
            children[p].append(n)
    ready = [index[n] for n in names if waiting[n] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = names[heapq.heappop(ready)]
        order.append(n)
        for c in children[n]:
            waiting[c] -= 1
            if waiting[c] == 0:
                heapq.heappush(ready, index[c])
    return order


# --- images -------------------------------------------------------------------

_PRESETS = {"H": (-2.0, 1.5, 2.5), "V": (-1.5, 2.0, 1.0)}
_RECTS = ((7, 1, 9, 15, 1.0), (1, 7, 15, 9, 1.0), (2, 2, 6, 6, 0.5), (10, 10, 14, 14, 0.75))


def _images_row(seed: int, i: int) -> dict:
    def s(name):
        return Stream(seed, i, name)

    u1 = uniform(s("U1"), 0.0, 1.0)
    u2 = uniform(s("U2"), 0.0, 1.0)
    h = bernoulli(s("H"), u1)
    c = bernoulli(s("C"), u2)
    v = bernoulli(s("V"), 1.0 - u1)

    def sig_binomial(name, a, b, label):
        bias, wa, wb = _PRESETS[label]
        return bernoulli(s(name), sigmoid(bias + wa * a + wb * b))

    r = sig_binomial("R", c, h, "H")
    y = sig_binomial("Y", c, v, "V")
    data = [0.0] * 256
    for flag, (r0, c0, r1, c1, val) in zip((h, v, r, c), _RECTS):
        if flag:
            for row in range(r0, r1):
                for col in range(c0, c1):
                    data[row * 16 + col] = val
    return {"U1": u1, "U2": u2, "H": h, "C": c, "V": v, "R": r, "Y": y, "Image": Tensor((16, 16), data)}


# --- bioseq -------------------------------------------------------------------

def _implant(seq: str, motif: str, pos: int) -> str:
    return seq[:pos] + motif + seq[pos + len(motif):]


def _bioseq_row(seed: int, i: int) -> dict:
    disease = bernoulli(Stream(seed, i, "Disease"), 0.5)
    age = randint(Stream(seed, i, "Age"), 10, 80)
    protocol = "B" if Stream(seed, i, "Protocol").unit() < (0.7 if disease else 0.3) else "A"
    r = Stream(seed, i, "AIRR")
    counts = [0] * 16
    for _ in range(8):
        seq = "".join("ACGT"[r.word() % 4] for _ in range(16))
        if disease and r.unit() < 0.8:
            seq = _implant(seq, "GGGG", r.word() % 13)
        if r.unit() < age / 200.0:
            seq = _implant(seq, "AAAA", 12)
        if protocol == "B":
            seq = _implant(seq, "TT", 0)
        for a, b in zip(seq, seq[1:]):
            counts["ACGT".index(a) * 4 + "ACGT".index(b)] += 1
    return {"Disease": disease, "Age": age, "Protocol": protocol, "kmerVec": counts}


# --- wide_deep ----------------------------------------------------------------

# the single-call expressions of root nodes and of the intervention
_CALLS = {
    "normal(0, 1)": lambda r: normal(r, 0.0, 1.0),
    "normal(0, 2)": lambda r: normal(r, 0.0, 2.0),
    "uniform(-1, 1)": lambda r: uniform(r, -1.0, 1.0),
}


def _inner(n: Node, vals: dict, r: Stream) -> float:
    a, b = (vals[p] for p in n.parents)
    t = n.template
    if t == 0:
        return a * 0.5 + normal(r, 0.0, 1.0) if a > b else b * 0.5 - uniform(r, 0.0, 1.0)
    if t == 1:
        return a * 0.6 - b * 0.3 + normal(r, 0.0, 0.5)
    if t == 2:
        return (a + b) * 0.5 + uniform(r, -1.0, 1.0)
    return uniform(r, -1.0, 1.0) if a < 0 else b * 0.8 + normal(r, 0.0, 1.0)


def _wide_deep_row(nodes: list[Node], target: str, seed: int, i: int) -> tuple[dict, bool]:
    vals: dict = {}
    selected = True
    for n in nodes:
        r = Stream(seed, i, n.name)
        if n.name == target:
            vals[n.name] = _CALLS[INTERVENTION_EXPR](r)
        elif n.kind == "root":
            vals[n.name] = _CALLS[node_expression(n)](r)
        elif n.kind == "inner":
            vals[n.name] = _inner(n, vals, r)
        elif n.kind == "plate":
            vals[n.name] = [normal(r, vals[n.parents[0]], 1.0) for _ in range(PLATE_SIZE)]
        elif n.kind == "selection":
            selected = uniform(r, 0.0, 1.0) < SELECT_P
        elif n.kind == "missing":
            vals[n.name] = MISSING if bernoulli(r, 0.2) else vals[n.parents[0]]
        else:
            vals[n.name] = str(randint(r, 0, STRATA))
    return vals, selected


# --- expected output ----------------------------------------------------------

def expected_prefix(w: Workload, run_seed: int, k: int) -> tuple[str, list[tuple[str | None, str]]]:
    """Header line and the first ``k`` kept rows as ``(stratum, csv line)``."""
    if w.name == "images":
        columns = ["U1", "U2", "H", "C", "V", "R", "Y", "Image"]
        rows = ((_images_row(run_seed, i), True) for i in range(k))
        stratify = None
    elif w.name == "bioseq":
        columns = ["Disease", "Age", "Protocol", "kmerVec"]
        rows = ((_bioseq_row(run_seed, i), True) for i in range(k))
        stratify = None
    else:
        target = w.interventions[0].partition("=")[0]
        parents = {n.name: [] if n.name == target else list(n.parents) for n in w.nodes}
        names = [n.name for n in w.nodes]
        by_name = {n.name: n for n in w.nodes}
        ordered = [by_name[n] for n in topo_order(names, parents)]
        columns = [n.name for n in ordered if n.observed]
        stratify = next(n.name for n in w.nodes if n.kind == "stratify")
        rows = (_wide_deep_row(ordered, target, run_seed, i) for i in itertools.count())
    header = ",".join(columns)
    kept = []
    for vals, selected in rows:
        if selected:
            kept.append((vals[stratify] if stratify else None, ",".join(cell(vals[c]) for c in columns)))
            if len(kept) == k:
                break
    return header, kept
