"""Benchmark workloads: the model document and the flags the program is given.

``images`` and ``bioseq`` run the shipped models unchanged; ``wide_deep`` is
generated here from the workload seed.  The program only ever sees the YAML
file and its command-line flags; the structural description kept in
``Workload.nodes`` is for the reference check in ``oracle.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("images", "bioseq", "wide_deep")

# A run's `dagforge run` children cycle through this many program seeds, and a
# seed that comes round again shows whether output is deterministic.
SEEDS_PER_RUN = 8

# Kept rows per ``dagforge run`` child.  Chosen so one child takes 2-4 s on a
# 2-CPU x86 container: long enough that interpreter start-up is not the whole
# measurement, short enough for several children in one 30 s run.
DEFAULT_ROWS = {"images": 8000, "bioseq": 6000, "wide_deep": 20}

WIDE_LAYERS = 40
WIDE_WIDTH = 50
WIDE_OBSERVED_SHARE = 0.1
PLATE_SIZE = 4
STRATA = 4
SELECT_P = 0.5

# Per-node templates over two parents from the previous layer; every
# template makes exactly one uniform/normal call on any branch.
_TEMPLATES = (
    "if {a} > {b} then {a} * 0.5 + normal(0, 1) else {b} * 0.5 - uniform(0, 1)",
    "{a} * 0.6 - {b} * 0.3 + normal(0, 0.5)",
    "({a} + {b}) * 0.5 + uniform(-1, 1)",
    "if {a} < 0 then uniform(-1, 1) else {b} * 0.8 + normal(0, 1)",
)
_ROOT_TEMPLATES = ("normal(0, 1)", "uniform(-1, 1)")
INTERVENTION_EXPR = "normal(0, 2)"


@dataclass(frozen=True)
class Node:
    """One generated node: ``template`` indexes _TEMPLATES (or _ROOT_TEMPLATES for roots)."""

    name: str
    kind: str  # "root", "inner", "plate", "selection", "missing", "stratify"
    template: int = 0
    parents: tuple[str, ...] = ()
    observed: bool = True


@dataclass
class Workload:
    name: str
    model_path: Path
    seed: int  # workload seed; see program_seed
    rows: int
    csv_name: str
    interventions: list[str] = field(default_factory=list)  # NODE=EXPR as given to --intervene
    nodes: list[Node] = field(default_factory=list)  # wide_deep only

    def program_seed(self, k: int) -> int:
        """The ``--seed`` flag of a run's k-th `dagforge run` child.

        A shipped model's only input that varies is this seed, so it follows
        the workload seed.  A generated model already varies with the
        workload seed; its program seeds stay fixed so that selection keeps
        the same share of attempts in every run.
        """
        if self.nodes:
            return k % SEEDS_PER_RUN
        return self.seed * SEEDS_PER_RUN + k % SEEDS_PER_RUN

    def run_args(self, out_dir: Path, run_seed: int) -> list[str]:
        args = ["run", str(self.model_path), "--seed", str(run_seed),
                "--num-samples", str(self.rows), "--out", str(out_dir)]
        for item in self.interventions:
            args += ["--intervene", item]
        return args


def wide_deep_nodes(seed: int) -> list[Node]:
    """Layered DAG: WIDE_LAYERS x WIDE_WIDTH nodes plus one node of each special kind."""
    rnd = random.Random(seed)
    total = WIDE_LAYERS * WIDE_WIDTH
    observed = set(rnd.sample(range(total), round(total * WIDE_OBSERVED_SHARE)))
    nodes: list[Node] = []
    prev: list[str] = []
    for layer in range(WIDE_LAYERS):
        names = [f"n{layer}_{j}" for j in range(WIDE_WIDTH)]
        for j, name in enumerate(names):
            obs = layer * WIDE_WIDTH + j in observed
            if layer == 0:
                nodes.append(Node(name, "root", rnd.randrange(len(_ROOT_TEMPLATES)), (), obs))
            else:
                a, b = rnd.sample(prev, 2)
                nodes.append(Node(name, "inner", rnd.randrange(len(_TEMPLATES)), (a, b), obs))
        prev = names
    last = prev[0]
    masked = next(n.name for n in reversed(nodes) if n.observed)
    nodes += [
        Node("plate", "plate", parents=(last,)),
        Node("sel", "selection", observed=False),
        Node("miss", "missing", parents=(masked,)),
        Node("stratum", "stratify"),
    ]
    return nodes


def node_expression(node: Node) -> str:
    if node.kind == "root":
        return _ROOT_TEMPLATES[node.template]
    if node.kind == "inner":
        a, b = node.parents
        return _TEMPLATES[node.template].format(a=a, b=b)
    if node.kind == "plate":
        return f"normal({node.parents[0]}, 1)"
    if node.kind == "selection":
        # Rejects half of all attempts.  It reads no other node, so the
        # acceptance rate is the same for every generated model.
        return f"uniform(0, 1) < {SELECT_P}"
    if node.kind == "missing":
        return "binomial(1, 0.2)"
    return f"randint(0, {STRATA})"


def wide_deep_yaml(nodes: list[Node], rows: int) -> str:
    lines = ["graph:", "  nodes:"]
    for n in nodes:
        expr = node_expression(n)
        if n.kind in ("root", "inner") and n.observed:
            lines.append(f'    {n.name}: "{expr}"')
            continue
        lines.append(f"    {n.name}:")
        lines.append(f'      function: "{expr}"')
        if n.kind == "plate":
            lines.append(f"      size: {PLATE_SIZE}")
        elif n.kind in ("selection", "missing", "stratify"):
            lines.append(f"      kind: {n.kind}")
        if n.kind == "missing":
            lines.append(f"      underlying: {n.parents[0]}")
        if not n.observed and n.kind != "selection":
            lines.append("      observed: false")
    lines += ["instructions:", "  simulation:", "    csv_name: wide_deep", f"    num_samples: {rows}", ""]
    return "\n".join(lines)


def intervention_target(nodes: list[Node], seed: int) -> str:
    mid = [n.name for n in nodes if n.kind == "inner" and n.name.startswith(f"n{WIDE_LAYERS // 2}_")]
    return random.Random(seed ^ 0x5EED).choice(mid)


def make(name: str, seed: int, root: Path, work_dir: Path, rows: int | None = None) -> Workload:
    """Build the workload's inputs; the generated model goes under ``work_dir``."""
    rows = DEFAULT_ROWS[name] if rows is None else rows
    if name == "images":
        return Workload(name, root / "models" / "images.yaml", seed, rows, "Images_metadata")
    if name == "bioseq":
        return Workload(name, root / "models" / "bioseq.yaml", seed, rows, "BioseqExample_yaml")
    if name != "wide_deep":
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    nodes = wide_deep_nodes(seed)
    path = work_dir / f"wide_deep-{seed}.yaml"
    path.write_text(wide_deep_yaml(nodes, rows), encoding="utf-8")
    target = intervention_target(nodes, seed)
    return Workload(name, path, seed, rows, "wide_deep", [f"{target}={INTERVENTION_EXPR}"], nodes)
