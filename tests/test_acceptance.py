"""End-to-end acceptance suite.

Each test exercises one release criterion at its stated tolerance and
prints a single pass/fail line; run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the lines on success).
"""

import csv
import math
import random
import time
from pathlib import Path

from dagforge import (
    MISSING,
    RunConfig,
    build_registry,
    detect_cycle,
    parse,
    parse_model,
    pretty_print,
    register_example_functions,
    simulate,
    topo_sort,
    validate,
)
from dagforge.errors import SpecError
from dagforge.expr import Binary, Call, IfElse, Lit, ListLit, Ref, Unary
from dagforge.rng import RandomStream
from dagforge.stdlib import _binomial, _randint, _uniform

from conftest import MODELS, model_yaml


class _Criterion:
    def __init__(self, number: int, description: str, budget_s: float):
        self.number = number
        self.description = description
        self.budget_s = budget_s
        self.failures: list[str] = []
        self.t0 = time.perf_counter()

    def check(self, ok: bool, detail: str):
        if not ok:
            self.failures.append(detail)

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if not self.failures and elapsed < self.budget_s else "FAIL"
        print(f"[acceptance] criterion {self.number:2d}: {status} "
              f"({elapsed:.2f}s/{self.budget_s:.0f}s) {self.description}")
        for f in self.failures:
            print(f"[acceptance]     - {f}")
        assert not self.failures, self.failures
        assert elapsed < self.budget_s, f"criterion {self.number} exceeded {self.budget_s}s ({elapsed:.2f}s)"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh, strict=True))


def manifest_without_timestamp(path: Path) -> list[str]:
    return [l for l in path.read_text().splitlines() if not l.startswith("timestamp")]


IMAGES_EDGES = {
    ("U1", "H"), ("U1", "V"), ("U2", "C"), ("H", "R"), ("C", "R"),
    ("V", "Y"), ("C", "Y"), ("H", "Image"), ("V", "Image"),
    ("R", "Image"), ("C", "Image"),
}


def test_criterion_1_images_structure(run_cli, tmp_path):
    c = _Criterion(1, "images model: structure, edges, 50 rows in topo order", 1.0)

    code, out, _ = run_cli("validate", MODELS / "images.yaml")
    c.check(code == 0, f"validate exited {code}")
    c.check("8 nodes" in out, f"expected '8 nodes' in summary, got {out!r}")

    code, dot, _ = run_cli("graph", MODELS / "images.yaml")
    c.check(code == 0, f"graph exited {code}")
    edges = {
        tuple(line.strip().rstrip(";").split(" -> "))
        for line in dot.splitlines() if " -> " in line
    }
    c.check(edges == IMAGES_EDGES, f"edge set mismatch: {edges ^ IMAGES_EDGES}")

    code, _, _ = run_cli("run", MODELS / "images.yaml", "--out", tmp_path, "--seed", "0")
    c.check(code == 0, f"run exited {code}")
    rows = read_csv(tmp_path / "Images_metadata.csv")
    c.check(len(rows) == 51, f"expected 50 data rows, got {len(rows) - 1}")
    c.check(rows[0] == ["U1", "U2", "H", "C", "V", "R", "Y", "Image"],
            f"columns not in topological order: {rows[0]}")
    c.finish()


def test_criterion_2_bioseq_structure_and_masking(run_cli, tmp_path):
    c = _Criterion(2, "bioseq model: 50 rows, AIRR hidden, Age/Disease ranges", 1.0)
    code, _, _ = run_cli("run", MODELS / "bioseq.yaml", "--out", tmp_path, "--seed", "0")
    c.check(code == 0, f"run exited {code}")
    rows = read_csv(tmp_path / "BioseqExample_yaml.csv")
    c.check(len(rows) == 51, f"expected 50 data rows, got {len(rows) - 1}")
    c.check("AIRR" not in rows[0], f"AIRR should be absent, columns: {rows[0]}")
    age_i, disease_i = rows[0].index("Age"), rows[0].index("Disease")
    ages = [int(r[age_i]) for r in rows[1:]]
    diseases = [int(r[disease_i]) for r in rows[1:]]
    c.check(all(10 <= a <= 79 for a in ages), f"ages out of [10,79]: {sorted(set(ages))[:5]}...")
    c.check(set(diseases) <= {0, 1}, f"diseases outside {{0,1}}: {set(diseases)}")
    kmer_i = rows[0].index("kmerVec")
    from dagforge import parse_cell
    c.check(all(len(parse_cell(r[kmer_i])) == 16 for r in rows[1:]), "kmerVec length != 4^2")
    c.finish()


def test_criterion_3_distribution_moments():
    c = _Criterion(3, "seed-0 means of uniform/binomial/randint within 3 SE", 10.0)
    n = 100_000
    cases = [
        ("uniform(0,1)", _uniform, (0.0, 1.0), 0.5, 1.0 / math.sqrt(12.0)),
        ("binomial(1,0.5)", _binomial, (1, 0.5), 0.5, 0.5),
        ("randint(10,80)", _randint, (10, 80), 44.5, math.sqrt((70.0**2 - 1.0) / 12.0)),
    ]
    for label, fn, args, mean, sd in cases:
        rng = RandomStream(0)
        total = sum(fn(rng, *args) for _ in range(n))
        bound = 3.0 * sd / math.sqrt(n)
        c.check(abs(total / n - mean) <= bound,
                f"{label}: |{total / n:.5f} - {mean}| > {bound:.5f}")
    rng = RandomStream(0)
    draws = [_randint(rng, 10, 80) for _ in range(n)]
    c.check(min(draws) >= 10 and max(draws) <= 79,
            f"randint range violated: [{min(draws)}, {max(draws)}]")
    c.finish()


def test_criterion_4_selection_bias(registry):
    c = _Criterion(4, "selection X==1: all kept rows match, acceptance rate sane", 1.0)
    text = model_yaml(
        '    X: "binomial(1, 0.5)"\n'
        '    S:\n      function: "X == 1"\n      kind: selection\n',
        num_samples=200,
    )
    model = validate(parse_model(text, registry), registry)
    ds = simulate(model, RunConfig(num_samples=200, seed=0), registry)
    c.check(all(r.values["X"] == 1 for r in ds.rows), "a kept row has X != 1")
    ratio = ds.attempts / len(ds.rows)
    c.check(1.6 <= ratio <= 2.5, f"attempts/kept = {ratio:.3f} outside [1.6, 2.5]")
    c.finish()


def test_criterion_5_missingness_rate(registry):
    c = _Criterion(5, "binomial(1,0.3) indicator: missing fraction within 3 sigma", 10.0)
    n = 100_000
    text = model_yaml(
        '    U: "uniform(0,1)"\n'
        '    M:\n      function: "binomial(1, 0.3)"\n      kind: missing\n      underlying: U\n',
        num_samples=n,
    )
    model = validate(parse_model(text, registry), registry)
    ds = simulate(model, RunConfig(num_samples=n, seed=0), registry)
    frac = sum(1 for r in ds.rows if r.values["M"] is MISSING) / n
    bound = 3.0 * math.sqrt(0.3 * 0.7 / n)
    c.check(abs(frac - 0.3) <= bound, f"|{frac:.5f} - 0.3| > {bound:.5f}")
    c.finish()


def test_criterion_6_stratification_partition(run_cli, tmp_path):
    c = _Criterion(6, "3-label stratify over 999 rows partitions exactly", 1.0)
    spec = tmp_path / "strata.yaml"
    spec.write_text(model_yaml(
        '    X: "randint(0, 3)"\n'
        '    G:\n      function: "if X == 0 then \\"a\\" else (if X == 1 then \\"b\\" else \\"c\\")"\n'
        '      kind: stratify\n',
        num_samples=999,
    ))
    code, _, _ = run_cli("run", spec, "--out", tmp_path, "--seed", "0")
    c.check(code == 0, f"run exited {code}")
    files = sorted(tmp_path.glob("out_*.csv"))
    c.check(len(files) == 3, f"expected 3 files, got {[f.name for f in files]}")
    all_rows = []
    for f in files:
        rows = read_csv(f)[1:]
        label = f.stem.rsplit("_", 1)[1]
        c.check(all(r[1] == label for r in rows), f"{f.name} contains foreign labels")
        all_rows += rows
    c.check(len(all_rows) == 999, f"row counts sum to {len(all_rows)}, not 999")
    model = validate(parse_model(spec.read_text(), build_full_registry()), build_full_registry())
    ds = simulate(model, RunConfig(num_samples=999, seed=0), build_full_registry())
    expected = sorted([str(r.values["X"]), r.values["G"]] for r in ds.rows)
    c.check(sorted(all_rows) == expected, "file rows are not exactly the dataset rows")
    c.finish()


def build_full_registry():
    reg = build_registry()
    register_example_functions(reg)
    return reg


def test_criterion_7_byte_determinism(run_cli, tmp_path):
    c = _Criterion(7, "equal seeds give byte-identical output", 30.0)
    for name, csv_name in (("images.yaml", "Images_metadata"), ("bioseq.yaml", "BioseqExample_yaml")):
        d1, d2 = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        for d in (d1, d2):
            code, _, _ = run_cli("run", MODELS / name, "--out", d, "--seed", "42")
            c.check(code == 0, f"{name}: run exited {code}")
        b1 = (d1 / f"{csv_name}.csv").read_bytes()
        b2 = (d2 / f"{csv_name}.csv").read_bytes()
        c.check(b1 == b2, f"{name}: two seed-42 runs differ")
        c.check(
            manifest_without_timestamp(d1 / f"{csv_name}.manifest")
            == manifest_without_timestamp(d2 / f"{csv_name}.manifest"),
            f"{name}: manifests differ beyond timestamp",
        )
    c.finish()


def test_criterion_8_intervention_screening(run_cli, tmp_path):
    c = _Criterion(8, "do(H=1) leaves non-descendant columns byte-identical", 30.0)
    base_dir, do_dir = tmp_path / "base", tmp_path / "do"
    code, _, _ = run_cli("run", MODELS / "images.yaml", "--out", base_dir, "--seed", "0")
    c.check(code == 0, f"baseline run exited {code}")
    code, _, _ = run_cli("run", MODELS / "images.yaml", "--out", do_dir, "--seed", "0", "--intervene", "H=1")
    c.check(code == 0, f"intervened run exited {code}")
    base = read_csv(base_dir / "Images_metadata.csv")
    done = read_csv(do_dir / "Images_metadata.csv")
    header = base[0]
    c.check(done[0] == header, "headers differ")
    for col in ("U2", "C"):
        i = header.index(col)
        c.check([r[i] for r in base[1:]] == [r[i] for r in done[1:]],
                f"column {col} changed under do(H=1)")
    h = header.index("H")
    c.check(all(r[h] == "1" for r in done[1:]), "H not forced to 1")
    c.finish()


def brute_force_cyclic(edges):
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


def test_criterion_9_graph_oracle_equivalence():
    c = _Criterion(9, "500 random digraphs: cycle detection and topo order agree with oracle", 5.0)
    rng = random.Random(0)
    cyclic = acyclic = 0
    for _ in range(500):
        n = rng.randint(1, 12)
        names = [f"n{i}" for i in range(n)]
        edges = {v: [p for p in names if p != v and rng.random() < 0.3] for v in names}
        witness = detect_cycle(edges)
        oracle = brute_force_cyclic(edges)
        c.check((witness is not None) == oracle,
                f"cycle disagreement on {edges}: witness={witness}, oracle={oracle}")
        if witness is None:
            acyclic += 1
            order = topo_sort(names, edges)
            pos = {name: i for i, name in enumerate(order)}
            ok = sorted(order) == sorted(names) and all(
                pos[p] < pos[child] for child, ps in edges.items() for p in ps
            )
            c.check(ok, f"invalid topo order {order} for {edges}")
        else:
            cyclic += 1
    c.check(cyclic > 50 and acyclic > 50, f"skewed sample: {cyclic} cyclic / {acyclic} acyclic")
    c.finish()


_NAMES = ["a", "b2", "x_y", "U1", "foo"]
_BINOPS = ["or", "and", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"]


def _random_expr(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        pick = rng.randrange(4)
        if pick == 0:
            return Lit(value=rng.randrange(0, 1000))
        if pick == 1:
            return Lit(value=rng.random() * 10**rng.randint(-3, 3))
        if pick == 2:
            return Lit(value="".join(rng.choice('ab c"\\n_') for _ in range(rng.randrange(5))))
        return Ref(name=rng.choice(_NAMES))
    pick = rng.randrange(5)
    if pick == 0:
        return Unary(op=rng.choice(["-", "not"]), operand=_random_expr(rng, depth - 1))
    if pick == 1:
        return Binary(op=rng.choice(_BINOPS), lhs=_random_expr(rng, depth - 1), rhs=_random_expr(rng, depth - 1))
    if pick == 2:
        return IfElse(cond=_random_expr(rng, depth - 1), then=_random_expr(rng, depth - 1),
                      otherwise=_random_expr(rng, depth - 1))
    if pick == 3:
        return ListLit(elements=tuple(_random_expr(rng, depth - 1) for _ in range(rng.randrange(3))))
    return Call(name=rng.choice(_NAMES),
                args=tuple(_random_expr(rng, depth - 1) for _ in range(rng.randrange(3))))


def _mutate_text(text: str, rng: random.Random) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        if not chars:
            break
        kind = rng.randrange(4)
        if kind == 0:
            chars.pop(rng.randrange(len(chars)))
        elif kind == 1:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(' :"{}[]()-\n\t#&*?|<>%@`!x0'))
        elif kind == 2:
            lines = "".join(chars).splitlines(keepends=True)
            if len(lines) > 1:
                i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
                lines[i], lines[j] = lines[j], lines[i]
                chars = list("".join(lines))
        else:
            chars[rng.randrange(len(chars))] = rng.choice(' :"x9\n')
    return "".join(chars)


def test_criterion_10_parser_properties(registry):
    c = _Criterion(10, "1000 AST round trips and 1000 YAML mutations without crashes", 10.0)
    rng = random.Random(20260808)
    for i in range(1000):
        e = _random_expr(rng, depth=4)
        printed = pretty_print(e)
        try:
            reparsed = parse(printed)
        except Exception as err:  # noqa: BLE001 - counted as a failure below
            c.check(False, f"AST {i}: {printed!r} failed to re-parse: {err}")
            continue
        c.check(reparsed == e, f"AST {i}: round trip changed structure for {printed!r}")

    bases = [(MODELS / "images.yaml").read_text(), (MODELS / "bioseq.yaml").read_text()]
    spec_errors = successes = 0
    for i in range(1000):
        mutated = _mutate_text(bases[i % 2], rng)
        try:
            parse_model(mutated, registry)
            successes += 1
        except SpecError:
            spec_errors += 1
        except Exception as err:  # noqa: BLE001 - the property under test
            c.check(False, f"mutation {i} crashed with {type(err).__name__}: {err}")
    c.check(spec_errors > 0, "mutator never produced an invalid document")
    c.finish()
