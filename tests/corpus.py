"""A seeded corpus of small models whose output bytes are pinned (``tests/test_corpus.py``).

``models()`` regenerates the same model documents on every call.  Together
they call every function of the default registry and use every node kind
(plate, selection, missing, stratify), and ``runs()`` adds command-line
interventions.  The documents also use the YAML forms the loader must keep:
plain, single- and double-quoted scalars, block and flow mappings, anchors
and aliases for repeated expressions, booleans in mixed case and ignored
``python_file`` entries.

    PYTHONPATH=src python tests/corpus.py

runs every (model, seed, interventions) triple through ``dagforge run`` and
writes ``tests/data/corpus.json``: the sha256 of each model text, and per
run the exit code and the sha256 of every output file (of the manifest
without its ``timestamp`` line).  Recording new digests changes the
reproducibility contract, and needs a CHANGES.md line naming each changed
triple and why.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
import warnings
from pathlib import Path

SEED = 16
N_MODELS = 120
RECORD = Path(__file__).resolve().parent / "data" / "corpus.json"

# One template per registry name.  {u} is a float in [0, 1), {b} a 0/1 int,
# {i} an int in 1..4 and {s} a six-letter DNA string.
TEMPLATES = {
    "abs": "abs({u} - 0.5)",
    "assign_protocol": "assign_protocol({b})",
    "binomial": "binomial(3, {u})",
    "categorical": "categorical([0.2, 0.3, 0.5])",
    "choice": 'choice(["a", "b", "c"], [0.5, 0.25, 0.25])',
    "clamp": "clamp({u} * 2, 0.25, 1.5)",
    "complement_binomial": "complement_binomial({u})",
    "concat": 'concat({s}, "TT")',
    "create_airr": "create_airr({b}, {i} * 10, assign_protocol({b}))",
    "drawImage": "drawImage({b}, 1 - {b}, {b}, 0)",
    "encode_kmers": 'encode_kmers(create_airr({b}, 20, "A"))',
    "exp": "exp({u})",
    "floor": "floor({u} * 10)",
    "get": "get([1.5, -0.0, 3, {u}], {i} - 1)",
    "implant": 'implant({s}, "GG", 1)',
    "kmer_counts": 'kmer_counts([{s}, "ACGT"], 2, "ACGT")',
    "len": "len({s})",
    "log": "log({u} + 1)",
    "max": "max({u}, 0.5, {i})",
    "min": "min({i}, 3) * -0.0",
    "normal": "normal({u}, 2)",
    "poisson": "poisson(3)",
    "randint": "randint(0, 10)",
    "random_seq": 'random_seq("ACGT", 6)',
    "round": "round({u} * 10)",
    "sigmoid": "sigmoid({u} * 4 - 2)",
    "sigmoid_binomial": 'sigmoid_binomial({b}, 1 - {b}, "H")',
    "tensor_fill_rect": "tensor_fill_rect(tensor_zeros([3, 3]), 0, 0, 2, 2, {u})",
    "tensor_zeros": "tensor_zeros([2, 2])",
    "uniform": "uniform(0, 1)",
}
BASE = {"U": "uniform(0, 1)", "B": "binomial(1, U)", "I": "randint(1, 5)", "S": 'random_seq("ACGT", 6)'}
BOOLEANS = ["false", "False", "FALSE", "'false'", "no"]
INTERVENTIONS = [(), ("U=uniform(0, 0.5)",), ("I=3",), ("U=0.25", "B=1")]


def _quoted(text: str, rng: random.Random) -> str:
    if rng.random() < 0.5:
        return "'" + text.replace("'", "''") + "'"
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _scalar(text: str, rng: random.Random) -> str:
    """``text`` as a block-context YAML scalar: plain, or quoted either way."""
    return text if rng.random() < 0.4 else _quoted(text, rng)


def _model(index: int, names: list[str], rng: random.Random) -> str:
    lines = ["graph:"]
    if rng.random() < 0.2:
        lines.append("  python_file: helpers.py")
    lines.append("  nodes:")
    for name, expr in BASE.items():
        lines.append(f"    {name}: {_scalar(expr, rng)}")
    anchored = []  # anchors of earlier expressions, for aliases
    for k, fn in enumerate(names):
        expr = TEMPLATES[fn].format(u="U", b="B", i="I", s="S")
        name = f"N{k}"
        style = rng.randrange(6)
        if anchored and rng.random() < 0.25:
            lines.append(f"    {name}: *{rng.choice(anchored)}")
        elif style == 0:
            anchor = f"e{k}"
            anchored.append(anchor)
            lines.append(f"    {name}: &{anchor} {_scalar(expr, rng)}")
        elif style == 1:
            lines.append(f"    {name}: {{function: {_quoted(expr, rng)}, observed: {rng.choice(BOOLEANS)}}}")
        elif style == 2:
            lines.append(f"    {name}:\n      function: {_scalar(expr, rng)}\n      observed: {rng.choice(['true', 'True', 'yes'])}")
        elif style == 3 and not expr.startswith(("drawImage", "tensor", "create_airr", "encode")):
            lines.append(f"    {name}:\n      function: {_scalar(expr, rng)}\n      size: {rng.randint(1, 3)}")
        else:
            lines.append(f"    {name}: {_scalar(expr, rng)}")
    if rng.random() < 0.4:
        lines.append(f"    Keep: {{function: {_quoted('U < 0.8 or B == 1', rng)}, kind: selection}}")
    if rng.random() < 0.4:
        lines.append(f"    Masked:\n      function: binomial(1, 0.3)\n      kind: missing\n      underlying: {rng.choice(['I', 'U'])}")
    if rng.random() < 0.4:
        group = 'if U < 0.5 then "low" else "high"'
        lines.append(f"    Group:\n      function: {_quoted(group, rng)}\n      kind: stratify")
    if rng.random() < 0.1:
        lines.append("    python_file: more_helpers.py")
    lines.append("instructions:")
    lines.append("  simulation:")
    lines.append(f"    csv_name: corpus{index}")
    lines.append(f"    num_samples: {rng.randint(3, 8)}")
    return "\n".join(lines) + "\n"


def models() -> list[str]:
    """The corpus documents; each registry name is drawn until all are used."""
    rng = random.Random(SEED)
    unused = sorted(TEMPLATES)
    rng.shuffle(unused)
    docs = []
    for index in range(N_MODELS):
        names = [unused.pop() for _ in range(min(len(unused), 3))]
        names += rng.sample(sorted(TEMPLATES), rng.randint(1, 3))
        docs.append(_model(index, names, rng))
    return docs


def runs() -> list[tuple[int, int, tuple[str, ...]]]:
    """Every (model index, seed, interventions) triple the record pins."""
    rng = random.Random(SEED + 1)
    return [(m, seed, rng.choice(INTERVENTIONS)) for m in range(N_MODELS) for seed in (m, 1000 + m)]


def digest(path: Path) -> str:
    blob = path.read_bytes()
    if path.suffix == ".manifest":
        blob = b"".join(line for line in blob.splitlines(keepends=True) if not line.startswith(b"timestamp = "))
    return hashlib.sha256(blob).hexdigest()


def run_key(m: int, seed: int, interventions: tuple[str, ...]) -> str:
    return " ".join([f"model{m}", f"seed{seed}", *interventions])


def record(work: Path) -> dict:
    """Run every triple under ``work`` and return what ``RECORD`` holds."""
    from dagforge.cli import main

    docs = models()
    out = {"models": [hashlib.sha256(d.encode()).hexdigest() for d in docs], "runs": {}}
    for m, seed, interventions in runs():
        spec = work / f"model{m}.yaml"
        spec.write_text(docs[m], encoding="utf-8")
        target = work / f"out{m}_{seed}"
        argv = ["run", str(spec), "--seed", str(seed), "--out", str(target)]
        for i in interventions:
            argv += ["--intervene", i]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
        files = {p.name: digest(p) for p in sorted(target.iterdir())} if target.is_dir() else {}
        out["runs"][run_key(m, seed, interventions)] = {"exit": code, "files": files}
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        result = record(Path(tmp))
    RECORD.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    codes = [r["exit"] for r in result["runs"].values()]
    print(f"{len(codes)} runs, exit codes {sorted(set(codes))}", file=sys.stderr)
