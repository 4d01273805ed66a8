"""Traced in-process driver: per-layer metrics for one workload.

It calls the public API in the order ``cli.cmd_run`` does: ``parse_model``,
``validate``, ``apply_interventions``, ``simulate``, ``write_csv``,
``write_manifest``.  Passes alternate between wrappers off (stage times) and
wrappers on (counts and per-function busy time).  The wrappers live here,
not in the program:

* a ``FunctionRegistry`` subclass that counts ``lookup`` calls and whose
  entries time each function call;
* replacements for ``dagforge.sampler.evaluate`` and
  ``dagforge.sampler.RandomStream`` that count node evaluations, streams and
  raw draws;
* a wrapper on ``Tensor.__init__`` that counts and times tensor builds.

A layer that a later version of the program no longer reaches through these
names reports zero for its counts.  Spans (name, start, end, parent, run id)
stay in memory and are written to ``.bench_out/spans-<workload>-<seed>.json``
once the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

import yaml

import check
from workloads import Workload

# Functions whose busy time is reported on its own; between them they cover
# every registry call the three workloads make.
REPORTED_FUNCTIONS = (
    "uniform", "normal", "binomial", "randint",
    "complement_binomial", "sigmoid_binomial", "drawImage",
    "assign_protocol", "create_airr", "encode_kmers",
)
MICRO_ITERATIONS = 100_000
IMPORT_CHILDREN = 3
# Share of --seconds spent on whole passes; the per-layer timings after them
# take roughly the rest.
PASS_SHARE = 0.5
# tracemalloc slows allocation-heavy code several times over, so peak
# allocation is measured over this fraction of the workload's rows.
ALLOC_SHARE = 0.25


class Tracer:
    """Spans and counters, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.run_id = 0
        self.counts: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                  "run": self.run_id, "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str, runs: set[int]) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and s["run"] in runs]


def _timed(tracer: Tracer, name: str, impl):
    def call(*args):
        start = time.perf_counter()
        try:
            return impl(*args)
        finally:
            tracer.busy[name] += time.perf_counter() - start
            tracer.counts[f"calls.{name}"] += 1

    return call


def traced_registry(tracer: Tracer):
    import dagforge

    class CountingRegistry(dagforge.FunctionRegistry):
        def lookup(self, name):
            tracer.counts["registry.lookups"] += 1
            return super().lookup(name)

    base = plain_registry()
    reg = CountingRegistry()
    for name in base.names():
        entry = base.lookup(name)
        reg.add_builtin(name, entry.arity, entry.stochastic, _timed(tracer, name, entry.impl))
    return reg


def plain_registry():
    import dagforge

    reg = dagforge.build_registry()
    dagforge.register_example_functions(reg)
    return reg


@contextlib.contextmanager
def _patched(owner, attr: str, make):
    """Replace ``owner.attr`` with ``make(original)``; a no-op if the name is gone."""
    original = getattr(owner, attr, None)
    if original is None:
        yield
        return
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextlib.contextmanager
def wrappers(tracer: Tracer):
    import dagforge.sampler as sampler
    from dagforge.values import Tensor

    counts = tracer.counts

    def counting_evaluate(evaluate):
        def wrapped(expr, env):
            counts["evaluator.node_evals"] += 1
            return evaluate(expr, env)

        return wrapped

    def counting_stream(stream_cls):
        class CountingStream(stream_cls):
            def __init__(self, *args, **kwargs):
                counts["rng.streams"] += 1
                super().__init__(*args, **kwargs)

            def next_word(self):
                counts["rng.draws"] += 1
                return super().next_word()

        return CountingStream

    def timed_init(init):
        def wrapped(self, *args, **kwargs):
            start = time.perf_counter()
            try:
                init(self, *args, **kwargs)
            finally:
                tracer.busy["values.tensor_build"] += time.perf_counter() - start
                counts["values.tensor_builds"] += 1

        return wrapped

    with contextlib.ExitStack() as stack:
        stack.enter_context(_patched(sampler, "evaluate", counting_evaluate))
        stack.enter_context(_patched(sampler, "RandomStream", counting_stream))
        stack.enter_context(_patched(Tensor, "__init__", timed_init))
        yield


@dataclasses.dataclass
class Pass:
    ds: object
    model: object
    effective: object
    instructions: object
    paths: list
    during: dict  # counter increments while `simulate` ran


def one_pass(tracer: Tracer, w: Workload, seed: int, out_dir: Path, make_registry):
    """The CLI's `run` path, one span per public call."""
    from dagforge import RunConfig, apply_interventions, parse, parse_model, simulate, validate, write_csv, write_manifest

    with tracer.span("driver.pass"):
        with tracer.span("cli.read"):
            text = w.model_path.read_text(encoding="utf-8")
            registry = make_registry()
        with tracer.span("modelspec.parse_model"):
            spec = parse_model(text, registry)
            interventions = {}
            for item in w.interventions:
                node, _, expr = item.partition("=")
                interventions[node] = parse(expr)
        with tracer.span("modelspec.validate"):
            model = validate(spec, registry)
        with tracer.span("modelspec.intervene"):
            effective = apply_interventions(model, interventions, registry)
        config = RunConfig(num_samples=w.rows, seed=seed)
        before = dict(tracer.counts)
        with tracer.span("sampler.simulate"):
            ds = simulate(effective, config, registry)
        during = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
        with tracer.span("output.write_csv"):
            paths = write_csv(ds, effective, spec.instructions, out_dir)
        with tracer.span("output.write_manifest"):
            write_manifest(ds, config, paths, effective, spec.instructions, out_dir)
    return Pass(ds, model, effective, spec.instructions, paths, during)


def _count_exprs(node) -> int:
    """AST size: the expression plus every dataclass-field expression below it."""
    total = 1
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        for child in value if isinstance(value, (list, tuple)) else (value,):
            if dataclasses.is_dataclass(child) and not isinstance(child, type):
                total += _count_exprs(child)
    return total


def _node_texts(text: str) -> list[str]:
    nodes = yaml.safe_load(text)["graph"]["nodes"]
    return [str(v["function"] if isinstance(v, dict) else v) for k, v in nodes.items() if k != "python_file"]


def _median_time(fn, repeat: int = 5) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _peak_alloc_mb(fn):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 1e6


def _rng_micro() -> tuple[float, float]:
    from dagforge import RandomStream, node_stream_key

    key = node_stream_key("bench")

    def streams():
        for i in range(MICRO_ITERATIONS):
            RandomStream(7, i, key).next_word()

    def words():
        s = RandomStream(7, 0, key)
        for _ in range(MICRO_ITERATIONS):
            s.next_word()

    return MICRO_ITERATIONS / _median_time(words, 3), MICRO_ITERATIONS / _median_time(streams, 3)


def _import_s(root: Path) -> float:
    from bench import child_env

    times = []
    for _ in range(IMPORT_CHILDREN):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dagforge"], env=child_env(), cwd=root, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py"))


def run(w: Workload, seed: int, seconds: float, root: Path, work: Path, spans_dir: Path) -> dict:
    """Alternate passes with wrappers off and on, then time each layer on its own."""
    import dagforge
    from dagforge import RunConfig, csv_cell, detect_cycle, parse, simulate, topo_sort, write_csv

    references = check.load_references()
    tracer = Tracer()
    plain_runs, traced_runs = set(), set()
    attempted = failed = 0
    problems: list[str] = []
    digests = []
    deadline = time.perf_counter() + seconds * PASS_SHARE
    while not (plain_runs and traced_runs) or time.perf_counter() < deadline:
        traced = len(traced_runs) < len(plain_runs)
        tracer.run_id += 1
        out_dir = work / f"pass-{tracer.run_id}"
        if traced:
            with wrappers(tracer):
                last_traced = one_pass(tracer, w, seed, out_dir, lambda: traced_registry(tracer))
            traced_runs.add(tracer.run_id)
        else:
            last_plain = one_pass(tracer, w, seed, out_dir, plain_registry)
            plain_runs.add(tracer.run_id)
        attempted += 1
        got, found = check.check_output(w, seed, out_dir, references)
        if found or (digests and got != digests[0]):
            failed += 1
            problems += found or [f"pass {tracer.run_id} output differs from pass 1 (traced={traced})"]
        digests.append(got)
        if not traced:
            out_bytes = sum(p.stat().st_size for p in last_plain.paths)
        shutil.rmtree(out_dir, ignore_errors=True)

    tracer.run_id = 0  # spans below belong to no pass
    ds, model, effective = last_plain.ds, last_plain.model, last_plain.effective
    during = last_traced.during
    rows = len(ds.rows)
    config = RunConfig(num_samples=w.rows, seed=seed)
    registry = plain_registry()

    def median_span(name, runs=plain_runs):
        return statistics.median(tracer.durations(name, runs))

    simulate_s = median_span("sampler.simulate")
    write_s = median_span("output.write_csv")

    with tracer.span("micro.expr_parse"):
        texts = _node_texts(w.model_path.read_text(encoding="utf-8"))
        parse_s = _median_time(lambda: [parse(t) for t in texts], 3)
        ast_nodes = sum(_count_exprs(parse(t)) for t in texts)
    with tracer.span("micro.topo"):
        names = [n.name for n in model.nodes]
        topo_s = _median_time(lambda: (topo_sort(names, model.parents), detect_cycle(model.parents)))
    with tracer.span("micro.csv_cell"):
        values = [v for r in ds.rows for v in r.values.values()]
        start = time.perf_counter()
        cells = [csv_cell(v) for v in values]
        csv_cell_s = time.perf_counter() - start
        cell_bytes = sum(len(c.encode("utf-8")) for c in cells)
        del values, cells
    with tracer.span("micro.rng"):
        words_per_s, streams_per_s = _rng_micro()
    with tracer.span("micro.simulate_alloc"):
        small = RunConfig(num_samples=max(1, int(w.rows * ALLOC_SHARE)), seed=seed)
        small_ds, sim_alloc = _peak_alloc_mb(lambda: simulate(effective, small, registry))
    with tracer.span("micro.write_alloc"):
        out_dir = work / "alloc"
        _, write_alloc = _peak_alloc_mb(lambda: write_csv(small_ds, effective, last_plain.instructions, out_dir))
        shutil.rmtree(out_dir, ignore_errors=True)
    with tracer.span("micro.threads2"):
        start = time.perf_counter()
        try:
            simulate(effective, config, registry, threads=2)
        except TypeError:  # a version without the thread pool: report the sequential rate
            simulate(effective, config, registry)
        threads2_s = time.perf_counter() - start
    with tracer.span("micro.import"):
        import_s = _import_s(root)

    plain_wall = statistics.median(tracer.durations("driver.pass", plain_runs))
    traced_wall = statistics.median(tracer.durations("driver.pass", traced_runs))
    # busy times are summed over every traced pass; report them per pass
    per_pass = len(traced_runs)
    fn_names = [k.removeprefix("calls.") for k in during if k.startswith("calls.")]
    calls = sum(during[f"calls.{n}"] for n in fn_names)
    fn_busy = {n: tracer.busy[n] / per_pass for n in fn_names}
    top = sorted(fn_busy.items(), key=lambda kv: -kv[1])[:3]
    edges = sum(len(p) for p in model.parents.values())

    m = {
        "cli.import_s": (import_s, "s"),
        "modelspec.parse_model_s": (median_span("modelspec.parse_model"), "s"),
        "modelspec.validate_s": (median_span("modelspec.validate"), "s"),
        "modelspec.intervene_s": (median_span("modelspec.intervene"), "s"),
        "expr.parse_s": (parse_s, "s"),
        "expr.ast_nodes": (ast_nodes, "count"),
        "graph.topo_s": (topo_s, "s"),
        "evaluator.node_evals": (during.get("evaluator.node_evals", 0), "count"),
        "evaluator.evals_per_s": (during.get("evaluator.node_evals", 0) / simulate_s, "1/s"),
        "registry.lookups": (during.get("registry.lookups", 0), "count"),
        "registry.lookups_per_row": (during.get("registry.lookups", 0) / rows, "count/row"),
        "stdlib.calls": (calls, "count"),
        "stdlib.busy_s": (sum(fn_busy.values()), "s"),
        **{f"stdlib.{n}.busy_s": (fn_busy.get(n, 0.0), "s") for n in REPORTED_FUNCTIONS},
        "rng.streams": (during.get("rng.streams", 0), "count"),
        "rng.draws": (during.get("rng.draws", 0), "count"),
        "rng.draws_per_row": (during.get("rng.draws", 0) / rows, "count/row"),
        "rng.words_per_s": (words_per_s, "1/s"),
        "rng.streams_per_s": (streams_per_s, "1/s"),
        "values.tensor_builds": (during.get("values.tensor_builds", 0), "count"),
        "values.tensor_build_s": (tracer.busy["values.tensor_build"] / per_pass, "s"),
        "values.csv_cell_s": (csv_cell_s, "s"),
        "values.cell_bytes": (cell_bytes, "bytes"),
        "sampler.simulate_s": (simulate_s, "s"),
        "sampler.rows_per_s": (rows / simulate_s, "rows/s"),
        "sampler.attempts": (ds.attempts, "count"),
        "sampler.acceptance": (rows / ds.attempts, "ratio"),
        "sampler.peak_alloc_mb": (sim_alloc, "MB"),
        "sampler.rows_per_s_threads2": (rows / threads2_s, "rows/s"),
        "output.write_csv_s": (write_s, "s"),
        "output.bytes": (out_bytes, "bytes"),
        "output.mb_per_s": (out_bytes / 1e6 / write_s, "MB/s"),
        "output.files": (len(last_plain.paths), "count"),
        "output.peak_alloc_mb": (write_alloc, "MB"),
        "output.manifest_s": (median_span("output.write_manifest"), "s"),
        "repo.src_lines": (_src_lines(root), "count"),
        "repo.all_size": (len(dagforge.__all__), "count"),
        "trace.overhead": (traced_wall / plain_wall, "x"),
    }

    spans_path = spans_dir / f"spans-{w.name}-{w.seed}.json"
    spans_path.write_text(json.dumps({"spans": tracer.spans, "counts": dict(tracer.counts)}), encoding="utf-8")
    for p in problems:
        print(f"FAIL {p}")
    print(f"model: {len(model.nodes)} nodes, {edges} edges, {len(ds.column_order)} observed columns, "
          f"acceptance {rows}/{ds.attempts}")
    print(f"passes: {len(plain_runs)} with wrappers off ({plain_wall:.3f} s median), "
          f"{len(traced_runs)} with wrappers on ({traced_wall:.3f} s median)")
    print("top functions by busy time: " + ", ".join(f"{n} {s:.4f} s" for n, s in top))
    print(f"spans written to {spans_path.relative_to(spans_dir.parent)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()},
    }

