"""Streaming output: bounded memory, lazy rows and all-or-nothing files.

``dagforge run`` renders each kept row from its evaluation into a batch of
about 64 KiB per file, writes each full batch to a temp file in the output
directory and renames the files into place after the last row, so a failed
run leaves the directory exactly as it was.
"""

import itertools
import os
import stat
import tracemalloc

import pytest

from dagforge import RunConfig, parse_model, register_host_function, simulate, validate
from dagforge import cli
from dagforge.errors import DomainError
from dagforge.sampler import KeptRows, SampleRow

from conftest import MODELS, model_yaml


# A watched call made well after the first rows went to the temp files.
LATE_CALL = 128


def snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class Watch:
    """A pure host function ``watch(x)`` that returns ``x`` until call ``at``.

    At that call it records the output directory's file names, then returns
    ``then`` (or raises DomainError when ``then`` is None).  ``at=None``
    never switches.
    """

    def __init__(self, out):
        self.out = out
        self.at = None
        self.then = None
        self.calls = 0
        self.seen = None

    def __call__(self, x):
        self.calls += 1
        if self.calls != self.at:
            return x
        self.seen = sorted(os.listdir(self.out))
        if self.then is None:
            raise DomainError("watched call failed")
        return self.then

    def arm(self, at, then=None):
        self.calls, self.at, self.then = 0, at, then


@pytest.fixture()
def watched(registry, monkeypatch, tmp_path):
    """(run, out, watch): run `dagforge run` on a nodes block with `watch` registered."""
    out = tmp_path / "out"
    watch = Watch(out)
    register_host_function(registry, "watch", 1, False, watch)
    monkeypatch.setattr(cli, "_default_registry", lambda: registry)

    def run(run_cli, nodes, *flags):
        spec = tmp_path / "model.yaml"
        spec.write_text(model_yaml(nodes))
        return run_cli("run", spec, "--out", out, "--seed", "3", *flags)

    return run, out, watch


def assert_untouched(out, before):
    after = snapshot(out)
    assert not [name for name in after if name.startswith(".")]
    assert after == before


def test_eval_error_past_first_block_leaves_previous_run(run_cli, watched):
    run, out, watch = watched
    nodes = '    X: "uniform(0, 1)"\n    Y: "watch(X)"\n'
    assert run(run_cli, nodes, "--num-samples", "20")[0] == 0
    before = snapshot(out)

    watch.arm(at=LATE_CALL)
    code, _, err = run(run_cli, nodes, "--num-samples", "1000")
    assert code == 2
    assert "node Y: watched call failed" in err
    assert any(name.startswith(".out.csv.") for name in watch.seen)  # rows were being written
    assert_untouched(out, before)


def test_starvation_leaves_previous_run(run_cli, watched):
    run, out, watch = watched
    nodes = (
        '    X: "binomial(1, 0.5)"\n    Y: "watch(1)"\n'
        '    S:\n      function: "X == 1"\n      kind: selection\n'
    )
    assert run(run_cli, nodes, "--num-samples", "5")[0] == 0
    before = snapshot(out)

    watch.arm(at=LATE_CALL, then=1)  # only looks: the value stays 1
    code, _, err = run(run_cli, nodes, "--num-samples", "1000", "--max-rejection-factor", "1")
    assert code == 3
    assert "selection kept" in err and "limit 1000" in err
    assert any(name.startswith(".out.csv.") for name in watch.seen)
    assert_untouched(out, before)


def test_unusable_stratum_label_after_first_row_leaves_previous_run(run_cli, watched):
    run, out, watch = watched
    nodes = '    G:\n      function: \'watch("a")\'\n      kind: stratify\n'
    assert run(run_cli, nodes, "--num-samples", "20")[0] == 0
    before = snapshot(out)
    assert sorted(before) == ["out.manifest", "out_a.csv"]

    watch.arm(at=LATE_CALL, then="a b")
    code, _, err = run(run_cli, nodes, "--num-samples", "1000")
    assert code == 2
    assert "stratum label 'a b' is not usable in a file name" in err
    assert any(name.startswith(".out_a.csv.") for name in watch.seen)
    assert_untouched(out, before)


def test_failed_run_removes_the_directories_it_made(run_cli, watched):
    run, out, watch = watched
    watch.arm(at=LATE_CALL)
    code, _, _ = run(run_cli, '    Y: "watch(1)"\n', "--num-samples", "1000")
    assert code == 2
    assert watch.seen  # the directory existed while rows were written
    assert not out.exists()


def test_written_files_get_the_umask_mode(run_cli, tmp_path):
    umask = os.umask(0)
    os.umask(umask)
    code, _, err = run_cli("run", MODELS / "bioseq.yaml", "--out", tmp_path, "--num-samples", "3")
    assert code == 0, err
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["BioseqExample_yaml.csv", "BioseqExample_yaml.manifest"]
    for name in names:
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("n", [1, 2, 3])
def test_taking_rows_evaluates_only_those_rows(registry, n):
    calls = []

    def count(x):
        calls.append(x)
        return x

    register_host_function(registry, "count", 1, False, count)
    model = validate(parse_model(model_yaml('    X: "count(1)"\n'), registry), registry)
    rows = iter(KeptRows(model, RunConfig(num_samples=10**6, seed=0), registry))
    taken = list(itertools.islice(rows, n))
    assert len(taken) == n
    assert len(calls) == n


def test_run_builds_no_sample_row(run_cli, tmp_path, monkeypatch, registry):
    built = []
    init = SampleRow.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SampleRow, "__init__", counted)
    code, _, err = run_cli("run", MODELS / "images.yaml", "--num-samples", "20", "--out", tmp_path)
    assert code == 0, err
    assert built == []
    # the count does see the rows the library collects
    model = validate(parse_model((MODELS / "images.yaml").read_text(), registry), registry)
    simulate(model, RunConfig(num_samples=20), registry)
    assert len(built) == 20


def test_cli_memory_does_not_grow_with_rows(run_cli, tmp_path):
    def peak(rows):
        tracemalloc.start()
        try:
            code, _, err = run_cli(
                "run", MODELS / "images.yaml", "--num-samples", rows, "--seed", "0", "--out", tmp_path / str(rows)
            )
            assert code == 0, err
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)  # first-run caches
    small, large = peak(500), peak(2000)
    assert abs(large - small) < 1_000_000, (small, large)
