"""Dataset serialization: RFC-4180 CSV files and a reproducibility manifest.

Output is byte-exact across platforms: LF line endings, UTF-8 without BOM,
shortest round-trip float formatting.  Formats are documented in FORMATS.md.
"""

from __future__ import annotations

import contextlib
import datetime
import functools
import operator
import os
import re
from pathlib import Path
from typing import TextIO

from .errors import CoercionError
from .expr import pretty_print
from .graph import CompiledModel
from .modelspec import SimInstructions
from .sampler import Dataset, KeptRows, RunConfig, check_stratum_label
from .values import Tensor, Value, _cut, csv_cell

# CPython's own SHA-256, as hashlib's fallback: hashlib itself loads OpenSSL's
# libcrypto, ~3.7 MB of a run's peak RSS, for the same digest
try:
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:  # a build without it
        from hashlib import sha256

__all__ = ["write_csv", "write_manifest", "model_hash", "ENGINE_VERSION"]

ENGINE_VERSION = "0.1.0"

_NEEDS_QUOTE = re.compile(r'[",\r\n]')


def _field(text: str) -> str:
    if _NEEDS_QUOTE.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(
    ds: Dataset | KeptRows, model: CompiledModel, instructions: SimInstructions, out_dir: str | Path = "."
) -> list[Path]:
    """Write the rows of ``ds`` under ``out_dir``; returns the created file paths.

    ``ds`` is a Dataset, or a KeptRows that is evaluated as it is written:
    each kept row is rendered from its evaluation without becoming a
    SampleRow, and only the current row is held.  Without a stratify node a
    single ``<csv_name>.csv`` is produced.  With one, rows are partitioned
    into ``<csv_name>_<stratum>.csv`` files (in order of first appearance of
    each label); the label column itself stays in every file for
    auditability.  Each file's lines go out in batches of about
    ``_BATCH_CHARS`` characters, so a file holds at most one pending batch
    (and one line past it) whatever the row count.

    Each file is written to a dot-prefixed temp file in ``out_dir`` and
    renamed into place only after the last row, so if anything fails the
    directory is left as it was.  Files that ``<csv_name>.manifest`` in
    ``out_dir`` lists from an earlier run and this call does not write are
    then removed, so a rerun into the same directory leaves no stale strata
    behind; no other file is touched.  A Dataset row without a value for a
    column is a CoercionError that names the column.
    """
    out_dir = Path(out_dir)
    csv_name = instructions.csv_name
    columns = ds.column_order
    if isinstance(ds, KeptRows):
        rows = ds._bindings()  # labels already checked
    elif model.stratify is not None:
        rows = ((row.values, check_stratum_label(row.stratum)) for row in ds.rows)
    else:
        rows = ((row.values, None) for row in ds.rows)
    # a row's observed values, in column order; itemgetter of one name gives no tuple
    if len(columns) > 1:
        pick = operator.itemgetter(*columns)
    else:
        pick = lambda values: [values[c] for c in columns]  # noqa: E731
    header = ",".join(_field(c) for c in columns)
    # A tensor keeps its cell text, so a tensor that recurs across rows passes
    # the same string object, whose hash is cached: each distinct cell is
    # quoted once.  The cache holds the last 16 cells of this call only.
    tensor_field = functools.lru_cache(maxsize=16)(_field)

    # The cell text of a bool never holds a quote, comma or line break, nor
    # does that of an exact int or float, which the row loop writes itself.
    def cell_field(v: Value) -> str:
        text = csv_cell(v)
        kind = type(v)
        if kind is bool:
            return text
        return tensor_field(text) if kind is Tensor else _field(text)

    made = _make_dirs(out_dir)
    files: dict[str | None, _Batch] = {}

    def open_stratum(label: str | None) -> _Batch:
        path = out_dir / (f"{csv_name}.csv" if label is None else f"{csv_name}_{label}.csv")
        files[label] = batch = _Batch(path, header)
        return batch

    try:
        if model.stratify is None:
            open_stratum(None)  # written even when there are no rows
        for values, label in rows:
            batch = files[label] if label in files else open_stratum(label)
            try:
                # str gives csv_cell's text for an exact int or float
                line = ",".join([str(v) if type(v) is float or type(v) is int else cell_field(v)
                                 for v in pick(values)])
            except (KeyError, ValueError) as err:  # no value, or an int past the digit limit
                raise _cell_error(values, columns) or err
            batch.lines.append(line)
            batch.size += len(line) + 1
            if batch.size >= _BATCH_CHARS:
                batch.flush()
        for batch in files.values():
            batch.flush()
            batch.fh.close()
    except BaseException:
        for batch in files.values():
            with contextlib.suppress(OSError):
                batch.fh.close()
            batch.tmp.unlink(missing_ok=True)
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise

    stale = set(_listed_files(out_dir / f"{csv_name}.manifest"))
    paths = []
    for batch in files.values():
        os.replace(batch.tmp, batch.path)
        paths.append(batch.path)
        stale.discard(batch.path.name)
    for name in stale:
        old = out_dir / name
        # only bare names of files: a listed path never reaches outside out_dir
        if name and Path(name).name == name and old.is_file():
            old.unlink()
    return paths


# Characters of pending lines after which a file's batch is written.  The
# cap counts text, not rows, because one row can hold megabytes.
_BATCH_CHARS = 1 << 16


class _Batch:
    """One output file: its path, its open temp file, and the lines not yet written to it."""

    __slots__ = ("path", "tmp", "fh", "lines", "size")

    def __init__(self, path: Path, header: str):
        self.path = path
        self.tmp, self.fh = _open_temp(path)
        self.lines = [header]
        self.size = len(header) + 1

    def flush(self) -> None:
        """Write the pending lines, each followed by a line break."""
        self.lines.append("")
        self.fh.write("\n".join(self.lines))
        self.lines = []
        self.size = 0


def _cell_error(values: dict[str, Value], columns: list[str]) -> CoercionError | None:
    """The error naming the first column of a row that has no value or whose value has no cell text."""
    for c in columns:
        if c not in values:
            return CoercionError(f"column {_cut(c)}: the row has no value for it")
        try:
            csv_cell(values[c])
        except ValueError as err:
            return CoercionError(f"column {_cut(c)}: cannot write the value: {err}")
    return None


def _make_dirs(out_dir: Path) -> list[Path]:
    """Create ``out_dir`` and any missing parents; returns those created, deepest first."""
    missing = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    return missing


def _open_temp(path: Path) -> tuple[Path, TextIO]:
    """Create a new dot-prefixed temp file beside ``path``, open for UTF-8 text.

    The file gets mode 0o666 less the umask, as ``Path.write_text`` would
    give, rather than the 0o600 of ``tempfile.mkstemp``.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp, flags, 0o666)
        except FileExistsError:
            continue
        return tmp, open(fd, "w", encoding="utf-8", newline="")


def _replace_text(path: Path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it onto ``path``."""
    tmp, fh = _open_temp(path)
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _listed_files(manifest: Path) -> list[str]:
    """The ``files`` line of a manifest, or nothing if there is no manifest."""
    if not manifest.is_file():
        return []
    for line in manifest.read_text(encoding="utf-8", errors="replace").splitlines():
        key, _, value = line.partition(" = ")
        if key == "files":
            return value.split(",")
    return []


def model_hash(model: CompiledModel, instructions: SimInstructions) -> str:
    """SHA-256 over a canonical rendering of the effective model.

    Formatting-only changes to the source document hash identically; any
    semantic change (expressions, kinds, flags, instructions) does not.
    The digest is computed without OpenSSL where CPython ships its own
    SHA-256, and its bytes are those of ``hashlib.sha256``.
    """
    lines = []
    for n in model.nodes:
        lines.append(
            f"node|{n.name}|{n.kind}|{int(n.observed)}|{n.size if n.size is not None else '-'}"
            f"|{n.underlying or '-'}|{pretty_print(n.expr)}"
        )
    lines.append(f"instr|{instructions.csv_name}|{instructions.num_samples}|{instructions.seed}")
    return sha256("\n".join(lines).encode("utf-8")).hexdigest()


def write_manifest(
    ds: Dataset | KeptRows,
    config: RunConfig,
    paths: list[Path],
    model: CompiledModel,
    instructions: SimInstructions,
    out_dir: str | Path = ".",
) -> Path:
    """Write ``<csv_name>.manifest``: everything needed to reproduce the run.

    ``ds`` is the Dataset or the fully iterated KeptRows that ``paths``
    were written from.  The file is written to a temp file and renamed into
    place.  The timestamp line is informational only and excluded from any
    comparison or hash.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    lines = [
        f"engine_version = {ENGINE_VERSION}",
        f"model_hash = {model_hash(model, instructions)}",
        f"seed = {config.seed}",
        f"num_samples = {config.num_samples}",
        f"attempts = {ds.attempts}",
        f"rows = {ds.kept if isinstance(ds, KeptRows) else len(ds.rows)}",
        f"files = {','.join(p.name for p in paths)}",
        f"timestamp = {stamp}",
    ]
    path = out_dir / f"{instructions.csv_name}.manifest"
    _replace_text(path, "\n".join(lines) + "\n")
    return path
