"""Dataset serialization: RFC-4180 CSV files and a reproducibility manifest.

Output is byte-exact across platforms: LF line endings, UTF-8 without BOM,
shortest round-trip float formatting.  Formats are documented in FORMATS.md.
"""

from __future__ import annotations

import datetime
import hashlib
import re
from pathlib import Path

from .expr import pretty_print
from .graph import CompiledModel
from .modelspec import SimInstructions
from .sampler import Dataset, RunConfig, check_stratum_label
from .values import csv_cell

__all__ = ["write_csv", "write_manifest", "model_hash", "ENGINE_VERSION"]

ENGINE_VERSION = "0.1.0"

_NEEDS_QUOTE = re.compile(r'[",\r\n]')


def _field(text: str) -> str:
    if _NEEDS_QUOTE.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _render(columns: list[str], rows) -> str:
    lines = [",".join(_field(c) for c in columns)]
    for row in rows:
        lines.append(",".join(_field(csv_cell(row.values[c])) for c in columns))
    return "\n".join(lines) + "\n"


def write_csv(ds: Dataset, model: CompiledModel, instructions: SimInstructions, out_dir: str | Path = ".") -> list[Path]:
    """Write the dataset under ``out_dir``; returns the created file paths.

    Without a stratify node a single ``<csv_name>.csv`` is produced.  With
    one, rows are partitioned into ``<csv_name>_<stratum>.csv`` files (in
    order of first appearance of each label); the label column itself stays
    in every file for auditability.  Files that ``<csv_name>.manifest`` in
    ``out_dir`` lists from an earlier run and this call does not write are
    removed, so a rerun into the same directory leaves no stale strata
    behind; no other file is touched.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = ds.column_order
    csv_name = instructions.csv_name

    if model.stratify is None:
        groups = {None: ds.rows}
    else:
        groups = {}
        for row in ds.rows:
            groups.setdefault(check_stratum_label(row.stratum), []).append(row)

    stale = set(_listed_files(out_dir / f"{csv_name}.manifest"))
    paths = []
    for label, rows in groups.items():
        path = out_dir / (f"{csv_name}.csv" if label is None else f"{csv_name}_{label}.csv")
        path.write_text(_render(columns, rows), encoding="utf-8", newline="")
        paths.append(path)
        stale.discard(path.name)

    for name in stale:
        old = out_dir / name
        # only bare names of files: a listed path never reaches outside out_dir
        if name and Path(name).name == name and old.is_file():
            old.unlink()
    return paths


def _listed_files(manifest: Path) -> list[str]:
    """The ``files`` line of a manifest, or nothing if there is no manifest."""
    if not manifest.is_file():
        return []
    for line in manifest.read_text(encoding="utf-8", errors="replace").splitlines():
        key, _, value = line.partition(" = ")
        if key == "files":
            return value.split(",")
    return []


def model_hash(model: CompiledModel, instructions: SimInstructions | None = None) -> str:
    """SHA-256 over a canonical rendering of the effective model.

    Formatting-only changes to the source document hash identically; any
    semantic change (expressions, kinds, flags, instructions) does not.
    """
    lines = []
    for n in model.nodes:
        lines.append(
            f"node|{n.name}|{n.kind}|{int(n.observed)}|{n.size if n.size is not None else '-'}"
            f"|{n.underlying or '-'}|{pretty_print(n.expr)}"
        )
    if instructions is not None:
        lines.append(f"instr|{instructions.csv_name}|{instructions.num_samples}|{instructions.seed}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def write_manifest(
    ds: Dataset,
    config: RunConfig,
    paths: list[Path],
    model: CompiledModel,
    instructions: SimInstructions,
    out_dir: str | Path = ".",
) -> Path:
    """Write ``<csv_name>.manifest``: everything needed to reproduce the run.

    The timestamp line is informational only and excluded from any
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
        f"rows = {len(ds.rows)}",
        f"files = {','.join(p.name for p in paths)}",
        f"timestamp = {stamp}",
    ]
    path = out_dir / f"{instructions.csv_name}.manifest"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    return path
