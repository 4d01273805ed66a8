#!/usr/bin/env python3
"""Run both bundled example models end to end and summarize the output.

Usage: python scripts/run_examples.py [--out DIR] [--seed N]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dagforge import (
    RunConfig,
    build_registry,
    parse_model,
    register_example_functions,
    simulate,
    validate,
    write_csv,
    write_manifest,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="output directory (default: out/)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    registry = build_registry()
    register_example_functions(registry)

    for name in ("images.yaml", "bioseq.yaml"):
        spec = parse_model((MODELS / name).read_text())
        model = validate(spec, registry)
        config = RunConfig(num_samples=spec.instructions.num_samples, seed=args.seed)
        ds = simulate(model, config, registry)
        paths = write_csv(ds, model, spec.instructions, args.out)
        manifest = write_manifest(ds, config, paths, model, spec.instructions, args.out)
        print(f"{name}: kept {len(ds.rows)} rows from {ds.attempts} attempts")
        print(f"  columns: {', '.join(ds.column_order)}")
        for p in [*paths, manifest]:
            print(f"  wrote {p}")


if __name__ == "__main__":
    main()
