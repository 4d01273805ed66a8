#!/usr/bin/env python3
"""Compare the images model with and without do(H=1) at the same seed.

Shows the screening property of keyed per-node streams: columns outside
the intervened node's descendants stay bit-identical.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dagforge import (
    RunConfig,
    apply_interventions,
    build_registry,
    parse,
    parse_model,
    register_example_functions,
    simulate,
    validate,
    values_equal,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--num-samples", type=int, default=200)
    args = ap.parse_args()

    registry = build_registry()
    register_example_functions(registry)
    spec = parse_model((MODELS / "images.yaml").read_text())
    model = validate(spec, registry)

    config = RunConfig(num_samples=args.num_samples, seed=args.seed)
    base = simulate(model, config, registry)
    done = simulate(apply_interventions(model, {"H": parse("1")}, registry), config, registry)

    print(f"{'column':>8} {'identical':>10} {'mean(base)':>12} {'mean(do H=1)':>13}")
    for col in base.column_order:
        same = all(
            values_equal(a.values[col], b.values[col]) for a, b in zip(base.rows, done.rows)
        )
        if col == "Image":
            print(f"{col:>8} {str(same):>10} {'-':>12} {'-':>13}")
            continue
        mean = lambda ds: sum(r.values[col] for r in ds.rows) / len(ds.rows)
        print(f"{col:>8} {str(same):>10} {mean(base):>12.4f} {mean(done):>13.4f}")


if __name__ == "__main__":
    main()
