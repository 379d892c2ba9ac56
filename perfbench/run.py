"""stemc benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload cnn28|deep-mlp|residual \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports stemc from `src/`.
With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Scratch files, details
and traces go to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

# One thread for every BLAS/OpenMP pool; must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("cnn28", "deep-mlp", "residual")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stemc" / "__init__.py").is_file():
        print(f"error: no stemc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import shutil
    import tempfile

    import harness
    from workloads import WORKLOADS, write_inputs

    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    tmp = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    bench = harness.Bench(wl, write_inputs(wl, args.seed, tmp), tmp)
    values: dict = {}
    lines: list[str] = []
    try:
        if args.trace:
            values, lines = harness.measure_traced(bench, args.seconds,
                                                   OUT / f"trace-{tag}.json.gz")
        else:
            values, lines = harness.measure(bench, args.seconds)
    except harness.RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
    except Exception:  # a crash in the program under test is a failed run
        traceback.print_exc()
        bench.ops.record(False, "unexpected exception")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = bench.ops
    correct = ops.failed == 0 and bool(values)
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "errors": ops.errors,
              "times_s": dict(bench.times), "commands": bench.commands,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1))
    for line in lines:
        print(line)
    for name, (value, unit) in values.items():
        print(f"{name:<28} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed if ops.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
