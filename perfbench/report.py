"""Run the benchmark over workloads and seeds and print every metric.

    python3 perfbench/report.py [--workloads cnn28 deep-mlp residual]
        [--seeds 1 2 3] [--seconds S] [--trace 0 1]

Each (workload, seed, trace) is a fresh `run.py` process, one at a time.
For every metric it prints the per-seed values, their median and the spread
(q3 - q1) / median as `statistics.quantiles(values, n=4)` gives the
quartiles, beside the metric's bound from BENCHMARK.json. A seed given twice
is run twice, and its exact counts must then be identical. Exits 1 if any
run failed, was not correct, or repeated an exact count differently.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return result, wall


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", nargs="+", type=int, choices=(0, 1), default=[0, 1])
    args = p.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from harness import EXACT, EXACT_END_TO_END

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for trace in args.trace:
        for workload in args.workloads:
            runs, walls = [], []
            exact_by_seed: dict[int, dict] = {}
            for seed in args.seeds:
                result, wall = run_once(workload, seed, args.seconds, trace)
                walls.append(wall)
                good = result is not None and result["correct"]
                ok &= good
                print(f"# {workload} seed {seed} trace {trace}: "
                      f"{'ok' if good else 'FAILED'} in {wall:.1f} s", flush=True)
                if result is None:
                    continue
                runs.append(result["metrics"])
                exact = {k: v["value"] for k, v in result["metrics"].items()
                         if k in EXACT | EXACT_END_TO_END}
                if exact_by_seed.setdefault(seed, exact) != exact:
                    ok = False
                    print(f"# {workload} seed {seed}: exact counts differ between runs")
            if not runs:
                continue
            print(f"## {workload} trace {trace}: {len(runs)} runs, "
                  f"wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
            for name, first in runs[0].items():
                values = [r[name]["value"] for r in runs if name in r]
                bound = bounds.get(name)
                line = (f"{name:<28} {statistics.median(values):>14.6g} {first['unit']:<12}"
                        f" spread {spread(values):6.3f}")
                if bound is not None:
                    line += f"  bound {bound:.3f}"
                    if name != "setup_s" and spread(values) > bound / 3:
                        line += "  WIDE"
                print(line + "  [" + " ".join(f"{v:.5g}" for v in values) + "]", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
