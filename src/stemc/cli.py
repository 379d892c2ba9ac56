"""Command-line front end.

    stemc make-fixtures DIR          write the bundled demo models/datasets
    stemc quantize MODEL DATA -o Q   calibrate + freeze a quantized network
    stemc run Q DATA                 execute (simulator, oracle or pipeline)
    stemc compare Q DATA             simulator vs hardware-mode oracle
    stemc tune-sparsity Q DATA       fit per-layer rounding/drop settings
    stemc report SUMMARY... -o CSV   consolidate run summaries

Errors print a single `error: ...` line and exit 2; `compare` exits 1 when
the two routes disagree. Reports carry no timestamps, so reruns are
byte-identical. STEMC_LOG sets the log level (default WARNING): warnings
report clamped weights or biases, all-zero value ranges and hidden layers
calibrated below 0 during quantization, INFO adds the tuned plan of
tune-sparsity, DEBUG adds the traceback of a failing command. Nothing is
logged per layer or per stage.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import metrics, netsim
from .fixtures import write_fixture_tree
from .modelio import load_dataset, load_model, load_quantized_model, save_quantized_model
from .quantizer import build_quantized_network, calibrate, calibration_report, quantize_tensor
from .refengine import INT_MODES, int_forward
from .sparsity import SparsityPlan, tune_hybrid

log = logging.getLogger("stemc")


def _accuracy(outputs: np.ndarray, labels: np.ndarray) -> float | None:
    if labels.ndim != 1:
        return None
    preds = np.argmax(outputs, axis=-1)
    return float(np.mean(preds == labels))


def _load_dataset(data_path: str):
    """The dataset at `data_path`; every command needs at least one sample."""
    ds = load_dataset(data_path)
    if len(ds) == 0:
        raise ValueError(f"{data_path}: dataset holds no samples")
    return ds


def _load_inputs(qnet, data_path: str):
    """The dataset and its quantized inputs as int16 (K <= 16 bits),
    quantized one PIPELINE_WINDOW at a time; the simulator and the oracle
    widen them a window at a time."""
    ds = _load_dataset(data_path)
    x_int = np.empty(ds.inputs.shape, dtype=np.int16)
    for lo in range(0, x_int.shape[0], netsim.PIPELINE_WINDOW):
        window = slice(lo, lo + netsim.PIPELINE_WINDOW)
        x_int[window] = quantize_tensor(ds.inputs[window], qnet.input_params)[0]
    return ds, x_int


def _oracle(qnet, x_int: np.ndarray, mode: str) -> tuple[np.ndarray, int]:
    """``int_forward`` in the windows of ``run_batch``, so its temporaries stay
    bounded: (outputs, saturations summed over every layer and window)."""
    outputs, saturations = [], 0
    for lo in range(0, x_int.shape[0], netsim.PIPELINE_WINDOW):
        out, layers = int_forward(qnet, x_int[lo:lo + netsim.PIPELINE_WINDOW], mode=mode)
        outputs.append(out)
        saturations += sum(a.saturations for a in layers.values())
    return np.concatenate(outputs), saturations


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_make_fixtures(args) -> int:
    for flag, count in (("--calib", args.calib), ("--eval", args.eval)):
        if count < 1:
            raise ValueError(f"{flag} must be at least 1, not {count}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, not {args.seed}")
    written = write_fixture_tree(args.dir, calib_n=args.calib, eval_n=args.eval,
                                 seed=args.seed)
    for d in written:
        print(d)
    return 0


def cmd_quantize(args) -> int:
    model = load_model(args.model)
    ds = _load_dataset(args.data)
    stats = calibrate(model, ds.inputs)
    qnet = build_quantized_network(model, stats, k=args.k, acc_bits=args.acc_bits,
                                   bias_check_width=args.bias_bits)
    save_quantized_model(qnet, args.out)
    sys.stdout.write(calibration_report(qnet, stats))
    print(f"wrote {args.out}")
    return 0


def cmd_run(args) -> int:
    if args.dump_spikes and args.mode != "sim":
        raise ValueError(f"--dump-spikes needs --mode sim, not --mode {args.mode}")
    profile = None if args.hw_profile is None else netsim.HardwareProfile.load(args.hw_profile)
    qnet = load_quantized_model(args.model)
    snet = None if args.mode == "oracle" and profile is None else netsim.compile_network(qnet)
    if profile is not None and (violations := netsim.check_capacity(snet, profile)):
        raise ValueError("capacity check failed: " + "; ".join(violations))
    ds, x_int = _load_inputs(qnet, args.data)
    n = x_int.shape[0]
    traces = values = steps = total_steps = None
    if args.mode == "oracle":
        outputs, saturations = _oracle(qnet, x_int, args.oracle_mode)
    else:
        res = netsim.run_batch(snet, x_int, record_values=bool(args.dump_spikes))
        outputs, traces, values = res.outputs, res.traces, res.values
        saturations = sum(t.saturations for t in traces)
        if args.mode == "pipeline":
            timing = netsim.pipeline_timing(snet, n)
            total_steps = timing.total_steps
            print(f"pipeline: {total_steps} steps for {n} samples "
                  f"({snet.n_stages} stages, K={snet.k}, "
                  f"buffer peak {timing.buffered_train_peak})")
        else:
            steps = res.steps_per_sample

    acc = _accuracy(outputs, ds.labels)
    macs = metrics.count_macs(qnet)
    summary = {
        "name": qnet.name,
        "mode": args.mode if args.mode != "oracle" else f"oracle-{args.oracle_mode}",
        "samples": n,
        "accuracy": acc,
        "total_macs": macs * n,
        "macs_per_sample": macs,
        "saturations": saturations,
        "steps_per_sample": steps,
        "total_steps": total_steps,
        "total_sops": None,
        "sops_per_sample": None,
        "ann_uj": None,
        "sdann_uj": None,
        "energy_ratio": None,
    }
    print(f"samples {n}" + ("" if acc is None else f"  accuracy {acc:.4f}"))
    if traces is not None:
        sops = metrics.sop_total(traces, qnet, include_io=args.include_io_layers)
        est = metrics.energy_estimate(macs * n, sops)
        summary.update(
            total_sops=sops,
            sops_per_sample=sops / n,
            ann_uj=est.ann_uj,
            sdann_uj=est.sdann_uj,
            energy_ratio=est.ratio if math.isfinite(est.ratio) else None,   # no MACs
        )
        print(f"SOPs {sops} ({sops / n:.1f}/sample)  MACs {macs}/sample")
        print(f"energy {est.sdann_uj:.4f} uJ spiking vs {est.ann_uj:.4f} uJ "
              f"reference  ratio {est.ratio:.4f}")
        print(f"saturations {saturations}")
    if args.report:
        out = Path(args.report)
        out.mkdir(parents=True, exist_ok=True)
        if traces is not None:
            metrics.write_layer_csv(out / "layers.csv", traces)
        metrics.write_summary(out / "summary.json", summary)
        print(f"report in {out}")
    if values is not None:
        netsim.dump_spike_trains(args.dump_spikes, values, snet.k)
        print(f"spike trains in {args.dump_spikes}")
    return 0


def cmd_compare(args) -> int:
    qnet = load_quantized_model(args.model)
    x_int = _load_inputs(qnet, args.data)[1]      # the float inputs are freed
    n = x_int.shape[0]
    # sparsity is a deliberate deviation from the oracle; compare without it
    snet = netsim.compile_network(qnet, plan=SparsityPlan.identity())
    sim_out = netsim.run_batch(snet, x_int).outputs
    ref_out, _ = _oracle(qnet, x_int, "hw")
    bad = np.flatnonzero(np.any(sim_out != ref_out, axis=-1))
    print(f"{bad.size} mismatches / {n} samples")
    for s in bad[:10]:
        print(f"  sample {s}: sim {sim_out[s].tolist()} != oracle {ref_out[s].tolist()}")
    return 1 if bad.size else 0


def cmd_tune(args) -> int:
    qnet = load_quantized_model(args.model)
    ds, x_int = _load_inputs(qnet, args.data)
    if ds.labels.ndim != 1:
        raise ValueError("tuning needs single-label data")
    result = tune_hybrid(qnet, x_int, ds.labels, accuracy_budget=args.budget,
                         include_io=args.include_io_layers)
    for step in result.steps:
        print(f"{step.layer}: rot={step.chosen.rot_bits} "
              f"drlo={step.chosen.drlo_bits} sops={step.sops} acc={step.accuracy:.4f}")
    print(f"baseline: sops={result.baseline_sops} acc={result.baseline_accuracy:.4f}")
    print(f"tuned:    sops={result.final_sops} acc={result.final_accuracy:.4f} "
          f"({100.0 * (result.baseline_sops - result.final_sops) / max(result.baseline_sops, 1):.1f}% fewer SOPs)")
    if args.out:
        qnet.sparsity = result.plan.to_manifest()
        save_quantized_model(qnet, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_report(args) -> int:
    paths = [Path(s) / "summary.json" if Path(s).is_dir() else Path(s)
             for s in args.summaries]
    rows = metrics.consolidate(paths, args.out)
    for row in rows:
        cells = "  ".join(f"{k}={row[k]}" for k in row)
        print(cells)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stemc", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    mf = sub.add_parser("make-fixtures", help="write bundled demo models and datasets")
    mf.add_argument("dir")
    mf.add_argument("--calib", type=int, default=64)
    mf.add_argument("--eval", type=int, default=200)
    mf.add_argument("--seed", type=int, default=100)
    mf.set_defaults(func=cmd_make_fixtures)

    q = sub.add_parser("quantize", help="calibrate and freeze a quantized network")
    q.add_argument("model")
    q.add_argument("data")
    q.add_argument("-o", "--out", required=True)
    q.add_argument("--k", type=int, default=8, help="spike train length (bits)")
    q.add_argument("--acc-bits", type=int, default=16)
    q.add_argument("--bias-bits", type=int, default=16,
                   help="overflow-check width deciding the bias scheme")
    q.set_defaults(func=cmd_quantize)

    r = sub.add_parser("run", help="execute a quantized network on a dataset")
    r.add_argument("model")
    r.add_argument("data")
    r.add_argument("--mode", choices=("sim", "oracle", "pipeline"), default="sim")
    r.add_argument("--oracle-mode", choices=INT_MODES, default="hw")
    r.add_argument("--report", help="directory for layers.csv + summary.json")
    r.add_argument("--dump-spikes", help="file for run-length spike dumps (sim mode)")
    r.add_argument("--hw-profile", metavar="FILE",
                   help="JSON limits of the target chip; exit 2 if the network exceeds one")
    r.add_argument("--include-io-layers", action="store_true",
                   help="count first/last layer synapses in SOP totals")
    r.set_defaults(func=cmd_run)

    c = sub.add_parser("compare", help="simulator vs hardware-mode oracle")
    c.add_argument("model")
    c.add_argument("data")
    c.set_defaults(func=cmd_compare)

    t = sub.add_parser("tune-sparsity", help="fit per-layer rounding/drop settings")
    t.add_argument("model")
    t.add_argument("data")
    t.add_argument("--budget", type=float, required=True,
                   help="largest acceptable accuracy drop (fraction)")
    t.add_argument("-o", "--out", help="write the tuned manifest here")
    t.add_argument("--include-io-layers", action="store_true")
    t.set_defaults(func=cmd_tune)

    rep = sub.add_parser("report", help="consolidate run summaries into a CSV")
    rep.add_argument("summaries", nargs="+")
    rep.add_argument("-o", "--out", required=True)
    rep.set_defaults(func=cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("STEMC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # single-line machine-parsable failure contract
        log.debug("unhandled failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
