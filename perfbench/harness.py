"""Drives one workload through `stemc.cli.main` and checks every output.

Untraced run (end-to-end metrics), in a window of `--seconds` that starts
with the first command:
  1. `quantize`, whose output the later commands read;
  2. untimed check: `compare` must exit 0 (run_batch == int_forward hw on
     the eval batch), run_pipeline must equal int_forward on the pipeline
     samples in exactly K*(stages+S) steps;
  3. rounds of `quantize`, `run --mode sim|pipeline|oracle` and
     `tune-sparsity`, each at the workload's rate per round, while they fit
     in the window; every timed metric is the median of its command's runs;
  4. after the window, a sim run of the tuned model.
Every command's output is checked; exact counts must repeat exactly.

Traced run (per-layer metrics): after one `quantize` and the same check,
untraced and traced rounds of `quantize, sim, pipeline, oracle, tune`
alternate while another pair of them fits in the window; traced rounds wrap
every public stemc function. Each per-layer value is the median over traced
rounds of its per-round total; the round-time ratio is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stemc import cli, netsim
from stemc.modelio import load_dataset, load_quantized_model
from stemc.quantizer import quantize_tensor
from stemc.refengine import int_forward

from tracing import Tracer
from workloads import ACC_BITS, K, TUNE_BUDGET, Workload, WorkloadFiles


class RunFailed(RuntimeError):
    """A check failed; the run reports correct=false."""


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Bench:
    """One workload's files, the commands run on them and their checks."""

    def __init__(self, wl: Workload, files: WorkloadFiles, tmp: Path):
        self.wl = wl
        self.files = files
        self.tmp = tmp
        self.q = tmp / "q.json"
        self.tuned = tmp / "tuned.json"
        self.ops = Ops()
        self.times: dict[str, list[float]] = defaultdict(list)
        self.reference: dict[str, bytes] = {}
        self.expected: dict[str, object] = {}
        self.commands: list[dict] = []
        self.tracer: Tracer | None = None
        self.argv = {
            "quantize": ["quantize", str(files.model), str(files.calib), "-o", str(self.q),
                         "--k", str(K), "--acc-bits", str(ACC_BITS)],
            "sim": ["run", str(self.q), str(files.eval), "--mode", "sim",
                    "--report", str(tmp / "sim")],
            "pipeline": ["run", str(self.q), str(files.pipeline), "--mode", "pipeline",
                         "--report", str(tmp / "pipeline")],
            "oracle": ["run", str(self.q), str(files.eval), "--mode", "oracle",
                       "--oracle-mode", "hw", "--report", str(tmp / "oracle")],
            "tune": ["tune-sparsity", str(self.q), str(files.tune),
                     "--budget", str(TUNE_BUDGET), "-o", str(self.tuned)],
            "tuned-sim": ["run", str(self.tuned), str(files.eval), "--mode", "sim",
                          "--report", str(tmp / "tuned-sim")],
            "compare": ["compare", str(self.q), str(files.eval)],
        }

    # -- commands ----------------------------------------------------------

    def cli(self, kind: str, round_no: int = -1) -> tuple[int, float]:
        """Run one stemc command in-process with stdout sent to devnull."""
        if self.tracer is not None:
            self.tracer.command = len(self.commands)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            rc = cli.main(list(self.argv[kind]))
            seconds = time.perf_counter() - start
        self.commands.append({"id": len(self.commands), "kind": kind, "round": round_no,
                              "traced": self.tracer is not None, "wall_s": seconds,
                              "exit": rc})
        return rc, seconds

    def output(self, kind: str) -> bytes:
        if kind in ("quantize", "tune"):
            return (self.q if kind == "quantize" else self.tuned).read_bytes()
        return (self.tmp / kind / "summary.json").read_bytes()

    def summary(self, kind: str) -> dict:
        return json.loads(self.output(kind))

    def timed(self, kind: str, round_no: int = -1) -> float:
        """Run a command, check its output against the first run of its kind."""
        rc, seconds = self.cli(kind, round_no)
        ok = rc == 0
        if ok:
            out = self.output(kind)
            if kind not in self.reference:
                self.reference[kind] = out
                ok = self.first_output_ok(kind)
            else:
                ok = out == self.reference[kind]
        if self.ops.record(ok, f"{kind}: exit {rc}, output check failed"):
            self.times[kind].append(seconds)
        else:
            raise RunFailed(f"{kind} failed its output check")
        return seconds

    def first_output_ok(self, kind: str) -> bool:
        if kind in ("quantize", "tune"):
            load_quantized_model(self.q if kind == "quantize" else self.tuned)
            return True
        s = self.summary(kind)
        if kind == "pipeline":
            return (s["total_steps"] == self.expected["pipeline_steps"]
                    and s["accuracy"] == self.expected["pipeline_accuracy"])
        if kind in ("sim", "oracle"):
            return s["accuracy"] == self.expected["accuracy"]
        return s["sops_per_sample"] is not None     # tuned-sim

    # -- untimed correctness check -----------------------------------------

    def check(self) -> None:
        """sim == oracle(hw) through `compare`; pipeline == oracle on S samples."""
        rc, _ = self.cli("compare")
        if not self.ops.record(rc == 0, f"compare exited {rc}"):
            raise RunFailed("stemc compare found mismatches")
        qnet = load_quantized_model(self.q)
        ev = load_dataset(self.files.eval)
        x_int, _ = quantize_tensor(ev.inputs, qnet.input_params)
        ref, _ = int_forward(qnet, x_int, mode="hw")
        snet = netsim.compile_network(qnet)
        s = self.wl.n_pipeline
        pipe = netsim.run_pipeline(snet, x_int[:s])
        steps = K * (snet.n_stages + s)
        ok = (np.array_equal(pipe.outputs, ref[:s])
              and pipe.timing.total_steps == steps)
        if not self.ops.record(ok, "run_pipeline differs from int_forward(hw)"):
            raise RunFailed("run_pipeline differs from int_forward(hw)")
        preds = np.argmax(ref, axis=-1)
        self.expected = {
            "accuracy": float(np.mean(preds == ev.labels)),
            "pipeline_accuracy": float(np.mean(preds[:s] == ev.labels[:s])),
            "pipeline_steps": steps,
        }


def _iqr_line(name: str, values: list[float], unit: str) -> str:
    q1, q2, q3 = quartiles(values)
    return (f"{name:<24} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"n {len(values)}  {unit}")


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def schedule(rates: dict):
    """Endless (round, command) sequence; a command with rate r runs
    ceil((n + 1) r) - ceil(n r) times in round n, so round 0 runs each once."""
    for round_no in itertools.count():
        for kind, rate in rates.items():
            for _ in range(math.ceil((round_no + 1) * rate) - math.ceil(round_no * rate)):
                yield round_no, kind


def measure(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    """The window of `seconds` starts before the first `quantize`; no
    command starts that its last run says would end after the window, so a
    run lasts about `seconds` plus the tuned sim run."""
    wl = bench.wl
    start = time.perf_counter()
    bench.timed("quantize")
    bench.check()

    # Every command, set-up and tuning included, is spread over the whole
    # window in rounds, so the host's slow phases, which last from seconds
    # to minutes, hit each metric alike.
    for round_no, kind in schedule(wl.round):
        if round_no and time.perf_counter() - start + bench.times[kind][-1] > seconds:
            break
        bench.timed(kind, round_no)
    bench.timed("tuned-sim")

    t = bench.times
    sim, pipe, tuned = (bench.summary(k) for k in ("sim", "pipeline", "tuned-sim"))
    med = statistics.median
    values = {
        "setup_s": (med(t["quantize"]), "s"),
        "sim_samples_per_s": (wl.n_eval / med(t["sim"]), "samples/s"),
        "pipeline_samples_per_s": (wl.n_pipeline / med(t["pipeline"]), "samples/s"),
        "oracle_samples_per_s": (wl.n_eval / med(t["oracle"]), "samples/s"),
        "tune_s": (med(t["tune"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "sops_per_sample": (sim["sops_per_sample"], "SOP/sample"),
        "tuned_sops_per_sample": (tuned["sops_per_sample"], "SOP/sample"),
        "pipeline_steps": (pipe["total_steps"], "steps"),
        "accuracy": (sim["accuracy"], "fraction"),
        "ops_passed_frac": ((bench.ops.attempted - bench.ops.failed)
                            / bench.ops.attempted, "fraction"),
    }
    lines = [_iqr_line(f"{kind} command", t[kind], "s")
             for kind in ("quantize", "sim", "pipeline", "oracle", "tune")]
    return values, lines


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

ROUND = ("quantize", "sim", "pipeline", "oracle", "tune")


def _step_sum_hook(tracer: Tracer, args, result) -> None:
    pop, rows = args[0], args[1]
    n = rows[0].shape[0]
    if pop.kind == "residual-add":
        per_row, temp = pop.n_out, n * pop.n_out
    elif pop.dense_w is not None:
        per_row, temp = pop.dense_w.size, n * max(pop.dense_w.shape)
    else:
        per_row = temp = pop.gather_idx.size
        temp *= n
    cmd = tracer.command
    tracer.counters[(cmd, "synapse_products")] += n * per_row * len(rows)
    key = (cmd, "step_temp_bytes")
    tracer.counters[key] = max(tracer.counters[key], 8 * temp)


def _run_batch_hook(tracer: Tracer, args, result) -> None:
    cmd = tracer.command
    for t in result.traces:
        tracer.counters[(cmd, "sops")] += t.sops
        tracer.counters[(cmd, "saturations")] += t.saturations
        tracer.counters[(cmd, "sops", t.name)] += t.sops
    tracer.counters[(cmd, "samples")] += result.outputs.shape[0]


HOOKS = {"netsim.Population.step_sum": _step_sum_hook,
         "netsim.run_batch": _run_batch_hook}

# metric -> (functions, "self" | "incl" | "calls"); values are per round
SPAN_METRICS = {
    "netsim.step_sum_s": (("netsim.Population.step_sum",), "self"),
    "netsim.step_sum_calls": (("netsim.Population.step_sum",), "calls"),
    "netsim.driver_self_s": (("netsim.run_batch", "netsim.run_pipeline"), "self"),
    "netsim.emit_s": (("netsim.Population.emit",), "self"),
    "netsim.compile_s": (("netsim.compile_network",), "incl"),
    "stem.integrate_s": (("stem.StemState.integrate", "stem.StemState.add_raw",
                          "stem.StemState.finalize"), "self"),
    "stem.integrate_calls": (("stem.StemState.integrate",), "calls"),
    "stem.encode_s": (("stem.encode_planes", "stem.generate_train",
                       "stem.decode_train"), "self"),
    "fixedpoint.apply_s": (("fixedpoint.apply",), "self"),
    "fixedpoint.apply_calls": (("fixedpoint.apply",), "calls"),
    "refengine.int_forward_s": (("refengine.int_forward",), "self"),
    "refengine.int_forward_calls": (("refengine.int_forward",), "calls"),
    "refengine.float_forward_s": (("refengine.float_forward",), "self"),
    "quantizer.calibrate_self_s": (("quantizer.calibrate",), "self"),
    "quantizer.build_s": (("quantizer.build_quantized_network",), "incl"),
    "sparsity.tune_self_s": (("sparsity.tune_hybrid",), "self"),
    "modelio.load_s": (("modelio.load_model", "modelio.load_dataset",
                        "modelio.load_quantized_model", "modelio.read_blob"), "self"),
    "modelio.save_s": (("modelio.save_model", "modelio.save_dataset",
                        "modelio.save_quantized_model", "modelio.write_blob"), "self"),
    "metrics.count_sops_s": (("metrics.count_sops", "metrics.sop_total"), "self"),
}

PER_LAYER_UNITS = {name: ("count" if name.endswith("_calls") else "s")
                   for name in SPAN_METRICS}
PER_LAYER_UNITS.update({
    "netsim.synapse_products": "count/sample",
    "netsim.useful_sop_frac": "fraction",
    "netsim.step_temp_mb": "MiB",
    "stem.saturations": "count",
    "fixedpoint.bigint_calls": "count",
    "quantizer.calib_passes": "count",
    "sparsity.evaluations": "count",
    "sparsity.population_runs": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
})
EXACT = {name for name, unit in PER_LAYER_UNITS.items()
         if unit in ("count", "count/sample", "MiB", "fraction")} - {"trace.overhead_frac"}
EXACT_END_TO_END = {"sops_per_sample", "tuned_sops_per_sample", "pipeline_steps", "accuracy"}


def round_metrics(tracer: Tracer, selfs: list[float], cmds: list[dict]) -> dict:
    """Per-layer totals over the commands of one traced round."""
    ids = {c["id"] for c in cmds}
    kind_of = {c["id"]: c["kind"] for c in cmds}
    names = tracer.names
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    extra: dict[str, int] = defaultdict(int)
    bigint: set[int] = set()      # apply calls that fell back to per-element ints
    spans = tracer.spans
    for i, (fid, start, end, parent, cmd, _) in enumerate(spans):
        if cmd not in ids:
            continue
        name = names[fid]
        calls[name] += 1
        self_s[name] += selfs[i]
        incl_s[name] += end - start
        if name.startswith("cli."):
            extra["cli.self_s"] += selfs[i]
        pname = names[spans[parent][0]] if parent >= 0 else None
        if name == "refengine.int_forward" and pname == "quantizer.calibrate":
            extra["quantizer.calib_passes"] += 1
        elif name == "netsim.run_batch" and pname == "sparsity.tune_hybrid":
            extra["sparsity.evaluations"] += 1
        elif name == "netsim.Population.emit" and pname == "netsim.run_batch":
            grand = spans[parent][3]
            if grand >= 0 and names[spans[grand][0]] == "sparsity.tune_hybrid":
                extra["sparsity.population_runs"] += 1
        elif name == "fixedpoint.apply" and pname == "fixedpoint.apply":
            bigint.add(parent)

    out: dict[str, float] = {}
    for metric, (fns, what) in SPAN_METRICS.items():
        table = {"self": self_s, "incl": incl_s, "calls": calls}[what]
        out[metric] = sum(table[f] for f in fns)
    for key in ("cli.self_s", "quantizer.calib_passes", "sparsity.evaluations",
                "sparsity.population_runs"):
        out[key] = extra[key]
    out["fixedpoint.bigint_calls"] = len(bigint)

    sim = [c for c in ids if kind_of[c] == "sim"]
    counter = tracer.counters
    products = sum(counter[(c, "synapse_products")] for c in sim)
    samples = sum(counter[(c, "samples")] for c in sim)
    out["netsim.synapse_products"] = products / samples
    out["netsim.useful_sop_frac"] = sum(counter[(c, "sops")] for c in sim) / products
    out["stem.saturations"] = sum(counter[(c, "saturations")] for c in sim)
    out["netsim.step_temp_mb"] = max(counter[(c, "step_temp_bytes")] for c in ids) / 2**20
    return out


def population_split(tracer: Tracer, cmds: list[dict]) -> dict:
    """Per population of the sim and pipeline commands: where the time went.

    Inclusive times: integrate covers its fixed-point rounding and saturation,
    emit covers train generation. The parts never nest inside each other.
    """
    parts = {"netsim.Population.step_sum": "synaptic_sum_s",
             "stem.StemState.integrate": "integrate_s",
             "stem.StemState.add_raw": "integrate_s",
             "stem.StemState.finalize": "integrate_s",
             "netsim.Population.emit": "emit_s",
             "metrics.count_sops": "sop_count_s"}
    kind_of = {c["id"]: c["kind"] for c in cmds if c["kind"] in ("sim", "pipeline")}
    split: dict = {kind: defaultdict(lambda: defaultdict(float)) for kind in set(kind_of.values())}
    for fid, start, end, _, cmd, pop in tracer.spans:
        part = parts.get(tracer.names[fid])
        if part and cmd in kind_of and pop is not None:
            split[kind_of[cmd]][pop][part] += end - start
    for key, value in tracer.counters.items():
        if len(key) == 3 and key[1] == "sops" and kind_of.get(key[0]) == "sim":
            split["sim"][key[2]]["sops"] += value
    return {kind: {pop: dict(v) for pop, v in pops.items()} for kind, pops in split.items()}


def module_self_times(tracer: Tracer, selfs: list[float], cmds: list[dict]) -> dict:
    ids = {c["id"] for c in cmds}
    out: dict[str, float] = defaultdict(float)
    for i, (fid, _, _, _, cmd, _) in enumerate(tracer.spans):
        if cmd in ids:
            out[tracer.names[fid].split(".")[0]] += selfs[i]
    return dict(out)


def measure_traced(bench: Bench, seconds: float, trace_path: Path
                   ) -> tuple[dict, list[str]]:
    start = time.perf_counter()
    bench.timed("quantize")
    bench.check()
    tracer = Tracer()
    rounds: list[list[dict]] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    # Untraced and traced rounds alternate; their ratio is the tracing overhead.
    # A pair starts only if one like the last still ends inside the window.
    while not rounds or (time.perf_counter() - start
                         + walls[False][-1] + walls[True][-1] < seconds):
        for traced in (False, True):
            first = len(bench.commands)
            if traced:
                bench.tracer = tracer
                tracer.install(HOOKS)
            try:
                walls[traced].append(sum(bench.timed(kind, len(rounds)) for kind in ROUND))
            finally:
                if traced:
                    tracer.uninstall()
                    bench.tracer = None
        rounds.append(bench.commands[first:])

    selfs = tracer.self_times()
    per_round = [round_metrics(tracer, selfs, cmds) for cmds in rounds]
    values: dict[str, tuple[float, str]] = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead_frac":
            continue
        series = [r[name] for r in per_round]
        if name in EXACT and len(set(series)) != 1:
            bench.ops.record(False, f"exact count {name} differs across rounds: {series}")
            raise RunFailed(f"{name} is not exact")
        values[name] = (statistics.median(series), unit)
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    values["trace.overhead_frac"] = (overhead, "fraction")

    summary = {
        "per_round": per_round,
        "untraced_round_s": walls[False],
        "traced_round_s": walls[True],
        "tracing_overhead_frac": overhead,
        "module_self_s": module_self_times(tracer, selfs, rounds[-1]),
        "population_split": population_split(tracer, rounds[-1]),
    }
    tracer.write(trace_path, bench.wl.name, bench.commands, summary)
    lines = [f"rounds traced {walls[True]} s, untraced {walls[False]} s; "
             f"{len(tracer.spans)} spans in {trace_path}"]
    return values, lines
