"""Spiking network simulator: compile a quantized net, run it bit-serially.

Compilation lowers every compute layer to a Population whose synapses are
materialized as an explicit table: fully-connected layers keep their dense
matrix, conv/pool layers become per-neuron gather tables (synapse index +
weight, padding mapped to a hardwired silent slot), residual joins become a
unit-weight sum over their two incoming trains. That table is the compiled
artefact (capacity checks and synapse walks read it); the execution form is
derived from it once per population:

* fully-connected - the dense matrix;
* small conv (n_in <= 4 * fan-in) - the table expanded to a dense matrix;
* large conv - the padded input gathered once per output position, times
  the [c*kh*kw, out_channels] weight rows (the index table is shared by
  every output channel);
* avgpool - a gather-sum; residual-add - the identity.

The K-plane kernel. Step sums are linear in the spike planes, so
``Population.step_sum`` takes a layer's K bit planes at once, as
[N, K, n_in] rows with the per-step wire weights phi broadcast over the step
axis, and computes all of them in one float64 BLAS matmul. The result is
exact: the planes are 0/1, so every partial sum is an integer of magnitude
at most sum|w| of one neuron, and ``compile_network`` rejects any layer where
that reaches 2^53. Only the per-step M0 rounding and the saturation run in
sequence, in the K-step ``StemState.integrate`` scan. None of this is the
shifted-slice convolution of the reference oracle, so the two sides check
each other.

The population step. Every run hands each population's samples to one step,
``_population_step``, which works through them in sample blocks: each sample
block's step sums, K-step scan and emission are written into the
population's V and train before the next one starts. A sample block holds as
many samples as keep its int64 step sums (8*K bytes per output neuron), or a
conv's float64 gathered patches if those are larger, within BLOCK_BYTES, and
at least one. Sample blocks split only the batch axis, so they change no
integer, trace or saturation count.

One executor. ``run_batch`` streams a batch PIPELINE_WINDOW samples at a
time, each window through every population in topological order, so no
sample block is larger than the window; one sample occupies the network for
K*(stages+1) steps (stages of integration plus the output train's own
transmission block). Each train's per-neuron spike counts are taken once,
when it is emitted, and the SOP and spike fields of every reader's trace
come from them. ``run_pipeline`` overlaps the layers on one global clock,
which changes only the timing, never the integers: it is ``run_batch`` plus
the schedule that ``pipeline_timing`` counts from the stage numbers.
``CachedRun`` keeps a whole-batch run per population, so that the sparsity
tuner re-runs only the populations downstream of a changed one.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fixedpoint import FixedMult, apply
from .modelio import INPUT_NAME, conv_out_hw, pool_out_hw
from .sparsity import LayerSparsity, SparsityPlan, rot
from .stem import StemState, WireSchedule, decode_train, encode_planes, generate_train
from . import metrics

# Spike planes are 0/1, so a float64 synaptic sum is exact while every
# neuron's sum|w| stays below 2^53 (all partial sums are smaller integers).
EXACT_SUM_LIMIT = 1 << 53

# Bytes of step sums (or conv patches) a population step holds per sample
# block (see _block_samples); chosen by paired timing of run_batch on the
# benchmark workloads, below the per-core L2 cache.
BLOCK_BYTES = 1 << 20

# Samples run_batch runs through every population at a time: chosen by paired
# timing on the benchmark workloads, within a 4 MiB peak for wide-fanin.
PIPELINE_WINDOW = 80


@dataclass(frozen=True)
class HardwareProfile:
    """Per-chip limits the compiled network is checked against."""

    acc_bits: int = 16
    weight_bits: int = 8
    max_fanin: int = 1024
    neurons_per_core: int = 1024
    cores: int = 128


@dataclass
class Population:
    name: str
    kind: str
    inputs: list[str]               # producer names, flatten resolved away
    in_shapes: list[tuple[int, ...]]
    out_shape: tuple[int, ...]
    n_out: int
    # synapse table (exactly one of the three forms)
    dense_w: np.ndarray | None      # [n_out, n_in] int64 (fully-connected)
    gather_idx: np.ndarray | None   # [n_out, F] int64 into padded input
    gather_w: np.ndarray | None     # [n_out, F] int64, silent-slot weight 0
    n_in_padded: int                # gather input length incl. silent slot
    fanin: int                      # real synapses of the busiest neuron
    fanouts: list[np.ndarray]       # per branch: synapses per input neuron
    # execution form, derived from the table (see the module docstring)
    form: str                       # "dense" | "conv" | "pool" | "identity"
    form_idx: np.ndarray | None     # gather, tap-major: conv [F, n_pos], pool [F, n_out]
    form_w: np.ndarray | None       # float64: dense [n_in, n_out], conv [oc, F]
    # constants
    m0: FixedMult
    m1: FixedMult
    bias_pre_scaled: np.ndarray | None   # round(M0 * q_b), injected into U
    bias_post: np.ndarray | None         # output-scale bias, added after M1
    v_min: int
    v_max: int
    scale_out: float
    stage: int
    is_output: bool
    sparsity: LayerSparsity = LayerSparsity(0, 0)

    def step_sum(self, rows: list[np.ndarray], phis: list) -> np.ndarray:
        """Wide synaptic sums of wire steps: sum over branches of phi * (row @ W).

        Each rows[i] is a uint8 [..., n_in] spike array of input branch i and
        each phis[i] broadcasts against [..., n_out]: a scalar for one step,
        ``WireSchedule.weights()[:, None]`` for the K planes [N, K, n_in] of a
        whole block. Returns int64 [..., n_out].
        """
        total = None
        for row, phi in zip(rows, phis):
            part = phi * self._synapse_sum(np.asarray(row))
            total = part if total is None else total + part
        return total

    def _synapse_sum(self, row: np.ndarray) -> np.ndarray:
        """Per neuron, the sum of w * spike over its synapses (before phi), int64."""
        lead = row.shape[:-1]
        if self.form == "identity":
            return row.astype(np.int64)        # unit weight, one synapse each
        if self.form == "pool":
            taps = np.take(row, self.form_idx, axis=-1)        # [..., F, n_out]
            return taps.sum(axis=-2, dtype=np.int64)
        if self.form == "dense":
            x = row.reshape(-1, row.shape[-1]).astype(np.float64)
            return (x @ self.form_w).astype(np.int64).reshape(lead + (self.n_out,))
        # conv: one gathered patch per output position, shared by all channels
        padded = np.zeros((math.prod(lead), self.n_in_padded), dtype=np.float64)
        padded[:, :-1] = row.reshape(padded.shape[0], -1)  # last slot: silent 0
        patches = np.take(padded, self.form_idx, axis=1)   # [M, F, n_pos]
        out = np.matmul(self.form_w, patches)              # [M, oc, n_pos]
        return out.astype(np.int64).reshape(lead + (self.n_out,))

    def emit(self, v: np.ndarray, k: int) -> np.ndarray:
        """Output train of the clamped values (sparsified for hidden layers)."""
        if self.is_output:
            return encode_planes(v, k, signed=True)
        if self.sparsity.rot_bits:
            v = rot(v, self.sparsity.rot_bits, k)
        return generate_train(v, k, suppress_below=self.sparsity.drlo_bits)


@dataclass
class SpikingNetwork:
    name: str
    k: int
    acc_bits: int
    input_shape: tuple[int, ...]
    populations: list[Population]
    n_stages: int
    plan: SparsityPlan
    profile: HardwareProfile

    @property
    def output(self) -> Population:
        return self.populations[-1]


@dataclass
class LayerTrace:
    name: str
    kind: str
    sops: int
    spikes_in: int
    spikes_out: int
    saturations: int
    neurons: int


@dataclass
class RunResult:
    outputs: np.ndarray             # int64 [N, n_out], decoded output trains
    outputs_real: np.ndarray        # outputs * S_out of the last layer
    traces: list[LayerTrace]
    steps_per_sample: int
    n_stages: int
    trains: dict[str, np.ndarray] | None = None


# ---------------------------------------------------------------------------
# synapse table construction
# ---------------------------------------------------------------------------

def _conv_table(in_shape, attrs) -> tuple[np.ndarray, np.ndarray, int, int]:
    c, h, w = in_shape
    kh, kw = attrs["kernel"]
    s = int(attrs.get("stride", 1))
    p = int(attrs.get("padding", 0))
    oh, ow = conv_out_hw(h, w, attrs)
    silent = c * h * w
    ys = np.arange(oh)[:, None] * s - p + np.arange(kh)[None, :]      # [oh, kh]
    xs = np.arange(ow)[:, None] * s - p + np.arange(kw)[None, :]      # [ow, kw]
    vy = (ys >= 0) & (ys < h)
    vx = (xs >= 0) & (xs < w)
    spat = ys[:, None, :, None] * w + xs[None, :, None, :]            # oh,ow,kh,kw
    valid = vy[:, None, :, None] & vx[None, :, None, :]
    chan = np.arange(c)[None, None, :, None, None] * (h * w)
    idx = np.where(valid[:, :, None, :, :], chan + spat[:, :, None, :, :], silent)
    idx = idx.reshape(oh * ow, c * kh * kw)                           # (ic,dy,dx) order
    return idx, valid, oh * ow, silent


def _build_table(kind, attrs, in_shape, weights):
    """Returns (gather_idx [n_out,F], gather_w, n_in_padded, fanin)."""
    if kind == "conv2d":
        idx_sp, valid, n_pos, silent = _conv_table(in_shape, attrs)
        oc = int(attrs["out_channels"])
        gather_idx = np.tile(idx_sp, (oc, 1))
        wrow = weights.astype(np.int64).reshape(oc, -1)               # (ic,dy,dx)
        gather_w = np.repeat(wrow, n_pos, axis=0)
        gather_w = np.where(gather_idx == silent, 0, gather_w)
        fanin = int((gather_idx != silent).sum(axis=1).max())
        return gather_idx, gather_w, silent + 1, fanin
    if kind == "avgpool2d":
        c, h, w = in_shape
        kh, kw = attrs["kernel"]
        s = int(attrs.get("stride", kh))
        oh, ow = pool_out_hw(h, w, attrs)
        ys = np.arange(oh)[:, None] * s + np.arange(kh)[None, :]
        xs = np.arange(ow)[:, None] * s + np.arange(kw)[None, :]
        spat = (ys[:, None, :, None] * w + xs[None, :, None, :]).reshape(oh * ow, kh * kw)
        chan = np.arange(c)[:, None, None] * (h * w)
        gather_idx = (chan + spat[None]).reshape(c * oh * ow, kh * kw)
        gather_w = np.ones_like(gather_idx)
        return gather_idx, gather_w, c * h * w + 1, kh * kw
    raise ValueError(f"no synapse table for kind {kind!r}")


def _execution_form(kind, out_shape, dense_w, gather_idx, gather_w, n_in_padded):
    """(form, form_idx, form_w) of a population, derived from its table."""
    if kind == "residual-add":
        return "identity", None, None
    if kind == "avgpool2d":
        return "pool", np.ascontiguousarray(gather_idx.T), None
    if dense_w is not None:
        return "dense", None, dense_w.T.astype(np.float64)
    n_out, fanin = gather_idx.shape
    n_in = n_in_padded - 1
    if n_in <= 4 * fanin:                    # small conv: expand the table
        dense = np.zeros((n_out, n_in_padded), dtype=np.float64)
        dense[np.arange(n_out)[:, None], gather_idx] = gather_w
        return "dense", None, dense[:, :n_in].T
    # large conv: neuron o*n_pos + p reads gather_idx[p], the same index row
    # for every channel o; a tap's weight is read where the tap is not silent
    oc = out_shape[0]
    n_pos = n_out // oc
    idx = gather_idx[:n_pos]
    where = np.argmax(idx != n_in, axis=0)   # one real position per tap
    taps = np.arange(fanin)
    wrow = gather_w.reshape(oc, n_pos, fanin)[:, where, taps]
    return "conv", np.ascontiguousarray(idx.T), wrow.astype(np.float64)


def _max_weight_sum(weights: np.ndarray | None) -> int:
    """Largest sum|w| of one output channel's (or fc row's) weights: no
    neuron's synapses sum to more. Pool and residual sums are tiny."""
    if weights is None:
        return 0
    w = np.abs(weights.astype(np.int64)).reshape(weights.shape[0], -1)
    return int(w.sum(axis=1).max())


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def compile_network(qnet, plan: SparsityPlan | None = None,
                    profile: HardwareProfile | None = None,
                    strict_capacity: bool = False) -> SpikingNetwork:
    """Lower a quantized network onto populations with explicit synapses.

    Sparsity settings are taken from `plan` when given, else from the plan
    embedded in the network manifest, else no sparsification. Stage numbers
    (pipeline depth) are 1 + the deepest producer; flatten is transparent.
    """
    qnet.validate()
    profile = profile or HardwareProfile()
    if plan is None:
        plan = SparsityPlan.from_manifest(qnet.sparsity)

    shapes: dict[str, tuple[int, ...]] = {INPUT_NAME: tuple(qnet.input_shape)}
    alias: dict[str, str] = {INPUT_NAME: INPUT_NAME}
    stage: dict[str, int] = {INPUT_NAME: 0}
    pops: list[Population] = []
    last = qnet.layers[-1]
    for lyr in qnet.layers:
        shapes[lyr.name] = lyr.out_shape
        if lyr.kind == "flatten":
            alias[lyr.name] = alias[lyr.inputs[0]]
            continue
        alias[lyr.name] = lyr.name
        sources = [alias[s] for s in lyr.inputs]
        in_shapes = [shapes[s] for s in lyr.inputs]   # pre-flatten consumer view
        n_out = int(np.prod(lyr.out_shape))

        dense_w = gather_idx = gather_w = None
        n_in_padded = 0
        if lyr.kind == "fully-connected":
            dense_w = lyr.weights.astype(np.int64)
            fanin = dense_w.shape[1]
        elif lyr.kind == "residual-add":
            fanin = 2
        else:
            gather_idx, gather_w, n_in_padded, fanin = _build_table(
                lyr.kind, lyr.attrs, in_shapes[0], lyr.weights)
        if _max_weight_sum(lyr.weights) >= EXACT_SUM_LIMIT:
            raise ValueError(
                f"layer {lyr.name!r}: a neuron's sum of |weights| reaches 2^53, "
                f"so float64 synaptic sums would not be exact")
        form, form_idx, form_w = _execution_form(
            lyr.kind, lyr.out_shape, dense_w, gather_idx, gather_w, n_in_padded)

        fanouts = [metrics.layer_fanout(lyr.kind, lyr.attrs, shape) for shape in in_shapes]

        bias_pre_scaled = bias_post = None
        if lyr.bias is not None:
            b = lyr.bias.astype(np.int64)
            if lyr.kind == "conv2d":          # per-channel -> per-neuron
                b = np.repeat(b, lyr.out_shape[1] * lyr.out_shape[2])
            if lyr.bias_scheme == "product":
                bias_pre_scaled = apply(lyr.m0, b)
            else:
                bias_post = b

        is_output = lyr is last
        pops.append(Population(
            name=lyr.name, kind=lyr.kind, inputs=sources,
            in_shapes=in_shapes, out_shape=lyr.out_shape, n_out=n_out,
            dense_w=dense_w, gather_idx=gather_idx, gather_w=gather_w,
            n_in_padded=n_in_padded, fanin=fanin, fanouts=fanouts,
            form=form, form_idx=form_idx, form_w=form_w,
            m0=lyr.m0, m1=lyr.m1,
            bias_pre_scaled=bias_pre_scaled, bias_post=bias_post,
            v_min=-qnet.q_max if is_output else 0, v_max=qnet.q_max,
            scale_out=lyr.scale_out, stage=0, is_output=is_output,
        ))
        stage[lyr.name] = 1 + max(stage[s] for s in sources)
        pops[-1].stage = stage[lyr.name]

    snet = SpikingNetwork(
        name=qnet.name, k=qnet.k, acc_bits=qnet.acc_bits,
        input_shape=tuple(qnet.input_shape), populations=pops,
        n_stages=max(stage.values()), plan=plan, profile=profile,
    )
    if strict_capacity:
        violations = check_capacity(snet, profile).violations
        if violations:
            raise ValueError("capacity check failed: " + "; ".join(violations))
    return with_plan(snet, plan)


def with_plan(snet: SpikingNetwork, plan: SparsityPlan) -> SpikingNetwork:
    """The compiled network under another sparsity plan.

    Only ``plan`` and each hidden population's ``sparsity`` change; synapse
    tables, execution forms and constants are shared with ``snet``.
    """
    pops = [dataclasses.replace(
                p, sparsity=LayerSparsity(0, 0) if p.is_output else plan.for_layer(p.name))
            for p in snet.populations]
    return dataclasses.replace(snet, populations=pops, plan=plan)


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapacityRow:
    name: str
    neurons: int
    fanin: int
    cores: int


@dataclass
class CapacityReport:
    rows: list[CapacityRow]
    total_cores: int
    violations: list[str] = field(default_factory=list)


def check_capacity(snet: SpikingNetwork, profile: HardwareProfile | None = None
                   ) -> CapacityReport:
    profile = profile or snet.profile
    rows = []
    violations = []
    if snet.acc_bits > profile.acc_bits:
        violations.append(
            f"accumulator width {snet.acc_bits} exceeds profile {profile.acc_bits}")
    w_hi = (1 << (profile.weight_bits - 1)) - 1
    for pop in snet.populations:
        cores = math.ceil(pop.n_out / profile.neurons_per_core)
        rows.append(CapacityRow(pop.name, pop.n_out, pop.fanin, cores))
        if pop.fanin > profile.max_fanin:
            violations.append(
                f"{pop.name}: fan-in {pop.fanin} exceeds {profile.max_fanin}")
        wmax = 0
        if pop.dense_w is not None:
            wmax = int(np.abs(pop.dense_w).max())
        elif pop.gather_w is not None:
            wmax = int(np.abs(pop.gather_w).max())
        if wmax > w_hi:
            violations.append(
                f"{pop.name}: weight magnitude {wmax} exceeds {profile.weight_bits}-bit range")
    total = sum(r.cores for r in rows)
    if total > profile.cores:
        violations.append(f"network needs {total} cores, profile has {profile.cores}")
    return CapacityReport(rows=rows, total_cores=total, violations=violations)


# ---------------------------------------------------------------------------
# batch driver
# ---------------------------------------------------------------------------

def _as_batch(x: np.ndarray, input_shape) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    if x.shape == tuple(input_shape):
        x = x[None, ...]
    elif x.shape[1:] != tuple(input_shape):
        raise ValueError(f"input shape {x.shape} does not match {input_shape}")
    return x.reshape(x.shape[0], -1)


def _wire_phis(snet: SpikingNetwork) -> dict[str, np.ndarray]:
    """Per producer, the K per-step decode weights of its train as [K, 1]."""
    signed = {INPUT_NAME: True} | {p.name: p.is_output for p in snet.populations}
    return {name: WireSchedule(snet.k, sg).weights()[:, None]
            for name, sg in signed.items()}


def _planes(trains: list[np.ndarray]) -> list[np.ndarray]:
    """[N, n, K] trains as the [N, K, n] step planes `step_sum` takes."""
    return [np.swapaxes(tr, -1, -2) for tr in trains]


def _integrate_block(pop: Population, sums: np.ndarray, acc_bits: int
                     ) -> tuple[np.ndarray, int]:
    """K-step saturating scan of a block's step sums [N, K, n_out], then the
    bias and the M1 rescale; returns (clamped V, saturation count)."""
    n, k = sums.shape[:2]
    state = StemState(pop.n_out, acc_bits, batch=n)
    for step in range(k):
        state.integrate(sums[:, step], pop.m0)
    if pop.bias_pre_scaled is not None:
        state.add_raw(pop.bias_pre_scaled[None, :])
    v = state.finalize(pop.m1, 0 if pop.bias_post is None else pop.bias_post,
                       pop.v_min, pop.v_max)
    return v, state.saturations


def _block_samples(pop: Population, k: int) -> int:
    """Samples per sample block of a population step: the step sums take 8*K
    bytes per output neuron and sample, a conv's float64 patches 8*K per
    entry of its [F, n_pos] gather; a sample block holds BLOCK_BYTES of the
    larger, and at least one sample."""
    width = pop.n_out
    if pop.form == "conv":
        width = max(width, pop.form_idx.size)
    return max(1, BLOCK_BYTES // (8 * k * width))


def _population_step(pop: Population, trains: list[np.ndarray], phis: list,
                     acc_bits: int, k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """One population over m samples, in sample blocks of ``_block_samples``.

    `trains` are the [m, n_in, K] input trains of pop's branches and `phis`
    their per-step wire weights. Each sample block's synaptic sums, K-step
    scan and emission fill its rows of V and of the output train. Returns
    (clamped V int64 [m, n_out], train uint8 [m, n_out, K], saturation count).
    """
    m = trains[0].shape[0]
    v = np.empty((m, pop.n_out), dtype=np.int64)
    train = np.empty((m, pop.n_out, k), dtype=np.uint8)
    saturations = 0
    size = _block_samples(pop, k)
    for lo in range(0, m, size):
        hi = min(lo + size, m)
        sums = pop.step_sum(_planes([tr[lo:hi] for tr in trains]), phis)
        v[lo:hi], sat = _integrate_block(pop, sums, acc_bits)
        train[lo:hi] = pop.emit(v[lo:hi], k)
        saturations += sat
    return v, train, saturations


def _spike_counts(train: np.ndarray) -> np.ndarray:
    """Per-neuron spike counts of [N, n, K] trains, summed over the batch and
    the K steps: int64 [n]. The batch sum runs first, over contiguous rows;
    each of its int32 entries is at most N."""
    n, n_neurons, k = train.shape
    per_step = train.reshape(n, n_neurons * k).sum(axis=0, dtype=np.int32)
    return per_step.reshape(n_neurons, k).sum(axis=1, dtype=np.int64)


def _trace(pop: Population, counts: dict[str, np.ndarray], saturations: int) -> LayerTrace:
    """The trace of `pop` from the per-neuron spike counts of its producers'
    trains and its own."""
    in_counts = [counts[s] for s in pop.inputs]
    return LayerTrace(
        name=pop.name, kind=pop.kind,
        sops=sum(metrics.count_sops(c, fo) for c, fo in zip(in_counts, pop.fanouts)),
        spikes_in=sum(int(c.sum()) for c in in_counts),
        spikes_out=int(counts[pop.name].sum()), saturations=saturations,
        neurons=pop.n_out)


def _decode_output(snet: SpikingNetwork, train: np.ndarray) -> np.ndarray:
    return decode_train(train, WireSchedule(snet.k, signed=True))


def run_batch(snet: SpikingNetwork, x_int: np.ndarray,
              record_trains: bool = False) -> RunResult:
    """Bit-serial execution of a batch, PIPELINE_WINDOW samples at a time.

    Each population's spike counts and saturations are summed over the
    windows and its trace is built once, from the sums. The window changes no
    result, since a sample's integers do not depend on which samples share
    it; it bounds host memory by PIPELINE_WINDOW samples of every train plus
    one step's BLOCK_BYTES. With `record_trains` every train is also kept
    whole.
    """
    k = snet.k
    xb = _as_batch(x_int, snet.input_shape)
    n = xb.shape[0]
    phis = _wire_phis(snet)
    counts = {INPUT_NAME: np.zeros(xb.shape[1], dtype=np.int64)}
    counts |= {p.name: np.zeros(p.n_out, dtype=np.int64) for p in snet.populations}
    saturations = {p.name: 0 for p in snet.populations}
    kept = ({name: np.empty((n, c.size, k), dtype=np.uint8) for name, c in counts.items()}
            if record_trains else None)
    outputs = np.empty((n, snet.output.n_out), dtype=np.int64)
    for lo in range(0, n, PIPELINE_WINDOW):
        hi = min(lo + PIPELINE_WINDOW, n)
        trains = {INPUT_NAME: encode_planes(xb[lo:hi], k, signed=True)}
        for pop in snet.populations:
            _, trains[pop.name], sat = _population_step(
                pop, [trains[s] for s in pop.inputs], [phis[s] for s in pop.inputs],
                snet.acc_bits, k)
            saturations[pop.name] += sat
        for name, train in trains.items():
            counts[name] += _spike_counts(train)
            if kept is not None:
                kept[name][lo:hi] = train
        outputs[lo:hi] = _decode_output(snet, trains[snet.output.name])
    return RunResult(
        outputs=outputs,
        outputs_real=outputs.astype(np.float64) * snet.output.scale_out,
        traces=[_trace(pop, counts, saturations[pop.name]) for pop in snet.populations],
        steps_per_sample=k * (snet.n_stages + 1),
        n_stages=snet.n_stages,
        trains=kept,
    )


class CachedRun:
    """A ``run_batch`` of one batch, kept per population so that a change of
    one hidden population's sparsity re-runs only what depends on it.

    The whole batch runs at once: every population keeps its clamped V
    before emission, its emitted train with per-neuron spike counts, and its
    trace. ``rerun`` re-emits one population's cached V under another
    sparsity setting and re-runs only the populations downstream of it; every
    other train and trace is read from this cache. ``adopt`` makes such a
    rerun the cached state. Both run each population through the population
    step and trace of ``run_batch``, so a cached run and its reruns hold
    exactly the integers and traces ``run_batch`` gives under the same plan.
    """

    def __init__(self, snet: SpikingNetwork, x_int: np.ndarray):
        self.snet = snet
        self._phis = _wire_phis(snet)
        self.trains: dict[str, np.ndarray] = {}
        self.counts: dict[str, np.ndarray] = {}
        self.values: dict[str, np.ndarray] = {}
        self.traces: dict[str, LayerTrace] = {}
        self._store(INPUT_NAME, encode_planes(
            _as_batch(x_int, snet.input_shape), snet.k, signed=True))
        for pop in snet.populations:
            self._run(pop)
        # per population, the indices of the populations that depend on it
        reads: dict[str, set[str]] = {INPUT_NAME: set()}
        for pop in snet.populations:
            reads[pop.name] = set(pop.inputs).union(*(reads[s] for s in pop.inputs))
        self._downstream = {
            pop.name: [i for i, q in enumerate(snet.populations) if pop.name in reads[q.name]]
            for pop in snet.populations}
        self._index = {pop.name: i for i, pop in enumerate(snet.populations)}

    def _store(self, name: str, train: np.ndarray) -> None:
        """Keep an emitted train and its spike counts under `name`."""
        self.trains[name] = train
        self.counts[name] = _spike_counts(train)

    def _run(self, pop: Population) -> None:
        """Run `pop` over the batch from the cached trains; keep its V, train
        and trace."""
        self.values[pop.name], train, saturations = _population_step(
            pop, [self.trains[s] for s in pop.inputs], [self._phis[s] for s in pop.inputs],
            self.snet.acc_bits, self.snet.k)
        self._store(pop.name, train)
        self.traces[pop.name] = _trace(pop, self.counts, saturations)

    @property
    def outputs(self) -> np.ndarray:
        """Decoded output trains, int64 [N, n_out]."""
        return _decode_output(self.snet, self.trains[self.snet.output.name])

    @property
    def layer_traces(self) -> list[LayerTrace]:
        """Traces in population order, as ``RunResult.traces``."""
        return [self.traces[pop.name] for pop in self.snet.populations]

    def rerun(self, name: str, setting: LayerSparsity) -> "CachedRun":
        """This run with hidden population `name` emitting under `setting`.

        The result's maps overlay this run's: they hold the new train of
        `name` and the V, train and trace of every population downstream of
        it, and read everything upstream from this cache.
        """
        child = copy.copy(self)
        child.snet = with_plan(self.snet, self.snet.plan.replaced(name, setting))
        child.trains, child.counts, child.values, child.traces = (
            collections.ChainMap({}, m)
            for m in (self.trains, self.counts, self.values, self.traces))
        pop = child.snet.populations[self._index[name]]
        child._store(name, pop.emit(self.values[name], child.snet.k))
        child.traces[name] = dataclasses.replace(
            self.traces[name], spikes_out=int(child.counts[name].sum()))
        for i in self._downstream[name]:
            child._run(child.snet.populations[i])
        return child

    def adopt(self, child: "CachedRun") -> None:
        """Make `child`, a ``rerun`` of this run, the cached state."""
        self.snet = child.snet
        for mine, theirs in ((self.trains, child.trains), (self.counts, child.counts),
                             (self.values, child.values), (self.traces, child.traces)):
            mine.update(theirs.maps[0])


# ---------------------------------------------------------------------------
# pipeline timing
# ---------------------------------------------------------------------------

@dataclass
class PipelineTiming:
    k: int
    n_stages: int
    n_samples: int
    total_steps: int
    buffered_train_peak: int
    stage_of: dict[str, int]


@dataclass
class PipelineResult:
    outputs: np.ndarray
    outputs_real: np.ndarray
    timing: PipelineTiming
    saturations: int                # accumulator clamps over every stage and sample


def pipeline_timing(snet: SpikingNetwork, n_samples: int) -> PipelineTiming:
    """The schedule of `n_samples` streamed through the staged network on one
    global clock, counted from the stage numbers alone.

    Stage l integrates sample s during block l-1+s, global steps
    [(l-1+s)K, (l+s)K); the output train of the last stage is itself
    transmitted during the following block, so S samples complete in exactly
    K*(n_stages + S) steps. Producer p emits the train of sample s in block
    stage_p - 1 + s; it stays buffered until its last reader has read it, in
    block R_p + s, where R_p is the largest block offset among p's readers (a
    population at stage q reads sample s in block q - 1 + s, the external
    reader of the final train in block stage + s). Trains are emitted and
    released only at a block's end, so the buffer peak is the largest running
    sum of emissions minus releases.
    """
    out_pop = snet.output
    last_read = {out_pop.name: out_pop.stage}
    for pop in snet.populations:
        for src in pop.inputs:
            last_read[src] = max(last_read.get(src, 0), pop.stage - 1)
    live = np.zeros(snet.n_stages + n_samples, dtype=np.int64)
    for pop in snet.populations:
        live[pop.stage - 1:pop.stage - 1 + n_samples] += 1
        live[last_read[pop.name]:last_read[pop.name] + n_samples] -= 1
    return PipelineTiming(
        k=snet.k, n_stages=snet.n_stages, n_samples=n_samples,
        total_steps=snet.k * (snet.n_stages + n_samples),
        buffered_train_peak=int(np.cumsum(live).max()),
        stage_of={p.name: p.stage for p in snet.populations},
    )


def run_pipeline(snet: SpikingNetwork, x_int: np.ndarray) -> PipelineResult:
    """A batch streamed through the staged network: the integers of
    ``run_batch`` (overlapping the layers changes only the timing) and the
    schedule of ``pipeline_timing``."""
    res = run_batch(snet, x_int)
    return PipelineResult(
        outputs=res.outputs,
        outputs_real=res.outputs_real,
        timing=pipeline_timing(snet, res.outputs.shape[0]),
        saturations=sum(t.saturations for t in res.traces),
    )


# ---------------------------------------------------------------------------
# spike dumps
# ---------------------------------------------------------------------------

def rle_encode(bits: np.ndarray) -> str:
    """Alternating run lengths, zeros first: 0,0,1,1,1,0 -> "2 3 1"."""
    b = np.asarray(bits, dtype=np.uint8).reshape(-1)
    if b.size == 0:
        return ""
    edges = np.flatnonzero(np.diff(b)) + 1
    runs = np.diff(np.concatenate(([0], edges, [b.size])))
    if b[0] == 1:                       # leading zero-run of length 0
        runs = np.concatenate(([0], runs))
    return " ".join(str(int(r)) for r in runs)


def rle_decode(text: str, length: int) -> np.ndarray:
    runs = [int(t) for t in text.split()] if text.strip() else []
    out = np.zeros(length, dtype=np.uint8)
    pos = 0
    for i, r in enumerate(runs):
        if i % 2 == 1:
            out[pos:pos + r] = 1
        pos += r
    if pos != length:
        raise ValueError(f"run lengths cover {pos} bits, expected {length}")
    return out


def dump_spike_trains(path: str | Path, trains: dict[str, np.ndarray]) -> None:
    """One line per (layer, sample, step): `name sample step <runs>`."""
    with open(path, "w") as fh:
        for name, planes in trains.items():
            flat = planes.reshape(planes.shape[0], -1, planes.shape[-1])
            for s in range(flat.shape[0]):
                for t in range(flat.shape[2]):
                    fh.write(f"{name} {s} {t} {rle_encode(flat[s, :, t])}\n")
