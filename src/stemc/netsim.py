"""Spiking network simulator: compile a quantized net, run it bit-serially.

Compilation lowers every compute layer to a Population that holds its
synapses once, in the form it executes, built straight from the layer's
integer weights and, for conv and pool layers, its geometry:

* fully-connected - the dense matrix;
* small conv (n_in <= 4 * c*kh*kw) - the dense matrix of every neuron's
  weights, zero where a neuron has no synapse;
* large conv - the padded input gathered once per output position (tap-major
  indices, padding mapped to a hardwired silent slot), times the
  [oc, c*kh*kw] weight rows (the gather is shared by every output channel);
* avgpool - a gather-sum; residual-add - the identity.

Wire values. A train is the binary code of the integer it carries, so every
wire is kept as that integer, one int16 per neuron and sample. Which wires
are signed (the network input and the output layer) is read from
``modelio.signed_wires``, never re-derived here. A hidden population emits
``drlo(rot(V))`` under its sparsity setting, a signed one its V. A spike
count is the popcount of a value's K low bits. The 0/1 step bits exist only
inside the population step that reads them, and in ``dump_spike_trains``,
which unpacks the values that ``run_batch`` records for a dump. Both unpack
with ``_planes``, the one function that turns wire values of any shape into
step-major 0/1 planes of a given dtype.

The step kernel. ``Population.step_sum`` takes a sample block's int16 wire
values and returns the unweighted synaptic sum S of every live step, per
neuron, step-major [steps, samples, neurons] from the planes to the
integration. The identity form's planes are its sums. A dense form unpacks
the live step planes in its weights' dtype and sums them all in one BLAS
matmul. A conv or pool form gathers the block's wire values once (a conv's
padding slot holds 0, whose bits are all 0) and unpacks the gathered taps
of every live step: a pool adds them over its taps, a conv multiplies them
by its weight rows in one broadcast matmul. The result is exact: the planes
are 0/1, so every partial sum is an integer of magnitude at most sum|w| of
one neuron. ``compile_network`` stores the weights as float32 when every
neuron's sum|w| is below 2^24, as float64 below 2^53, and rejects a layer
where it reaches 2^53. None of this is the shifted-slice convolution of the
reference oracle, so the two sides check each other.

Live steps. A population reads only the steps of its input trains that can
spike, which the wires' signedness and the plan decide, never the data
(``_live_steps``). A hidden wire carries V in [0, q_max] with
q_max < 2^(K-1), so it never spikes at step 0; one that ``drlo`` cuts by c
never spikes in its last c steps (``rot`` clamps to q_max, so it cuts none).
A population reads steps [1, K - c), c the smallest cut among its producers,
or all K if a branch is signed (its phi carries the sign weight); at
K <= c + 1 it reads none. A skipped step would add round(M0 * 0) = 0 to U,
so skipping it changes no integer and no saturation count.

Integration. Step t adds round(M0 * phi_t * S) to U, phi_t the wire's step
weight. One phi serves every branch of a join: it is signed where a branch
is signed, and the unsigned weights differ only at step 0, where a hidden
wire never spikes. S is an integer in [-B, B], B the largest sum|w| of a
neuron (a pool's tap count, a join's branch count), so ``compile_network``
tabulates every increment of every readable step with ``fixedpoint.apply``
itself (``_m0_table``) wherever that table fits BLOCK_BYTES, and the
population reads its increments from it; any other population rounds its
step sums with ``apply``, once per block. ``compile_network`` marks a
population ``clamp_free`` when value(M0) times ``quantizer.prefix_bound``
(the largest running prefix of a neuron's step sums, plus a product-scheme
bias, over every input its wires can carry) plus (K+1)/2 fits the n-bit
accumulator, checked exactly from the manifest's own constants. The
quantizer picks M0 so that this holds, and then no running sum of U can
reach the clamp, so U is the sum of the increments and the product-scheme
bias, added in place. Any other population (an
M0 from elsewhere) takes the step-by-step saturating scan
(``fixedpoint.saturate_array`` after each add), which counts every clamp.

The population step. Every run hands each population's samples to one step,
``_population_step``, which works through them in sample blocks: each sample
block's step sums, integration and emission are written into the
population's values before the next one starts. A sample block holds as
many samples as keep, over its live steps, its int64 step sums (8 bytes per
output neuron), or a dense form's float planes, a conv's float patches or a
pool's tap planes of every live step if those are larger, within
BLOCK_BYTES, and at least one. Sample blocks split only the batch axis, so
they change no integer, trace or saturation count.

One executor. ``CachedRun`` is the only code that runs a network over
samples: it takes every population in topological order through one
population step, under the setting ``snet.plan`` gives it, and keeps, per
population, the emitted values, their per-neuron spike counts (taken once,
when they are emitted) and the saturation count. Every trace's SOP and
spike fields are derived from those counts. ``run_batch`` is one CachedRun
per PIPELINE_WINDOW samples, summing their counts and saturations, so no
sample block is larger than the window; one sample occupies the network for
K*(stages+1) steps (stages of integration plus the output train's own
transmission block). ``run_pipeline`` overlaps the layers on one global
clock, which changes only the timing, never the integers: it is
``run_batch`` plus the schedule that ``pipeline_timing`` counts from the
stage numbers. The sparsity tuner keeps one whole-batch CachedRun and
re-runs only the populations downstream of a changed one; each distinct
candidate train is rerun at most once, and only when ``sops_floor`` (a lower
bound on its SOPs, counted from its spikes and the cache with no population
run) leaves it a chance to win. A rerun rebuilds only the traces it changes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .fixedpoint import FixedMult, apply, saturate_array
from .modelio import INPUT_NAME, check_batch, conv_out_hw, pool_out_hw, signed_wires
from .quantizer import prefix_bound
from .sparsity import LayerSparsity, SparsityPlan, drlo, rot
from .stem import check_encodable, step_weights
from . import metrics

# Spike planes are 0/1, so every partial synaptic sum is an integer no larger
# than the neuron's sum|w|: a float sum is exact while that stays below
# 2^(mantissa bits + 1). Weights are stored as float32 below
# FLOAT32_SUM_LIMIT, as float64 below EXACT_SUM_LIMIT, and rejected above.
FLOAT32_SUM_LIMIT = 1 << 24
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
    """Limits of the target chip, as the user states them; none is built in.
    A field left at None is not stated and not checked."""

    acc_bits: int | None = None
    weight_bits: int | None = None
    max_fanin: int | None = None
    neurons_per_core: int | None = None
    cores: int | None = None

    @classmethod
    def load(cls, path: str | Path) -> "HardwareProfile":
        """The profile in the JSON object at `path`. Its keys must be field
        names, each with a positive integer, and ``cores`` needs
        ``neurons_per_core``. A fault is a ValueError naming the file and the
        key, where there is one."""
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read hardware profile {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: hardware profile is not a JSON object")
        names = {f.name for f in dataclasses.fields(cls)}
        for key, value in doc.items():
            if key not in names:
                raise ValueError(f"{path}: unknown hardware profile key {key!r}")
            if type(value) is not int or value <= 0:       # bool is not a limit
                raise ValueError(f"{path}: {key!r} must be a positive integer, not {value!r}")
        if "cores" in doc and "neurons_per_core" not in doc:
            raise ValueError(f"{path}: 'cores' needs 'neurons_per_core'")
        return cls(**doc)


@dataclass
class Population:
    name: str
    kind: str
    inputs: list[str]               # producer names, flatten resolved away
    phi: np.ndarray                 # step weights of its wires, int64 [K]: signed
                                    # if a branch's wire is signed
    n_out: int
    fanin: int                      # real synapses of the busiest neuron
    fanouts: list[np.ndarray]       # per branch: synapses per input neuron,
                                    # counted from the form's index tables
    # synapses, in the execution form (see the module docstring)
    form: str                       # "dense" | "conv" | "pool" | "identity"
    dense_w: np.ndarray | None      # dense: float32/64 [n_out, n_in]
    gather_idx: np.ndarray | None   # tap-major gather: conv [F, n_pos] into the
                                    # padded input, pool [F, n_out]; int64
    conv_w: np.ndarray | None       # conv: float32/64 [oc, F], zero on a tap
                                    # that is silent at every position
    # constants
    m0: FixedMult
    m1: FixedMult
    m0_table: np.ndarray | None     # round(M0 * phi_t * s) of every step sum s of
                                    # every readable step t (see _m0_table), or None
    bias_pre_scaled: np.ndarray | None   # round(M0 * q_b), injected into U
    bias_post: np.ndarray | None         # output-scale bias, added after M1
    clamp_free: bool                # no running sum of U can reach the clamp
    stage: int
    signed: bool                    # its own wire carries signed trains: V is
                                    # clipped to [-q_max, q_max], else [0, q_max]

    def step_sum(self, values: list[np.ndarray], steps: range) -> np.ndarray:
        """Unweighted synaptic sums of a block's live steps: per step, sample
        and neuron, the sum over branches of w * spike.

        values[i] holds the int16 [m, n_in] wire values of input branch i,
        whose spike at step t of the K = len(phi) is bit K-1-t (see
        ``_planes``). Returns int64 [len(steps), m, n_out], step-major like
        the planes; phi and M0 weight each step's sums in ``_integrate_block``.
        """
        total = self._synapse_sum(values[0], steps)
        for vals in values[1:]:
            total += self._synapse_sum(vals, steps)
        return total

    def _synapse_sum(self, values: np.ndarray, steps: range) -> np.ndarray:
        """Per step and neuron, the sum of w * spike over the synapses of one
        branch, int64 [len(steps), m, n_out]."""
        m, k = values.shape[0], self.phi.size
        if self.form == "identity":                                   # unit weights
            return _planes(values, k, steps, np.int64)
        if self.form == "dense":
            planes = _planes(values, k, steps, self.dense_w.dtype)    # [steps, m, n_in]
            sums = planes.reshape(-1, values.shape[1]) @ self.dense_w.T  # one BLAS call
            return sums.astype(np.int64).reshape(len(steps), m, self.n_out)
        # conv and pool: gather the block's values once, then unpack the
        # gathered taps of every live step (the silent slot holds 0)
        if self.form == "pool":
            count = np.int16 if self.fanin < 1 << 15 else np.int64    # spikes of F taps
            taps = np.take(values, self.gather_idx, axis=1)           # [m, F, n_out]
            return _planes(taps, k, steps, np.int16).sum(axis=2, dtype=count).astype(np.int64)
        padded = np.concatenate((values, np.zeros((m, 1), dtype=np.int16)), axis=1)
        taps = np.take(padded, self.gather_idx, axis=1)               # [m, F, n_pos]
        patches = _planes(taps, k, steps, self.conv_w.dtype)          # [steps, m, F, n_pos]
        # one [oc, F] x [F, n_pos] product per step and sample, shared by all channels
        return np.matmul(self.conv_w, patches).astype(np.int64).reshape(len(steps), m, self.n_out)

    def emit(self, v: np.ndarray, setting: LayerSparsity) -> np.ndarray:
        """The int16 values the trains of clamped int64 `v` carry: a hidden
        layer's rounded off and cut by `setting`, a signed wire's `v`."""
        if not (self.signed or setting.is_identity()):
            v = drlo(rot(v, setting.rot_bits, self.phi.size), setting.drlo_bits)
        return v.astype(np.int16)


@dataclass
class SpikingNetwork:
    name: str
    k: int
    acc_bits: int
    input_shape: tuple[int, ...]
    populations: list[Population]
    n_stages: int
    plan: SparsityPlan

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
    outputs: np.ndarray             # int64 [N, n_out], the output values
    traces: list[LayerTrace]
    steps_per_sample: int
    values: dict[str, np.ndarray] | None = None   # int16 [N, n] per wire


# ---------------------------------------------------------------------------
# execution forms
# ---------------------------------------------------------------------------

def _conv_table(in_shape, attrs) -> tuple[np.ndarray, int, int]:
    """Per output position, the input index of every tap in (ic, dy, dx)
    order, or the silent slot c*h*w where the tap falls in the padding:
    (idx [n_pos, F], n_pos, silent)."""
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
    return idx, oh * ow, silent


def _conv_form(in_shape, attrs, weights, dtype):
    """(form, dense_w, gather_idx, conv_w, fanin, fanout) of a conv layer,
    its weights stored as `dtype`.
    Neuron o*n_pos + p reads row p of the geometry's index table with channel
    o's weights; its synapses are the taps that fall inside the input, so an
    input's fan-out is its count among the real taps times out_channels."""
    idx, n_pos, silent = _conv_table(in_shape, attrs)
    oc = int(attrs["out_channels"])
    real = idx != silent
    fanin = int(real.sum(axis=1).max())
    fanout = np.bincount(idx[real], minlength=silent) * oc
    wrow = weights.astype(dtype).reshape(oc, -1)                      # (ic,dy,dx)
    if silent <= 4 * idx.shape[1]:           # small conv: dense matrix
        # padding taps land in the silent column, which the view leaves out
        dense = np.zeros((oc, n_pos, silent + 1), dtype=dtype)
        dense[:, np.arange(n_pos)[:, None], idx] = wrow[:, None, :]
        return "dense", dense.reshape(oc * n_pos, -1)[:, :silent], None, None, fanin, fanout
    conv_w = np.asfortranarray(np.where(real.any(axis=0), wrow, 0.0))
    return "conv", None, np.ascontiguousarray(idx.T), conv_w, fanin, fanout


def _pool_gather(in_shape, attrs) -> np.ndarray:
    """Tap-major input indices of an avgpool layer, int64 [kh*kw, n_out]."""
    c, h, w = in_shape
    kh, kw = attrs["kernel"]
    s = int(attrs.get("stride", kh))
    oh, ow = pool_out_hw(h, w, attrs)
    ys = np.arange(oh)[:, None] * s + np.arange(kh)[None, :]
    xs = np.arange(ow)[:, None] * s + np.arange(kw)[None, :]
    spat = (ys[:, None, :, None] * w + xs[None, :, None, :]).reshape(oh * ow, kh * kw)
    chan = np.arange(c)[:, None, None] * (h * w)
    return np.ascontiguousarray((chan + spat[None]).reshape(c * oh * ow, kh * kw).T)


def _max_weight_sum(weights: np.ndarray | None) -> int:
    """Largest sum|w| of one output channel's (or fc row's) weights: no
    neuron's synapses sum to more. Pool and residual sums are tiny."""
    if weights is None:
        return 0
    w = np.abs(weights.astype(np.int64)).reshape(weights.shape[0], -1)
    return int(w.sum(axis=1).max())


def _m0_table(m0: FixedMult, phi: np.ndarray, bound: int) -> np.ndarray | None:
    """Every rounded step increment of a population whose step sums lie in
    [-bound, bound]: row t holds ``apply(m0, phi_t * s)`` at column s, a
    negative s at column s + 2*bound + 1 (where a negative index reads).

    There is a row for every step a population can read: steps 1 to K-1 if
    phi is unsigned, since a hidden wire never spikes at step 0, and all K
    if it is signed, so the table holds the last rows of the K steps. It is
    built one row at a time, in the narrowest of int16/int32/int64 that holds
    the largest increment, and is None where it would take more than
    BLOCK_BYTES."""
    rows = phi if phi[0] < 0 else phi[1:]
    top = abs(apply(m0, int(abs(rows).max()) * bound))
    dtype = next((d for d in (np.int16, np.int32, np.int64) if top <= np.iinfo(d).max), None)
    if dtype is None or rows.size * (2 * bound + 1) * np.dtype(dtype).itemsize > BLOCK_BYTES:
        return None
    sums = np.arange(2 * bound + 1, dtype=np.int64)
    sums[bound + 1:] -= 2 * bound + 1                  # 0 .. bound, -bound .. -1
    table = np.empty((rows.size, sums.size), dtype=dtype)
    for row, p in zip(table, rows.tolist()):
        row[:] = apply(m0, p * sums)
    return table


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def compile_network(qnet, plan: SparsityPlan | None = None) -> SpikingNetwork:
    """Lower a quantized network onto populations in their execution forms.

    Sparsity settings are taken from `plan` when given, else from the plan
    embedded in the network manifest, else no sparsification. Stage numbers
    (pipeline depth) are 1 + the deepest producer; flatten is transparent.
    Two facts are proved here from the integer weights, the manifest's M0 and
    the signedness of the branches, never from data: a population is
    ``clamp_free`` when value(M0) * ``quantizer.prefix_bound`` + (K+1)/2 fits
    the accumulator, and its weights are float32 when every neuron's sum|w|
    is below FLOAT32_SUM_LIMIT. Its M0 table (``_m0_table``) covers every
    step sum those weights can make.
    """
    qnet.validate()
    if plan is None:
        plan = SparsityPlan.from_manifest(qnet.sparsity)

    shapes: dict[str, tuple[int, ...]] = {INPUT_NAME: tuple(qnet.input_shape)}
    alias: dict[str, str] = {INPUT_NAME: INPUT_NAME}
    stage: dict[str, int] = {INPUT_NAME: 0}
    pops: list[Population] = []
    signed = signed_wires(qnet)
    acc_hi = (1 << (qnet.acc_bits - 1)) - 1
    for lyr in qnet.layers:
        shapes[lyr.name] = lyr.out_shape
        if lyr.kind == "flatten":
            alias[lyr.name] = alias[lyr.inputs[0]]
            continue
        alias[lyr.name] = lyr.name
        sources = [alias[s] for s in lyr.inputs]
        in_shapes = [shapes[s] for s in lyr.inputs]   # pre-flatten consumer view
        n_out = int(np.prod(lyr.out_shape))

        weight_sum = _max_weight_sum(lyr.weights)
        if weight_sum >= EXACT_SUM_LIMIT:
            raise ValueError(
                f"layer {lyr.name!r}: a neuron's sum of |weights| reaches 2^53, "
                f"so float64 synaptic sums would not be exact")
        dtype = np.float32 if weight_sum < FLOAT32_SUM_LIMIT else np.float64
        dense_w = gather_idx = conv_w = None
        sum_bound = weight_sum          # largest |step sum| of one neuron
        if lyr.kind == "fully-connected":
            form, dense_w, fanin = "dense", lyr.weights.astype(dtype), lyr.weights.shape[1]
            fanouts = [np.full(fanin, n_out, dtype=np.int64)]
        elif lyr.kind == "residual-add":
            form, fanin = "identity", 2
            fanouts = [np.ones(math.prod(shape), dtype=np.int64) for shape in in_shapes]
            sum_bound = len(sources)
        elif lyr.kind == "avgpool2d":
            form, gather_idx = "pool", _pool_gather(in_shapes[0], lyr.attrs)
            fanin = sum_bound = gather_idx.shape[0]
            fanouts = [np.bincount(gather_idx.ravel(), minlength=math.prod(in_shapes[0]))]
        else:
            form, dense_w, gather_idx, conv_w, fanin, fanout = _conv_form(
                in_shapes[0], lyr.attrs, lyr.weights, dtype)
            fanouts = [fanout]
        # a hidden wire never spikes at step 0, so one phi serves every branch
        reads_signed = any(signed[s] for s in lyr.inputs)
        phi = step_weights(qnet.k, reads_signed)

        bias_pre_scaled = bias_post = None
        if lyr.bias is not None:
            b = lyr.bias.astype(np.int64)
            if lyr.kind == "conv2d":          # per-channel -> per-neuron
                b = np.repeat(b, lyr.out_shape[1] * lyr.out_shape[2])
            if lyr.bias_scheme == "product":
                bias_pre_scaled = apply(lyr.m0, b)
            else:
                bias_post = b
        bound = prefix_bound(lyr, lyr.weights,
                             lyr.bias if lyr.bias_scheme == "product" else None,
                             reads_signed, qnet.k)
        clamp_free = abs(lyr.m0.value()) * bound + Fraction(qnet.k + 1, 2) <= acc_hi

        pops.append(Population(
            name=lyr.name, kind=lyr.kind, inputs=sources,
            phi=phi, n_out=n_out,
            fanin=fanin, fanouts=fanouts,
            form=form, dense_w=dense_w, gather_idx=gather_idx, conv_w=conv_w,
            m0=lyr.m0, m1=lyr.m1, m0_table=_m0_table(lyr.m0, phi, sum_bound),
            bias_pre_scaled=bias_pre_scaled, bias_post=bias_post, clamp_free=clamp_free,
            stage=0, signed=signed[lyr.name],
        ))
        stage[lyr.name] = 1 + max(stage[s] for s in sources)
        pops[-1].stage = stage[lyr.name]

    return SpikingNetwork(
        name=qnet.name, k=qnet.k, acc_bits=qnet.acc_bits,
        input_shape=tuple(qnet.input_shape), populations=pops,
        n_stages=max(stage.values()), plan=plan,
    )


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def check_capacity(snet: SpikingNetwork, profile: HardwareProfile) -> list[str]:
    """Every way `snet` exceeds a limit that `profile` states, one string
    each, naming the population (the network, for the accumulator width and
    the core count) and the limit. A limit the profile leaves unstated is not
    checked. Cores are counted only when it states ``neurons_per_core``: each
    population takes ceil(neurons / neurons_per_core) cores of its own."""
    violations = []
    if profile.acc_bits is not None and snet.acc_bits > profile.acc_bits:
        violations.append(
            f"accumulator width {snet.acc_bits} exceeds profile {profile.acc_bits}")
    for pop in snet.populations:
        if profile.max_fanin is not None and pop.fanin > profile.max_fanin:
            violations.append(
                f"{pop.name}: fan-in {pop.fanin} exceeds {profile.max_fanin}")
        if profile.weight_bits is not None:
            # pool taps weigh 1; a residual join holds no weights
            w = pop.conv_w if pop.dense_w is None else pop.dense_w
            wmax = 1 if pop.form == "pool" else 0 if w is None else int(np.abs(w).max())
            if wmax.bit_length() + 1 > profile.weight_bits:   # signed bits wmax needs
                violations.append(f"{pop.name}: weight magnitude {wmax} exceeds "
                                  f"{profile.weight_bits}-bit range")
    if profile.neurons_per_core is not None and profile.cores is not None:
        cores = sum(-(-p.n_out // profile.neurons_per_core) for p in snet.populations)
        if cores > profile.cores:
            violations.append(f"network needs {cores} cores, profile has {profile.cores}")
    return violations


# ---------------------------------------------------------------------------
# batch driver
# ---------------------------------------------------------------------------

def _live_steps(snet: SpikingNetwork, pop: Population) -> range:
    """The steps of pop's input trains that can carry a spike under
    ``snet.plan``; every other step of every branch is silent.

    A hidden wire carries V in [0, q_max], q_max < 2^(K-1), so it never spikes
    at step 0, and one cut by ``drlo`` c never spikes in its last c steps
    (``rot`` clamps to q_max, so it cuts none). A population with a signed
    branch, whose phi carries the sign weight, reads every step.
    """
    if pop.phi[0] < 0:
        return range(snet.k)
    cut = min(snet.plan.for_layer(s).drlo_bits for s in pop.inputs)
    return range(1, max(1, snet.k - cut))


def _planes(values: np.ndarray, k: int, steps: range, dtype) -> np.ndarray:
    """The 0/1 spikes of int16 wire values of any shape at `steps`, as
    `dtype` [len(steps), *values.shape], one plane per step: the spike of
    step t is bit K-1-t (the arithmetic shift gives a signed wire's
    two's-complement bits; its phi carries the sign weight). This is the
    only place where netsim turns wire values into spikes."""
    planes = np.empty((len(steps),) + values.shape, dtype=dtype)
    for j, t in enumerate(steps):
        np.bitwise_and(values >> (k - 1 - t), 1, out=planes[j], casting="unsafe")
    return planes


def _integrate_block(pop: Population, sums: np.ndarray, steps: range, acc_bits: int
                     ) -> tuple[np.ndarray, int]:
    """U from a block's unweighted step sums [len(steps), N, n_out] at
    `steps`, then the bias and the M1 rescale; returns (clamped V, saturation
    count). Step t's increment round(M0 * phi_t * S) is read from its row of
    ``pop.m0_table`` (a negative S indexes from the row's end), or, where the
    population has no table, rounded by one ``apply`` on the whole block
    (it is elementwise). A ``clamp_free`` population's U is the sum of the
    increments, since no running sum can reach the clamp; any other takes
    the step-by-step saturating scan. A product-scheme bias is added to U,
    in place where the population is ``clamp_free`` (``compile_network``'s
    bound includes it) and with saturation otherwise; an output-scheme bias
    is added after M1, and V is clamped to
    [-q_max, q_max] on a signed wire, else to [0, q_max], q_max = 2^(K-1) - 1."""
    u = np.zeros(sums.shape[1:], dtype=np.int64)
    saturations = 0
    if pop.m0_table is None:
        incs = apply(pop.m0, pop.phi[steps.start:steps.stop, None, None] * sums)
    else:                                                       # rows end at step K-1
        incs = (pop.m0_table[t - pop.phi.size][s] for t, s in zip(steps, sums))
    for inc in incs:
        if pop.clamp_free:
            u += inc
        else:
            u, events = saturate_array(u + inc, acc_bits)
            saturations += events
    if pop.bias_pre_scaled is not None:
        if pop.clamp_free:              # compile_network's bound includes the bias
            u += pop.bias_pre_scaled
        else:
            u, events = saturate_array(u + pop.bias_pre_scaled, acc_bits)
            saturations += events
    v = apply(pop.m1, u)
    if pop.bias_post is not None:
        v = v + pop.bias_post
    q_max = (1 << (pop.phi.size - 1)) - 1
    return np.clip(v, -q_max if pop.signed else 0, q_max), saturations


def _block_samples(pop: Population, steps: int) -> int:
    """Samples per sample block of a population step that reads `steps`
    live steps. Per sample and step, the step sums take 8 bytes per output
    neuron, a dense form's planes one weight itemsize per input neuron, a
    conv's patches one weight itemsize per entry of its [F, n_pos] gather, a
    pool's int16 tap planes 2 bytes per entry of its [F, n_out] gather; a
    sample block holds BLOCK_BYTES of the largest, and at least one sample."""
    width = 8 * pop.n_out
    if pop.form == "dense":
        width = max(width, pop.dense_w.itemsize * pop.dense_w.shape[1])
    elif pop.form == "conv":
        width = max(width, pop.conv_w.itemsize * pop.gather_idx.size)
    elif pop.form == "pool":
        width = max(width, 2 * pop.gather_idx.size)
    return max(1, BLOCK_BYTES // (max(steps, 1) * width))


def _population_step(pop: Population, values: list[np.ndarray], acc_bits: int,
                     steps: range, setting: LayerSparsity) -> tuple[np.ndarray, int]:
    """One population over m samples, in sample blocks of ``_block_samples``.

    `values` are the int16 [m, n_in] wire values of pop's branches; only the
    live `steps` of their trains are read, since a silent step adds
    round(M0 * 0) = 0 to U. Each sample block's synaptic sums, integration
    and emission under `setting` fill its rows of the output. Returns
    (values int16 [m, n_out], saturation count).
    """
    m = values[0].shape[0]
    out = np.empty((m, pop.n_out), dtype=np.int16)
    saturations = 0
    size = _block_samples(pop, len(steps))
    for lo in range(0, m, size):
        hi = min(lo + size, m)
        sums = pop.step_sum([vals[lo:hi] for vals in values], steps)
        v, sat = _integrate_block(pop, sums, steps, acc_bits)
        out[lo:hi] = pop.emit(v, setting)
        saturations += sat
    return out, saturations


def _spike_counts(values: np.ndarray, k: int) -> np.ndarray:
    """Per-neuron spike counts of the trains of int16 [N, n] wire values: the
    popcount of each value's K low bits, summed over the batch, int64 [n]."""
    bits = values.view(np.uint16) & np.uint16((1 << k) - 1)
    return np.bitwise_count(bits).sum(axis=0, dtype=np.int64)


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


def run_batch(snet: SpikingNetwork, x_int: np.ndarray,
              record_values: bool = False) -> RunResult:
    """Bit-serial execution of a batch: one ``CachedRun`` per PIPELINE_WINDOW
    samples.

    Each population's spike counts and saturations are summed over the
    windows and its trace is built once, from the sums. The window changes no
    result, since a sample's integers do not depend on which samples share
    it; only one window's run is held at a time, so host memory is bounded by
    PIPELINE_WINDOW samples of every wire's values plus one step's
    BLOCK_BYTES. With `record_values` every wire's int16 [N, n] values are
    also kept whole, for ``dump_spike_trains``.
    """
    xb = check_batch(x_int, snet.input_shape)
    n = xb.shape[0]
    counts = {INPUT_NAME: np.zeros(math.prod(snet.input_shape), dtype=np.int64)}
    counts |= {p.name: np.zeros(p.n_out, dtype=np.int64) for p in snet.populations}
    saturations = {p.name: 0 for p in snet.populations}
    kept = ({name: np.empty((n, c.size), dtype=np.int16) for name, c in counts.items()}
            if record_values else None)
    outputs = np.empty((n, snet.output.n_out), dtype=np.int64)
    for lo in range(0, n, PIPELINE_WINDOW):
        hi = min(lo + PIPELINE_WINDOW, n)
        run = CachedRun(snet, xb[lo:hi])
        for name, c in run.counts.items():
            counts[name] += c
            if kept is not None:
                kept[name][lo:hi] = run.values[name]
        for name, sat in run.saturations.items():
            saturations[name] += sat
        outputs[lo:hi] = run.outputs
        del run                     # freed before the next window's run is built
    return RunResult(
        outputs=outputs,
        traces=[_trace(pop, counts, saturations[pop.name]) for pop in snet.populations],
        steps_per_sample=snet.k * (snet.n_stages + 1),
        values=kept,
    )


class CachedRun:
    """One run of a batch through every population, kept per population so
    that a change of one hidden population's sparsity re-runs only what
    depends on it.

    This is the only code that runs a network over samples; ``run_batch`` is
    one CachedRun per window. Every wire keeps its int16 [N, n] values with
    per-neuron spike counts, and every population its saturation count;
    ``layer_traces`` derives the traces from the counts with the ``_trace`` of
    ``run_batch``, building each population's trace once. ``rerun`` re-emits
    one population under another sparsity setting and re-runs only the
    populations downstream of it; every other value, count, saturation and
    trace is read from this cache, so a rerun rebuilds only the traces it
    changes. ``sops_floor`` bounds a rerun's SOPs from below before it is
    made, from the re-emitted values, the cached counts and the fan-outs, so
    the tuner reruns only the candidates that can still win.
    """

    def __init__(self, snet: SpikingNetwork, x_int: np.ndarray):
        self.snet = snet
        self.values: dict[str, np.ndarray] = {}
        self.counts: dict[str, np.ndarray] = {}
        self.saturations: dict[str, int] = {}
        self._traces: dict[str, LayerTrace] = {}      # built on first read
        x = check_batch(x_int, snet.input_shape)
        check_encodable(x, snet.k, signed=True)
        self._store(INPUT_NAME, x.reshape(x.shape[0], -1).astype(np.int16))
        for pop in snet.populations:
            self._run(pop)

    def _store(self, name: str, values: np.ndarray) -> None:
        """Keep a wire's int16 values and their spike counts under `name`."""
        self.values[name] = values
        self.counts[name] = _spike_counts(values, self.snet.k)

    def _run(self, pop: Population) -> None:
        """Run `pop` over the batch from the cached values, reading the steps
        its producers' settings leave live and emitting under its own setting
        in the plan; keep its values and saturation count."""
        values, self.saturations[pop.name] = _population_step(
            pop, [self.values[s] for s in pop.inputs], self.snet.acc_bits,
            _live_steps(self.snet, pop), self.snet.plan.for_layer(pop.name))
        self._store(pop.name, values)

    @property
    def outputs(self) -> np.ndarray:
        """The output population's values, int64 [N, n_out]."""
        return self.values[self.snet.output.name].astype(np.int64)

    @property
    def layer_traces(self) -> list[LayerTrace]:
        """Traces in population order, as ``RunResult.traces``."""
        for pop in self.snet.populations:
            if pop.name not in self._traces:
                self._traces[pop.name] = _trace(pop, self.counts, self.saturations[pop.name])
        return [self._traces[pop.name] for pop in self.snet.populations]

    def emitted(self, name: str, setting: LayerSparsity) -> np.ndarray:
        """The int16 values hidden population `name` emits under `setting`.

        `name` must have run under the identity setting, so that its cached
        values are its exact V in [0, q_max]. They are widened to int64
        before ``rot``, which can overflow int16 at K=16.
        """
        pop = next(p for p in self.snet.populations if p.name == name)
        if pop.signed or not self.snet.plan.for_layer(name).is_identity():
            raise ValueError(f"cannot re-run {name!r}: its values are not its exact V")
        return pop.emit(self.values[name].astype(np.int64), setting)

    def sops_floor(self, name: str, values: np.ndarray, counted: set[str]) -> int:
        """A lower bound on the SOPs, summed over the populations in
        `counted`, of ``rerun(name, setting, values)``, from `values` and
        this cache alone, with no population run.

        Let D be the populations strictly downstream of `name`. A population
        outside D (`name` itself included) reads no wire that the rerun
        changes, so its cached SOPs are its rerun SOPs. A direct consumer of
        `name` counts its branches from `name` on the spike counts of
        `values` and its branches from wires outside D on the cached counts,
        exactly as the rerun will. Every term left out is a branch fed from
        D, whose SOPs are at least 0, so the floor never exceeds the rerun's.
        """
        below = {name}
        for q in self.snet.populations:
            if below.intersection(q.inputs):
                below.add(q.name)
        below.discard(name)
        counts = {**self.counts, name: _spike_counts(values, self.snet.k)}
        total = 0
        for pop, trace in zip(self.snet.populations, self.layer_traces):
            if pop.name not in counted:
                continue
            if pop.name not in below:
                total += trace.sops
            elif name in pop.inputs:
                total += sum(metrics.count_sops(counts[s], fo)
                             for s, fo in zip(pop.inputs, pop.fanouts) if s not in below)
        return total

    def rerun(self, name: str, setting: LayerSparsity,
              values: np.ndarray | None = None) -> "CachedRun":
        """This run with hidden population `name` emitting under `setting`.

        `values` are the values ``emitted(name, setting)`` returns, formed
        here when not given. The result's maps are copies of this run's,
        with new entries for `name` and every population downstream of it;
        the traces of every other population are carried over.
        """
        if values is None:
            values = self.emitted(name, setting)
        child = copy.copy(self)
        child.snet = dataclasses.replace(self.snet, plan=self.snet.plan.replaced(name, setting))
        child.values, child.counts, child.saturations = (
            dict(self.values), dict(self.counts), dict(self.saturations))
        child._store(name, values)
        changed = {name}
        for q in child.snet.populations:
            if changed.intersection(q.inputs):
                child._run(q)
                changed.add(q.name)
        child._traces = {p: t for p, t in self._traces.items() if p not in changed}
        return child


# ---------------------------------------------------------------------------
# pipeline timing
# ---------------------------------------------------------------------------

@dataclass
class PipelineTiming:
    total_steps: int
    buffered_train_peak: int


@dataclass
class PipelineResult:
    outputs: np.ndarray
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
        total_steps=snet.k * (snet.n_stages + n_samples),
        buffered_train_peak=int(np.cumsum(live).max()),
    )


def run_pipeline(snet: SpikingNetwork, x_int: np.ndarray) -> PipelineResult:
    """A batch streamed through the staged network: the integers of
    ``run_batch`` (overlapping the layers changes only the timing) and the
    schedule of ``pipeline_timing``."""
    res = run_batch(snet, x_int)
    return PipelineResult(
        outputs=res.outputs,
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
    """The 0/1 spikes of `length` neurons from the runs of one dump line."""
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


def dump_spike_trains(path: str | Path, values: dict[str, np.ndarray], k: int) -> None:
    """One line per (wire, sample, step): `name sample step <runs>`, the
    step's spikes across the wire's neurons, from its int16 [N, n] values."""
    with open(path, "w") as fh:
        for name, vals in values.items():
            planes = _planes(vals, k, range(k), np.uint8)   # [K, N, n]
            for s in range(vals.shape[0]):
                for t in range(k):
                    fh.write(f"{name} {s} {t} {rle_encode(planes[t, s])}\n")
