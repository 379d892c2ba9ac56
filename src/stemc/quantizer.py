"""Post-training quantization: scales, integer weights, requantization constants.

Symmetric uniform quantization with zero point fixed at 0 and the negation-
closed integer range [-q_max, q_max], q_max = 2^(K-1) - 1, for activations.
Weights use [-w_max, w_max] with w_max = min(q_max, 127): the manifest stores
them as int8 whatever K is. Per layer `build_quantized_network` freezes three
fixed-point constants:

* m_hat = S_in * S_w / S_out  - the full requantization multiplier,
* m0    = (2^(n-1) - 1) / I_max - per-step overflow protection for the n-bit
  accumulator, where I_max is the largest integer weighted-sum magnitude
  observed on the calibration set,
* m1    = m_hat / m0 - applied once when the accumulator is folded back into
  the activation domain. value(m0) * value(m1) tracks value(m_hat) to better
  than 2^-29 relative.

Biases are stored under one of two schemes, decided per layer by an overflow
check at `bias_check_width` bits: "product" keeps the bias at S_w*S_in scale
and injects it into the accumulator before rescaling; "output" requantizes it
to S_out and adds it after m1 (the calibrated fallback for biases too large
for the product scale).

I_max is measured through the same bit-plane arithmetic the simulator runs
(running prefixes and single-step sums included, not just the final sum), and
the measurement loop re-runs with frozen constants until the accumulator
provably stays inside its n-bit range on every calibration sample.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fixedpoint import FixedMult, from_real
from .modelio import INPUT_NAME, FloatModel, infer_shapes
from . import refengine

log = logging.getLogger("stemc")

SCALE_EPS = 2.0 ** -20   # floor for degenerate (all-zero) ranges
INT8_MAX = 127           # weights are stored as int8


@dataclass(frozen=True)
class QuantParams:
    scale: float
    zero_point: int = 0
    q_min: int = -127
    q_max: int = 127


def derive_scale(r_max: float, r_min: float, q_max: int,
                 q_min: int | None = None) -> QuantParams:
    """Symmetric scale: S = max(|r_max|, |r_min|) / q_max, zero point 0."""
    if q_min is None:
        q_min = -q_max
    bound = max(abs(float(r_max)), abs(float(r_min)))
    if bound == 0.0:
        log.warning("degenerate range [0, 0]; falling back to scale %.3g", SCALE_EPS)
        bound = SCALE_EPS * q_max
    return QuantParams(scale=bound / q_max, zero_point=0, q_min=q_min, q_max=q_max)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize_tensor(t: np.ndarray, params: QuantParams) -> tuple[np.ndarray, int]:
    """q = clamp(round(r / S)); returns (int64 array, clamp event count)."""
    raw = _round_half_away(np.asarray(t, dtype=np.float64) / params.scale)
    q = np.clip(raw, params.q_min, params.q_max)
    clamped = int(np.count_nonzero(raw != q))
    return q.astype(np.int64), clamped


def dequantize(q: np.ndarray, params: QuantParams) -> np.ndarray:
    return np.asarray(q, dtype=np.float64) * params.scale


# ---------------------------------------------------------------------------
# quantized network containers
# ---------------------------------------------------------------------------

@dataclass
class QuantizedLayer:
    name: str
    kind: str
    attrs: dict
    inputs: list[str]
    weights: np.ndarray | None = None      # int8
    bias: np.ndarray | None = None         # int32, domain per bias_scheme
    bias_scheme: str | None = None         # "product" | "output"
    bias_width: int | None = None
    scale_in: float | None = None
    scale_w: float | None = None
    scale_out: float | None = None
    m_hat: FixedMult | None = None
    m0: FixedMult | None = None
    m1: FixedMult | None = None
    i_max: int | None = None
    out_shape: tuple[int, ...] = ()
    activation: str = "none"


@dataclass
class QuantizedNetwork:
    name: str
    input_shape: tuple[int, ...]
    k: int
    acc_bits: int
    bias_check_width: int
    input_scale: float
    layers: list[QuantizedLayer] = field(default_factory=list)
    sparsity: list[dict] = field(default_factory=list)

    @property
    def q_max(self) -> int:
        return (1 << (self.k - 1)) - 1

    @property
    def input_params(self) -> QuantParams:
        return QuantParams(self.input_scale, 0, -self.q_max, self.q_max)

    def layer(self, name: str) -> QuantizedLayer:
        for lyr in self.layers:
            if lyr.name == name:
                return lyr
        raise KeyError(name)

    @property
    def output_layer(self) -> QuantizedLayer:
        return self.layers[-1]

    def validate(self, check_drift: bool = True) -> None:
        """Check topology, scales and constants; ``check_drift=False`` skips
        only the m0*m1 ~ m_hat check (see ``calibrate``'s bootstrap build)."""
        if not 2 <= self.k <= 16:
            raise ValueError(f"train length K={self.k} outside [2, 16]")
        if self.acc_bits < self.k:
            raise ValueError(f"accumulator width {self.acc_bits} < K={self.k}")
        infer_shapes(self)   # topology, shapes, activation tagging
        scale_of = {INPUT_NAME: self.input_scale}
        for lyr in self.layers:
            for src in lyr.inputs:
                if scale_of[src] != lyr.scale_in:
                    raise ValueError(
                        f"layer {lyr.name!r}: scale_in {lyr.scale_in!r} does not "
                        f"match producer {src!r} scale {scale_of[src]!r}"
                    )
            scale_of[lyr.name] = lyr.scale_out
            if lyr.kind == "flatten":
                continue
            if lyr.i_max is None or lyr.i_max < 1:
                raise ValueError(f"layer {lyr.name!r}: i_max must be >= 1")
            rel = abs(lyr.m0.value() * lyr.m1.value() - lyr.m_hat.value())
            if (check_drift and lyr.m_hat.mantissa
                    and rel / abs(lyr.m_hat.value()) > Fraction(1, 1 << 29)):
                raise ValueError(f"layer {lyr.name!r}: m0*m1 drifts from m_hat")
            if lyr.bias is not None:
                limit = (1 << (lyr.bias_width - 1)) - 1
                if int(np.abs(lyr.bias).max()) > limit:
                    raise ValueError(
                        f"layer {lyr.name!r}: bias exceeds declared "
                        f"{lyr.bias_width}-bit width"
                    )


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

@dataclass
class RangeStats:
    """Float value ranges, mergeable by min/max reduction."""

    input_range: tuple[float, float]
    ranges: dict[str, tuple[float, float]]
    samples: int

    @staticmethod
    def merge(a: "RangeStats", b: "RangeStats") -> "RangeStats":
        lo = min(a.input_range[0], b.input_range[0])
        hi = max(a.input_range[1], b.input_range[1])
        merged = {}
        for name in a.ranges:
            merged[name] = (min(a.ranges[name][0], b.ranges[name][0]),
                            max(a.ranges[name][1], b.ranges[name][1]))
        return RangeStats((lo, hi), merged, a.samples + b.samples)


@dataclass
class CalibStats:
    input_range: tuple[float, float]
    ranges: dict[str, tuple[float, float]]   # residual-unified output ranges
    i_max: dict[str, int]
    samples: int


def collect_ranges(model: FloatModel, inputs: np.ndarray) -> RangeStats:
    """One float pass; per-tensor min/max of post-activation values."""
    _, record = refengine.float_forward(model, inputs)
    ranges = {
        name: (float(act.post.min()), float(act.post.max()))
        for name, act in record.layers.items()
    }
    x = np.asarray(inputs, dtype=np.float64)
    n = x.shape[0] if x.shape != tuple(model.input_shape) else 1
    return RangeStats((float(x.min()), float(x.max())), ranges, n)


def _range_owner(model: FloatModel, name: str) -> str:
    # flatten output shares its producer's tensor values (and scale)
    lyr = model.layer(name)
    while lyr.kind == "flatten":
        src = lyr.inputs[0]
        if src == INPUT_NAME:
            raise ValueError("residual branch cannot be the raw input")
        lyr = model.layer(src)
    return lyr.name


def _unify_residual_ranges(model: FloatModel, ranges: dict) -> dict:
    """Force both residual branches onto a shared output range (union)."""
    out = dict(ranges)
    changed = True
    while changed:
        changed = False
        for lyr in model.layers:
            if lyr.kind != "residual-add":
                continue
            owners = []
            for src in lyr.inputs:
                if src == INPUT_NAME:
                    raise ValueError(
                        f"layer {lyr.name!r}: residual branches must be internal layers"
                    )
                owners.append(_range_owner(model, src))
            union = (min(out[o][0] for o in owners), max(out[o][1] for o in owners))
            for o in owners:
                if out[o] != union:
                    out[o] = union
                    changed = True
    return out


def calibrate_bias(bias: np.ndarray | None, scale_w: float, scale_in: float,
                   check_width: int = 16) -> str:
    """Pick the bias scheme by the product-scale overflow check.

    Quantize at S_b = S_w * S_in; if any value exceeds the signed
    `check_width` range, fall back to the output-scale scheme.
    """
    if bias is None:
        return "product"
    q = _round_half_away(np.asarray(bias, dtype=np.float64) / (scale_w * scale_in))
    limit = (1 << (check_width - 1)) - 1
    return "output" if int(np.abs(q).max()) > limit else "product"


def calibrate(model: FloatModel, data, k: int = 8, acc_bits: int = 16,
              bias_check_width: int = 16, max_passes: int = 8) -> CalibStats:
    """Measure quantization statistics on a calibration set.

    Two phases: a float pass collects per-tensor value ranges (merged by
    min/max, so sample batches may be processed independently); then the
    integer bit-plane pass measures per-layer I_max on the actual quantized
    chain, re-running with frozen constants until the n-bit accumulator range
    holds on every calibration sample.
    """
    inputs = getattr(data, "inputs", data)
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape == tuple(model.input_shape):
        inputs = inputs[None, ...]
    rs = collect_ranges(model, inputs)
    ranges = _unify_residual_ranges(model, rs.ranges)
    stats = CalibStats(rs.input_range, ranges, {}, rs.samples)

    # Bootstrap: a throwaway scaling just to measure the weighted-sum ranges.
    # With i_max = 1 a wide accumulator makes m1 = m_hat / (2^(n-1) - 1) too
    # small for a normalized mantissa, so this build skips the drift check.
    hi_acc = (1 << (acc_bits - 1)) - 1
    lo_acc = -(1 << (acc_bits - 1))
    for lyr in model.layers:
        if lyr.kind != "flatten":
            stats.i_max[lyr.name] = 1
    qnet = build_quantized_network(model, stats, k, acc_bits, bias_check_width,
                                   check_drift=False)
    x_int, _ = quantize_tensor(inputs, qnet.input_params)

    def measure() -> dict[str, refengine.LayerStats]:
        wide: dict[str, refengine.LayerStats] = {}
        refengine.int_forward(qnet, x_int, mode="wide", stats=wide)
        return wide

    def observed(st: refengine.LayerStats) -> int:
        return max(st.max_abs_step, st.max_abs_prefix, st.max_abs_total, 1)

    for name, st in measure().items():
        stats.i_max[name] = observed(st)
    qnet = build_quantized_network(model, stats, k, acc_bits, bias_check_width)

    # Refine: the measured bound alone does not cover the rounding drift the
    # K per-step roundings add on top of M0 * prefix, so a pass that drives
    # the accumulator out of its range raises a protection floor. The floor
    # only ever grows (measurement wiggle must not undo it), measurements
    # settle front to back because a layer's inputs stop changing once its
    # producers are stable, and a clean pass is exactly the proof that the
    # accumulator stays in range on every calibration sample.
    protect: dict[str, int] = {}
    for _ in range(max_passes):
        changed = False
        for name, st in measure().items():
            cur = stats.i_max[name]
            if st.u_max > hi_acc:
                protect[name] = max(protect.get(name, 0),
                                    math.ceil(cur * st.u_max / hi_acc) + 1)
            if st.u_min < lo_acc:
                protect[name] = max(protect.get(name, 0),
                                    math.ceil(cur * st.u_min / lo_acc) + 1)
            need = max(observed(st), protect.get(name, 0))
            if need != cur:
                stats.i_max[name] = need
                changed = True
        if not changed:
            break
        qnet = build_quantized_network(model, stats, k, acc_bits, bias_check_width)
    else:
        raise RuntimeError(
            f"I_max calibration did not stabilize after {max_passes} passes"
        )
    return stats


# ---------------------------------------------------------------------------
# network construction
# ---------------------------------------------------------------------------

def build_quantized_network(model: FloatModel, stats: CalibStats, k: int = 8,
                            acc_bits: int = 16, bias_check_width: int = 16,
                            check_drift: bool = True) -> QuantizedNetwork:
    """Freeze scales, integer weights and fixed-point constants per layer.

    ``check_drift`` is passed to ``QuantizedNetwork.validate``.
    """
    if not 2 <= k <= 16:
        raise ValueError(f"train length K={k} outside [2, 16]")
    if acc_bits < k:
        raise ValueError(f"accumulator width {acc_bits} < K={k}")
    infer_shapes(model)
    q_max = (1 << (k - 1)) - 1
    hi_acc = (1 << (acc_bits - 1)) - 1
    in_qp = derive_scale(stats.input_range[1], stats.input_range[0], q_max)
    qnet = QuantizedNetwork(
        name=model.name, input_shape=model.input_shape, k=k, acc_bits=acc_bits,
        bias_check_width=bias_check_width, input_scale=in_qp.scale,
    )
    scale_of = {INPUT_NAME: in_qp.scale}
    for lyr in model.layers:
        in_scales = [scale_of[s] for s in lyr.inputs]
        if lyr.kind == "flatten":
            qnet.layers.append(QuantizedLayer(
                name=lyr.name, kind=lyr.kind, attrs=dict(lyr.attrs),
                inputs=list(lyr.inputs),
                scale_in=in_scales[0], scale_out=in_scales[0],
            ))
            scale_of[lyr.name] = in_scales[0]
            continue
        if lyr.kind == "residual-add" and in_scales[0] != in_scales[1]:
            raise ValueError(
                f"layer {lyr.name!r}: residual branches disagree on scale "
                f"({in_scales[0]!r} vs {in_scales[1]!r})"
            )
        scale_in = in_scales[0]

        weights_q = None
        if lyr.kind in ("fully-connected", "conv2d"):
            w_qp = derive_scale(float(lyr.weights.max()), float(lyr.weights.min()),
                                min(q_max, INT8_MAX))
            scale_w = w_qp.scale
            weights_q, clamped = quantize_tensor(lyr.weights, w_qp)
            if clamped:
                log.warning("layer %s: %d weight values clamped", lyr.name, clamped)
            weights_q = weights_q.astype(np.int8)
        elif lyr.kind == "avgpool2d":
            kh, kw = lyr.attrs["kernel"]
            scale_w = 1.0 / (kh * kw)
        else:  # residual-add
            scale_w = 1.0

        r_lo, r_hi = stats.ranges[lyr.name]
        out_qp = derive_scale(r_hi, r_lo, q_max)
        scale_out = out_qp.scale
        m_hat = from_real(scale_in * scale_w / scale_out)

        bias_q = None
        scheme = None
        bias_width = None
        if lyr.bias is not None:
            scheme = calibrate_bias(lyr.bias, scale_w, scale_in, bias_check_width)
            if scheme == "product":
                bias_width = bias_check_width
                b_scale = scale_w * scale_in
            else:
                bias_width = 8
                b_scale = scale_out
            limit = (1 << (bias_width - 1)) - 1
            raw = _round_half_away(lyr.bias.astype(np.float64) / b_scale)
            bias_q = np.clip(raw, -limit, limit)
            clamped = int(np.count_nonzero(raw != bias_q))
            if clamped:
                log.warning("layer %s: %d bias values clamped at %d bits",
                            lyr.name, clamped, bias_width)
            bias_q = bias_q.astype(np.int32)

        i_max = max(1, int(stats.i_max.get(lyr.name, 1)))
        m0 = from_real(hi_acc / i_max)
        m1 = from_real(float(Fraction(m_hat.value()) / Fraction(m0.value())))

        qnet.layers.append(QuantizedLayer(
            name=lyr.name, kind=lyr.kind, attrs=dict(lyr.attrs),
            inputs=list(lyr.inputs), weights=weights_q, bias=bias_q,
            bias_scheme=scheme, bias_width=bias_width,
            scale_in=scale_in, scale_w=scale_w, scale_out=scale_out,
            m_hat=m_hat, m0=m0, m1=m1, i_max=i_max,
        ))
        scale_of[lyr.name] = scale_out
    qnet.validate(check_drift)
    return qnet


def calibration_report(qnet: QuantizedNetwork, stats: CalibStats) -> str:
    """Human-readable constant table (stable: no timestamps, fixed widths)."""
    lines = [
        f"model {qnet.name}: K={qnet.k} acc_bits={qnet.acc_bits} "
        f"input_scale={qnet.input_scale!r} calib_samples={stats.samples}",
        f"{'layer':<14}{'kind':<16}{'scale_out':<14}{'i_max':>10}  "
        f"{'m_hat':<12}{'m0':<12}{'m1':<12}{'bias':<10}",
    ]
    for lyr in qnet.layers:
        if lyr.kind == "flatten":
            lines.append(f"{lyr.name:<14}{lyr.kind:<16}(pass-through)")
            continue
        bias = f"{lyr.bias_scheme}/{lyr.bias_width}b" if lyr.bias is not None else "-"
        lines.append(
            f"{lyr.name:<14}{lyr.kind:<16}{lyr.scale_out:<14.6g}{lyr.i_max:>10}  "
            f"{lyr.m_hat.real():<12.6g}{lyr.m0.real():<12.6g}{lyr.m1.real():<12.6g}"
            f"{bias:<10}"
        )
    return "\n".join(lines) + "\n"
