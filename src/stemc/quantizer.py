"""Post-training quantization: scales, integer weights, requantization constants.

Symmetric uniform quantization with zero point fixed at 0 and the negation-
closed integer range [-q_max, q_max], q_max = 2^(K-1) - 1, for activations.
Weights use [-w_max, w_max] with w_max = min(q_max, 127): the manifest stores
them as int8 whatever K is. Per layer `build_quantized_network` freezes three
fixed-point constants:

* m_hat = S_in * S_w / S_out  - the full requantization multiplier,
* m0    = (2^(n-1) - 1) / I_max - per-step overflow protection for the n-bit
  accumulator, where I_max is derived from the integer weights and the
  layer's input wire format (see below),
* m1    = m_hat / m0 - applied once when the accumulator is folded back into
  the activation domain. value(m0) * value(m1) tracks value(m_hat) to better
  than 2^-29 relative.

Biases are stored as int32 under one of two schemes, decided per layer by an
overflow check at `bias_check_width` bits (2 to 32): "product" keeps the
bias at S_w*S_in scale and injects it into the accumulator before
rescaling; "output" requantizes it to S_out at max(8, K) bits and adds it
after m1 (the fallback for biases too large for the product scale).

I_max bounds every running prefix of a neuron's per-step weighted sums over
every value the input wires can carry: [0, q_max] on hidden wires,
[-2^(K-1), q_max] for each prefix of a signed one (``modelio.signed_wires``;
of the wires a layer reads, only the network input is signed). Padded conv
taps read 0, inside both ranges. A product-scheme bias is added to both ends
of that range. Each of the K per-step roundings and the bias injection moves
the accumulator by at most 1/2 from m0 times the exact sum, and I_max leaves
room for that, so the accumulator never saturates on any input.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fixedpoint import NORM_HIGH, FixedMult, from_real
from .modelio import (INPUT_NAME, FloatModel, LayerDesc, ModelFormatError, infer_shapes,
                      signed_wires)
from . import refengine

log = logging.getLogger("stemc")

SCALE_EPS = 2.0 ** -20   # floor for degenerate (all-zero) ranges
INT8_MAX = 127           # weights are stored as int8


@dataclass(frozen=True)
class QuantParams:
    scale: float
    q_min: int = -127
    q_max: int = 127


def derive_scale(r_max: float, r_min: float, q_max: int) -> QuantParams:
    """Symmetric scale: S = max(|r_max|, |r_min|) / q_max, zero point 0."""
    bound = max(abs(float(r_max)), abs(float(r_min)))
    if bound == 0.0:
        log.warning("degenerate range [0, 0]; falling back to scale %.3g", SCALE_EPS)
        bound = SCALE_EPS * q_max
    return QuantParams(scale=bound / q_max, q_min=-q_max, q_max=q_max)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize_tensor(t: np.ndarray, params: QuantParams) -> tuple[np.ndarray, int]:
    """q = clamp(round(r / S)); returns (int64 array, clamp event count)."""
    raw = _round_half_away(np.asarray(t, dtype=np.float64) / params.scale)
    q = np.clip(raw, params.q_min, params.q_max)
    clamped = int(np.count_nonzero(raw != q))
    return q.astype(np.int64), clamped


def _check_bias_width(what: str, width) -> None:
    """A bias width must lie in [2, 32]: the bias blob stores int32."""
    if not 2 <= width <= 32:
        raise ValueError(f"{what} {width!r} outside [2, 32]: biases are stored as int32")


# ---------------------------------------------------------------------------
# quantized network containers
# ---------------------------------------------------------------------------

@dataclass
class QuantizedLayer(LayerDesc):
    """A layer with int8 weights, an int32 bias and its frozen constants."""

    bias_scheme: str | None = None         # "product" | "output"
    bias_width: int | None = None
    scale_in: float | None = None
    scale_w: float | None = None
    scale_out: float | None = None
    m_hat: FixedMult | None = None
    m0: FixedMult | None = None
    m1: FixedMult | None = None
    i_max: int | None = None


@dataclass(kw_only=True)
class QuantizedNetwork(FloatModel):
    """A network of QuantizedLayers and the wire format they share."""

    k: int
    acc_bits: int
    bias_check_width: int
    input_scale: float
    sparsity: list[dict] = field(default_factory=list)

    @property
    def q_max(self) -> int:
        return (1 << (self.k - 1)) - 1

    @property
    def input_params(self) -> QuantParams:
        return QuantParams(self.input_scale, -self.q_max, self.q_max)

    @property
    def hidden_layers(self) -> list[str]:
        """The layers a sparsity plan may set: each unsigned wire's producer."""
        signed = signed_wires(self)
        return [lyr.name for lyr in self.layers if lyr.kind != "flatten" and not signed[lyr.name]]

    def validate(self) -> None:
        """Check topology, scales, constants and sparsity rows."""
        if not 2 <= self.k <= 16:
            raise ValueError(f"train length K={self.k} outside [2, 16]")
        if self.acc_bits < self.k:
            raise ValueError(f"accumulator width {self.acc_bits} < K={self.k}")
        _check_bias_width("bias check width", self.bias_check_width)
        super().validate()   # topology, shapes, activation tagging
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
            missing = [key for key in ("m_hat", "m0", "m1", "i_max")
                       if getattr(lyr, key) is None]
            if missing:
                raise ValueError(f"layer {lyr.name!r}: missing {', '.join(missing)}")
            if lyr.i_max < 1:
                raise ValueError(f"layer {lyr.name!r}: i_max must be >= 1")
            rel = abs(lyr.m0.value() * lyr.m1.value() - lyr.m_hat.value())
            if (lyr.m_hat.mantissa
                    and rel / abs(lyr.m_hat.value()) > Fraction(1, 1 << 29)):
                raise ValueError(f"layer {lyr.name!r}: m0*m1 drifts from m_hat")
            if lyr.bias is not None:
                if lyr.bias_scheme not in ("product", "output") or lyr.bias_width is None:
                    raise ValueError(f"layer {lyr.name!r}: bias scheme {lyr.bias_scheme!r}"
                                     f" or width {lyr.bias_width!r} is not valid")
                _check_bias_width(f"layer {lyr.name!r}: bias width", lyr.bias_width)
                limit = (1 << (lyr.bias_width - 1)) - 1
                if int(np.abs(lyr.bias.astype(np.int64)).max()) > limit:
                    raise ValueError(
                        f"layer {lyr.name!r}: bias exceeds declared "
                        f"{lyr.bias_width}-bit width"
                    )
        # Each sparsity row names a distinct hidden layer; rot and drlo are
        # bit counts of a train, so they lie in [0, 16] whatever K is.
        hidden = self.hidden_layers
        for i, row in enumerate(self.sparsity):
            where = f"sparsity row #{i} {row!r}"
            if not isinstance(row, dict) or set(row) - {"layer", "rot", "drlo"}:
                raise ModelFormatError(f"{where}: keys must be 'layer', 'rot' and 'drlo'")
            if row.get("layer") not in hidden:
                raise ModelFormatError(f"{where}: 'layer' must be a hidden layer, of {hidden}")
            if any(r["layer"] == row["layer"] for r in self.sparsity[:i]):
                raise ModelFormatError(f"{where}: a second row for {row['layer']!r}")
            for key in ("rot", "drlo"):
                if type(row.get(key, 0)) is not int or not 0 <= row.get(key, 0) <= 16:
                    raise ModelFormatError(f"{where}: {key!r} must be an integer in [0, 16]")


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

@dataclass
class RangeStats:
    """Float value ranges seen on the calibration set."""

    input_range: tuple[float, float]
    ranges: dict[str, tuple[float, float]]   # residual-unified output ranges
    samples: int


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


def calibrate(model: FloatModel, inputs: np.ndarray) -> RangeStats:
    """One float pass over a batch [N, *input_shape]: per-tensor min/max of
    the post-activation values.

    The pass (``refengine.float_forward``) holds one window's float64 tensors
    however large the batch, and the input range is read in the inputs' own
    dtype, whose min and max are exact in float64. Both branches of a
    residual join are unified onto one range, so they share an output scale.
    """
    inputs = np.asarray(inputs)
    _, ranges = refengine.float_forward(model, inputs)
    return RangeStats((float(inputs.min()), float(inputs.max())),
                      _unify_residual_ranges(model, ranges), inputs.shape[0])


# ---------------------------------------------------------------------------
# network construction
# ---------------------------------------------------------------------------

def prefix_bound(lyr, weights_q: np.ndarray | None, bias_pre: np.ndarray | None,
                 signed: bool, k: int) -> int:
    """Largest |P| (and |P + b| for a product-scheme bias b) over the output
    channels, where P is any running prefix of one neuron's per-step sums.

    Each input's prefix lies in [x_lo, q_max]: x_lo = -2^(K-1) if a branch's
    wire is signed (its first step carries the sign weight), 0 otherwise.
    So P lies in [x_lo*sum(w+) + q_max*sum(w-), q_max*sum(w+) + x_lo*sum(w-)].
    Pool and join taps have unit weights. The ends are Python ints, so the
    bound is exact for any integer weights whose per-channel sums fit int64.
    ``build_quantized_network`` picks M0 from it, and
    ``netsim.compile_network`` re-checks M0 against it.
    """
    q_max = (1 << (k - 1)) - 1
    x_lo = -(1 << (k - 1)) if signed else 0
    if weights_q is not None:
        w = weights_q.astype(np.int64).reshape(weights_q.shape[0], -1)
        pos = np.where(w > 0, w, 0).sum(axis=1).astype(object)
        neg = np.where(w < 0, w, 0).sum(axis=1).astype(object)
    elif lyr.kind == "avgpool2d":
        kh, kw = lyr.attrs["kernel"]
        pos, neg = kh * kw, 0
    else:  # residual-add: one unit synapse per branch
        pos, neg = 2, 0
    p_lo = x_lo * pos + q_max * neg
    p_hi = q_max * pos + x_lo * neg
    ends = [p_lo, p_hi]
    if bias_pre is not None:
        b = np.asarray(bias_pre).astype(object)
        ends += [p_lo + b, p_hi + b]
    return max(int(np.max(np.abs(e))) for e in ends)


def _i_max(bound: int, m_hat: FixedMult, k: int, acc_bits: int) -> int:
    """An I_max with value(M0) * bound + (K+1)/2 <= hi = 2^(n-1) - 1.

    The K step roundings and the bias injection each move U by at most 1/2.
    value(M0) exceeds hi / I_max by less than 2^-31 relative, which adds less
    than 1 to value(M0) * bound; the extra 1 in the room absorbs it.
    I_max is also at least hi / (m_hat * 2^31), so that m1 = m_hat / M0 stays
    within from_real's normalized range when the bound is tiny (a layer whose
    weights are all zero has bound 0), and large enough that the float
    hi / I_max stays below 2^31 - 1/2, so M0 rounds to a mantissa below 2^31
    (a join at m_hat = 1 with a wide accumulator meets this edge). A larger
    I_max only lowers M0.
    """
    hi = (1 << (acc_bits - 1)) - 1
    room2 = 2 * hi - (k + 1) - 2          # twice hi - (K+1)/2 - 1
    if room2 <= 0:
        raise ValueError(
            f"accumulator width {acc_bits} leaves no room for the rounding "
            f"drift of K={k} steps; use at least {acc_bits + 1} bits")
    floor = -(-hi // (m_hat.value() * (1 << 31))) if m_hat.mantissa else 1
    rounds_in = 2 * hi // (2 * NORM_HIGH - 1) + 1      # hi / I_max < 2^31 - 1/2
    i_max = max(1, floor, rounds_in, -(-2 * bound * hi // room2))
    while hi / i_max >= NORM_HIGH - 0.5:     # the float quotient rounded up to it
        i_max += 1
    return i_max


def build_quantized_network(model: FloatModel, stats: RangeStats, k: int = 8,
                            acc_bits: int = 16,
                            bias_check_width: int = 16) -> QuantizedNetwork:
    """Freeze scales, integer weights and fixed-point constants per layer."""
    if not 2 <= k <= 16:
        raise ValueError(f"train length K={k} outside [2, 16]")
    if acc_bits < k:
        raise ValueError(f"accumulator width {acc_bits} < K={k}")
    _check_bias_width("bias check width", bias_check_width)
    infer_shapes(model)
    q_max = (1 << (k - 1)) - 1
    hi_acc = (1 << (acc_bits - 1)) - 1
    in_qp = derive_scale(stats.input_range[1], stats.input_range[0], q_max)
    qnet = QuantizedNetwork(
        name=model.name, input_shape=model.input_shape, k=k, acc_bits=acc_bits,
        bias_check_width=bias_check_width, input_scale=in_qp.scale,
    )
    scale_of = {INPUT_NAME: in_qp.scale}
    signed = signed_wires(model)
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
        if r_lo < 0 and not signed[lyr.name]:
            log.warning("layer %s: calibrated minimum %g is below 0, but a hidden "
                        "wire carries only [0, q_max]", lyr.name, r_lo)
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
                bias_width = max(8, k)
                b_scale = scale_out
            limit = (1 << (bias_width - 1)) - 1
            raw = _round_half_away(lyr.bias.astype(np.float64) / b_scale)
            bias_q = np.clip(raw, -limit, limit)
            clamped = int(np.count_nonzero(raw != bias_q))
            if clamped:
                log.warning("layer %s: %d bias values clamped at %d bits",
                            lyr.name, clamped, bias_width)
            bias_q = bias_q.astype(np.int32)

        bias_pre = bias_q if scheme == "product" else None
        bound = prefix_bound(lyr, weights_q, bias_pre,
                             any(signed[s] for s in lyr.inputs), k)
        i_max = _i_max(bound, m_hat, k, acc_bits)
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
    qnet.validate()
    return qnet


def calibration_report(qnet: QuantizedNetwork, stats: RangeStats) -> str:
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
