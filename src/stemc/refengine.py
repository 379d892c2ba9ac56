"""Reference engines: float forward pass and the integer oracle.

The float pass serves calibration and dataset labelling. It returns the
outputs and each layer's post-activation (min, max). It runs the batch one
window of samples at a time, as many as keep the largest layer's float64
output plus its conv columns within COLS_BYTES, and merges each layer's
ranges across windows with min and max, as post-training min/max
calibration over a stream of batches does. Within a window it holds only
the tensors a later layer still reads, so its memory does not grow with the
batch beyond the outputs.

The integer oracle is the ground truth the spiking simulator is judged
against. It runs in three modes:

* ``direct``  - one-shot requantization: round(M_hat * sum(W~ X~)) plus bias,
  clamped. The textbook quantized-inference form; used for bias-scheme
  analysis and reporting.
* ``wide``    - the scaled-integration arithmetic (per-step M0 rounding over
  the MSB-first bit planes of the inputs, final M1 rescale) with an unbounded
  accumulator. Equals ``hw`` whenever nothing saturates, by construction;
  the quantizer derives M0 from the weights so that nothing saturates on any
  input the wires can carry.
* ``hw``      - same as ``wide`` but the accumulator saturates at the
  configured width, with every clamp counted. This is the mode the spiking
  simulator must reproduce integer-for-integer.

The modes differ only in how a layer forms U (``direct``: the one-shot sum
plus a product-scheme bias; ``wide``, ``hw``: ``_plane_walk``) and share one
tail, clip(apply(M, U) + output-scheme bias), M being M_hat or M1. All three
share the FixedMult rounding primitive; the linear algebra here is
deliberately organized differently from the simulator's, so the two sides
are independent implementations of the same contract.

Convolution is a stacked shifted slice: the kh*kw strided views of the padded
input are copied into columns [c*kh*kw, N*oh*ow] and multiplied by the
[oc, c*kh*kw] weights in one BLAS matmul. In ``direct`` mode (and in the
float pass) the columns are float64 and built for at most COLS_BYTES of
samples at a time. Every partial sum is an integer of magnitude at most
max|x| * sum|w| of one output channel, so the result is exact below 2^53;
``int_forward`` checks that bound per conv layer and raises otherwise.
Fully-connected layers in ``direct`` mode are an int64 matmul.

The bit-plane walk (``wide``, ``hw``) runs each layer over blocks of about
WALK_BYTES per step: one step's int64 sums, or a conv's or fc's float plane
columns, whichever is larger. A block's columns are built once, as int16,
from its wire values (zero padding has no set bit), and the 0/1 plane of
step t is ``(cols >> (K-1-t)) & 1``, the bit the wire carries at step t. fc
and conv planes meet the weights in a float BLAS matmul: float32 where every
output row's sum|w| is below 2^24, float64 below 2^53, and the layer is
rejected at 2^53. The planes are 0/1, so every partial sum is an exact
integer. A step whose planes are all zero in a block is skipped, decided
from the data (``not plane.any()``): it would add apply(M0, 0) = 0 to an
in-range U, so no integer and no clamp count changes. Every other step is
rounded with ``fixedpoint.apply`` and clamped where the data reaches the
accumulator's range.

``netsim`` shares three things with this module: the wire's bit order and
step weights (``stem``), which wires are signed (``modelio.signed_wires``,
which also sets each layer's clip range) and the rounding primitive
``fixedpoint.apply``. It computes the same sums from its own compiled forms
(dense matrices, per-position patch gathers, pool gathers), reads only the
steps that its compile-time proof leaves live, tabulates the M0 increments
and skips the clamp scan where it proves the accumulator cannot clamp.
Nothing here uses those forms or proofs or imports ``netsim``, so
``compare`` checks two derivations of the same contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixedpoint import apply, saturate_array
from .modelio import INPUT_NAME, check_batch, conv_out_hw, pool_out_hw, signed_wires
from .stem import check_encodable, step_weights

# A convolution's float64 partial sums are integers of magnitude at most
# max|x| * sum|w| of one output channel; below 2^53 they are all exact (and
# float32 ones below 2^24).
EXACT_SUM_LIMIT = 1 << 53
COLS_BYTES = 8 << 20     # float64 conv columns built at once
WALK_BYTES = 1 << 20     # one step's sums or plane columns of a walk block


@dataclass
class LayerActivation:
    pre: np.ndarray       # accumulator-domain integers (or the direct-mode sum)
    post: np.ndarray      # layer output in its own value domain
    saturations: int = 0


# ---------------------------------------------------------------------------
# linear pieces (shifted-slice style; the simulator gathers patches)
# ---------------------------------------------------------------------------

def _columns(xp: np.ndarray, attrs: dict, dtype) -> np.ndarray:
    """The stacked shifted slices of a padded input xp [c, m, h+2p, w+2p]
    as one conv's columns [c*kh*kw, m*oh*ow] of `dtype`, taps ordered
    channel, dy, dx."""
    c, m, hp, wp = xp.shape
    kh, kw = attrs["kernel"]
    s = int(attrs.get("stride", 1))
    p = int(attrs.get("padding", 0))
    oh, ow = conv_out_hw(hp - 2 * p, wp - 2 * p, attrs)
    cols = np.empty((c, kh, kw, m, oh, ow), dtype=dtype)
    for dy in range(kh):
        for dx in range(kw):
            cols[:, dy, dx] = xp[:, :, dy:dy + s * (oh - 1) + 1:s,
                                 dx:dx + s * (ow - 1) + 1:s]
    return cols.reshape(c * kh * kw, m * oh * ow)


def _padded(x: np.ndarray, attrs: dict, dtype) -> np.ndarray:
    """x [n, c, h, w] zero-padded as [c, n, h+2p, w+2p] of `dtype`."""
    n, c, h, wd = x.shape
    p = int(attrs.get("padding", 0))
    xp = np.zeros((c, n, h + 2 * p, wd + 2 * p), dtype=dtype)
    xp[:, :, p:p + h, p:p + wd] = x.transpose(1, 0, 2, 3)
    return xp


def _conv2d(x: np.ndarray, w: np.ndarray, attrs: dict) -> np.ndarray:
    """Stacked shifted-slice convolution: the float64 ``_columns`` of the
    padded input meet the [oc, c*kh*kw] weights in one matmul.

    The columns are built for at most COLS_BYTES of samples at a time (one
    matmul each), so a large batch, such as a direct-mode oracle window of a
    wide conv, keeps a bounded temporary. Integer operands give integer
    results, exact while every partial sum stays below 2^53 (``int_forward``
    checks that bound in direct mode); the result has the promoted dtype of
    x and w.
    """
    n, _, h, wd = x.shape
    oc = w.shape[0]
    oh, ow = conv_out_hw(h, wd, attrs)
    xp = _padded(x, attrs, x.dtype)
    wmat = w.reshape(oc, -1).astype(np.float64)
    out = np.empty((n, oc, oh, ow), dtype=np.result_type(x, w))
    chunk = max(1, COLS_BYTES // (8 * wmat.shape[1] * oh * ow))
    for a in range(0, n, chunk):
        prod = wmat @ _columns(xp[:, a:a + chunk], attrs, np.float64)   # [oc, m*oh*ow]
        out[a:a + chunk] = prod.reshape(oc, -1, oh, ow).transpose(1, 0, 2, 3)
    return out


def _pool_sum(x: np.ndarray, attrs: dict) -> np.ndarray:
    n, c, h, wd = x.shape
    kh, kw = attrs["kernel"]
    s = int(attrs.get("stride", kh))
    oh, ow = pool_out_hw(h, wd, attrs)
    out = np.zeros((n, c, oh, ow), dtype=np.promote_types(x.dtype, np.int64))
    for dy in range(kh):
        for dx in range(kw):
            out += x[:, :, dy:dy + s * (oh - 1) + 1:s, dx:dx + s * (ow - 1) + 1:s]
    return out


def _linear(kind: str, attrs: dict, weights: np.ndarray | None,
            xs: list[np.ndarray]) -> np.ndarray:
    """Weighted sum of a layer, no bias, no scaling. Batched [N, ...]."""
    if kind == "fully-connected":
        return xs[0] @ weights.T
    if kind == "conv2d":
        return _conv2d(xs[0], weights, attrs)
    if kind == "avgpool2d":
        return _pool_sum(xs[0], attrs)
    if kind == "residual-add":
        return sum(xs[1:], xs[0])     # a join's branches, or one of them
    if kind == "flatten":
        return xs[0].reshape(xs[0].shape[0], -1)
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# float reference
# ---------------------------------------------------------------------------

def _float_window(model, n: int) -> int:
    """Samples per window of ``float_forward`` over a batch of n: as many as
    keep the largest layer's float64 output plus, for a conv, its float64
    columns within COLS_BYTES, at least one, with the batch split into
    windows of equal size (the last holds the remainder)."""
    def sample_bytes(lyr) -> int:
        values = int(np.prod(lyr.out_shape))
        if lyr.kind == "conv2d":
            values += lyr.weights[0].size * (values // lyr.out_shape[0])
        return 8 * values
    cap = max(1, COLS_BYTES // max(sample_bytes(lyr) for lyr in model.layers))
    windows = -(-n // cap)
    return -(-n // windows)


def float_forward(model, x: np.ndarray) -> tuple[np.ndarray, dict[str, tuple[float, float]]]:
    """Float64 forward pass of a batch x [N, *input_shape], N >= 1, one
    ``_float_window`` of samples at a time. Hidden fc/conv layers apply bias
    then ReLU.

    Returns (outputs [N, n_out], ranges): ranges[layer] is the (min, max) of
    that layer's post-activation over the batch, merged from its per-window
    ranges. Each window's outputs and ranges equal a pass over that window
    alone; a whole-batch pass may round a BLAS sum differently in its last
    bit. Only live tensors of one window are kept: each one is dropped once
    its last reader has run. The pool division, bias add
    and ReLU work in place on the array the layer's own ``_linear`` call
    allocated; flatten returns a view of its input, so it is never written.
    x itself is never written; a window is copied only if it is not float64.
    """
    xb = check_batch(x, model.input_shape)
    n = xb.shape[0]
    if n == 0:
        raise ValueError("the float pass needs at least one sample")
    size = _float_window(model, n)
    last_read = {src: i for i, lyr in enumerate(model.layers) for src in lyr.inputs}
    out = np.empty((n, int(np.prod(model.output_layer.out_shape))))
    ranges = {}
    for a in range(0, n, size):
        tensors = {INPUT_NAME: np.asarray(xb[a:a + size], dtype=np.float64)}
        for i, lyr in enumerate(model.layers):
            y = _linear(lyr.kind, lyr.attrs, lyr.weights, [tensors[s] for s in lyr.inputs])
            owned = lyr.kind != "flatten"
            if lyr.kind == "avgpool2d":
                kh, kw = lyr.attrs["kernel"]
                y /= kh * kw
            if lyr.bias is not None:
                b = lyr.bias.reshape((1, -1) + (1,) * (y.ndim - 2))
                y = np.add(y, b, out=y if owned else None)
            if lyr.activation == "relu":
                y = np.maximum(y, 0.0, out=y if owned else None)
            lo, hi = float(y.min()), float(y.max())
            seen = ranges.get(lyr.name, (lo, hi))
            ranges[lyr.name] = (min(seen[0], lo), max(seen[1], hi))
            for src in lyr.inputs:
                if last_read[src] == i:
                    tensors.pop(src, None)    # a join may read one tensor twice
            tensors[lyr.name] = y
        out[a:a + size] = y.reshape(y.shape[0], -1)
    return out, ranges


# ---------------------------------------------------------------------------
# integer oracle
# ---------------------------------------------------------------------------

INT_MODES = ("direct", "wide", "hw")


def int_forward(qnet, x_int: np.ndarray, mode: str = "hw"
                ) -> tuple[np.ndarray, dict[str, LayerActivation]]:
    """Integer forward pass of a quantized network.

    Args:
        qnet: QuantizedNetwork (constants already frozen).
        x_int: quantized input batch [N, *input_shape].
        mode: "direct", "wide" or "hw" (see module docstring).

    Returns:
        (outputs [N, n_out] int64, {layer name: LayerActivation})

    In every mode, an input outside the signed K-step wire range is a
    ValueError; a value is clipped to [-q_max, q_max] on a signed wire and
    to [0, q_max] on a hidden one (``modelio.signed_wires``).
    """
    if mode not in INT_MODES:
        raise ValueError(f"mode must be one of {INT_MODES}")
    xb = check_batch(x_int, qnet.input_shape).astype(np.int64)
    n, k = xb.shape[0], qnet.k
    check_encodable(xb, k, signed=True)
    q_max = (1 << (k - 1)) - 1
    signed = signed_wires(qnet)
    tensors: dict[str, np.ndarray] = {INPUT_NAME: xb}
    layers: dict[str, LayerActivation] = {}
    out = None
    for lyr in qnet.layers:
        xs = [tensors[s] for s in lyr.inputs]
        if lyr.kind == "flatten":
            post = xs[0].reshape(n, -1)
            layers[lyr.name] = LayerActivation(post, post)
            tensors[lyr.name] = post
            out = post
            continue

        if mode == "direct" and lyr.kind == "conv2d":
            x_max = int(np.abs(xs[0]).max())
            if x_max * _max_weight_sum(lyr.weights) >= EXACT_SUM_LIMIT:
                raise ValueError(
                    f"layer {lyr.name!r}: max|x| * sum|w| of one output channel "
                    f"reaches 2^53, so float64 convolution sums would not be exact")
        bias_pre = bias_post = None
        if lyr.bias is not None:
            b = lyr.bias.astype(np.int64)
            if lyr.kind == "conv2d":          # per-channel -> per-neuron
                b = np.repeat(b, lyr.out_shape[1] * lyr.out_shape[2])
            if lyr.bias_scheme == "product":
                bias_pre = b
            else:
                bias_post = b

        if mode == "direct":
            u = _linear(lyr.kind, lyr.attrs, _w64(lyr), xs).reshape(n, -1)
            if bias_pre is not None:
                u = u + bias_pre
            m, sat = lyr.m_hat, 0
        else:
            u, sat = _plane_walk(lyr, xs, [signed[s] for s in lyr.inputs], k,
                                 qnet.acc_bits if mode == "hw" else None, bias_pre)
            m = lyr.m1
        v = apply(m, u)
        if bias_post is not None:
            v = v + bias_post
        out = np.clip(v, -q_max if signed[lyr.name] else 0, q_max)
        layers[lyr.name] = LayerActivation(u, out, sat)
        tensors[lyr.name] = out.reshape((n,) + lyr.out_shape)
    return out, layers


def _w64(lyr) -> np.ndarray | None:
    return None if lyr.weights is None else lyr.weights.astype(np.int64)


def _max_weight_sum(weights: np.ndarray) -> int:
    """Largest sum|w| over the output rows (fc neurons, conv channels) of a
    weight tensor."""
    w = np.abs(weights.astype(np.int64)).reshape(weights.shape[0], -1)
    return int(w.sum(axis=1).max())


def _plane_weights(lyr) -> np.ndarray | None:
    """A fc or conv layer's weights as the float rows [n_out or oc, fan-in]
    its 0/1 planes meet: float32 while every row's sum|w| is below 2^24,
    float64 below 2^53, so every partial sum is an exact integer."""
    if lyr.kind not in ("fully-connected", "conv2d"):
        return None
    weight_sum = _max_weight_sum(lyr.weights)
    if weight_sum >= EXACT_SUM_LIMIT:
        raise ValueError(
            f"layer {lyr.name!r}: sum|w| of one output reaches 2^53, so float64 "
            f"bit-plane sums would not be exact")
    dtype = np.float32 if weight_sum < 1 << 24 else np.float64
    return lyr.weights.reshape(lyr.weights.shape[0], -1).astype(dtype)


def _block_columns(lyr, x: np.ndarray) -> np.ndarray:
    """One sample block's wire values as int16, in the layout its planes are
    read: conv columns [c*kh*kw, m*oh*ow] built once (zero padding has no set
    bit), otherwise the values themselves."""
    if lyr.kind == "conv2d":
        return _columns(_padded(x, lyr.attrs, np.int16), lyr.attrs, np.int16)
    return x.astype(np.int16)


def _plane_sum(lyr, w: np.ndarray | None, plane: np.ndarray, m: int,
               phi: np.int64) -> np.ndarray:
    """phi times the layer's linear map of one 0/1 plane of a block of m
    samples: int64 [m, n_out]. Float sums times a power of two are exact,
    so phi is applied before the cast."""
    if lyr.kind == "fully-connected":
        prod = plane.astype(w.dtype) @ w.T
    elif lyr.kind == "conv2d":
        prod = (w @ plane.astype(w.dtype)).reshape(w.shape[0], m, -1).transpose(1, 0, 2)
    elif lyr.kind == "avgpool2d":
        out = _pool_sum(plane, lyr.attrs)
        out *= phi
        return out.reshape(m, -1)
    else:                                   # a join's branch
        return np.multiply(plane, phi).reshape(m, -1)
    out = np.empty(prod.shape, dtype=np.int64)
    np.multiply(prod, phi, out=out, casting="unsafe")
    return out.reshape(m, -1)


def _sample_bytes(lyr, w: np.ndarray | None, n_out: int) -> int:
    """Bytes per sample of a walk block: the larger of one step's int64 sums
    and its float plane columns."""
    per_sample = 8 * n_out
    if w is not None:
        positions = n_out // w.shape[0] if lyr.kind == "conv2d" else 1
        per_sample = max(per_sample, w.itemsize * w.shape[1] * positions)
    return per_sample


def _plane_walk(lyr, xs, xsigned, k, acc_bits, bias_pre) -> tuple[np.ndarray, int]:
    """(U, saturations) of one layer by the bit-plane walk: per wire step,
    the M0-rounded sum over branches of phi times the layer's linear map of
    the branch's 0/1 plane, then M0 times a product-scheme bias, each added
    to U as it is formed. U saturates at `acc_bits` with every clamp
    counted, or is unbounded when `acc_bits` is None.

    The walk runs over blocks of samples. A step whose planes are all zero
    in a block adds apply(M0, 0) = 0 to an in-range U there, so it is
    skipped."""
    n = xs[0].shape[0]
    phis = [step_weights(k, sg) for sg in xsigned]
    w = _plane_weights(lyr)
    n_out = int(np.prod(lyr.out_shape))
    block = max(1, WALK_BYTES // _sample_bytes(lyr, w, n_out))
    bias_step = None if bias_pre is None else apply(lyr.m0, bias_pre)
    u = np.zeros((n, n_out), dtype=np.int64)
    saturations = 0
    for a in range(0, n, block):
        cols = [_block_columns(lyr, x[a:a + block]) for x in xs]
        m = min(block, n - a)
        ub = np.zeros((m, n_out), dtype=np.int64)
        for t in range(k):
            s = None
            for c, phi in zip(cols, phis):
                plane = (c >> (k - 1 - t)) & 1
                if plane.any():
                    term = _plane_sum(lyr, w, plane, m, phi[t])
                    s = term if s is None else np.add(s, term, out=s)
            if s is not None:
                ub, events = _add_step(ub, apply(lyr.m0, s), acc_bits)
                saturations += events
        if bias_step is not None:
            ub, events = _add_step(ub, bias_step, acc_bits)
            saturations += events
        if ub.dtype != u.dtype:
            u = u.astype(object)
        u[a:a + m] = ub
    return u, saturations


def _add_step(u: np.ndarray, inc: np.ndarray, acc_bits: int | None
              ) -> tuple[np.ndarray, int]:
    """(u + inc, clamp events), saturated at `acc_bits` unless it is None;
    u is updated in place unless inc holds Python ints."""
    u = u + inc if inc.dtype == object else np.add(u, inc, out=u)
    return (u, 0) if acc_bits is None else saturate_array(u, acc_bits)
