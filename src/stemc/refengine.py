"""Reference engines: float forward pass and the integer oracle.

The float pass serves calibration and dataset labelling. It returns the
outputs and each layer's post-activation (min, max), and holds only the
tensors a later layer still reads.

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
input are copied into float64 columns [c*kh*kw, N*oh*ow] and multiplied by
the [oc, c*kh*kw] weights in one BLAS matmul. Every partial sum is an integer
of magnitude at most max|x| * sum|w| of one output channel, so the result is
exact below 2^53; ``int_forward`` checks that bound per conv layer (with
max|x| = 1 for the 0/1 planes of ``wide`` and ``hw``) and raises otherwise.
The bit-plane modes convolve one plane per wire step; stacking the K planes
would multiply the column temporary by K. Fully-connected layers stay an
int64 matmul. ``netsim`` computes the same sums from its own compiled forms
(dense matrices, per-position patch gathers, pool gathers); nothing here
uses those forms or imports ``netsim``, so ``compare`` checks two
derivations of the same contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixedpoint import apply, saturate_array
from .modelio import INPUT_NAME, check_batch, conv_out_hw, pool_out_hw
from .stem import encode_planes, step_weights

# A convolution's float64 partial sums are integers of magnitude at most
# max|x| * sum|w| of one output channel; below 2^53 they are all exact.
EXACT_SUM_LIMIT = 1 << 53
COLS_BYTES = 8 << 20     # float64 conv columns built at once


@dataclass
class LayerActivation:
    pre: np.ndarray       # accumulator-domain integers (or the direct-mode sum)
    post: np.ndarray      # layer output in its own value domain
    saturations: int = 0


# ---------------------------------------------------------------------------
# linear pieces (shifted-slice style; the simulator gathers patches)
# ---------------------------------------------------------------------------

def _conv2d(x: np.ndarray, w: np.ndarray, attrs: dict) -> np.ndarray:
    """Stacked shifted-slice convolution: the kh*kw strided views of the
    padded input become float64 columns [c*kh*kw, N*oh*ow] (taps ordered
    channel, dy, dx) and meet the [oc, c*kh*kw] weights in one matmul.

    The columns are built for at most COLS_BYTES of samples at a time (one
    matmul each), so large batches such as a labelled data pool keep a
    bounded temporary. Integer
    operands give integer results, exact while every partial sum stays below
    2^53 (``int_forward`` checks that bound per layer); the result has the
    promoted dtype of x and w.
    """
    n, c, h, wd = x.shape
    oc = w.shape[0]
    kh, kw = attrs["kernel"]
    s = int(attrs.get("stride", 1))
    p = int(attrs.get("padding", 0))
    oh, ow = conv_out_hw(h, wd, attrs)
    xp = np.zeros((c, n, h + 2 * p, wd + 2 * p), dtype=x.dtype)
    xp[:, :, p:p + h, p:p + wd] = x.transpose(1, 0, 2, 3)
    wmat = w.reshape(oc, -1).astype(np.float64)
    out = np.empty((n, oc, oh, ow), dtype=np.result_type(x, w))
    chunk = max(1, COLS_BYTES // (8 * c * kh * kw * oh * ow))
    for a in range(0, n, chunk):
        xa = xp[:, a:a + chunk]
        m = xa.shape[1]
        cols = np.empty((c, kh, kw, m, oh, ow), dtype=np.float64)
        for dy in range(kh):
            for dx in range(kw):
                cols[:, dy, dx] = xa[:, :, dy:dy + s * (oh - 1) + 1:s,
                                     dx:dx + s * (ow - 1) + 1:s]
        prod = wmat @ cols.reshape(c * kh * kw, m * oh * ow)      # [oc, m*oh*ow]
        out[a:a + m] = prod.reshape(oc, m, oh, ow).transpose(1, 0, 2, 3)
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

def float_forward(model, x: np.ndarray) -> tuple[np.ndarray, dict[str, tuple[float, float]]]:
    """Float64 forward pass of a batch x [N, *input_shape]. Hidden fc/conv
    layers apply bias then ReLU.

    Returns (outputs [N, n_out], ranges): ranges[layer] is the (min, max) of
    that layer's post-activation over the batch. Only live tensors are kept:
    each one is dropped once its last reader has run. The pool division, bias
    add and ReLU work in place on the array the layer's own ``_linear`` call
    allocated; flatten returns a view of its input, so it is never written.
    x itself is never written; it is copied only if it is not float64.
    """
    tensors = {INPUT_NAME: np.asarray(check_batch(x, model.input_shape), dtype=np.float64)}
    last_read = {src: i for i, lyr in enumerate(model.layers) for src in lyr.inputs}
    ranges = {}
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
        ranges[lyr.name] = (float(y.min()), float(y.max()))
        for src in lyr.inputs:
            if last_read[src] == i:
                tensors.pop(src, None)    # a join may read one tensor twice
        tensors[lyr.name] = y
    return y.reshape(y.shape[0], -1), ranges


# ---------------------------------------------------------------------------
# integer oracle
# ---------------------------------------------------------------------------

INT_MODES = ("direct", "wide", "hw")


def signedness(net) -> dict[str, bool]:
    """Which wires are read as signed trains: the network input and flatten
    views of it. Hidden layers emit values in [0, q_max]."""
    signed = {INPUT_NAME: True}
    for lyr in net.layers:
        signed[lyr.name] = signed[lyr.inputs[0]] if lyr.kind == "flatten" else False
    return signed


def int_forward(qnet, x_int: np.ndarray, mode: str = "hw"
                ) -> tuple[np.ndarray, dict[str, LayerActivation]]:
    """Integer forward pass of a quantized network.

    Args:
        qnet: QuantizedNetwork (constants already frozen).
        x_int: quantized input batch [N, *input_shape].
        mode: "direct", "wide" or "hw" (see module docstring).

    Returns:
        (outputs [N, n_out] int64, {layer name: LayerActivation})
    """
    if mode not in INT_MODES:
        raise ValueError(f"mode must be one of {INT_MODES}")
    xb = check_batch(x_int, qnet.input_shape).astype(np.int64)
    n, k = xb.shape[0], qnet.k
    q_max = (1 << (k - 1)) - 1
    signed = signedness(qnet)
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

        if lyr.kind == "conv2d":
            # direct mode convolves the values, the bit-plane modes 0/1 planes
            x_max = int(np.abs(xs[0]).max()) if mode == "direct" else 1
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
        lo = -q_max if lyr is qnet.layers[-1] else 0
        out = np.clip(v, lo, q_max)
        layers[lyr.name] = LayerActivation(u, out, sat)
        tensors[lyr.name] = out.reshape((n,) + lyr.out_shape)
    return out, layers


def _w64(lyr) -> np.ndarray | None:
    return None if lyr.weights is None else lyr.weights.astype(np.int64)


def _max_weight_sum(weights: np.ndarray) -> int:
    """Largest sum|w| over the output channels of a conv weight tensor."""
    w = np.abs(weights.astype(np.int64)).reshape(weights.shape[0], -1)
    return int(w.sum(axis=1).max())


def _plane_walk(lyr, xs, xsigned, k, acc_bits, bias_pre) -> tuple[np.ndarray, int]:
    """(U, saturations) of one layer by the bit-plane walk: per wire step,
    the M0-rounded sum over branches of phi times the layer's linear map of
    the branch's 0/1 plane, then M0 times a product-scheme bias, each added
    to U as it is formed. U saturates at `acc_bits` with every clamp
    counted, or is unbounded when `acc_bits` is None."""
    n = xs[0].shape[0]
    planes = [encode_planes(x.reshape(n, -1), k, sg) for x, sg in zip(xs, xsigned)]
    phis = [step_weights(k, sg) for sg in xsigned]
    w = _w64(lyr)
    u, saturations = 0, 0
    for t in range(k + (bias_pre is not None)):      # step k adds the bias
        u = u + apply(lyr.m0, bias_pre if t == k else sum(
            phi[t] * _linear(lyr.kind, lyr.attrs, w, [pl[..., t].reshape(x.shape)]
                             ).reshape(n, -1)
            for x, pl, phi in zip(xs, planes, phis)))
        if acc_bits is not None:
            u, events = saturate_array(u, acc_bits)
            saturations += events
    return u, saturations
