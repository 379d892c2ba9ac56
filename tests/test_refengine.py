import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import encode_planes
from stemc import fixtures as fx, refengine
from stemc.fixedpoint import apply, from_real, saturate_array
from stemc.modelio import INPUT_NAME, FloatModel, LayerDesc, conv_out_hw, infer_shapes, pool_out_hw
from stemc.quantizer import (
    QuantizedLayer,
    QuantizedNetwork,
    RangeStats,
    _unify_residual_ranges,
    build_quantized_network,
    calibrate,
    quantize_tensor,
)
from stemc.refengine import (
    LayerActivation,
    _conv2d,
    _linear,
    _plane_weights,
    _pool_sum,
    _float_window,
    _sample_bytes,
    float_forward,
    int_forward,
)
from stemc.stem import step_weights
from test_netsim import _cnn28_shaped, _conv_or_pool, _quantized, _skip_join_model


def _fc_layer(name, src, w, m_hat=1.0, m0=1.0, m1=None, bias=None,
              scheme=None, width=16):
    w = np.asarray(w, dtype=np.int8)
    if m1 is None:
        m1 = m_hat / m0
    return QuantizedLayer(
        name=name, kind="fully-connected",
        attrs={"in_features": w.shape[1], "out_features": w.shape[0]},
        inputs=[src], weights=w,
        bias=None if bias is None else np.asarray(bias, dtype=np.int32),
        bias_scheme=scheme, bias_width=width,
        scale_in=1.0, scale_w=1.0, scale_out=1.0,
        m_hat=from_real(m_hat), m0=from_real(m0), m1=from_real(m1),
        i_max=1, out_shape=(w.shape[0],),
    )


def _qnet(layers, input_shape, k=8, acc_bits=16):
    return QuantizedNetwork(
        name="hand", input_shape=input_shape, k=k, acc_bits=acc_bits,
        bias_check_width=16, input_scale=1.0, layers=layers,
    )


def _brute_conv(x, w, stride, pad):
    """Python-int loop over every output, channel and tap."""
    n, c, h, wd = x.shape
    oc, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    want = np.zeros((n, oc, oh, ow), dtype=np.int64)
    for s in range(n):
        for o in range(oc):
            for y in range(oh):
                for col in range(ow):
                    acc = 0
                    for i in range(c):
                        for dy in range(kh):
                            for dx in range(kw):
                                acc += int(w[o, i, dy, dx]) * int(
                                    xp[s, i, y * stride + dy, col * stride + dx])
                    want[s, o, y, col] = acc
    return want


def _float_forward_record(model, x):
    """The record-keeping float pass ``float_forward`` replaced: every
    layer's pre- and post-activation kept for the whole batch, each op on a
    fresh array. Reference for the bit-identity and memory tests."""
    tensors = {INPUT_NAME: np.asarray(x, dtype=np.float64)}
    record = {}
    out = None
    for lyr in model.layers:
        xs = [tensors[s] for s in lyr.inputs]
        pre = _linear(lyr.kind, lyr.attrs, lyr.weights, xs)
        if lyr.kind == "avgpool2d":
            kh, kw = lyr.attrs["kernel"]
            pre = pre / (kh * kw)
        if lyr.bias is not None:
            pre = pre + lyr.bias.reshape((1, -1) + (1,) * (pre.ndim - 2))
        post = np.maximum(pre, 0.0) if lyr.activation == "relu" else pre
        record[lyr.name] = LayerActivation(pre, post)
        tensors[lyr.name] = post
        out = post
    return out.reshape(out.shape[0], -1), record


def _record_ranges(record) -> dict:
    return {name: (float(act.post.min()), float(act.post.max()))
            for name, act in record.items()}


def _calibrate_reference(model, inputs) -> RangeStats:
    """``calibrate`` over the record-keeping reference pass."""
    inputs = np.asarray(inputs, dtype=np.float64)
    _, record = _float_forward_record(model, inputs)
    return RangeStats((float(inputs.min()), float(inputs.max())),
                      _unify_residual_ranges(model, _record_ranges(record)),
                      inputs.shape[0])


def _bits(ranges: dict) -> dict:
    """Ranges as raw float64 bytes, so -0.0 and 0.0 differ."""
    return {name: np.array(r, dtype=np.float64).tobytes() for name, r in ranges.items()}


def _plane_walk_reference(lyr, xs, xsigned, k, acc_bits, bias_pre):
    """The walk ``_plane_walk`` replaced: the whole batch at once, every
    step's planes from ``encode_planes`` through ``_linear`` with int64
    weights (float64 conv columns rebuilt per step, an int64 fc matmul), no
    step skipped. Reference for the equivalence and memory tests."""
    n = xs[0].shape[0]
    planes = [encode_planes(x.reshape(n, -1), k, sg) for x, sg in zip(xs, xsigned)]
    phis = [step_weights(k, sg) for sg in xsigned]
    w = None if lyr.weights is None else lyr.weights.astype(np.int64)
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


def _int_forward_reference(qnet, x, mode="hw"):
    """``int_forward`` over the reference walk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refengine, "_plane_walk", _plane_walk_reference)
        return int_forward(qnet, x, mode=mode)


def _int_forward_blocks(qnet, x, mode, walk_bytes):
    """``int_forward`` with the walk's block budget set to `walk_bytes`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refengine, "WALK_BYTES", walk_bytes)
        return int_forward(qnet, x, mode=mode)


def _assert_same_walk(got, want):
    """Outputs and every layer's pre, post and saturations equal, dtypes too."""
    (got_out, got_layers), (want_out, want_layers) = got, want
    assert got_out.dtype == want_out.dtype and np.array_equal(got_out, want_out)
    assert got_layers.keys() == want_layers.keys()
    for name, act in want_layers.items():
        for field in ("pre", "post"):
            a, b = getattr(got_layers[name], field), getattr(act, field)
            assert a.dtype == b.dtype and a.shape == b.shape, (name, field)
            assert np.array_equal(a, b), (name, field)
        assert got_layers[name].saturations == act.saturations, name


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _hand_layer(name, kind, attrs, inputs, out_shape, weights=None, bias=None,
                scheme=None, m0=1.0, m1=1.0):
    """A quantized layer with exactly these integer weights and constants."""
    return QuantizedLayer(
        name=name, kind=kind, attrs=attrs, inputs=inputs, weights=weights,
        bias=None if bias is None else np.asarray(bias, dtype=np.int32),
        bias_scheme=scheme, bias_width=None if bias is None else 16,
        scale_in=1.0, scale_w=1.0, scale_out=1.0, m_hat=from_real(1.0),
        m0=from_real(m0), m1=from_real(m1), i_max=1, out_shape=tuple(out_shape),
    )


def _conv_qnet(w, in_shape, k=8, acc_bits=16):
    """One hand-built 1x1 conv layer with unit constants."""
    one = from_real(1.0)
    lyr = QuantizedLayer(
        name="conv", kind="conv2d",
        attrs={"in_channels": w.shape[1], "out_channels": w.shape[0],
               "kernel": [1, 1], "stride": 1, "padding": 0},
        inputs=["input"], weights=w, scale_in=1.0, scale_w=1.0, scale_out=1.0,
        m_hat=one, m0=one, m1=one, i_max=1,
        out_shape=(w.shape[0],) + tuple(in_shape[1:]),
    )
    return _qnet([lyr], in_shape, k=k, acc_bits=acc_bits)


class TestWorkedExamples:
    def test_product_bias_at_output(self):
        # sum(W~ X~) = 2*5 - 3*7 = -11; +4 pre-rescale; M_hat = 1 -> -7
        net = _qnet([_fc_layer("fc", "input", [[2, -3]], bias=[4],
                               scheme="product")], (2,))
        for mode in ("direct", "wide", "hw"):
            out, _ = int_forward(net, np.array([[5, 7]]), mode=mode)
            assert out.tolist() == [[-7]], mode

    def test_hidden_layer_clamps_at_zero(self):
        net = _qnet([
            _fc_layer("fc1", "input", [[2, -3]], bias=[4], scheme="product"),
            _fc_layer("fc2", "fc1", [[1]]),
        ], (2,))
        out, layers = int_forward(net, np.array([[5, 7]]), mode="hw")
        assert layers["fc1"].post.tolist() == [[0]]
        assert out.tolist() == [[0]]

    def test_output_bias_after_rescale(self):
        # round(0.5 * 10) = 5, then +1 in the output domain
        net = _qnet([_fc_layer("fc", "input", [[1]], m_hat=0.5, m0=0.5, m1=1.0,
                               bias=[1], scheme="output", width=8)], (1,))
        for mode in ("direct", "wide", "hw"):
            out, _ = int_forward(net, np.array([[10]]), mode=mode)
            assert out.tolist() == [[6]], mode

    def test_negative_input_signed_wire(self):
        # -11 rides the wire as two's complement; W~ = [1] passes it through
        net = _qnet([_fc_layer("fc", "input", [[1]])], (1,))
        out, _ = int_forward(net, np.array([[-11]]), mode="hw")
        assert out.tolist() == [[-11]]

    def test_output_clamp_range(self):
        net = _qnet([_fc_layer("fc", "input", [[2]])], (1,))
        out, _ = int_forward(net, np.array([[100]]), mode="direct")
        assert out.tolist() == [[127]]
        out, _ = int_forward(net, np.array([[-100]]), mode="direct")
        assert out.tolist() == [[-127]]


class TestModeAgreement:
    @pytest.mark.parametrize("which", ["mlp", "cnn", "residual", "bias"])
    def test_wide_equals_hw_without_saturation(self, which, request):
        bundle = request.getfixturevalue(f"{which}_bundle")
        x = bundle.x_int[:32]
        wide, _ = int_forward(bundle.qnet, x, mode="wide")
        hw, layers = int_forward(bundle.qnet, x, mode="hw")
        assert sum(a.saturations for a in layers.values()) == 0
        assert np.array_equal(wide, hw)

    @pytest.mark.parametrize("value", [128, -129])
    @pytest.mark.parametrize("mode", ["direct", "wide", "hw"])
    def test_input_outside_wire_range_rejected(self, mlp_bundle, mode, value):
        """Every mode checks the network input once against the signed K=8
        wire range, with ``check_encodable``'s message."""
        x = mlp_bundle.x_int[:2].copy()
        x[1, 5] = value
        with pytest.raises(ValueError, match=r"outside encodable range \[-128, 127\]"):
            int_forward(mlp_bundle.qnet, x, mode=mode)

    def test_direct_close_to_hw(self, mlp_bundle):
        x = mlp_bundle.x_int[:64]
        direct, _ = int_forward(mlp_bundle.qnet, x, mode="direct")
        hw, _ = int_forward(mlp_bundle.qnet, x, mode="hw")
        # the K per-step roundings drift at most a few integer steps
        assert int(np.abs(direct - hw).max()) <= 3

    @pytest.mark.parametrize("which,k,acc_bits", [
        ("mlp", 8, 16), ("cnn", 8, 16), ("residual", 8, 16), ("bias", 8, 16),
        ("widefan", 8, 16), ("cnn", 4, 10),
    ])
    def test_wide_drift_within_k_half(self, which, k, acc_bits, request):
        # U = sum_t round(M0 * I_t) (+ round(M0 * b) for a product bias); each
        # rounding is off by at most 1/2, so with M0 = m / 2^shift
        # |2^shift * U - m * (sum_t I_t + b)| <= r * 2^(shift-1), r = K (+1)
        bundle = request.getfixturevalue(f"{which}_bundle")
        qnet = bundle.qnet
        if k != qnet.k:
            stats = calibrate(bundle.model, bundle.ds.inputs[:64])
            qnet = build_quantized_network(bundle.model, stats, k=k,
                                           acc_bits=acc_bits)
        x_int, _ = quantize_tensor(bundle.ds.inputs[:48], qnet.input_params)
        _, layers = int_forward(qnet, x_int, mode="wide")
        post = {"input": x_int.astype(np.int64)}
        post.update({name: act.post for name, act in layers.items()})
        for lyr in qnet.layers:
            if lyr.kind == "flatten":
                continue
            xs = []
            for src in lyr.inputs:
                shape = qnet.input_shape if src == "input" else qnet.layer(src).out_shape
                xs.append(post[src].reshape((-1,) + tuple(shape)))
            w = None if lyr.weights is None else lyr.weights.astype(np.int64)
            total = _linear(lyr.kind, lyr.attrs, w, xs).reshape(len(x_int), -1)
            r = k
            if lyr.bias is not None and lyr.bias_scheme == "product":
                b = lyr.bias.astype(np.int64)
                if lyr.kind == "conv2d":
                    b = np.repeat(b, lyr.out_shape[1] * lyr.out_shape[2])
                total = total + b
                r += 1
            m, shift = lyr.m0.mantissa, lyr.m0.shift
            u = layers[lyr.name].pre.astype(object)
            err = np.abs(u * (1 << shift) - total.astype(object) * m)
            assert int(err.max()) <= r * (1 << (shift - 1)), lyr.name

    def test_exact_conv_bound_at_2_pow_53(self):
        big = (1 << 53) - 1
        w = np.zeros((1, 2, 1, 1), dtype=np.int64)
        w[0, 0] = big
        net = _conv_qnet(w, (2, 1, 1), k=2, acc_bits=56)
        x = np.array([[[[-1]], [[0]]]])                 # sign plane carries it
        for mode in ("wide", "hw"):                     # just below: accepted
            _, layers = int_forward(net, x, mode=mode)
            assert layers["conv"].pre.tolist() == [[-big]], mode
        w[0, 1] = 1                                     # sum|w| = 2^53
        for mode in ("wide", "hw"):
            with pytest.raises(ValueError, match="2\\^53"):
                int_forward(net, x, mode=mode)

    def test_direct_conv_bound_scales_with_input(self):
        w = np.full((1, 1, 1, 1), 1 << 51, dtype=np.int64)
        net = _conv_qnet(w, (1, 1, 1))
        _, layers = int_forward(net, np.array([[[[3]]]]), mode="direct")
        assert layers["conv"].pre.tolist() == [[3 << 51]]
        with pytest.raises(ValueError, match="2\\^53"):       # 4 * 2^51
            int_forward(net, np.array([[[[-4]]]]), mode="direct")

    def test_bad_mode_rejected(self, mlp_bundle):
        with pytest.raises(ValueError, match="mode"):
            int_forward(mlp_bundle.qnet, mlp_bundle.x_int[:1], mode="fast")

    def test_wrong_input_shape_rejected(self, mlp_bundle):
        with pytest.raises(ValueError, match="input"):
            int_forward(mlp_bundle.qnet, np.zeros((3, 7)))


class TestLinearPieces:
    @pytest.mark.parametrize("stride,pad,kh,kw", [
        (1, 1, 3, 3), (2, 0, 3, 3), (2, 1, 3, 3), (1, 0, 3, 2),
    ])
    def test_conv_matches_brute_force(self, rng, stride, pad, kh, kw):
        x = rng.integers(-9, 10, size=(2, 2, 5, 5)).astype(np.int64)
        w = rng.integers(-9, 10, size=(3, 2, kh, kw)).astype(np.int64)
        attrs = {"kernel": [kh, kw], "stride": stride, "padding": pad}
        assert np.array_equal(_conv2d(x, w, attrs), _brute_conv(x, w, stride, pad))

    @pytest.mark.parametrize("inputs", ["planes", "int16-extremes"])
    def test_conv_exact_at_extremes(self, rng, inputs):
        # all weights at +-127 over 64 channels, fed 0/1 uint8 planes (the
        # bit-plane modes) or values at +-32767 (direct mode on wide inputs)
        if inputs == "planes":
            x = rng.integers(0, 2, size=(2, 64, 4, 4)).astype(np.uint8)
        else:
            x = 32767 * rng.choice([-1, 1], size=(2, 64, 4, 4)).astype(np.int64)
        w = 127 * rng.choice([-1, 1], size=(3, 64, 3, 3)).astype(np.int64)
        got = _conv2d(x, w, {"kernel": [3, 3], "stride": 1, "padding": 1})
        assert got.dtype == np.int64
        assert np.array_equal(got, _brute_conv(x.astype(np.int64), w, 1, 1))

    def test_pool_sum_matches_brute_force(self, rng):
        x = rng.integers(0, 50, size=(2, 3, 6, 6)).astype(np.int64)
        got = _pool_sum(x, {"kernel": [2, 2], "stride": 2})
        want = x.reshape(2, 3, 3, 2, 3, 2).sum(axis=(3, 5))
        assert np.array_equal(got, want)

    def test_float_pool_is_mean(self, cnn_bundle, rng):
        model = cnn_bundle.model
        x = rng.random((3,) + model.input_shape).astype(np.float32)

        def through(name):     # outputs of the model truncated after `name`
            names = [lyr.name for lyr in model.layers]
            head = dataclasses.replace(model, layers=model.layers[:names.index(name) + 1])
            return float_forward(head, x)[0]

        want = through("conv1").reshape(3, 4, 4, 2, 4, 2).mean(axis=(3, 5))
        assert np.allclose(through("pool1").reshape(want.shape), want)


# (builder, input lo, input hi): every fixture, a deep stack and a join that
# reads a shortcut over two stages and one producer twice
FLOAT_MODELS = {
    **fx.FIXTURES,
    "deep-mlp8": (lambda: fx.make_deep_mlp(8), 0.0, 1.0),
    "skip-join": (_skip_join_model, 0.0, 1.0),
}


class TestFloatPass:
    """``float_forward`` keeps only live tensors and works in place; its
    outputs and ranges must equal the record-keeping reference bit for bit."""

    @pytest.mark.parametrize("n", [1, 7, 300])
    @pytest.mark.parametrize("name", sorted(FLOAT_MODELS))
    def test_bit_identical_to_reference(self, name, n):
        builder, lo, hi = FLOAT_MODELS[name]
        model = builder()
        x = fx.class_inputs(np.random.default_rng(5), n, model.input_shape, lo=lo, hi=hi)
        out, ranges = float_forward(model, x)
        want, record = _float_forward_record(model, x)
        assert out.dtype == want.dtype and out.shape == want.shape
        assert out.tobytes() == want.tobytes()
        assert _bits(ranges) == _bits(_record_ranges(record))
        got, ref = calibrate(model, x), _calibrate_reference(model, x)
        assert got.samples == ref.samples
        assert _bits({"input": got.input_range}) == _bits({"input": ref.input_range})
        assert _bits(got.ranges) == _bits(ref.ranges)

    @pytest.mark.parametrize("name", ["cnn", "residual", "flatten-first"])
    def test_input_is_never_written(self, name):
        if name == "flatten-first":
            # flatten returns a view of x; an in-memory model may give it a
            # bias and a ReLU (only the manifest reader rejects them)
            rng = np.random.default_rng(3)
            model = FloatModel(name=name, input_shape=(2, 3, 3), layers=[
                LayerDesc(name="flat", kind="flatten", attrs={}, inputs=["input"],
                          bias=np.full(18, -0.5, dtype=np.float32)),
                fx._fc("fc", "flat", 18, 4, rng, 0.5, relu=False),
            ])
            infer_shapes(model)
            model.layers[0].activation = "relu"
        else:
            model = FLOAT_MODELS[name][0]()
        x = np.random.default_rng(4).uniform(-1.0, 1.0, size=(5,) + model.input_shape)
        before = x.copy()
        float_forward(model, x)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("build,n", [(_cnn28_shaped, 256),
                                         (lambda: fx.make_deep_mlp(depth=8), 2000)])
    def test_peak_memory_below_reference(self, build, n):
        model = build()
        x = fx.class_inputs(np.random.default_rng(6), n, model.input_shape)
        peak = _traced_peak(float_forward, model, x)
        ref = _traced_peak(_float_forward_record, model, x)
        assert peak <= 0.7 * ref, (peak, ref)

    def test_window_sizes(self, monkeypatch):
        """A window holds as many samples as keep the largest layer's float64
        output plus its conv columns within COLS_BYTES, and a batch splits
        into equal windows. Every batch of ``test_bit_identical_to_reference``
        fits one window, so that test compares whole-batch passes."""
        cnn28 = _cnn28_shaped()
        assert _float_window(cnn28, 10**6) == 30          # conv2: 8 * 34496 B/sample
        assert _float_window(cnn28, 32) == 16             # two windows, not 30 + 2
        assert _float_window(cnn28, 2048) == 30           # 68 windows of 30, then 8
        assert _float_window(fx.make_residual(), 10**6) == 728
        for name, (builder, _, _) in FLOAT_MODELS.items():
            assert _float_window(builder(), 10**6) >= 728, name
        for n in (1, 29, 30, 31, 61, 2048):
            size = _float_window(cnn28, n)
            assert 1 <= size <= 30 and -(-n // size) == -(-n // 30), n
        monkeypatch.setattr(refengine, "COLS_BYTES", 1)
        assert _float_window(cnn28, 5) == 1

    def test_empty_batch_rejected(self):
        model = fx.make_mlp()
        with pytest.raises(ValueError, match="at least one sample"):
            float_forward(model, np.zeros((0,) + model.input_shape))

    @pytest.mark.parametrize("name", ["cnn", "residual", "skip-join"])
    def test_windows_equal_reference_per_window(self, monkeypatch, name):
        """With windows forced small, the outputs equal the record-keeping
        pass over each window, concatenated, bit for bit, and the ranges and
        ``calibrate`` equal the min and max of the per-window ranges."""
        builder, lo, hi = FLOAT_MODELS[name]
        model = builder()
        x = fx.class_inputs(np.random.default_rng(8), 23, model.input_shape, lo=lo, hi=hi)
        monkeypatch.setattr(refengine, "COLS_BYTES", refengine.COLS_BYTES // 200)
        size = _float_window(model, len(x))
        assert 1 < size < len(x) and len(x) % size, size     # a trailing partial window
        outs, window_ranges = [], []
        for a in range(0, len(x), size):
            out, record = _float_forward_record(model, x[a:a + size])
            outs.append(out)
            window_ranges.append(_record_ranges(record))
        want_ranges = {layer: (min(r[layer][0] for r in window_ranges),
                               max(r[layer][1] for r in window_ranges))
                       for layer in window_ranges[0]}
        got, ranges = float_forward(model, x)
        want = np.concatenate(outs)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert _bits(ranges) == _bits(want_ranges)
        stats = calibrate(model, x)
        assert stats.samples == len(x)
        assert _bits({"input": stats.input_range}) == _bits(
            {"input": (float(x.min()), float(x.max()))})
        assert _bits(stats.ranges) == _bits(_unify_residual_ranges(model, want_ranges))

    def test_peak_memory_does_not_grow_with_batch(self):
        """One window's tensors at a time: the traced peak on 2048
        cnn28-shaped samples is within 16 MiB and within 10% of the peak on
        256 (a whole-batch pass took 258.6 MiB at 2048)."""
        model = _cnn28_shaped()
        x = fx.class_inputs(np.random.default_rng(6), 2048, model.input_shape)
        small = _traced_peak(float_forward, model, x[:256])
        large = _traced_peak(float_forward, model, x)
        assert large <= 16 * 2**20, large / 2**20
        assert large <= 1.1 * small, (large, small)


@st.composite
def _walk_networks(draw):
    """(qnet, int input batch, block budget) of a random hand-built network.

    Either fc -> fc on a flat signed input, or a random conv or pool on a
    signed image, optionally a same-shape 3x3 conv and the join of the two,
    then flatten and fc. Weights are drawn at the int8 scale or 2^17 times it
    (row sums from 2^24 up take float64); M0 up to 3 over accumulators from
    K bits clamp; the first layer may emit only zeros, so the layers after it
    read silent planes. The block budget makes the first layer's block b
    samples, and the batch is 1, b - 1, b or b + 1 samples.
    """
    k = draw(st.integers(2, 16))
    acc_bits = draw(st.integers(k, 40))
    big = draw(st.booleans())
    silent = draw(st.sampled_from([False, False, True]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 1 << 17 if big else 1

    def weights(shape, drawn=None):
        w = rng.integers(-127, 128, size=shape) if drawn is None else np.asarray(drawn)
        return (w * scale).astype(np.int64) if big else w.astype(np.int8)

    def constants(weighted, n_bias, first=False):
        bias_scheme = draw(st.sampled_from([None, "product", "output"])) if weighted else None
        if first and silent and bias_scheme == "output":
            bias_scheme = None              # m1 = 0 and no output bias: all zeros
        m1 = 0.0 if first and silent else 2.0 ** -draw(st.integers(0, 12)) / (
            scale if weighted else 1)
        return {"m0": draw(st.sampled_from([2.0 ** -6, 0.25, 1.0, 3.0])), "m1": m1,
                "scheme": bias_scheme,
                "bias": None if bias_scheme is None else rng.integers(-300, 301, size=n_bias)}

    if draw(st.booleans()):
        n_in, n_hid, n_out = (draw(st.integers(1, 12)) for _ in range(3))
        in_shape = (n_in,)
        layers = [
            _hand_layer("fc1", "fully-connected", {"in_features": n_in, "out_features": n_hid},
                        [INPUT_NAME], (n_hid,), weights((n_hid, n_in)),
                        **constants(True, n_hid, first=True)),
            _hand_layer("fc2", "fully-connected", {"in_features": n_hid, "out_features": n_out},
                        ["fc1"], (n_out,), weights((n_out, n_hid)), **constants(True, n_out)),
        ]
    else:
        in_shape, kind, attrs, w = draw(_conv_or_pool())
        c, h, wd = in_shape
        if kind == "conv2d":
            c = attrs["out_channels"]
            oh, ow = conv_out_hw(h, wd, attrs)
            first = _hand_layer("l1", kind, attrs, [INPUT_NAME], (c, oh, ow), weights(None, w),
                                **constants(True, c, first=True))
        else:
            oh, ow = pool_out_hw(h, wd, attrs)
            first = _hand_layer("l1", kind, attrs, [INPUT_NAME], (c, oh, ow),
                                **constants(False, 0, first=True))
        layers = [first]
        if draw(st.booleans()):
            same = {"in_channels": c, "out_channels": c, "kernel": [3, 3], "stride": 1,
                    "padding": 1}
            layers += [
                _hand_layer("l2", "conv2d", same, ["l1"], (c, oh, ow), weights((c, c, 3, 3)),
                            **constants(True, c)),
                _hand_layer("join", "residual-add", {}, ["l2", "l1"], (c, oh, ow),
                            **constants(False, 0)),
            ]
        n_out = draw(st.integers(1, 4))
        layers += [
            _hand_layer("flat", "flatten", {}, [layers[-1].name], (c * oh * ow,)),
            _hand_layer("fc", "fully-connected", {"in_features": c * oh * ow,
                                                  "out_features": n_out},
                        ["flat"], (n_out,), weights((n_out, c * oh * ow)),
                        **constants(True, n_out)),
        ]
    qnet = _qnet(layers, in_shape, k=k, acc_bits=acc_bits)
    b = draw(st.integers(2, 4))
    n = draw(st.sampled_from([1, b - 1, b, b + 1]))
    lyr = layers[0]
    walk_bytes = b * _sample_bytes(lyr, _plane_weights(lyr), int(np.prod(lyr.out_shape)))
    q = 1 << (k - 1)
    return qnet, rng.integers(-q, q, size=(n,) + in_shape), walk_bytes


class TestPlaneWalk:
    """The blocked walk with built-once columns, float32/float64 plane sums
    and silent steps skipped equals the whole-batch per-step reference in
    outputs and in every layer's U, output and saturation count."""

    @settings(max_examples=150)
    @given(case=_walk_networks())
    def test_random_networks_match_reference(self, case):
        qnet, x, walk_bytes = case
        for mode in ("wide", "hw"):
            _assert_same_walk(_int_forward_blocks(qnet, x, mode, walk_bytes),
                              _int_forward_reference(qnet, x, mode))

    @pytest.mark.parametrize("which", ["mlp", "cnn", "residual", "bias"])
    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_unprotected_fixtures_clamp_and_match(self, which, n, request):
        """Every layer at M0 = 1 saturates its 16-bit accumulator; small
        blocks split the batch."""
        qnet = copy.deepcopy(request.getfixturevalue(f"{which}_bundle").qnet)
        for lyr in qnet.layers:
            if lyr.m0 is not None:
                lyr.m0, lyr.m1 = from_real(1.0), lyr.m_hat
        x = request.getfixturevalue(f"{which}_bundle").x_int[:n]
        got = _int_forward_blocks(qnet, x, "hw", 2048)
        _assert_same_walk(got, _int_forward_reference(qnet, x, "hw"))
        assert sum(a.saturations for a in got[1].values()) > 0
        _assert_same_walk(_int_forward_blocks(qnet, x, "wide", 2048),
                          _int_forward_reference(qnet, x, "wide"))

    @pytest.mark.parametrize("kind", ["fully-connected", "conv2d"])
    @pytest.mark.parametrize("row,dtype", [
        ([(1 << 24) - 2, 1], np.float32),      # sum|w| = 2^24 - 1: float32 exact
        ([1 << 24, 1], np.float64),            # 2^24 + 1 is no float32
        ([-(1 << 23), -(1 << 23)], np.float64),
    ])
    def test_float32_only_below_2_pow_24(self, kind, row, dtype):
        w = np.array([row], dtype=np.int64)
        if kind == "conv2d":
            net = _conv_qnet(w.reshape(1, 2, 1, 1), (2, 1, 1), k=4, acc_bits=40)
            x = np.array([[[[-1]], [[5]]]])
        else:
            net = _qnet([_hand_layer("fc", kind, {"in_features": 2, "out_features": 1},
                                     [INPUT_NAME], (1,), w)], (2,), k=4, acc_bits=40)
            x = np.array([[-1, 5]])
        assert _plane_weights(net.layers[0]).dtype == dtype
        want = -row[0] + 5 * row[1]
        for mode in ("wide", "hw"):
            _, layers = int_forward(net, x, mode=mode)
            assert layers[net.layers[0].name].pre.tolist() == [[want]], mode

    def test_exact_fc_bound_at_2_pow_53(self):
        big = (1 << 53) - 1
        w = np.array([[big, 0]], dtype=np.int64)
        net = _qnet([_hand_layer("fc", "fully-connected", {"in_features": 2, "out_features": 1},
                                 [INPUT_NAME], (1,), w)], (2,), k=2, acc_bits=56)
        x = np.array([[-1, 0]])                       # sign plane carries it
        for mode in ("wide", "hw"):                   # just below: accepted
            _, layers = int_forward(net, x, mode=mode)
            assert layers["fc"].pre.tolist() == [[-big]], mode
        w[0, 1] = 1                                   # sum|w| = 2^53
        for mode in ("wide", "hw"):
            with pytest.raises(ValueError, match="2\\^53"):
                int_forward(net, x, mode=mode)
        _, layers = int_forward(net, x, mode="direct")   # an int64 matmul
        assert layers["fc"].pre.tolist() == [[-big]]

    def test_increments_beyond_int64(self):
        """At K=16 the sign step of -1 through a weight of 2^47 sums to
        -2^62; M0 = 3 rounds it to -3 * 2^62, which only a Python int holds,
        and U keeps Python ints from there on, as in the reference."""
        w = np.array([[1 << 47]], dtype=np.int64)
        net = _qnet([_hand_layer("fc", "fully-connected", {"in_features": 1, "out_features": 1},
                                 [INPUT_NAME], (1,), w, m0=3.0, m1=2.0 ** -40)],
                    (1,), k=16, acc_bits=70)
        x = np.array([[-1], [5]])
        for mode in ("wide", "hw"):
            got = int_forward(net, x, mode=mode)
            assert got[1]["fc"].pre.dtype == object
            assert got[1]["fc"].pre.tolist() == [[-3 << 47], [15 << 47]]
            _assert_same_walk(got, _int_forward_reference(net, x, mode))

    @pytest.mark.parametrize("bias", [None, [5, -9]])
    def test_all_silent_layer(self, bias):
        """fc2 reads only zeros: every step is skipped. Without a product
        bias its U is still an int64 zero per sample and neuron."""
        net = _qnet([
            _fc_layer("fc1", "input", [[1, 2], [3, -4]], m0=1.0, m1=0.0),
            _fc_layer("fc2", "fc1", [[7, 1], [-2, 5]], bias=bias,
                      scheme=None if bias is None else "product"),
        ], (2,))
        x = np.array([[3, -5], [100, 7], [-128, 127]])
        for mode in ("wide", "hw"):
            got = int_forward(net, x, mode=mode)
            u = got[1]["fc2"].pre
            assert u.dtype == np.int64 and u.shape == (3, 2)
            assert u.tolist() == ([[0, 0]] if bias is None else [bias]) * 3
            _assert_same_walk(got, _int_forward_reference(net, x, mode))

    def test_peak_memory_below_reference(self):
        """One 80-sample window of a cnn28-shaped network."""
        qnet, x = _quantized(_cnn28_shaped(), n=80)
        peak = _traced_peak(int_forward, qnet, x)
        ref = _traced_peak(_int_forward_reference, qnet, x)
        assert peak < ref, (peak, ref)
