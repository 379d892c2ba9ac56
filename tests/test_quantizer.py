import copy
import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from conftest import encode_planes, make_wide_fanin
from stemc.fixedpoint import NORM_HIGH, NORM_LOW, FixedMult, from_real
from stemc.quantizer import (
    QuantParams,
    build_quantized_network,
    calibrate,
    calibrate_bias,
    calibration_report,
    derive_scale,
    quantize_tensor,
)
from stemc import fixtures, netsim
from stemc.fixedpoint import apply
from stemc.modelio import FloatModel, LayerDesc, infer_shapes
from stemc.refengine import int_forward
from stemc.stem import step_weights


def _record_saturations(layers) -> int:
    return sum(act.saturations for act in layers.values())


def _fc_model(layers, n_in: int) -> FloatModel:
    """fc stack from (float weights [n_out, n_in], float bias or None) pairs."""
    descs, src = [], "input"
    for i, (w, b) in enumerate(layers):
        w = np.asarray(w, dtype=np.float32)
        descs.append(LayerDesc(
            name=f"fc{i + 1}", kind="fully-connected",
            attrs={"in_features": w.shape[1], "out_features": w.shape[0]},
            inputs=[src], weights=w,
            bias=None if b is None else np.asarray(b, dtype=np.float32)))
        src = descs[-1].name
    m = FloatModel(name="bound", input_shape=(n_in,), layers=descs)
    infer_shapes(m)
    return m


def _quantize(model, k: int, acc_bits: int):
    x = np.random.default_rng(3).uniform(-1.0, 1.0, size=(16,) + model.input_shape)
    return build_quantized_network(model, calibrate(model, x), k=k, acc_bits=acc_bits)


def _wire_values(k: int, signed: bool, n_in: int) -> np.ndarray:
    """Every input vector the wire format can carry."""
    lo = -(1 << (k - 1)) if signed else 0
    return np.array(list(itertools.product(range(lo, 1 << (k - 1)), repeat=n_in)))


def _step_sums(lyr, x: np.ndarray, k: int, signed: bool) -> np.ndarray:
    """Per-step weighted sums I_t of an fc layer, shape [K, N, n_out]."""
    planes = encode_planes(x, k, signed).astype(np.int64)
    phi = step_weights(k, signed)
    w = lyr.weights.astype(np.int64)
    return np.stack([phi[t] * (planes[..., t] @ w.T) for t in range(k)])


def _u_prefixes(lyr, x: np.ndarray, k: int, signed: bool) -> np.ndarray:
    """Every value the unbounded accumulator takes: after each step and after
    the product-scheme bias injection."""
    u = np.cumsum([apply(lyr.m0, i) for i in _step_sums(lyr, x, k, signed)], axis=0)
    if lyr.bias_scheme == "product":
        u = np.concatenate([u, [u[-1] + apply(lyr.m0, lyr.bias.astype(np.int64))]])
    return u


def _alone(qnet, name: str):
    """One layer as a network of its own. Step sums of a value in [0, q_max]
    are the same on the signed input wire as on an unsigned hidden wire."""
    lyr = dataclasses.replace(qnet.layer(name), inputs=["input"],
                              scale_in=qnet.input_scale)
    return dataclasses.replace(qnet, input_shape=(lyr.weights.shape[1],),
                               layers=[lyr])


class TestScales:
    def test_symmetric_scale(self):
        p = derive_scale(0.5, -0.3, 127)
        assert p.scale == 0.5 / 127
        assert (p.q_min, p.q_max) == (-127, 127)

    def test_negative_dominates(self):
        assert derive_scale(0.2, -0.8, 127).scale == 0.8 / 127

    def test_degenerate_range_floor(self):
        p = derive_scale(0.0, 0.0, 127)
        assert p.scale == 2.0 ** -20

    def test_quantize_rounds_half_away(self):
        p = QuantParams(scale=1.0)
        q, clamped = quantize_tensor(np.array([1.4, 1.5, -1.5, 200.0]), p)
        assert q.tolist() == [1, 2, -2, 127]
        assert clamped == 1

    def test_scale_chain_consistency(self, mlp_bundle):
        q = mlp_bundle.qnet
        prev = q.input_scale
        for lyr in q.layers:
            assert lyr.scale_in == prev
            prev = lyr.scale_out

    def test_pool_weight_scale(self, cnn_bundle):
        assert cnn_bundle.qnet.layer("pool1").scale_w == 0.25
        assert cnn_bundle.qnet.layer("pool2").scale_w == 0.25

    def test_residual_branches_share_scale(self, residual_bundle):
        q = residual_bundle.qnet
        a = q.layer("conv_a").scale_out
        assert q.layer("conv_b").scale_out == a
        assert q.layer("join").scale_in == a


class TestConstants:
    def test_m0_exact_dyadic(self):
        # I_max = 2 * (2^15 - 1) makes M0 exactly one half
        m0 = from_real(32767 / 65534)
        assert (m0.mantissa, m0.shift) == (1 << 30, 31)

    def test_m1_compensates_m0(self):
        m_hat = from_real(1.0)
        m0 = from_real(0.5)
        m1 = from_real(float(Fraction(m_hat.value()) / Fraction(m0.value())))
        assert (m1.mantissa, m1.shift) == (1 << 30, 29)
        assert m0.value() * m1.value() == m_hat.value()

    def test_frozen_product_tracks_m_hat(self, mlp_bundle):
        for lyr in mlp_bundle.qnet.layers:
            if lyr.kind == "flatten":
                continue
            rel = abs(lyr.m0.value() * lyr.m1.value() - lyr.m_hat.value())
            assert rel / abs(lyr.m_hat.value()) <= Fraction(1, 1 << 29)

    def test_m_hat_matches_scales(self, mlp_bundle):
        for lyr in mlp_bundle.qnet.layers:
            if lyr.kind == "flatten":
                continue
            want = lyr.scale_in * lyr.scale_w / lyr.scale_out
            assert float(lyr.m_hat.value()) == pytest.approx(want, rel=2 ** -29)


class TestBiasScheme:
    def test_large_bias_falls_back_to_output(self):
        sw, si = 0.2 / 127, 0.5 / 127
        assert calibrate_bias(np.array([2.5]), sw, si, 16) == "output"

    def test_wide_check_keeps_product(self):
        sw, si = 0.2 / 127, 0.5 / 127
        assert calibrate_bias(np.array([2.5]), sw, si, 32) == "product"

    def test_small_bias_stays_product(self):
        assert calibrate_bias(np.array([0.01, -0.02]), 0.1, 0.1, 16) == "product"

    def test_no_bias_defaults_product(self):
        assert calibrate_bias(None, 0.1, 0.1, 16) == "product"

    def test_stress_fixture_schemes(self, bias_bundle):
        q = bias_bundle.qnet
        assert q.layer("fc1").bias_scheme == "output"
        assert q.layer("fc1").bias_width == 8
        assert q.layer("fc2").bias_scheme == "product"
        assert q.layer("fc2").bias_width == 16

    @pytest.mark.parametrize("bits", [1, 16, 32, 33, 40])
    def test_check_width_within_the_int32_blob(self, bits):
        """fc1's weights (|w| <= 1e-6) put its bias of 1.0 near 1.6e10 on the
        product scale, which fits a 40-bit check but not the int32 blob. A
        check width outside [2, 32] is rejected; within it the bias falls
        back to the output scheme and runs as the oracle does."""
        rng = np.random.default_rng(3)
        model = _fc_model([(rng.uniform(-1e-6, 1e-6, size=(4, 6)), [1.0] * 4),
                           (rng.uniform(-1.0, 1.0, size=(3, 4)), None)], 6)
        x = rng.uniform(0.0, 1.0, size=(16, 6))
        stats = calibrate(model, x)
        if not 2 <= bits <= 32:
            with pytest.raises(ValueError, match="int32"):
                build_quantized_network(model, stats, bias_check_width=bits)
            return
        qnet = build_quantized_network(model, stats, bias_check_width=bits)
        lyr = qnet.layer("fc1")
        assert (lyr.bias_scheme, lyr.bias_width) == ("output", 8)
        assert lyr.bias.dtype == np.int32 and int(lyr.bias.min()) > 0
        x_int, _ = quantize_tensor(x, qnet.input_params)
        sim = netsim.run_batch(netsim.compile_network(qnet), x_int)
        assert np.array_equal(sim.outputs, int_forward(qnet, x_int, mode="hw")[0])


class TestMeasurement:
    def test_calibrated_bound_holds(self, mlp_bundle, bias_bundle):
        # i_max covers every prefix the calibration samples really produce
        for bundle in (mlp_bundle, bias_bundle):
            q = bundle.qnet
            x_cal = bundle.x_int[:64]
            _, layers = int_forward(q, x_cal, mode="hw")
            assert _record_saturations(layers) == 0
            x, signed = x_cal, True
            for lyr in q.layers:
                prefixes = np.cumsum(_step_sums(lyr, x, q.k, signed), axis=0)
                assert lyr.i_max >= int(np.abs(prefixes).max())
                x, signed = layers[lyr.name].post, False


# (weights, bias) of fc1 and fc2; inputs run in [-1, 1], so at K=4 a bias of
# 0.3 lands near 15 on the product scale, as large as the weighted sums
BOUND_NETS = {
    "mixed": [([[1.0, -0.5, 0.25], [-1.0, -0.75, 0.5]], None),
              ([[1.0, -1.0], [0.5, 1.0]], None)],
    "all-positive": [([[1.0, 1.0, 1.0], [0.5, 0.25, 1.0]], None),
                     ([[1.0, 1.0], [1.0, 0.5]], None)],
    "product-bias": [([[1.0, -0.5, 0.25], [0.5, 1.0, -1.0]], [0.3, -0.3]),
                     ([[1.0, -1.0], [-0.5, -1.0]], [0.3, -0.3])],
}


class TestStaticBound:
    @pytest.mark.parametrize("net", sorted(BOUND_NETS))
    @pytest.mark.parametrize("k,acc_bits", [(2, 3), (3, 4), (3, 6), (4, 4),
                                            (4, 6), (4, 16)])
    def test_exhaustive_fc_inputs(self, net, k, acc_bits):
        qnet = _quantize(_fc_model(BOUND_NETS[net], 3), k, acc_bits)
        hi = (1 << (acc_bits - 1)) - 1
        for name, signed in (("fc1", True), ("fc2", False)):
            lyr = qnet.layer(name)
            x = _wire_values(k, signed, lyr.weights.shape[1])
            u = _u_prefixes(lyr, x, k, signed)
            assert -hi - 1 <= int(u.min()) and int(u.max()) <= hi
            _, record = int_forward(_alone(qnet, name), x, mode="hw")
            assert _record_saturations(record) == 0

    def test_prefix_above_total(self):
        # +64 lands a step before -32: the prefix, not the total, is the peak
        qnet = _quantize(_fc_model([([[1.0, -1.0]], None)], 2), 8, 16)
        lyr = qnet.layer("fc1")
        assert lyr.weights.tolist() == [[127, -127]]
        prefixes = np.cumsum(_step_sums(lyr, np.array([[64, 32]]), 8, True), axis=0)
        assert (prefixes[:, 0, 0] // 127).tolist() == [0, 64, 32, 32, 32, 32, 32, 32]
        x = _wire_values(8, True, 2)
        u = _u_prefixes(lyr, x, 8, True)
        # in range, and x = [-128, 127] reaches the bound: U comes within the
        # (K+1)/2 + 1 room plus K/2 of rounding drift of the rail
        hi = (1 << 15) - 1
        assert hi - 9 <= int(np.abs(u).max()) <= hi
        _, record = int_forward(qnet, x, mode="hw")
        assert _record_saturations(record) == 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_narrowest_accumulator_rejected(self, k):
        with pytest.raises(ValueError, match="no room for the rounding drift"):
            _quantize(_fc_model(BOUND_NETS["mixed"], 3), k, k)

    @pytest.mark.parametrize("k,acc_bits", [(8, 16), (12, 32)])
    @pytest.mark.parametrize("which", sorted(fixtures.FIXTURES) + ["wide-fanin"])
    def test_full_range_random_inputs(self, which, k, acc_bits):
        builder, lo, hi = fixtures.FIXTURES.get(which, (make_wide_fanin, 0.0, 1.0))
        model = builder()
        ds = fixtures.labeled_dataset(model, 32, 8, lo, hi)
        qnet = build_quantized_network(model, calibrate(model, ds.inputs),
                                       k=k, acc_bits=acc_bits)
        rng = np.random.default_rng(k)
        shape = (48,) + tuple(qnet.input_shape)
        x = rng.integers(-(1 << (k - 1)), 1 << (k - 1), size=shape)
        # half of the samples sit on the ends of the wire range
        x[::2] = rng.choice([-(1 << (k - 1)), 0, qnet.q_max], size=x[::2].shape)
        _, record = int_forward(qnet, x, mode="hw")
        sim = netsim.run_batch(netsim.compile_network(qnet), x)
        assert _record_saturations(record) == 0
        assert sum(t.saturations for t in sim.traces) == 0


class TestValidate:
    def test_k_out_of_range(self, mlp_bundle):
        q = copy.deepcopy(mlp_bundle.qnet)
        for k in (1, 17):
            q.k = k
            with pytest.raises(ValueError, match="train length"):
                q.validate()

    def test_accumulator_narrower_than_k(self, mlp_bundle):
        q = copy.deepcopy(mlp_bundle.qnet)
        q.acc_bits = q.k - 1
        with pytest.raises(ValueError, match="accumulator width"):
            q.validate()

    def test_doctored_m1_rejected(self, mlp_bundle):
        q = copy.deepcopy(mlp_bundle.qnet)
        lyr = q.layers[0]
        lyr.m1 = FixedMult(lyr.m1.mantissa - 65536, lyr.m1.shift)
        with pytest.raises(ValueError, match="drifts"):
            q.validate()

    def test_oversized_bias_rejected(self, mlp_bundle):
        q = copy.deepcopy(mlp_bundle.qnet)
        lyr = q.layers[0]
        assert lyr.bias_width == 16
        lyr.bias = lyr.bias.copy()
        lyr.bias[0] = 40000
        with pytest.raises(ValueError, match="bias exceeds"):
            q.validate()

    def test_missing_i_max_rejected(self, mlp_bundle):
        q = copy.deepcopy(mlp_bundle.qnet)
        q.layers[0].i_max = 0
        with pytest.raises(ValueError, match="i_max"):
            q.validate()

    def test_scale_chain_break_rejected(self, mlp_bundle):
        q = copy.deepcopy(mlp_bundle.qnet)
        q.layers[1].scale_in = q.layers[1].scale_in * 2
        with pytest.raises(ValueError, match="does not match producer"):
            q.validate()

    @pytest.mark.parametrize("where,width", [("network", 1), ("network", 33),
                                             ("layer", 40)])
    def test_bias_width_beyond_the_int32_blob_rejected(self, mlp_bundle, where, width):
        q = copy.deepcopy(mlp_bundle.qnet)
        if where == "network":
            q.bias_check_width = width
        else:
            q.layers[0].bias_width = width
        with pytest.raises(ValueError, match=f"{width} outside \\[2, 32\\]: .*int32"):
            q.validate()

    def test_builder_rejects_bad_widths(self, mlp_bundle):
        with pytest.raises(ValueError):
            build_quantized_network(mlp_bundle.model, mlp_bundle.stats, k=1)
        with pytest.raises(ValueError):
            build_quantized_network(mlp_bundle.model, mlp_bundle.stats,
                                    k=8, acc_bits=4)


class TestLongTrains:
    def test_k10_weights_stored_without_int8_wrap(self, mlp_bundle):
        model, ds = mlp_bundle.model, mlp_bundle.ds
        acc = {}
        for k in (8, 10):
            stats = calibrate(model, ds.inputs[:64])
            qnet = build_quantized_network(model, stats, k=k, acc_bits=24)
            for lyr, flt in zip(qnet.layers, model.layers):
                if lyr.weights is None:
                    continue
                wide = QuantParams(lyr.scale_w, -qnet.q_max, qnet.q_max)
                pre_cast, _ = quantize_tensor(flt.weights, wide)
                assert np.array_equal(lyr.weights.astype(np.int64), pre_cast)
            x_int, _ = quantize_tensor(ds.inputs, qnet.input_params)
            out, _ = int_forward(qnet, x_int, mode="wide")
            acc[k] = float(np.mean(np.argmax(out, axis=-1) == ds.labels))
        assert abs(acc[10] - acc[8]) <= 0.02

    @pytest.mark.parametrize("which", ["mlp", "cnn", "bias"])
    def test_output_scheme_bias_keeps_accuracy_at_long_trains(self, which, request):
        # an output-scale bias stored at 8 bits is clamped to +-127 of a
        # 2^(K-1) - 1 output range, which loses accuracy once K > 8
        bundle = request.getfixturevalue(f"{which}_bundle")
        stats = calibrate(bundle.model, bundle.ds.inputs[:64])
        acc = {}
        for k in (8, 10, 11, 12):
            qnet = build_quantized_network(bundle.model, stats, k=k, acc_bits=24)
            x_int, _ = quantize_tensor(bundle.ds.inputs, qnet.input_params)
            out, _ = int_forward(qnet, x_int, mode="wide")
            acc[k] = float(np.mean(np.argmax(out, axis=-1) == bundle.ds.labels))
        assert all(acc[8] - acc[k] <= 0.02 for k in (10, 11, 12)), acc


class TestCalibrate:
    def test_i_max_at_least_one(self, mlp_bundle):
        assert all(mlp_bundle.qnet.layer(n).i_max >= 1 for n in ("fc1", "fc2", "fc3"))

    def test_flatten_has_no_i_max(self, cnn_bundle):
        assert cnn_bundle.qnet.layer("flat").i_max is None

    def test_single_sample_input_accepted(self):
        model = fixtures.make_mlp()
        stats = calibrate(model, np.full((1,) + model.input_shape, 0.5))
        assert stats.samples == 1
        qnet = build_quantized_network(model, stats)
        assert all(qnet.layer(n).i_max >= 1 for n in ("fc1", "fc2", "fc3"))

    @pytest.mark.parametrize("acc_bits", [16, 24, 32])
    def test_dead_input_layer_quantizes(self, acc_bits):
        # fc1 has one live neuron; fc2 gives it weight 0, so fc2 sums only
        # zeros on every calibration sample and outputs its (output-scheme)
        # bias. A bound measured there is 1, which at 32 bits pushed m1 below
        # a normalized mantissa.
        w1 = np.full((4, 3), 0.5)
        w2 = np.array([[0.0, 1.0, -1.0, 0.5], [0.0, -0.5, 1.0, 1.0]])
        model = _fc_model([(w1, [0.1, -100.0, -100.0, -100.0]), (w2, [5.0, -5.0])], 3)
        x = np.random.default_rng(0).uniform(0.0, 1.0, size=(32, 3))
        qnet = build_quantized_network(model, calibrate(model, x), acc_bits=acc_bits)
        x_int, _ = quantize_tensor(x, qnet.input_params)
        assert qnet.layer("fc2").bias_scheme == "output"
        sim = netsim.run_batch(netsim.compile_network(qnet), x_int)
        hw, _ = int_forward(qnet, x_int, mode="hw")
        assert np.array_equal(sim.outputs, hw)

    @pytest.mark.parametrize("bias", [None, [0.5, -0.25]])
    @pytest.mark.parametrize("acc_bits", [16, 32])
    def test_zero_weight_layer_quantizes(self, acc_bits, bias):
        # all-zero weights bound every prefix by 0; an I_max of 1 made
        # M0 = 2^(n-1) - 1 and left m1 below a normalized mantissa (at 32 bits,
        # and at 16 with a bias)
        model = _fc_model([(np.zeros((2, 2)), bias), ([[1.0, -0.5], [0.25, 1.0]], None)], 2)
        x = np.random.default_rng(0).uniform(-1.0, 1.0, size=(16, 2))
        qnet = build_quantized_network(model, calibrate(model, x), k=8, acc_bits=acc_bits)
        assert NORM_LOW <= abs(qnet.layer("fc1").m1.mantissa) < NORM_HIGH
        x_int, _ = quantize_tensor(x, qnet.input_params)
        sim = netsim.run_batch(netsim.compile_network(qnet), x_int)
        hw, record = int_forward(qnet, x_int, mode="hw")
        assert np.array_equal(sim.outputs, hw)
        assert _record_saturations(record) == 0

    @pytest.mark.parametrize("acc_bits", [44, 45, 46, 47, 48])
    def test_join_m0_rounds_below_2_pow_31(self, acc_bits):
        # the join's m_hat is 1, so hi / I_max came within 1/2 of 2^31 and
        # rounded to a mantissa of 2^31, which from_real rejected
        model = fixtures.make_residual()
        x = np.random.default_rng(0).uniform(0.0, 1.0, size=(16,) + model.input_shape)
        qnet = build_quantized_network(model, calibrate(model, x), k=8, acc_bits=acc_bits)
        assert abs(qnet.layer("join").m0.mantissa) < NORM_HIGH
        snet = netsim.compile_network(qnet)
        assert all(pop.clamp_free for pop in snet.populations)
        x_int, _ = quantize_tensor(x, qnet.input_params)
        hw, record = int_forward(qnet, x_int, mode="hw")
        assert np.array_equal(netsim.run_batch(snet, x_int).outputs, hw)
        assert _record_saturations(record) == 0

    @pytest.mark.parametrize("which", ["mlp", "cnn", "bias"])
    def test_wide_accumulator_calibrates(self, which, request):
        bundle = request.getfixturevalue(f"{which}_bundle")
        stats = calibrate(bundle.model, bundle.ds.inputs[:64])
        qnet = build_quantized_network(bundle.model, stats, acc_bits=32)
        x_int, _ = quantize_tensor(bundle.ds.inputs, qnet.input_params)
        sim = netsim.run_batch(netsim.compile_network(qnet), x_int)
        hw, _ = int_forward(qnet, x_int, mode="hw")
        assert np.array_equal(sim.outputs, hw)

    def test_hidden_layer_below_zero_warns(self, caplog):
        """A hidden avgpool on the signed input has negative calibrated
        values, which its wire, carrying only [0, q_max], clips: quantizing
        names the layer and its minimum in a warning."""
        rng = np.random.default_rng(1)
        model = FloatModel(name="signed-pool", input_shape=(1, 4, 4), layers=[
            LayerDesc(name="pool", kind="avgpool2d", attrs={"kernel": [2, 2]},
                      inputs=["input"]),
            LayerDesc(name="flat", kind="flatten", attrs={}, inputs=["pool"]),
            LayerDesc(name="fc", kind="fully-connected",
                      attrs={"in_features": 4, "out_features": 3}, inputs=["flat"],
                      weights=rng.uniform(-1, 1, size=(3, 4)).astype(np.float32)),
        ])
        infer_shapes(model)
        x = rng.uniform(-1, 1, size=(500, 1, 4, 4)).astype(np.float32)
        stats = calibrate(model, x)
        caplog.set_level("WARNING", logger="stemc")
        build_quantized_network(model, stats)
        r_lo = stats.ranges["pool"][0]
        assert r_lo < 0
        assert [r.getMessage() for r in caplog.records] == [
            f"layer pool: calibrated minimum {r_lo:g} is below 0, but a hidden "
            "wire carries only [0, q_max]"]

    def test_report_is_stable(self, mlp_bundle):
        a = calibration_report(mlp_bundle.qnet, mlp_bundle.stats)
        b = calibration_report(mlp_bundle.qnet, mlp_bundle.stats)
        assert a == b
        assert "i_max" in a and "fc1" in a
