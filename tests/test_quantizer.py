import copy
from fractions import Fraction

import numpy as np
import pytest

from stemc.fixedpoint import FixedMult, from_real
from stemc.quantizer import (
    QuantParams,
    QuantizedLayer,
    QuantizedNetwork,
    build_quantized_network,
    calibrate,
    calibrate_bias,
    calibration_report,
    collect_ranges,
    dequantize,
    derive_scale,
    quantize_tensor,
    RangeStats,
)
from stemc import fixtures, netsim
from stemc.refengine import LayerStats, int_forward


def _record_saturations(record) -> int:
    return sum(act.saturations for act in record.layers.values())


def _single_fc_qnet(weights: np.ndarray, k: int = 8, acc_bits: int = 16) -> QuantizedNetwork:
    """Hand-built one-layer network with unit scaling (for measurement tests)."""
    n_out, n_in = weights.shape
    one = from_real(1.0)
    lyr = QuantizedLayer(
        name="fc", kind="fully-connected",
        attrs={"in_features": n_in, "out_features": n_out}, inputs=["input"],
        weights=np.asarray(weights, dtype=np.int8),
        scale_in=1.0, scale_w=1.0, scale_out=1.0,
        m_hat=one, m0=one, m1=one, i_max=1,
    )
    qnet = QuantizedNetwork(
        name="unit", input_shape=(n_in,), k=k, acc_bits=acc_bits,
        bias_check_width=16, input_scale=1.0, layers=[lyr],
    )
    qnet.validate()
    return qnet


class TestScales:
    def test_symmetric_scale(self):
        p = derive_scale(0.5, -0.3, 127)
        assert p.scale == 0.5 / 127
        assert (p.zero_point, p.q_min, p.q_max) == (0, -127, 127)

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

    def test_dequantize_inverts_scale(self):
        p = QuantParams(scale=0.5 / 127)
        q, _ = quantize_tensor(np.array([0.25]), p)
        assert dequantize(q, p) == pytest.approx([0.25], abs=p.scale)

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


class TestMeasurement:
    def test_worked_example_i_max(self):
        # W~ = [2, -3], X~ = [5, 7]: per-step sums -4, -6, -1 (steps 5..7),
        # running prefix peaks at |−11| == |total|, single step peaks at 6.
        qnet = _single_fc_qnet(np.array([[2, -3]]))
        st: dict[str, LayerStats] = {}
        int_forward(qnet, np.array([[5, 7]]), mode="wide", stats=st)
        got = st["fc"]
        assert got.max_abs_step == 6
        assert got.max_abs_prefix == 11
        assert got.max_abs_total == 11
        assert max(got.max_abs_step, got.max_abs_prefix, got.max_abs_total, 1) == 11

    def test_prefix_can_exceed_total(self):
        # +64 then -64: total 0 but the wire sees a 64-high prefix
        qnet = _single_fc_qnet(np.array([[1, -1]]))
        st: dict[str, LayerStats] = {}
        int_forward(qnet, np.array([[64, 64]]), mode="wide", stats=st)
        assert st["fc"].max_abs_total == 0
        assert st["fc"].max_abs_step == 0
        assert st["fc"].max_abs_prefix == 0  # same-step bits cancel in the sum
        st2: dict[str, LayerStats] = {}
        int_forward(qnet, np.array([[64, 32]]), mode="wide", stats=st2)
        assert st2["fc"].max_abs_total == 32
        assert st2["fc"].max_abs_prefix == 64   # the +64 step lands first

    def test_layer_stats_merge_associative(self):
        a = LayerStats(3, 9, 7, -2, 5)
        b = LayerStats(6, 4, 8, -9, 2)
        c = LayerStats(1, 12, 2, -1, 11)
        lhs = LayerStats.merge(LayerStats.merge(a, b), c)
        rhs = LayerStats.merge(a, LayerStats.merge(b, c))
        assert lhs == rhs

    def test_stats_batch_split_equivalence(self, mlp_bundle):
        q, x = mlp_bundle.qnet, mlp_bundle.x_int[:10]
        whole: dict[str, LayerStats] = {}
        int_forward(q, x, mode="wide", stats=whole)
        first: dict[str, LayerStats] = {}
        second: dict[str, LayerStats] = {}
        int_forward(q, x[:4], mode="wide", stats=first)
        int_forward(q, x[4:], mode="wide", stats=second)
        for name in whole:
            assert LayerStats.merge(first[name], second[name]) == whole[name]

    def test_range_stats_merge_matches_whole(self, mlp_bundle):
        model, ds = mlp_bundle.model, mlp_bundle.ds
        whole = collect_ranges(model, ds.inputs[:12])
        merged = RangeStats.merge(collect_ranges(model, ds.inputs[:5]),
                                  collect_ranges(model, ds.inputs[5:12]))
        assert merged.input_range == whole.input_range
        assert merged.ranges == whole.ranges
        assert merged.samples == whole.samples

    def test_calibrated_bound_holds(self, mlp_bundle, bias_bundle):
        for bundle in (mlp_bundle, bias_bundle):
            q = bundle.qnet
            x_cal = bundle.x_int[:64]
            st: dict[str, LayerStats] = {}
            _, record = int_forward(q, x_cal, mode="hw", stats=st)
            assert _record_saturations(record) == 0
            for lyr in q.layers:
                if lyr.kind == "flatten":
                    continue
                observed = max(st[lyr.name].max_abs_step,
                               st[lyr.name].max_abs_prefix,
                               st[lyr.name].max_abs_total, 1)
                assert lyr.i_max >= observed


class TestValidate:
    def test_k_out_of_range(self, mlp_bundle):
        q = copy.deepcopy(mlp_bundle.qnet)
        q.k = 1
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
            stats = calibrate(model, ds.inputs[:64], k=k, acc_bits=24)
            qnet = build_quantized_network(model, stats, k=k, acc_bits=24)
            for lyr, flt in zip(qnet.layers, model.layers):
                if lyr.weights is None:
                    continue
                wide = QuantParams(lyr.scale_w, 0, -qnet.q_max, qnet.q_max)
                pre_cast, _ = quantize_tensor(flt.weights, wide)
                assert np.array_equal(lyr.weights.astype(np.int64), pre_cast)
            x_int, _ = quantize_tensor(ds.inputs, qnet.input_params)
            out, _ = int_forward(qnet, x_int, mode="wide")
            acc[k] = float(np.mean(np.argmax(out, axis=-1) == ds.labels))
        assert abs(acc[10] - acc[8]) <= 0.02


class TestCalibrate:
    def test_i_max_at_least_one(self, mlp_bundle):
        assert all(v >= 1 for v in mlp_bundle.stats.i_max.values())

    def test_flatten_has_no_i_max(self, cnn_bundle):
        assert "flat" not in cnn_bundle.stats.i_max

    def test_single_sample_input_accepted(self):
        model = fixtures.make_mlp()
        stats = calibrate(model, np.full(model.input_shape, 0.5))
        assert stats.samples == 1
        assert set(stats.i_max) == {"fc1", "fc2", "fc3"}

    @pytest.mark.parametrize("which", ["mlp", "cnn", "bias"])
    def test_wide_accumulator_calibrates(self, which, request):
        # the i_max = 1 bootstrap build used to fail its m0*m1 drift check
        bundle = request.getfixturevalue(f"{which}_bundle")
        stats = calibrate(bundle.model, bundle.ds.inputs[:64], acc_bits=32)
        qnet = build_quantized_network(bundle.model, stats, acc_bits=32)
        x_int, _ = quantize_tensor(bundle.ds.inputs, qnet.input_params)
        sim = netsim.run_batch(netsim.compile_network(qnet), x_int)
        hw, _ = int_forward(qnet, x_int, mode="hw")
        assert np.array_equal(sim.outputs, hw)

    def test_report_is_stable(self, mlp_bundle):
        a = calibration_report(mlp_bundle.qnet, mlp_bundle.stats)
        b = calibration_report(mlp_bundle.qnet, mlp_bundle.stats)
        assert a == b
        assert "i_max" in a and "fc1" in a
