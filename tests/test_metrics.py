import csv

import numpy as np
import pytest

from stemc.metrics import (
    AC_PJ,
    MAC_PJ,
    consolidate,
    count_macs,
    count_macs_layer,
    count_sops,
    energy_estimate,
    io_layer_names,
    sop_total,
    write_layer_csv,
    write_summary,
)
from stemc.netsim import compile_network, run_batch
from test_netsim import _one_layer_qnet


def _brute_conv_fanout(in_shape, attrs):
    c, h, w = in_shape
    kh, kw = attrs["kernel"]
    s = int(attrs.get("stride", 1))
    p = int(attrs.get("padding", 0))
    oh = (h + 2 * p - kh) // s + 1
    ow = (w + 2 * p - kw) // s + 1
    fan = np.zeros((c, h, w), dtype=np.int64)
    for oy in range(oh):
        for ox in range(ow):
            for dy in range(kh):
                for dx in range(kw):
                    y, x = oy * s - p + dy, ox * s - p + dx
                    if 0 <= y < h and 0 <= x < w:
                        fan[:, y, x] += int(attrs["out_channels"])
    return fan.reshape(-1)


def _fanouts(in_shape, kind, attrs, weights=None) -> list[np.ndarray]:
    """``Population.fanouts`` of a compiled network of one layer."""
    return compile_network(_one_layer_qnet(in_shape, kind, attrs, weights)).populations[0].fanouts


def _conv_weights(in_shape, attrs):
    kh, kw = attrs["kernel"]
    return np.random.default_rng(7).integers(
        -127, 128, size=(attrs["out_channels"], in_shape[0], kh, kw))


class TestFanout:
    """SOP fan-outs, counted by ``compile_network`` from its index tables."""

    # small, cnn28's fc, and more than 100 outputs over 1568 inputs
    @pytest.mark.parametrize("n_in,n_out", [(36, 24), (1568, 10), (1568, 128)])
    def test_fc_full_fanout(self, n_in, n_out):
        attrs = {"in_features": n_in, "out_features": n_out}
        w = np.random.default_rng(3).integers(-127, 128, size=(n_out, n_in))
        fanouts = _fanouts((n_in,), "fully-connected", attrs, w)
        assert [f.tolist() for f in fanouts] == [[n_out] * n_in]

    @pytest.mark.parametrize("attrs", [
        {"kernel": [3, 3], "stride": 1, "padding": 1, "out_channels": 4},
        {"kernel": [3, 3], "stride": 2, "padding": 0, "out_channels": 8},
        {"kernel": [3, 3], "stride": 2, "padding": 1, "out_channels": 2},
        {"kernel": [2, 3], "stride": 1, "padding": 0, "out_channels": 5},
        pytest.param({"kernel": [3, 3], "stride": 1, "padding": 1, "out_channels": 16,
                      "in_shape": (1, 28, 28)}, id="cnn28-conv1"),
    ])
    def test_conv_matches_coverage_walk(self, attrs):
        attrs = dict(attrs)
        in_shape = attrs.pop("in_shape", (3, 7, 7))
        attrs["in_channels"] = in_shape[0]
        (fan,) = _fanouts(in_shape, "conv2d", attrs, _conv_weights(in_shape, attrs))
        assert np.array_equal(fan, _brute_conv_fanout(in_shape, attrs))

    def test_conv_edges_cost_less_under_padding(self):
        attrs = {"in_channels": 1, "kernel": [3, 3], "stride": 1, "padding": 1,
                 "out_channels": 1}
        (fan,) = _fanouts((1, 5, 5), "conv2d", attrs, _conv_weights((1, 5, 5), attrs))
        fan = fan.reshape(5, 5)
        assert fan[2, 2] == 9      # interior pixel: every window position
        assert fan[0, 0] == 4      # corner: windows clipped by the image edge
        assert fan[0, 2] == 6

    def test_pool_fanout_totals(self):
        (fan,) = _fanouts((3, 4, 4), "avgpool2d", {"kernel": [2, 2], "stride": 2})
        assert fan.tolist() == [1] * 48
        assert fan.sum() == 3 * 2 * 2 * 2 * 2   # c * oh * ow * kh * kw

    def test_pool_crop_leaves_uncovered(self):
        (fan,) = _fanouts((1, 5, 5), "avgpool2d", {"kernel": [2, 2], "stride": 2})
        assert fan.reshape(5, 5)[4, 4] == 0     # last row/col never pooled

    def test_residual_fanout_is_unit(self, residual_bundle):
        snet = compile_network(residual_bundle.qnet)
        join = next(p for p in snet.populations if p.kind == "residual-add")
        assert len(join.fanouts) == 2           # one synapse per branch input
        qnet = residual_bundle.qnet
        shapes = [qnet.layer(s).out_shape for s in qnet.layer(join.name).inputs]
        for fan, shape in zip(join.fanouts, shapes):
            assert fan.tolist() == [1] * int(np.prod(shape))


class TestCounting:
    def test_count_sops_dot_product(self):
        assert count_sops(np.array([10]), np.array([32])) == 320
        assert count_sops(np.array([2, 0, 5]), np.array([10, 99, 4])) == 40

    def test_fc_macs(self):
        attrs = {"in_features": 784, "out_features": 128}
        assert count_macs_layer("fully-connected", attrs, (128,)) == 100352

    def test_conv_macs(self):
        attrs = {"kernel": [3, 3], "in_channels": 1, "out_channels": 8,
                 "stride": 1, "padding": 1}
        assert count_macs_layer("conv2d", attrs, (8, 8, 8)) == 4608

    def test_network_macs_exclude_pool_adds(self, cnn_bundle):
        q = cnn_bundle.qnet
        assert count_macs(q) == 2304 + 4608 + 320

    def test_io_layer_names(self, cnn_bundle, mlp_bundle):
        assert io_layer_names(cnn_bundle.qnet) == {"conv1", "fc"}
        assert io_layer_names(mlp_bundle.qnet) == {"fc1", "fc3"}

    def test_sop_total_io_exclusion(self, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        traces = run_batch(snet, mlp_bundle.x_int[:8]).traces
        by_name = {t.name: t.sops for t in traces}
        assert sop_total(traces, mlp_bundle.qnet) == by_name["fc2"]
        assert sop_total(traces, mlp_bundle.qnet, include_io=True) == sum(
            by_name.values())

    def test_trace_sops_match_fanout_sum(self, mlp_bundle):
        # fc SOPs == total input spikes * out_features
        snet = compile_network(mlp_bundle.qnet)
        traces = run_batch(snet, mlp_bundle.x_int[:8]).traces
        t = traces[0]
        assert t.sops == t.spikes_in * 24


class TestEnergy:
    def test_mac_energy(self):
        est = energy_estimate(1000, 0)
        assert est.ann_uj == pytest.approx(0.00023, rel=1e-12)
        assert est.ann_uj == pytest.approx(1000 * MAC_PJ * 1e-6, rel=1e-12)

    def test_sop_energy(self):
        est = energy_estimate(0, 2600)
        assert est.sdann_uj == pytest.approx(7.8e-5, rel=1e-12)
        assert est.sdann_uj == pytest.approx(2600 * AC_PJ * 1e-6, rel=1e-12)

    def test_ratio_formula(self):
        est = energy_estimate(1234, 5678)
        want = (AC_PJ * 5678) / (MAC_PJ * 1234)
        assert est.ratio == pytest.approx(want, rel=1e-12)

    def test_break_even_point(self):
        macs = 300
        even = int(MAC_PJ / AC_PJ * macs)       # 7.67 SOPs per MAC
        assert energy_estimate(macs, even - 1).ratio < 1.0
        assert energy_estimate(macs, even + 1).ratio > 1.0

    def test_zero_macs_ratio(self):
        assert energy_estimate(0, 10).ratio == float("inf")


class TestReports:
    def test_layer_csv_shape(self, tmp_path, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        traces = run_batch(snet, mlp_bundle.x_int[:4]).traces
        path = tmp_path / "layers.csv"
        write_layer_csv(path, traces)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["layer", "kind", "sops", "spikes_in", "spikes_out",
                           "saturations"]
        assert len(rows) == 1 + len(traces)
        assert rows[1][0] == "fc1"

    def test_summary_bytes_stable(self, tmp_path):
        doc = {"total_sops": 100, "accuracy": 0.5, "zebra": 1, "alpha": 2}
        write_summary(tmp_path / "a.json", doc)
        write_summary(tmp_path / "b.json", dict(reversed(list(doc.items()))))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_consolidate_deltas(self, tmp_path):
        (tmp_path / "base").mkdir()
        (tmp_path / "tuned").mkdir()
        write_summary(tmp_path / "base" / "summary.json",
                      {"total_sops": 1000, "total_macs": 100, "accuracy": 0.9,
                       "sdann_uj": 3e-5, "ann_uj": 2.3e-5})
        write_summary(tmp_path / "tuned" / "summary.json",
                      {"total_sops": 850, "total_macs": 100, "accuracy": 0.88,
                       "sdann_uj": 2.55e-5, "ann_uj": 2.3e-5})
        rows = consolidate([tmp_path / "base" / "summary.json",
                            tmp_path / "tuned" / "summary.json"],
                           tmp_path / "out.csv")
        assert [r["run"] for r in rows] == ["base", "tuned"]
        assert rows[0]["total_sops_pct"] == 0.0
        assert rows[1]["total_sops_pct"] == -15.0
        assert rows[1]["total_macs_pct"] == 0.0
        text = (tmp_path / "out.csv").read_text().splitlines()
        assert text[0].startswith("run,total_sops")
        assert len(text) == 3

    def test_consolidate_missing_key(self, tmp_path):
        write_summary(tmp_path / "one.json", {"total_sops": 10})
        rows = consolidate([tmp_path / "one.json"], tmp_path / "out.csv")
        assert rows[0]["run"] == "one"
        assert rows[0]["accuracy"] is None
        assert rows[0]["accuracy_pct"] == ""
