import copy
import dataclasses
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import encode_planes, make_wide_fanin
from stemc import cli, fixtures, metrics, netsim
from stemc.fixedpoint import FixedMult, apply, from_real, saturate_array
from stemc.modelio import (INPUT_NAME, FloatModel, LayerDesc, infer_shapes, pool_out_hw,
                           save_dataset, save_quantized_model, signed_wires)
from stemc.netsim import (
    CachedRun,
    HardwareProfile,
    PipelineResult,
    PipelineTiming,
    Population,
    _conv_table,
    _integrate_block,
    _live_steps,
    _planes,
    check_capacity,
    compile_network,
    dump_spike_trains,
    rle_decode,
    rle_encode,
    run_batch,
    run_pipeline,
)
from stemc.quantizer import build_quantized_network, calibrate, prefix_bound, quantize_tensor
from stemc.refengine import float_forward, int_forward
from stemc.sparsity import LayerSparsity, SparsityPlan, drlo, rot, tune_hybrid
from stemc.stem import step_weights


def _quantized(model, n=24, seed=5, lo=0.0, hi=1.0, **kw):
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, size=(n,) + model.input_shape).astype(np.float32)
    stats = calibrate(model, x)
    qnet = build_quantized_network(model, stats, **kw)
    x_int, _ = quantize_tensor(x, qnet.input_params)
    return qnet, x_int


class TestOracleEquivalence:
    @pytest.mark.parametrize("which", ["mlp", "cnn", "residual", "bias"])
    def test_matches_hw_oracle(self, which, request):
        bundle = request.getfixturevalue(f"{which}_bundle")
        snet = compile_network(bundle.qnet)
        got = run_batch(snet, bundle.x_int)
        want, _ = int_forward(bundle.qnet, bundle.x_int, mode="hw")
        assert np.array_equal(got.outputs, want)

    @pytest.mark.parametrize("k,acc_bits", [(8, 16), (12, 32)])
    @pytest.mark.parametrize("fixture", sorted(fixtures.FIXTURES))
    def test_every_layer_equals_oracle(self, fixture, k, acc_bits):
        """Each wire's cached values are the oracle's integers, and its counts
        are the spikes of those values' trains."""
        builder, lo, hi = fixtures.FIXTURES[fixture]
        qnet, x = _quantized(builder(), n=32, lo=lo, hi=hi, k=k, acc_bits=acc_bits)
        run = CachedRun(compile_network(qnet, plan=SparsityPlan.identity()), x)
        _, layers = int_forward(qnet, x, mode="hw")
        assert np.array_equal(run.values[INPUT_NAME], x.reshape(x.shape[0], -1))
        for name, values in run.values.items():
            assert values.dtype == np.int16 and values.ndim == 2, name
            if name != INPUT_NAME:
                want = layers[name].post.reshape(x.shape[0], -1)
                assert np.array_equal(values, want), name
            spikes = encode_planes(values, k, True).sum(axis=(0, 2))
            assert np.array_equal(run.counts[name], spikes), name

    @pytest.mark.parametrize("entry", ["run_batch", "CachedRun", "int_forward",
                                       "float_forward", "calibrate"])
    def test_unbatched_sample_rejected(self, mlp_bundle, entry):
        """Every entry point takes a batch [N, *input_shape] only, and names
        that shape when it is handed one sample."""
        b = mlp_bundle
        call = {
            "run_batch": lambda: run_batch(compile_network(b.qnet), b.x_int[0]),
            "CachedRun": lambda: CachedRun(compile_network(b.qnet), b.x_int[0]),
            "int_forward": lambda: int_forward(b.qnet, b.x_int[0]),
            "float_forward": lambda: float_forward(b.model, b.ds.inputs[0]),
            "calibrate": lambda: calibrate(b.model, b.ds.inputs[0]),
        }[entry]
        with pytest.raises(ValueError, match=re.escape("batch of shape (N, 36)")):
            call()

    def test_wrong_shape_rejected(self, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        with pytest.raises(ValueError, match="input shape"):
            run_batch(snet, np.zeros((4, 9), dtype=np.int64))

    def test_k6_network(self):
        qnet, x_int = _quantized(fixtures.make_deep_mlp(2), k=6)
        snet = compile_network(qnet)
        got = run_batch(snet, x_int)
        want, _ = int_forward(qnet, x_int, mode="hw")
        assert np.array_equal(got.outputs, want)
        assert got.steps_per_sample == 6 * (snet.n_stages + 1)


class TestFlattenedInput:
    """A first weighted layer that reads flatten(input) reads the signed
    network input: its phi carries the sign weight, and the simulator equals
    the hardware-mode oracle on inputs of both signs."""

    @staticmethod
    def _model() -> FloatModel:
        rng = np.random.default_rng(27)
        model = FloatModel(name="flat-input", input_shape=(2, 3, 3), layers=[
            LayerDesc(name="flat", kind="flatten", attrs={}, inputs=["input"]),
            fixtures._fc("hidden", "flat", 18, 12, rng, 0.5),
            fixtures._fc("out", "hidden", 12, 4, rng, 0.5, relu=False),
        ])
        infer_shapes(model)
        return model

    @pytest.mark.parametrize("protected", [True, False], ids=["calibrated", "hidden-m0-1"])
    def test_matches_hw_oracle(self, protected):
        qnet, x_int = _quantized(self._model(), n=48, lo=-1.0, hi=1.0)
        if not protected:                   # the hidden fc saturates
            qnet = _unprotected(qnet, "hidden")
        snet = compile_network(qnet)
        assert [p.name for p in snet.populations] == ["hidden", "out"]
        assert snet.populations[0].inputs == [INPUT_NAME]
        assert snet.populations[0].phi[0] < 0
        assert int(x_int.min()) < 0 < int(x_int.max())
        got = run_batch(snet, x_int)
        want, layers = int_forward(qnet, x_int, mode="hw")
        assert np.array_equal(got.outputs, want)
        assert [t.saturations for t in got.traces] == [
            layers[p.name].saturations for p in snet.populations]
        assert (got.traces[0].saturations > 0) == (not protected)

    def test_compare_exits_0(self, tmp_path, capsys):
        x = np.random.default_rng(8).uniform(-1.0, 1.0, size=(24, 2, 3, 3)).astype(np.float32)
        model = self._model()
        qnet = build_quantized_network(model, calibrate(model, x))
        save_quantized_model(qnet, tmp_path / "flat.q.json")
        save_dataset(tmp_path / "x.ds", x, np.zeros(24, dtype=np.int64))
        assert cli.main(["compare", str(tmp_path / "flat.q.json"), str(tmp_path / "x.ds")]) == 0
        assert "0 mismatches / 24 samples" in capsys.readouterr().out


def _signed_join_qnet(k: int, acc_bits: int):
    """A two-conv residual network whose join is rewired after quantization
    to read the signed network input and conv_b, with the input, conv_a's
    input and conv_b's output put on one scale."""
    rng = np.random.default_rng(22)
    model = FloatModel(name="signed-join", input_shape=(2, 6, 6), layers=[
        fixtures._conv("conv_a", "input", 2, 2, rng, 0.45),
        fixtures._conv("conv_b", "conv_a", 2, 2, rng, 0.30),
        LayerDesc(name="join", kind="residual-add", attrs={}, inputs=["conv_b", "conv_a"]),
        LayerDesc(name="flat", kind="flatten", attrs={}, inputs=["join"]),
        fixtures._fc("fc", "flat", 72, 10, rng, 0.35, relu=False),
    ])
    infer_shapes(model)
    qnet, _ = _quantized(model, k=k, acc_bits=acc_bits)
    qnet.input_scale = qnet.layer("conv_a").scale_in = qnet.layer("conv_b").scale_out
    qnet.layer("join").inputs = [INPUT_NAME, "conv_b"]
    qnet.validate()
    return qnet


class TestSignedJoin:
    """A join of the signed network input and a hidden wire weights each
    branch's steps by that branch's own wire."""

    @pytest.mark.parametrize("k,acc_bits", [(8, 16), (12, 32)])
    def test_full_range_matches_hw(self, k, acc_bits):
        qnet = _signed_join_qnet(k, acc_bits)
        snet = compile_network(qnet)
        join = next(p for p in snet.populations if p.name == "join")
        assert join.inputs == [INPUT_NAME, "conv_b"]
        # conv_b never spikes at step 0, so the input's signed weights serve both
        assert join.phi.tolist() == step_weights(k, signed=True).tolist()
        rng = np.random.default_rng(k)
        x = rng.integers(-(1 << (k - 1)), 1 << (k - 1), size=(300, 2, 6, 6))
        # a third of the samples sit on the ends of the wire range
        x[::3] = rng.choice([-(1 << (k - 1)), 0, qnet.q_max], size=x[::3].shape)
        run = CachedRun(snet, x)
        want, layers = int_forward(qnet, x, mode="hw")
        assert np.array_equal(run.outputs, want)
        for pop in snet.populations:
            assert np.array_equal(run.values[pop.name], layers[pop.name].post), pop.name
            assert run.saturations[pop.name] == layers[pop.name].saturations, pop.name
        assert layers["join"].post.any()


# Reference synapse table: every neuron's synapses listed one by one, input
# indices into the input plus a silent slot (padding), with their weights.
# ``compile_network`` builds the execution forms straight from the geometry;
# every synapse walk and fan-in below is checked against this table.


def _build_table(kind, attrs, in_shape, weights):
    """Returns (gather_idx [n_out,F], gather_w, n_in_padded, fanin)."""
    if kind == "conv2d":
        idx_sp, n_pos, silent = _conv_table(in_shape, attrs)
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


def _synapse_table(lyr, in_shape) -> tuple[np.ndarray, np.ndarray]:
    """(idx [n_out, F], w [n_out, F]) of one input branch of `lyr`: conv and
    pool from ``_build_table``, fully-connected from the weights, a residual
    join one unit synapse per neuron."""
    n_in = math.prod(in_shape)
    if lyr.kind == "fully-connected":
        w = lyr.weights.astype(np.int64)
        return np.broadcast_to(np.arange(n_in), w.shape), w
    if lyr.kind == "residual-add":
        return np.arange(n_in)[:, None], np.ones((n_in, 1), dtype=np.int64)
    return _build_table(lyr.kind, lyr.attrs, in_shape, lyr.weights)[:2]


def _in_shapes(qnet, name) -> list[tuple[int, ...]]:
    """The shape of each input branch of layer `name`, read from the
    quantized network (a flatten's output is flat)."""
    return [tuple(qnet.input_shape) if s == INPUT_NAME else qnet.layer(s).out_shape
            for s in qnet.layer(name).inputs]


def _synapse_walk(qnet, pop: Population, values: list[np.ndarray], k: int,
                  steps: range) -> np.ndarray:
    """Brute force: per step, sample and neuron, the sum of w * spike over
    every synapse of the reference table, over all branches, as
    ``step_sum`` takes it. values[i] holds the int16 [m, n_in] wire values of
    branch i; their spikes are read from ``stem.encode_planes``. Returns
    int64 [len(steps), m, n_out]."""
    lyr = qnet.layer(pop.name)
    tables = [[a.tolist() for a in _synapse_table(lyr, shape)]
              for shape in _in_shapes(qnet, pop.name)]
    trains = [encode_planes(v, k, signed=True)[..., steps.start:steps.stop] for v in values]
    m = values[0].shape[0]
    out = np.zeros((len(steps), m, pop.n_out), dtype=np.int64)
    for s in range(m):
        for j in range(len(steps)):
            branches = [train[s, :, j].tolist() + [0] for train in trains]   # + silent slot
            for o in range(pop.n_out):
                out[j, s, o] = sum(sum(wf * bits[i] for wf, i in zip(w[o], idx[o]))
                                   for bits, (idx, w) in zip(branches, tables))
    return out


def _random_values(rng, k: int, m: int, shape) -> np.ndarray:
    """int16 [m, prod(shape)] values drawn over the whole signed K-step wire
    range, so that every step's bits are random."""
    return rng.integers(-(1 << (k - 1)), 1 << (k - 1), size=(m, math.prod(shape)),
                        dtype=np.int16)


def _pop(qnet, name) -> Population:
    return next(p for p in compile_network(qnet).populations if p.name == name)


class TestGatherTables:
    def test_conv_table_vs_synapse_walk(self, cnn_bundle, rng):
        pop = _pop(cnn_bundle.qnet, "conv2")
        values = _random_values(rng, 8, 2, _in_shapes(cnn_bundle.qnet, "conv2")[0])
        got = pop.step_sum([values], range(2, 3))
        assert np.array_equal(got, _synapse_walk(cnn_bundle.qnet, pop, [values], 8, range(2, 3)))

    def test_padded_conv_edges_stay_silent(self, cnn_bundle):
        pop, lyr = _pop(cnn_bundle.qnet, "conv1"), cnn_bundle.qnet.layer("conv1")
        idx, _, n_in_padded, _ = _build_table("conv2d", lyr.attrs,
                                              _in_shapes(cnn_bundle.qnet, "conv1")[0],
                                              lyr.weights)
        silent = n_in_padded - 1
        assert (idx == silent).any()             # padding=1 creates halo slots
        assert (pop.gather_idx == silent).any()
        # all-ones spike rows (the value -1) must not pick up anything from the halo
        values = np.full((1, silent), -1, dtype=np.int16)
        got = pop.step_sum([values], range(7, 8))
        assert np.array_equal(got, _synapse_walk(cnn_bundle.qnet, pop, [values], 8, range(7, 8)))

    def test_pool_table_vs_synapse_walk(self, cnn_bundle, rng):
        pop = _pop(cnn_bundle.qnet, "pool1")
        values = _random_values(rng, 8, 3, _in_shapes(cnn_bundle.qnet, "pool1")[0])
        got = pop.step_sum([values], range(0, 1))
        assert np.array_equal(got, _synapse_walk(cnn_bundle.qnet, pop, [values], 8, range(0, 1)))
        assert pop.fanin == 4

    def test_fc_stays_dense(self, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        pop = snet.populations[0]
        assert pop.dense_w is not None
        assert pop.gather_idx is None
        assert pop.fanin == 36


def _strided_model() -> FloatModel:
    """Strided convs: padded (gathered per position) and unpadded (dense)."""
    rng = np.random.default_rng(3)

    def conv(name, src, c_in, c_out, stride, pad):
        return LayerDesc(
            name=name, kind="conv2d",
            attrs={"in_channels": c_in, "out_channels": c_out, "kernel": [3, 3],
                   "stride": stride, "padding": pad},
            inputs=[src],
            weights=rng.uniform(-0.4, 0.4, size=(c_out, c_in, 3, 3)).astype(np.float32),
            bias=rng.uniform(-0.1, 0.1, size=c_out).astype(np.float32),
            activation="relu")

    model = FloatModel(name="strided", input_shape=(2, 11, 11), layers=[
        conv("conv_s", "input", 2, 3, 2, 1),         # 3x6x6
        conv("conv_t", "conv_s", 3, 4, 2, 0),        # 4x2x2
        LayerDesc(name="flat", kind="flatten", attrs={}, inputs=["conv_t"]),
        LayerDesc(name="fc", kind="fully-connected",
                  attrs={"in_features": 16, "out_features": 5}, inputs=["flat"],
                  weights=rng.uniform(-0.4, 0.4, size=(5, 16)).astype(np.float32),
                  bias=rng.uniform(-0.1, 0.1, size=5).astype(np.float32)),
    ])
    infer_shapes(model)
    return model


def _skip_join_model() -> FloatModel:
    """conv a -> b -> c, join(a, c): a shortcut over two stages; then
    join(j, j), a join that reads one producer twice; flatten, fc."""
    rng = np.random.default_rng(4)

    def conv(name, src, c_in):
        return LayerDesc(
            name=name, kind="conv2d",
            attrs={"in_channels": c_in, "out_channels": 3, "kernel": [3, 3],
                   "stride": 1, "padding": 1},
            inputs=[src],
            weights=rng.uniform(-0.4, 0.4, size=(3, c_in, 3, 3)).astype(np.float32),
            bias=rng.uniform(-0.1, 0.1, size=3).astype(np.float32),
            activation="relu")

    model = FloatModel(name="skip-join", input_shape=(1, 6, 6), layers=[
        conv("a", "input", 1), conv("b", "a", 3), conv("c", "b", 3),
        LayerDesc(name="j", kind="residual-add", attrs={}, inputs=["a", "c"]),
        LayerDesc(name="jj", kind="residual-add", attrs={}, inputs=["j", "j"]),
        LayerDesc(name="flat", kind="flatten", attrs={}, inputs=["jj"]),
        LayerDesc(name="fc", kind="fully-connected",
                  attrs={"in_features": 108, "out_features": 6}, inputs=["flat"],
                  weights=rng.uniform(-0.3, 0.3, size=(6, 108)).astype(np.float32),
                  bias=rng.uniform(-0.1, 0.1, size=6).astype(np.float32)),
    ])
    infer_shapes(model)
    return model


def _one_layer_qnet(in_shape, kind, attrs, weights=None, **quant_kwargs):
    """A quantized network of one layer reading the input whose integer
    weights are exactly `weights`."""
    lyr = LayerDesc(name="layer", kind=kind, attrs=attrs, inputs=[INPUT_NAME])
    if weights is not None:
        lyr.weights = (weights / 127.0).astype(np.float32)
    model = FloatModel(name=kind, input_shape=in_shape, layers=[lyr])
    infer_shapes(model)
    qnet, _ = _quantized(model, n=4, **quant_kwargs)
    if weights is not None:
        qnet.layers[0].weights = weights.astype(np.int8)
    return qnet


@st.composite
def _conv_or_pool(draw):
    """(in_shape, kind, attrs, int weights or None) of a random conv or pool."""
    c = draw(st.integers(1, 3))
    if draw(st.booleans()):
        k = draw(st.sampled_from([1, 3, 5]))
        pad = draw(st.integers(0, k - 1))
        lo = max(1, k - 2 * pad)                  # at least one output position
        h, w = draw(st.integers(lo, 9)), draw(st.integers(lo, 9))
        oc = draw(st.integers(1, 3))
        weights = np.array(draw(st.lists(
            st.integers(-127, 127) | st.just(0), min_size=oc * c * k * k,
            max_size=oc * c * k * k))).reshape(oc, c, k, k)
        attrs = {"in_channels": c, "out_channels": oc, "kernel": [k, k],
                 "stride": draw(st.sampled_from([1, 2])), "padding": pad}
        return (c, h, w), "conv2d", attrs, weights
    k = draw(st.integers(1, 3))
    h, w = draw(st.integers(k, 9)), draw(st.integers(k, 9))
    return (c, h, w), "avgpool2d", {"kernel": [k, k], "stride": draw(st.integers(1, 3))}, None


# one layer of each conv form: n_in > 4 * c*kh*kw gathers patches, else dense
_LARGE_CONV = ((1, 3, 4), "conv2d", {"in_channels": 1, "out_channels": 2, "kernel": [1, 1],
                                    "stride": 2, "padding": 0}, np.array([[[[5]]], [[[0]]]]))
_SMALL_CONV = ((1, 3, 3), "conv2d", {"in_channels": 1, "out_channels": 1, "kernel": [3, 3],
                                    "stride": 1, "padding": 1},
               np.array([[[[0, -7, 0], [127, 0, -127], [1, 0, 2]]]]))


class TestRandomGeometry:
    """Random conv and pool layers: the execution form ``compile_network``
    builds from the geometry sums exactly the reference table's synapses, its
    fan-in is that of the table's busiest neuron, and each input's fan-out is
    the number of the table's synapses that read it."""

    @settings(max_examples=60)
    @example(layer=_LARGE_CONV, k=4, seed=0)
    @example(layer=_SMALL_CONV, k=16, seed=1)
    @given(layer=_conv_or_pool(), k=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
    def test_step_sum_and_fanin_match_table(self, layer, k, seed):
        in_shape, kind, attrs, weights = layer
        qnet = _one_layer_qnet(in_shape, kind, attrs, weights, k=k, acc_bits=32)
        pop = compile_network(qnet).populations[0]
        values = _random_values(np.random.default_rng(seed), k, 2, in_shape)
        got = pop.step_sum([values], range(k))
        assert np.array_equal(got, _synapse_walk(qnet, pop, [values], k, range(k)))
        idx, _, n_in_padded, fanin = _build_table(kind, attrs, in_shape, qnet.layers[0].weights)
        assert pop.fanin == fanin
        # one table row per neuron, so a conv's rows repeat per output channel
        reads = np.bincount(idx.ravel(), minlength=n_in_padded)[:-1]   # drop the silent slot
        assert [f.tolist() for f in pop.fanouts] == [reads.tolist()]

    @pytest.mark.parametrize("layer,form", [(_LARGE_CONV, "conv"), (_SMALL_CONV, "dense")],
                             ids=["large", "small"])
    def test_examples_cover_both_conv_forms(self, layer, form):
        assert compile_network(_one_layer_qnet(*layer)).populations[0].form == form

    def test_tap_silent_everywhere_carries_no_weight(self):
        """A 5x5 kernel at stride 2 and padding 4 on a one-row input: taps of
        kernel rows 1 and 3 never meet the input, so neither the large-conv
        weight rows nor the capacity check see their weights."""
        w = np.zeros((1, 1, 5, 5), dtype=np.int64)
        w[0, 0, 0] = 3
        w[0, 0, 1] = 120                        # a kernel row that is never live
        attrs = {"in_channels": 1, "out_channels": 1, "kernel": [5, 5],
                 "stride": 2, "padding": 4}
        qnet = _one_layer_qnet((1, 1, 128), "conv2d", attrs, w)
        snet = compile_network(qnet)
        pop = snet.populations[0]
        assert pop.form == "conv"
        assert not pop.conv_w[0, 5:10].any()
        assert check_capacity(snet, HardwareProfile(weight_bits=3)) == []
        values = np.full((1, 128), -1, dtype=np.int16)              # every bit set
        assert np.array_equal(pop.step_sum([values], range(snet.k)),
                              _synapse_walk(qnet, pop, [values], snet.k, range(snet.k)))

    def test_large_conv_compiles_in_small_memory(self):
        """cnn28's conv2 (16 -> 32 channels on 14x14, padding 1): its
        per-neuron table alone would take 14.5 MB."""
        attrs = {"in_channels": 16, "out_channels": 32, "kernel": [3, 3],
                 "stride": 1, "padding": 1}
        w = np.random.default_rng(28).integers(-127, 128, size=(32, 16, 3, 3))
        qnet = _one_layer_qnet((16, 14, 14), "conv2d", attrs, w)
        tracemalloc.start()
        try:
            pop = compile_network(qnet).populations[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pop.form == "conv"
        assert peak < 4 << 20


class TestKPlaneKernel:
    def _check(self, qnet, pop, rng):
        values = [_random_values(rng, 8, 2, shape) for shape in _in_shapes(qnet, pop.name)]
        got = pop.step_sum(values, range(8))
        assert got.dtype == np.int64 and got.shape == (8, 2, pop.n_out)
        assert np.array_equal(got, _synapse_walk(qnet, pop, values, 8, range(8)))

    @pytest.mark.parametrize("name,form", [
        ("conv1", "conv"), ("pool1", "pool"), ("conv2", "dense"), ("fc", "dense")])
    def test_cnn_layers_vs_synapse_walk(self, cnn_bundle, rng, name, form):
        pop = _pop(cnn_bundle.qnet, name)
        assert pop.form == form
        self._check(cnn_bundle.qnet, pop, rng)

    def test_strided_convs_vs_synapse_walk(self, rng):
        qnet, _ = _quantized(_strided_model(), n=16)
        pops = {p.name: p for p in compile_network(qnet).populations}
        assert pops["conv_s"].form == "conv"          # padded, stride 2
        assert pops["conv_t"].form == "dense"         # unpadded, stride 2
        for name in ("conv_s", "conv_t", "fc"):
            self._check(qnet, pops[name], rng)

    def test_residual_add_vs_synapse_walk(self, residual_bundle, rng):
        pops = {p.name: p for p in compile_network(residual_bundle.qnet).populations}
        assert pops["join"].form == "identity"
        for name in ("conv_a", "conv_b", "join"):
            self._check(residual_bundle.qnet, pops[name], rng)

    def test_block_equals_per_step_calls(self, cnn_bundle, rng):
        for pop in compile_network(cnn_bundle.qnet).populations:
            values = [_random_values(rng, 8, 3, _in_shapes(cnn_bundle.qnet, pop.name)[0])]
            block = pop.step_sum(values, range(8))
            assert np.array_equal(block[2:6], pop.step_sum(values, range(2, 6)))
            for t in range(8):
                assert np.array_equal(block[t:t + 1], pop.step_sum(values, range(t, t + 1)))

    @pytest.mark.parametrize("k", range(2, 17))
    def test_planes_are_the_trains(self, k, rng):
        """Plane j of ``_planes(values, k, steps, dtype)`` is step steps[j] of
        the values' trains, for every dtype a form unpacks in, a signed or
        unsigned wire, wire values [m, n] or gathered taps [m, F, n_pos], and
        every step range a population can read."""
        for signed, shape in itertools.product([True, False], [(4, 12), (2, 3, 7)]):
            lo, hi = (-(1 << (k - 1)) if signed else 0), (1 << (k - 1)) - 1
            edges = [lo, lo + 1, 0, 1, hi - 1, hi] + ([-1] if signed else [])
            values = rng.integers(lo, hi + 1, size=shape)
            values.flat[:len(edges)] = edges
            values = values.astype(np.int16)
            want = np.moveaxis(encode_planes(values, k, signed), -1, 0)     # [K, *shape]
            for dtype in (np.uint8, np.int16, np.int64, np.float32, np.float64):
                for steps in (range(k), range(1, k), range(1, k - 1), range(k - 1, k)):
                    planes = _planes(values, k, steps, dtype)
                    assert planes.dtype == dtype and planes.shape == (len(steps),) + shape
                    assert np.array_equal(planes, want[steps.start:steps.stop]), (signed, steps)

    def test_pool_beyond_int16_counts_matches_hw(self):
        """A 182x182 avgpool has F = 33,124 taps, more spikes than int16
        holds, so it counts its tap planes in int64; at both ends of the
        wire range and on random inputs it gives the oracle's values."""
        qnet = _one_layer_qnet((1, 182, 182), "avgpool2d", {"kernel": [182, 182]},
                               k=4, acc_bits=32)
        snet = compile_network(qnet)
        pop, f = snet.populations[0], 182 * 182
        assert pop.form == "pool" and pop.fanin == f > 1 << 15
        x = np.stack([np.full((1, 182, 182), 7), np.full((1, 182, 182), -8),
                      np.random.default_rng(182).integers(-8, 8, size=(1, 182, 182))])
        sums = pop.step_sum([x[:2].reshape(2, -1).astype(np.int16)], range(4))
        assert sums[:, 0, 0].tolist() == [0, f, f, f]           # 7 = 0111
        assert sums[:, 1, 0].tolist() == [f, 0, 0, 0]           # -8 = 1000
        want, _ = int_forward(qnet, x, mode="hw")
        assert np.array_equal(run_batch(snet, x).outputs, want)

    def test_wide_fanin_at_max_weights_exact(self, widefan_bundle):
        snet = compile_network(widefan_bundle.qnet)
        pop, w = snet.populations[0], widefan_bundle.qnet.layers[0].weights.astype(np.int64)
        assert int(np.abs(w).min()) == 127                 # every weight at max
        assert np.array_equal(pop.dense_w, w)
        assert pop.m0_table is None                        # sum|w| = 65,024: too wide
        values = np.full((2, 512), -1, dtype=np.int16)     # every input spikes at every step
        got = pop.step_sum([values], range(8))
        want = np.sign(w[:, 0]) * 512 * 127
        assert np.array_equal(got, np.broadcast_to(want, got.shape))
        x = widefan_bundle.x_int
        ref, _ = int_forward(widefan_bundle.qnet, x, mode="hw")
        assert np.array_equal(run_batch(snet, x).outputs, ref)
        assert np.array_equal(run_pipeline(snet, x[:6]).outputs, ref[:6])

    def test_one_step_sum_per_population(self, cnn_bundle, monkeypatch):
        snet = compile_network(cnn_bundle.qnet)
        calls = []
        original = netsim._population_step

        def counting(pop, *args):
            calls.append(pop.name)
            return original(pop, *args)

        monkeypatch.setattr(netsim, "_population_step", counting)
        run_batch(snet, cnn_bundle.x_int[:5])
        assert calls == [p.name for p in snet.populations]

    def test_weight_sum_at_2_pow_53_rejected(self, mlp_bundle):
        q = copy.deepcopy(mlp_bundle.qnet)
        w = np.zeros(q.layers[1].weights.shape, dtype=np.int64)
        w[3, 0] = (1 << 53) - 1
        q.layers[1].weights = w
        compile_network(q)                             # just below: accepted
        w[3, 1] = 1
        with pytest.raises(ValueError, match="2\\^53"):
            compile_network(q)


# Reference pipeline driver: the clock advances one K-step block at a time,
# each active stage integrates its one sample over all K planes with the
# step-by-step saturating scan, and trains are really buffered (as the values
# they carry). ``run_pipeline`` counts its timing from the stage numbers and
# must agree with it on every field; it skips silent steps and sums where the
# accumulator cannot clamp, and the reference does neither.


def _scan_u(pop, sums, acc_bits) -> tuple[np.ndarray, int]:
    """(U, saturations) of step sums [steps, N, n_out] integrated one step
    at a time in the saturating accumulator, whether or not pop is
    clamp-free, then a product-scheme bias added the same way."""
    u = np.zeros(sums.shape[1:], dtype=np.int64)
    saturations = 0
    adds = [apply(pop.m0, step_sums) for step_sums in sums]
    if pop.bias_pre_scaled is not None:
        adds.append(pop.bias_pre_scaled[None, :])
    for add in adds:
        u, events = saturate_array(u + add, acc_bits)
        saturations += events
    return u, saturations


def _scan(pop, sums, acc_bits) -> tuple[np.ndarray, int]:
    """(V, saturations): ``_scan_u``'s U rescaled by M1, an output-scheme
    bias added and the result clamped to the range of pop's wire, [-q_max,
    q_max] if it is signed, else [0, q_max]."""
    u, saturations = _scan_u(pop, sums, acc_bits)
    v = apply(pop.m1, u) + (0 if pop.bias_post is None else pop.bias_post)
    q_max = (1 << (pop.phi.size - 1)) - 1
    return np.clip(v, -q_max if pop.signed else 0, q_max), saturations


def run_pipeline_per_block(snet, x_int, wires=None) -> PipelineResult:
    """Stream a batch through the staged network on one global clock.

    Stage l integrates sample s during block l-1+s, global steps
    [(l-1+s)K, (l+s)K); the output train of the last stage is itself
    transmitted during the following block, so S samples complete in exactly
    K*(n_stages + S) steps. The clock advances a block at a time: every train
    a stage reads in block b was emitted by the end of block b-1. Emitted
    trains are buffered until every consumer (a shortcut's join may lag) has
    read them; the buffer peak is taken at each block's end, the only step at
    which trains are emitted or released. With `wires`, a dict, each
    population's emitted values [N, n_out] and saturation count are stored in
    it as a pair under its name.
    """
    k = snet.k
    xb = np.asarray(x_int).reshape(len(x_int), -1)
    n_samples = xb.shape[0]
    n_stages = snet.n_stages
    input_values = xb.astype(np.int16)

    consumers: dict[str, int] = {INPUT_NAME: 0}
    for pop in snet.populations:
        consumers[pop.name] = 0
        for src in pop.inputs:
            consumers[src] += 1
    consumers[snet.output.name] += 1            # the external reader

    out_pop = snet.output
    reader_stage = out_pop.stage + 1            # decodes the final train

    emitted: dict[tuple[str, int], np.ndarray] = {}
    reads: dict[tuple[str, int], int] = {}
    out_acc = np.zeros((n_samples, out_pop.n_out), dtype=np.int64)
    peak = 0
    last_active = -1
    saturations = 0
    values = {p.name: np.zeros((n_samples, p.n_out), dtype=np.int16) for p in snet.populations}
    pop_saturations = dict.fromkeys(values, 0)

    def fetch(src: str, s: int) -> np.ndarray:
        if src == INPUT_NAME:
            return input_values[s]
        return emitted[(src, s)]

    def release(src: str, s: int) -> None:
        if src == INPUT_NAME:
            return
        key = (src, s)
        reads[key] = reads.get(key, 0) + 1
        if reads[key] == consumers[src]:
            del emitted[key]

    for block in range(n_stages + n_samples):
        for pop in snet.populations:
            s = block - (pop.stage - 1)
            if not 0 <= s < n_samples:
                continue
            last_active = block
            # each branch's step sums weighted by its own wire's step weights
            sums = sum(step_weights(k, src == INPUT_NAME)[:, None, None]
                       * pop.step_sum([fetch(src, s)[None]], range(k)) for src in pop.inputs)
            v, sat = _scan(pop, sums, snet.acc_bits)
            saturations += sat
            pop_saturations[pop.name] += sat
            emitted[(pop.name, s)] = values[pop.name][s] = pop.emit(
                v, snet.plan.for_layer(pop.name))[0]
            for src in pop.inputs:
                release(src, s)
        s_out = block - (reader_stage - 1)
        if 0 <= s_out < n_samples:
            last_active = block
            out_acc[s_out] = fetch(out_pop.name, s_out)
            release(out_pop.name, s_out)
        peak = max(peak, len(emitted))

    if emitted:
        raise RuntimeError("pipeline finished with undrained state")
    if wires is not None:
        wires.update({name: (values[name], pop_saturations[name]) for name in values})
    timing = PipelineTiming(total_steps=k * (last_active + 1), buffered_train_peak=peak)
    return PipelineResult(
        outputs=out_acc,
        timing=timing,
        saturations=saturations,
    )


class TestPipeline:
    @pytest.mark.parametrize("depth,k,n_samples", [(2, 8, 1), (2, 8, 5), (4, 8, 16)])
    def test_total_steps_formula(self, depth, k, n_samples):
        qnet, x_int = _quantized(fixtures.make_deep_mlp(depth),
                                 n=max(n_samples, 8), k=k)
        snet = compile_network(qnet)
        assert snet.n_stages == depth
        res = run_pipeline(snet, x_int[:n_samples])
        assert res.timing.total_steps == k * (depth + n_samples)
        seq = run_batch(snet, x_int[:n_samples])
        assert np.array_equal(res.outputs, seq.outputs)
        assert seq.steps_per_sample == k * (depth + 1)

    def test_residual_shortcut_buffering(self, residual_bundle):
        snet = compile_network(residual_bundle.qnet)
        res = run_pipeline(snet, residual_bundle.x_int)
        seq = run_batch(snet, residual_bundle.x_int)
        assert np.array_equal(res.outputs, seq.outputs)
        # the shortcut train outlives one block, so something must buffer
        assert res.timing.buffered_train_peak >= 2
        assert {p.name: p.stage for p in snet.populations} == {
            "conv_a": 1, "conv_b": 2, "join": 3, "fc": 4}

    def test_cnn_stages(self, cnn_bundle):
        snet = compile_network(cnn_bundle.qnet)
        assert snet.n_stages == 5            # flatten is transparent
        res = run_pipeline(snet, cnn_bundle.x_int[:12])
        seq = run_batch(snet, cnn_bundle.x_int[:12])
        assert np.array_equal(res.outputs, seq.outputs)
        assert res.timing.total_steps == 8 * (5 + 12)

    @pytest.mark.parametrize("plan", [
        SparsityPlan.identity(),
        SparsityPlan({"conv1": LayerSparsity(1, 1), "pool1": LayerSparsity(0, 2),
                      "conv2": LayerSparsity(2, 0)}),
    ])
    def test_cnn_pipeline_equals_batch(self, cnn_bundle, plan):
        snet = compile_network(cnn_bundle.qnet, plan=plan)
        x = cnn_bundle.x_int
        res = run_pipeline(snet, x)
        assert np.array_equal(res.outputs, run_batch(snet, x).outputs)
        assert res.timing.total_steps == 8 * (snet.n_stages + x.shape[0])

    def test_residual_buffer_peak_exact(self, residual_bundle):
        # the join reads conv_a's train two blocks after its emission, so at a
        # block's end two conv_a trains and one each of conv_b, join and fc wait
        res = run_pipeline(compile_network(residual_bundle.qnet), residual_bundle.x_int)
        assert res.timing.buffered_train_peak == 5

    def test_sparsified_pipeline_agrees(self, mlp_bundle):
        plan = SparsityPlan({"fc1": LayerSparsity(1, 2), "fc2": LayerSparsity(0, 1)})
        snet = compile_network(mlp_bundle.qnet, plan=plan)
        res = run_pipeline(snet, mlp_bundle.x_int[:10])
        seq = run_batch(snet, mlp_bundle.x_int[:10])
        assert np.array_equal(res.outputs, seq.outputs)


class TestPipelineWindow:
    """The windowed driver against the block-at-a-time reference."""

    ROT_DRLO = SparsityPlan({"conv1": LayerSparsity(1, 1), "pool1": LayerSparsity(0, 2),
                             "conv2": LayerSparsity(2, 0)})

    @pytest.fixture(scope="class")
    def deep4(self):
        return _quantized(fixtures.make_deep_mlp(4), n=16)

    @pytest.fixture(scope="class")
    def skip_join(self):
        return _quantized(_skip_join_model(), n=30)

    @pytest.fixture(params=[("deep-mlp4", 16), ("deep-mlp4", 1), ("deep-mlp4", 3),
                            ("residual", 80), ("residual", 2),
                            ("cnn-rot-drlo", 12), ("cnn-rot-drlo", 1),
                            ("skip-join", 1), ("skip-join", 3), ("skip-join", 30)],
                    ids=lambda p: f"{p[0]}-S{p[1]}")
    def case(self, request, deep4, skip_join, residual_bundle, cnn_bundle):
        """(compiled network, samples): S=1 and S < stages included."""
        name, n = request.param
        qnet, x, plan = {
            "deep-mlp4": (*deep4, None),
            "skip-join": (*skip_join, None),
            "residual": (residual_bundle.qnet, residual_bundle.x_int, None),
            "cnn-rot-drlo": (cnn_bundle.qnet, cnn_bundle.x_int, self.ROT_DRLO),
        }[name]
        return compile_network(qnet, plan=plan), x[:n]

    @pytest.mark.parametrize("window", ["1", "2", "non-divisor", "whole-stream"])
    def test_matches_per_block_reference(self, case, window, monkeypatch):
        snet, x = case
        n = x.shape[0]
        w = {"1": 1, "2": 2,
             "non-divisor": next(w for w in range(3, n + 3) if n % w),
             "whole-stream": n}[window]
        monkeypatch.setattr(netsim, "PIPELINE_WINDOW", w)
        got = run_pipeline(snet, x)
        want = run_pipeline_per_block(snet, x)
        assert np.array_equal(got.outputs, want.outputs)
        assert got.timing == want.timing
        assert got.saturations == want.saturations

    def test_reference_peak_on_short_stream(self, deep4):
        snet = compile_network(deep4[0])
        assert snet.n_stages == 4
        res = run_pipeline_per_block(snet, deep4[1][:3])     # S < stages
        assert res.timing.total_steps == 8 * (4 + 3)
        assert res.timing.buffered_train_peak == 3

    @pytest.mark.parametrize("driver", [run_batch, run_pipeline],
                             ids=["run_batch", "run_pipeline"])
    @pytest.mark.parametrize("window", [5, 1000])
    def test_one_step_sum_per_stage_and_window(self, residual_bundle, window, driver,
                                               monkeypatch):
        snet = compile_network(residual_bundle.qnet)
        x = residual_bundle.x_int
        calls = []
        original = netsim._population_step

        def counting(pop, trains, *args):
            calls.append((pop.name, trains[0].shape[0]))
            return original(pop, trains, *args)

        monkeypatch.setattr(netsim, "_population_step", counting)
        monkeypatch.setattr(netsim, "PIPELINE_WINDOW", window)
        driver(snet, x)
        assert max(n for _, n in calls) <= window        # memory bounded by W
        for pop in snet.populations:
            mine = [n for name, n in calls if name == pop.name]
            assert sum(mine) == x.shape[0]                # each sample once
            assert len(mine) == -(-x.shape[0] // window)  # one call per window

    def test_memory_bounded_by_window(self, widefan_bundle):
        # a dense form unpacks its input planes in its weights' dtype, 4*K
        # bytes per input neuron and sample here: 512 inputs make that the
        # largest temporary, held to BLOCK_BYTES by its sample blocks
        snet = compile_network(widefan_bundle.qnet)
        x = np.tile(widefan_bundle.x_int, (50, 1))               # 2000 samples
        peaks = []
        for n in (netsim.PIPELINE_WINDOW, x.shape[0]):
            tracemalloc.start()
            run_batch(snet, x[:n])
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        # only the int64 [N, n_out] outputs that run_batch returns grow with N
        outputs = (x.shape[0] - netsim.PIPELINE_WINDOW) * snet.output.n_out * 8
        assert peaks[1] - outputs < 1.1 * peaks[0]
        assert peaks[1] < 4 * 2**20


class TestSaturationParity:
    def test_forced_overflow_identical_in_both_routes(self, widefan_bundle):
        q = copy.deepcopy(widefan_bundle.qnet)
        lyr = q.layers[0]
        lyr.m0 = from_real(1.0)       # drop overflow protection entirely
        lyr.m1 = lyr.m_hat            # product still equals m_hat exactly
        q.validate()
        x = widefan_bundle.x_int
        want, layers = int_forward(q, x, mode="hw")
        oracle_sat = sum(a.saturations for a in layers.values())
        assert oracle_sat > 0
        snet = compile_network(q)
        got = run_batch(snet, x)
        assert np.array_equal(got.outputs, want)
        assert sum(t.saturations for t in got.traces) == oracle_sat
        pipe = run_pipeline(snet, x)
        assert np.array_equal(pipe.outputs, want)
        assert pipe.saturations == oracle_sat

    def test_pipeline_saturations_equal_batch_on_residual(self, residual_bundle):
        q = copy.deepcopy(residual_bundle.qnet)
        lyr = next(l for l in q.layers if l.name == "conv_b")
        lyr.m0 = from_real(1.0)       # unprotected: the join's input saturates
        lyr.m1 = lyr.m_hat
        q.validate()
        snet = compile_network(q)
        x = residual_bundle.x_int
        batch = run_batch(snet, x)
        want = sum(t.saturations for t in batch.traces)
        assert want > 0
        pipe = run_pipeline(snet, x)
        assert np.array_equal(pipe.outputs, batch.outputs)
        assert pipe.saturations == want

    def test_block_scan_equals_per_step_integrate(self, widefan_bundle):
        # the block's saturating scan against integrating step by step
        snet = compile_network(_unprotected(widefan_bundle.qnet, "fc"))
        pop, x, k = snet.populations[0], widefan_bundle.x_int, snet.k
        assert not pop.clamp_free
        sums = pop.step_sum([x.astype(np.int16)], range(k))
        v, saturations = _integrate_block(pop, sums, range(k), snet.acc_bits)
        want, want_saturations = _scan(pop, pop.phi[:, None, None] * sums, snet.acc_bits)
        assert saturations == want_saturations > 0
        assert np.array_equal(v, want)

    def test_calibrated_network_does_not_saturate(self, widefan_bundle):
        snet = compile_network(widefan_bundle.qnet)
        got = run_batch(snet, widefan_bundle.x_int)
        assert sum(t.saturations for t in got.traces) == 0


def _neuron(m0=1.0, m1=1.0, bias_pre=None, bias_post=None, clamp_free=False,
            signed=False, phi=None) -> Population:
    """A hand-built one-neuron population with one synapse of weight 3 and no
    M0 table. Its K=8 steps each weigh 1 unless `phi` is given, so a step sum
    is that step's input to the M0 rounding; V is clipped to [-127, 127] if
    it is `signed`, else to [0, 127]."""
    return Population(
        name="n", kind="fully-connected", inputs=[INPUT_NAME],
        phi=np.ones(8, dtype=np.int64) if phi is None else phi, n_out=1,
        fanin=1, fanouts=[np.ones(1, dtype=np.int64)], form="dense",
        dense_w=np.array([[3.0]], dtype=np.float32), gather_idx=None, conv_w=None,
        m0=from_real(m0), m1=from_real(m1), m0_table=None,
        bias_pre_scaled=None if bias_pre is None else np.array([bias_pre]),
        bias_post=None if bias_post is None else np.array([bias_post]),
        clamp_free=clamp_free, stage=1, signed=signed)


def _steps(*values) -> np.ndarray:
    """One sample's step sums [steps, 1, 1]."""
    return np.array(values, dtype=np.int64).reshape(-1, 1, 1)


def _integrated(pop, sums, acc_bits) -> tuple[list, int]:
    """``_integrate_block``'s (V as a list, saturation count) of step sums
    at the last steps of pop's K, checked to be the same with the increments
    read from an M0 table that covers them."""
    steps = range(pop.phi.size - sums.shape[0], pop.phi.size)
    v, saturations = _integrate_block(pop, sums, steps, acc_bits)
    tabled = copy.copy(pop)
    tabled.m0_table = netsim._m0_table(pop.m0, pop.phi, int(np.abs(sums).max()))
    assert tabled.m0_table is not None
    table_v, table_saturations = _integrate_block(tabled, sums, steps, acc_bits)
    assert np.array_equal(table_v, v) and table_saturations == saturations
    return v.tolist(), saturations


class TestIntegrateBlock:
    """Worked values of one neuron's U and V through ``_integrate_block``,
    on the saturating scan and, where nothing clamps, on the plain sum."""

    def test_accumulate_single_synapse(self):
        # the weight-3 synapse spiking at the phi=4 step (step 5 of K=8) adds 12
        pop = _neuron(phi=step_weights(8, signed=True))
        sums = pop.step_sum([np.array([[4]], dtype=np.int16)], range(5, 6))
        assert sums.tolist() == [[[3]]]
        v, saturations = _integrate_block(pop, sums, range(5, 6), 16)
        assert (v.tolist(), saturations) == ([[12]], 0)

    @pytest.mark.parametrize("clamp_free", [False, True])
    def test_finalize_worked_value(self, clamp_free):
        # M1 = 2 on U = 41, plus an output-scheme bias of 1
        pop = _neuron(m1=2.0, bias_post=1, clamp_free=clamp_free)
        assert _integrated(pop, _steps(41), 16) == ([[83]], 0)

    def test_finalize_clamps(self):
        sums = np.concatenate([_steps(300), _steps(-5)], axis=1)
        assert _integrated(_neuron(), sums, 16) == ([[127], [0]], 0)
        assert _integrated(_neuron(signed=True), sums, 16) == ([[127], [-5]], 0)

    @pytest.mark.parametrize("signed,want", [(False, [[7], [0]]), (True, [[7], [-7]])])
    def test_finalize_clamps_to_the_wire_of_k(self, signed, want):
        # at K=4, q_max = 7: a signed wire clips to [-7, 7], a hidden one to [0, 7]
        pop = _neuron(signed=signed, phi=np.ones(4, dtype=np.int64))
        sums = np.concatenate([_steps(300), _steps(-300)], axis=1)
        assert _integrated(pop, sums, 16) == (want, 0)

    def test_integrate_saturates_and_counts(self):
        # an 8-bit U: 100 + 100 clamps at 127, then 127 - 300 at -128
        pop = _neuron(signed=True)
        assert _integrated(pop, _steps(100, 100), 8) == ([[127]], 1)
        assert _integrated(pop, _steps(100, 100, -300), 8) == ([[-127]], 2)

    def test_bias_add_saturates(self):
        # a product-scheme bias is a saturating add where U may clamp
        pop = _neuron(bias_pre=50)
        assert _integrated(pop, _steps(120), 8) == ([[127]], 1)

    def test_clamp_free_bias_is_a_plain_add(self, monkeypatch):
        # where compile_network proves U cannot clamp, bias included, the
        # bias is added in place, with no saturating scan
        def no_scan(*args):
            raise AssertionError("saturate_array called on a clamp-free population")

        monkeypatch.setattr(netsim, "saturate_array", no_scan)
        pop = _neuron(bias_pre=50, clamp_free=True)
        assert _integrated(pop, _steps(60), 8) == ([[110]], 0)
        assert _integrated(pop, _steps(-60), 8) == ([[0]], 0)

    @pytest.mark.parametrize("clamp_free", [False, True])
    def test_scaled_integration(self, clamp_free):
        # U accumulates round(M0 * I_t) per step: round(3.5) = 4, round(-3.5) = -4
        pop = _neuron(m0=0.5, clamp_free=clamp_free, signed=True)
        assert _integrated(pop, _steps(7, -7), 16) == ([[0]], 0)
        assert _integrated(pop, _steps(7), 16) == ([[4]], 0)


def _sum_bound(lyr) -> int:
    """The largest |step sum| of one neuron of `lyr`: its largest sum|w|, a
    pool's tap count, a join's branch count."""
    if lyr.kind == "avgpool2d":
        return math.prod(lyr.attrs["kernel"])
    if lyr.kind == "residual-add":
        return len(lyr.inputs)
    return int(np.abs(lyr.weights.astype(np.int64)).reshape(lyr.weights.shape[0], -1)
               .sum(axis=1).max())


def _conv_wide_fc_model() -> FloatModel:
    """A gathered conv (2 -> 2 channels on 16x16) feeding a fully-connected
    layer of make_wide_fanin's size: 512 inputs, every weight at the
    maximum, so its step sums reach 65,024."""
    rng = np.random.default_rng(31)
    model = FloatModel(name="conv-wide-fc", input_shape=(2, 16, 16), layers=[
        fixtures._conv("conv", "input", 2, 2, rng, 0.4),
        LayerDesc(name="flat", kind="flatten", attrs={}, inputs=["conv"]),
        make_wide_fanin().layers[0],
    ])
    model.layers[-1].inputs = ["flat"]
    infer_shapes(model)
    return model


class TestM0Table:
    """A population whose table of rounded increments fits BLOCK_BYTES reads
    them from it; any other rounds with ``apply``. Both give the integers of
    the oracle."""

    @pytest.mark.parametrize("k,acc_bits", [(8, 16), (4, 10), (8, 48)])
    @pytest.mark.parametrize("fixture", sorted(fixtures.FIXTURES))
    def test_every_entry_is_the_rounded_increment(self, fixture, k, acc_bits):
        builder, lo, hi = fixtures.FIXTURES[fixture]
        qnet, _ = _quantized(builder(), lo=lo, hi=hi, k=k, acc_bits=acc_bits)
        dtypes = [np.int16, np.int32, np.int64]
        tabulated = []
        for pop in compile_network(qnet).populations:
            bound = _sum_bound(qnet.layer(pop.name))
            steps = range(k) if pop.phi[0] < 0 else range(1, k)     # the readable ones
            top = abs(apply(pop.m0, int(abs(pop.phi[steps.start])) * bound))
            dtype = next(d for d in dtypes if top <= np.iinfo(d).max)
            fits = len(steps) * (2 * bound + 1) * np.dtype(dtype).itemsize <= netsim.BLOCK_BYTES
            assert (pop.m0_table is not None) == fits, pop.name
            if pop.m0_table is None:
                continue
            table = pop.m0_table
            tabulated.append(table.dtype)
            assert table.shape == (len(steps), 2 * bound + 1) and table.dtype == dtype, pop.name
            for row, t in zip(table.tolist(), steps):
                want = [apply(pop.m0, int(pop.phi[t]) * s) for s in range(-bound, bound + 1)]
                assert row[-bound:] + row[:bound + 1] == want, (pop.name, t)
        assert tabulated
        if acc_bits == 48:                            # M0 near 2^22: the widest rows
            assert set(tabulated) == {np.dtype(np.int64)}

    @pytest.mark.parametrize("k,acc_bits", [(8, 16), (12, 32)])
    def test_tabulated_and_untabulated_match_hw(self, k, acc_bits):
        """On full-range inputs, the tabulated conv and the untabulated fc
        give the oracle's values and saturations on every wire."""
        qnet, _ = _quantized(_conv_wide_fc_model(), k=k, acc_bits=acc_bits)
        snet = compile_network(qnet, plan=SparsityPlan.identity())
        assert [(p.form, p.m0_table is not None) for p in snet.populations] == [
            ("conv", True), ("dense", False)]
        rng = np.random.default_rng(k)
        x = rng.integers(-(1 << (k - 1)), 1 << (k - 1), size=(60, 2, 16, 16))
        x[::3] = rng.choice([-(1 << (k - 1)), 0, qnet.q_max], size=x[::3].shape)
        run = CachedRun(snet, x)
        want, layers = int_forward(qnet, x, mode="hw")
        assert np.array_equal(run.outputs, want)
        for pop in snet.populations:
            assert np.array_equal(run.values[pop.name],
                                  layers[pop.name].post.reshape(x.shape[0], -1)), pop.name
            assert run.saturations[pop.name] == layers[pop.name].saturations, pop.name

    @settings(max_examples=12)
    @given(rot=st.integers(0, 3), drlo=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
    def test_tabulated_and_untabulated_match_reference(self, rot, drlo, seed):
        """Under a random plan, every wire's values and saturations equal the
        all-K-plane reference, which rounds every step with ``apply``."""
        qnet, _ = _quantized(_conv_wide_fc_model(), k=8, acc_bits=16)
        snet = compile_network(qnet, plan=SparsityPlan({"conv": LayerSparsity(rot, drlo)}))
        x = np.random.default_rng(seed).integers(-128, 128, size=(12, 2, 16, 16))
        run = CachedRun(snet, x)
        wires = {}
        run_pipeline_per_block(snet, x, wires)
        for pop in snet.populations:
            values, saturations = wires[pop.name]
            assert np.array_equal(run.values[pop.name], values), pop.name
            assert run.saturations[pop.name] == saturations, pop.name

    def test_hand_set_m0_scans_table_increments(self, residual_bundle):
        """With M0 = 1, the tabulated conv_b is not clamp-free: its
        saturating scan adds table increments, clamps, and counts the
        oracle's saturations."""
        qnet = _unprotected(residual_bundle.qnet, "conv_b")
        snet = compile_network(qnet)
        conv_b = next(p for p in snet.populations if p.name == "conv_b")
        assert conv_b.m0_table is not None and not conv_b.clamp_free
        x = residual_bundle.x_int
        run = CachedRun(snet, x)
        want, layers = int_forward(qnet, x, mode="hw")
        assert np.array_equal(run.outputs, want)
        assert run.saturations["conv_b"] == layers["conv_b"].saturations > 0
        for pop in snet.populations:
            assert run.saturations[pop.name] == layers[pop.name].saturations, pop.name


@pytest.fixture(scope="session")
def at_k():
    """at_k(name, k): (qnet, 8 inputs) of fixture `name` quantized at train
    length K, with a 16-bit accumulator (32-bit at K=16), built once per
    session."""
    built = {}

    def build(name: str, k: int):
        if (name, k) not in built:
            builder, lo, hi = fixtures.FIXTURES[name]
            built[name, k] = _quantized(builder(), n=8, lo=lo, hi=hi, k=k,
                                        acc_bits=32 if k == 16 else 16)
        return built[name, k]

    return build


def _assert_same_run(run: CachedRun, want: CachedRun):
    """Every value, count, saturation, output and trace of two runs agree."""
    assert run.values.keys() == want.values.keys()
    for wire, values in want.values.items():
        assert np.array_equal(run.values[wire], values), wire
        assert np.array_equal(run.counts[wire], want.counts[wire]), wire
    assert run.saturations == want.saturations
    assert np.array_equal(run.outputs, want.outputs)
    assert run.layer_traces == want.layer_traces


@pytest.mark.parametrize("bundle", ["mlp_bundle", "cnn_bundle", "residual_bundle",
                                    "bias_bundle", "deep_mlp_bundle", "widefan_bundle"])
def test_populations_read_signedness_from_modelio(bundle, request):
    """A population's phi carries the sign weight exactly when one of its
    branches is signed, and its own wire is signed (so ``_integrate_block``
    clips its V to [-q_max, q_max], not [0, q_max]) exactly when
    ``signed_wires`` says so."""
    qnet = request.getfixturevalue(bundle).qnet
    signed = signed_wires(qnet)
    for pop in compile_network(qnet).populations:
        reads_signed = any(signed[s] for s in qnet.layer(pop.name).inputs)
        assert (pop.phi[0] < 0) == reads_signed, pop.name
        assert pop.signed == signed[pop.name], pop.name


class TestLiveSteps:
    """A population reads only the steps its producers can spike in: not
    step 0 of a hidden wire, nor the last c steps of one cut by drlo c."""

    @pytest.mark.parametrize("fixture,k,plan,want", [
        ("residual", 8, {"conv_a": (0, 1), "conv_b": (2, 3)},
         {"conv_a": range(8), "conv_b": range(1, 7), "join": range(1, 7), "fc": range(1, 8)}),
        ("mlp", 8, {"fc1": (3, 0), "fc2": (0, 5)},
         {"fc1": range(8), "fc2": range(1, 8), "fc3": range(1, 3)}),
        ("mlp", 4, {"fc1": (0, 3), "fc2": (1, 5)},
         {"fc1": range(4), "fc2": range(1, 1), "fc3": range(1, 1)}),
        ("mlp", 2, {"fc1": (0, 1)}, {"fc1": range(2), "fc2": range(1, 1), "fc3": range(1, 2)}),
    ], ids=["join-cuts-differ", "rot-cuts-none", "k4-none-live", "k2-none-live"])
    def test_live_ranges(self, at_k, fixture, k, plan, want):
        qnet, _ = at_k(fixture, k)
        snet = compile_network(qnet, plan=SparsityPlan(
            {name: LayerSparsity(*rd) for name, rd in plan.items()}))
        assert {p.name: _live_steps(snet, p) for p in snet.populations} == want

    @settings(max_examples=100)
    @example(fixture="residual", k=8, settings_=[(0, 1), (2, 3), (0, 0)], unprotect=None)
    @example(fixture="residual", k=8, settings_=[(1, 2), (0, 5), (3, 1)], unprotect=1)
    @example(fixture="mlp", k=4, settings_=[(0, 3), (1, 5)], unprotect=1)
    @example(fixture="cnn", k=2, settings_=[(0, 1), (0, 0), (2, 3), (0, 2)], unprotect=None)
    @example(fixture="bias-stress", k=16, settings_=[(3, 17)], unprotect=0)
    @given(fixture=st.sampled_from(sorted(fixtures.FIXTURES)),
           k=st.sampled_from([2, 4, 8, 16]),
           settings_=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 17)),
                              min_size=5, max_size=5),
           unprotect=st.sampled_from([None, 0, 1]))
    def test_cached_run_equals_every_step_reference(self, at_k, fixture, k, settings_,
                                                    unprotect):
        """Under a random plan (drlo taken mod K+2, so 0 to K+1) and,
        optionally, one layer's overflow protection dropped, every wire's
        values and counts and every population's saturations and trace equal
        the per-block reference, which reads all K planes and scans every
        step."""
        qnet, x = at_k(fixture, k)
        layers = [lyr.name for lyr in qnet.layers if lyr.kind != "flatten"]
        if unprotect is not None:
            qnet = _unprotected(qnet, layers[unprotect])
        plan = SparsityPlan({name: LayerSparsity(r, d % (k + 2))
                             for name, (r, d) in zip(layers[:-1], settings_)})
        snet = compile_network(qnet, plan=plan)
        run = CachedRun(snet, x)
        wires = {}
        ref = run_pipeline_per_block(snet, x, wires)
        assert np.array_equal(run.outputs, ref.outputs)
        counts = {INPUT_NAME: encode_planes(x.reshape(x.shape[0], -1), k, True).sum(axis=(0, 2))}
        for pop in snet.populations:
            values, saturations = wires[pop.name]
            assert np.array_equal(run.values[pop.name], values), pop.name
            assert run.saturations[pop.name] == saturations, pop.name
            counts[pop.name] = encode_planes(values, k, True).sum(axis=(0, 2))
        for name, c in counts.items():
            assert np.array_equal(run.counts[name], c), name
        for pop, trace in zip(snet.populations, run.layer_traces):
            ins = [counts[s] for s in pop.inputs]
            assert trace == netsim.LayerTrace(
                name=pop.name, kind=pop.kind,
                sops=sum(metrics.count_sops(c, fo) for c, fo in zip(ins, pop.fanouts)),
                spikes_in=sum(int(c.sum()) for c in ins),
                spikes_out=int(counts[pop.name].sum()),
                saturations=wires[pop.name][1], neurons=pop.n_out)

    @pytest.mark.parametrize("fixture", sorted(fixtures.FIXTURES))
    def test_rerun_with_no_live_steps(self, at_k, fixture):
        """A rerun that cuts K-1 or more steps leaves its single-branch
        readers no live step, and equals a fresh run under the plan."""
        k = 4
        qnet, x = at_k(fixture, k)
        snet = compile_network(qnet, plan=SparsityPlan.identity())
        cache = CachedRun(snet, x)
        for pop in snet.populations[:-1]:
            readers = [q for q in snet.populations if q.inputs == [pop.name]]
            for cut in (k - 1, k, k + 1):
                setting = LayerSparsity(1, cut)
                run = cache.rerun(pop.name, setting)
                assert all(len(_live_steps(run.snet, q)) == 0 for q in readers)
                _assert_same_run(run, CachedRun(
                    dataclasses.replace(snet, plan=snet.plan.replaced(pop.name, setting)), x))


class TestClampFree:
    """A population is clamp-free when value(M0) * prefix_bound + (K+1)/2
    fits the accumulator; its U is then the sum of its rounded steps."""

    WIDE_FANIN = (make_wide_fanin, 0.0, 1.0)

    @pytest.mark.parametrize("k,acc_bits", [(8, 16), (12, 32), (4, 10), (16, 32)])
    @pytest.mark.parametrize("fixture", sorted(fixtures.FIXTURES) + ["wide-fanin"])
    def test_quantized_populations_are_clamp_free(self, fixture, k, acc_bits):
        builder, lo, hi = {**fixtures.FIXTURES, "wide-fanin": self.WIDE_FANIN}[fixture]
        qnet, _ = _quantized(builder(), lo=lo, hi=hi, k=k, acc_bits=acc_bits)
        assert all(p.clamp_free for p in compile_network(qnet).populations)

    @pytest.mark.parametrize("bundle,name", [("widefan_bundle", "fc"),
                                             ("residual_bundle", "conv_b")])
    def test_unprotected_population_scans(self, bundle, name, request):
        b = request.getfixturevalue(bundle)
        snet = compile_network(_unprotected(b.qnet, name))
        assert [p.name for p in snet.populations if not p.clamp_free] == [name]
        assert sum(t.saturations for t in run_batch(snet, b.x_int).traces) > 0

    @staticmethod
    def _extreme_inputs(kind, attrs, in_shape, weights, k) -> tuple[np.ndarray, list]:
        """Per neuron, the two inputs at the ends of its prefix range (q_max on
        its positive synapses and -2^(K-1) on its negative ones, and the
        reverse), int16 [2 * n_out, n_in], and the sums P that each neuron
        reaches on its own two inputs, [upper ends, lower ends]."""
        idx, w, n_padded, _ = _build_table(kind, attrs, in_shape, weights)
        q_max, x_lo = (1 << (k - 1)) - 1, -(1 << (k - 1))
        rows = np.arange(idx.shape[0])[:, None]
        ends = []
        for up, down in ((q_max, x_lo), (x_lo, q_max)):
            x = np.zeros((idx.shape[0], n_padded), dtype=np.int64)
            x[rows, idx] = np.where(w > 0, up, np.where(w < 0, down, 0))
            x[:, -1] = 0                                       # silent slot
            ends.append(x)
        sums = [(x[rows, idx] * w).sum(axis=1) for x in ends]
        x = np.concatenate(ends)[:, :-1].astype(np.int16)
        return x, sums

    @settings(max_examples=100)
    @example(layer=((1, 3, 3), "conv2d", {"in_channels": 1, "out_channels": 1, "kernel": [3, 3],
                                          "stride": 1, "padding": 0},
                    np.full((1, 1, 3, 3), 100)),
             k=8, acc_bits=16, bias=[30000], factor=Fraction(9, 8), ulps=0)
    @example(layer=_SMALL_CONV, k=4, acc_bits=10, bias=[-2000], factor=Fraction(1), ulps=1)
    @example(layer=_LARGE_CONV, k=16, acc_bits=24, bias=None, factor=Fraction(1), ulps=0)
    @given(layer=_conv_or_pool(), k=st.integers(2, 16), acc_bits=st.integers(0, 24),
           bias=st.none() | st.lists(st.integers(-(1 << 15) + 1, (1 << 15) - 1),
                                     min_size=3, max_size=3),
           factor=st.sampled_from([Fraction(n, 16) for n in (8, 16, 17, 18, 20, 24, 32)]),
           ulps=st.integers(-2, 2))
    def test_scan_never_clamps_at_the_bound(self, layer, k, acc_bits, bias, factor, ulps):
        """M0 is drawn a few units of its last place around `factor` times the
        edge of the bound, on either side. On the inputs that reach each
        neuron's prefix bound, a clamp-free population's scan counts no
        saturation and its U equals the sum of the rounded steps; every
        population's integration equals the scan."""
        in_shape, kind, attrs, weights = layer
        acc_bits = max(acc_bits, k + 2)
        qnet = _one_layer_qnet(in_shape, kind, attrs, weights, k=k, acc_bits=acc_bits)
        lyr = qnet.layers[0]
        if kind == "conv2d" and bias is not None:
            lyr.bias = np.resize(np.array(bias, dtype=np.int32), attrs["out_channels"])
            lyr.bias_scheme, lyr.bias_width = "product", 16
        x, ends = self._extreme_inputs(kind, attrs, in_shape, lyr.weights, k)
        b = 0
        if lyr.bias is not None:
            b = np.repeat(lyr.bias.astype(np.int64), x.shape[0] // 2 // len(lyr.bias))
        reach = max(int(np.abs(e).max()) for e in ends + [ends[0] + b, ends[1] + b])
        hi = (1 << (acc_bits - 1)) - 1
        if reach:                                  # M0 around the bound's edge
            edge = (hi - Fraction(k + 1, 2)) / reach * factor
            shift = 30 - math.floor(math.log2(edge))
            lyr.m0 = FixedMult(math.floor(edge * (1 << shift)) + ulps, shift)
        else:
            lyr.m0 = from_real(1.0)
        lyr.m1 = from_real(float(lyr.m_hat.value() / lyr.m0.value()))
        snet = compile_network(qnet)
        pop = snet.populations[0]
        bound = prefix_bound(lyr, lyr.weights, lyr.bias, True, k)
        assert pop.clamp_free == (lyr.m0.value() * bound + Fraction(k + 1, 2) <= hi)
        if pop.clamp_free:
            assert lyr.m0.value() * reach + Fraction(k + 1, 2) <= hi

        sums = pop.step_sum([x], range(k))
        weighted = pop.phi[:, None, None] * sums
        u, scan_saturations = _scan_u(pop, weighted, acc_bits)
        if pop.clamp_free:
            assert scan_saturations == 0
            want = apply(pop.m0, weighted).sum(axis=0)
            assert np.array_equal(u, want + (0 if pop.bias_pre_scaled is None
                                             else pop.bias_pre_scaled))
        v, saturations = _integrate_block(pop, sums, range(k), acc_bits)
        want_v, want_saturations = _scan(pop, weighted, acc_bits)
        assert saturations == want_saturations == scan_saturations
        assert np.array_equal(v, want_v)


class TestSumPrecision:
    @pytest.mark.parametrize("weight_sum,dtype", [((1 << 24) - 1, np.float32),
                                                  ((1 << 24) + 1, np.float64)],
                             ids=["2^24-1", "2^24+1"])
    def test_float32_only_below_2_pow_24(self, weight_sum, dtype):
        """127 x 132,104 synapses plus one more: a sum|w| of 2^24 - 1
        compiles to float32 and 2^24 + 1, which float32 rounds to 2^24, to
        float64; both sum all-ones planes and the signed input's -2^(K-1)
        exactly."""
        n = 132105
        w = np.full((1, n), 127, dtype=np.int64)
        w[0, -1] = weight_sum - 127 * (n - 1)
        qnet = _one_layer_qnet((n,), "fully-connected",
                               {"in_features": n, "out_features": 1}, w)
        snet = compile_network(qnet)
        pop, k = snet.populations[0], snet.k
        assert pop.dense_w.dtype == dtype
        assert pop.m0_table is None and pop.phi[0] == -(1 << (k - 1))
        ones = np.full((2, n), -1, dtype=np.int16)          # every bit set
        assert np.array_equal(pop.step_sum([ones], range(k)),
                              np.full((k, 2, 1), weight_sum))
        x = np.full((1, n), -(1 << (k - 1)), dtype=np.int16)
        sums = pop.step_sum([x], range(k))
        assert sums[0, 0, 0] == weight_sum
        assert not sums[1:].any()
        want, _ = int_forward(qnet, x, mode="hw")
        assert np.array_equal(run_batch(snet, x).outputs, want)


class TestCapacity:
    def test_default_profile_fits_fixtures(self, mlp_bundle, cnn_bundle):
        """An empty profile checks nothing; one that states each fixture's own
        widths, fan-in and neuron count is met."""
        for bundle in (mlp_bundle, cnn_bundle):
            snet = compile_network(bundle.qnet)
            assert check_capacity(snet, HardwareProfile()) == []
            own = HardwareProfile(
                acc_bits=snet.acc_bits, weight_bits=8,
                max_fanin=max(p.fanin for p in snet.populations),
                neurons_per_core=max(p.n_out for p in snet.populations),
                cores=len(snet.populations))
            assert check_capacity(snet, own) == []

    def test_rows_and_cores(self, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        fc1 = snet.populations[0]
        assert (fc1.name, fc1.n_out, fc1.fanin) == ("fc1", 24, 36)
        # fc1 takes 2 cores of 16 neurons, fc2 and fc3 one each
        assert check_capacity(snet, HardwareProfile(neurons_per_core=16, cores=3)) == [
            "network needs 4 cores, profile has 3"]
        assert check_capacity(snet, HardwareProfile(neurons_per_core=16, cores=4)) == []

    def test_fanin_violation(self, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        violations = check_capacity(snet, HardwareProfile(max_fanin=20))
        assert "fc1: fan-in 36 exceeds 20" in violations

    def test_core_budget_violation(self, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        violations = check_capacity(snet, HardwareProfile(neurons_per_core=4, cores=2))
        assert any("cores" in v for v in violations)

    def test_weight_width_violation(self, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        violations = check_capacity(snet, HardwareProfile(weight_bits=2))
        assert any("weight magnitude" in v for v in violations)

    def test_accumulator_width_violation(self, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        violations = check_capacity(snet, HardwareProfile(acc_bits=8))
        assert any("accumulator" in v for v in violations)

    @staticmethod
    def _run_args(tmp_path, bundle, qnet) -> list[str]:
        """`run` arguments for `qnet` on the first samples of `bundle`."""
        save_quantized_model(qnet, tmp_path / "q.json")
        save_dataset(tmp_path / "d.ds", bundle.ds.inputs[:8], bundle.ds.labels[:8])
        return ["run", str(tmp_path / "q.json"), str(tmp_path / "d.ds")]

    @staticmethod
    def _profile(tmp_path, limits: dict) -> list[str]:
        """`--hw-profile` arguments for a file holding `limits`."""
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(limits))
        return ["--hw-profile", str(path)]

    def test_checked_only_when_strict(self, mlp_bundle, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(netsim, "check_capacity",
                            lambda *args: calls.append(args) or check_capacity(*args))
        args = self._run_args(tmp_path, mlp_bundle, mlp_bundle.qnet)
        assert cli.main(args) == 0
        assert cli.main(args + ["--mode", "oracle"]) == 0
        assert calls == []
        assert cli.main(args + self._profile(tmp_path, {})) == 0
        assert len(calls) == 1

    def test_strict_compile_raises(self, mlp_bundle, tmp_path, capsys):
        """A 32-bit accumulator runs with no profile and with one that states
        32 bits; a profile of 16 bits rejects it."""
        q = build_quantized_network(mlp_bundle.model, mlp_bundle.stats, acc_bits=32)
        assert check_capacity(compile_network(q), HardwareProfile(acc_bits=16)) == [
            "accumulator width 32 exceeds profile 16"]
        args = self._run_args(tmp_path, mlp_bundle, q)
        assert cli.main(args) == 0
        assert cli.main(args + self._profile(tmp_path, {"acc_bits": 32})) == 0
        capsys.readouterr()
        assert cli.main(args + self._profile(tmp_path, {"acc_bits": 16})) == 2
        assert capsys.readouterr().err == (
            "error: capacity check failed: accumulator width 32 exceeds profile 16\n")


def _trains(res, k) -> dict[str, np.ndarray]:
    """The uint8 [N, n, K] trains of every wire a ``record_values`` run kept."""
    return {name: encode_planes(v, k, signed=True) for name, v in res.values.items()}


def _emitted(snet, x) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per hidden population, (the train it emits in ``run_batch``, the train
    of its V under its setting in ``snet.plan``). V is read from a run in
    which only that population's setting is the identity."""
    got = _trains(run_batch(snet, x, record_values=True), snet.k)
    out = {}
    for pop in snet.populations[:-1]:
        s = snet.plan.for_layer(pop.name)
        exact_plan = snet.plan.replaced(pop.name, LayerSparsity())
        exact = run_batch(dataclasses.replace(snet, plan=exact_plan), x, record_values=True)
        v = exact.values[pop.name].astype(np.int64)
        want = encode_planes(drlo(rot(v, s.rot_bits, snet.k), s.drlo_bits), snet.k,
                             signed=False)
        out[pop.name] = (got[pop.name], want)
    return out


class TestPlanPrecedence:
    """Settings live only in ``snet.plan``; each check reads them there and
    checks the emitted trains against them."""

    def test_embedded_manifest_used_by_default(self, mlp_bundle):
        q = copy.deepcopy(mlp_bundle.qnet)
        q.sparsity = [{"layer": "fc1", "rot": 1, "drlo": 1}]
        snet = compile_network(q)
        assert snet.plan.for_layer("fc1") == LayerSparsity(1, 1)
        got, want = _emitted(snet, mlp_bundle.x_int[:16])["fc1"]
        assert np.array_equal(got, want)
        assert not got[..., -1].any()                # drlo 1 silences the last step

    def test_argument_overrides_manifest(self, mlp_bundle):
        q = copy.deepcopy(mlp_bundle.qnet)
        q.sparsity = [{"layer": "fc1", "rot": 1, "drlo": 1}]
        snet = compile_network(q, plan=SparsityPlan.identity())
        assert snet.plan.for_layer("fc1").is_identity()
        got, want = _emitted(snet, mlp_bundle.x_int[:16])["fc1"]
        assert np.array_equal(got, want)
        assert got[..., -1].any()

    def test_output_layer_never_sparsified(self, mlp_bundle):
        plan = SparsityPlan({"fc3": LayerSparsity(3, 4)})
        snet = compile_network(mlp_bundle.qnet, plan=plan)
        assert snet.plan.for_layer("fc3") == LayerSparsity(3, 4)
        x = mlp_bundle.x_int[:16]
        got = run_batch(snet, x, record_values=True)
        want = run_batch(compile_network(mlp_bundle.qnet, plan=SparsityPlan.identity()), x,
                         record_values=True)
        assert np.array_equal(got.values["fc3"], want.values["fc3"])
        assert np.array_equal(got.outputs, want.outputs)

    def test_with_plan_matches_fresh_compile(self, cnn_bundle):
        """A compiled network given another plan by ``dataclasses.replace``
        shares its populations and runs like a fresh compile under the plan."""
        base = compile_network(cnn_bundle.qnet, plan=SparsityPlan.identity())
        plan = SparsityPlan({"conv1": LayerSparsity(1, 2), "pool2": LayerSparsity(2, 0)})
        derived = dataclasses.replace(base, plan=plan)
        fresh = compile_network(cnn_bundle.qnet, plan=plan)
        assert derived.plan is plan and fresh.plan is plan
        assert base.plan.to_manifest() == []
        assert derived.populations is base.populations       # nothing copied
        x = cnn_bundle.x_int[:32]
        for got, want in _emitted(derived, x).values():
            assert np.array_equal(got, want)
        a, b = run_batch(derived, x), run_batch(fresh, x)
        assert np.array_equal(a.outputs, b.outputs)
        assert a.traces == b.traces


def _thinning_plan(snet) -> SparsityPlan:
    """rot 1 and drlo 2 on every hidden population."""
    return SparsityPlan({p.name: LayerSparsity(1, 2)
                         for p in snet.populations if not p.signed})


class TestSpikeCounts:
    """Traces count each train once, where it is emitted; every field must
    equal a recount of the recorded trains by each of their readers."""

    @pytest.mark.parametrize("which", ["mlp", "cnn", "residual", "bias"])
    @pytest.mark.parametrize("thinned", [False, True], ids=["exact", "rot-drlo"])
    def test_traces_match_recount(self, which, thinned, request):
        b = request.getfixturevalue(f"{which}_bundle")
        snet = compile_network(b.qnet, plan=SparsityPlan.identity())
        if thinned:
            snet = dataclasses.replace(snet, plan=_thinning_plan(snet))
        res = run_batch(snet, b.x_int[:32], record_values=True)
        trains = _trains(res, snet.k)
        for pop, t in zip(snet.populations, res.traces):
            ins = [trains[s] for s in pop.inputs]
            assert t.spikes_in == sum(int(tr.sum()) for tr in ins)
            assert t.sops == sum(metrics.count_sops(tr.sum(axis=(0, 2)), fo)
                                 for tr, fo in zip(ins, pop.fanouts))
            assert t.spikes_out == int(trains[pop.name].sum())
            assert (t.name, t.kind, t.neurons) == (pop.name, pop.kind, pop.n_out)


class TestCachedRun:
    @pytest.mark.parametrize("which", ["mlp", "cnn", "residual", "residual-overflow"])
    def test_rerun_and_adopt_match_run_batch(self, which, request):
        b = request.getfixturevalue(f"{which.split('-')[0]}_bundle")
        x = b.x_int[:24]
        # overflow: conv_b saturates, and thinning conv_a changes how often
        q = _unprotected(b.qnet, "conv_b") if which == "residual-overflow" else b.qnet
        base = compile_network(q, plan=SparsityPlan.identity())
        cache = CachedRun(base, x)
        plan = SparsityPlan.identity()
        for name, setting in _thinning_plan(base).entries.items():
            before = run_batch(dataclasses.replace(base, plan=plan), x)
            run = cache.rerun(name, setting)
            plan = plan.replaced(name, setting)
            want = run_batch(dataclasses.replace(base, plan=plan), x)
            assert np.array_equal(run.outputs, want.outputs)
            assert run.layer_traces == want.traces
            assert run.snet.plan.entries == plan.entries
            # the rerun leaves the cache as it was; it becomes the cache the
            # next rerun starts from, as in the tuner
            assert np.array_equal(cache.outputs, before.outputs)
            assert cache.layer_traces == before.traces
            cache = run

    @pytest.mark.parametrize("which", ["cnn", "residual"])
    def test_traces_after_a_chain_of_reruns_match_a_fresh_run(self, which, request):
        """A rerun carries over the traces its parent built and builds the
        others: after every link of a chain they equal a fresh run's."""
        b = request.getfixturevalue(f"{which}_bundle")
        x = b.x_int[:16]
        base = compile_network(b.qnet, plan=SparsityPlan.identity())
        cache = CachedRun(base, x)
        assert cache.layer_traces == run_batch(base, x).traces
        for name, setting in _thinning_plan(base).entries.items():
            cache = cache.rerun(name, setting)
            assert cache.layer_traces == CachedRun(cache.snet, x).layer_traces, name

    def test_rerun_needs_an_exact_train(self, cnn_bundle):
        """Only an identity train is V's digits, so a population that ran
        under another setting, or the signed output, cannot be re-run."""
        snet = compile_network(cnn_bundle.qnet, plan=SparsityPlan.identity())
        cache = CachedRun(snet, cnn_bundle.x_int[:8])
        cache = cache.rerun("conv1", LayerSparsity(1, 2))
        with pytest.raises(ValueError, match="'conv1'"):
            cache.rerun("conv1", LayerSparsity(0, 1))
        with pytest.raises(ValueError, match=repr(snet.output.name)):
            cache.rerun(snet.output.name, LayerSparsity(0, 1))
        tuned = CachedRun(
            dataclasses.replace(snet, plan=SparsityPlan({"pool1": LayerSparsity(0, 1)})),
            cnn_bundle.x_int[:8])
        with pytest.raises(ValueError, match="'pool1'"):
            tuned.rerun("pool1", LayerSparsity(1, 0))
        tuned.rerun("conv2", LayerSparsity(1, 0))       # still identity: allowed

    @staticmethod
    def _peak(runner) -> int:
        """Traced peak bytes of `runner` on 256 samples of a cnn28-shaped model."""
        model = _cnn28_shaped()
        x = fixtures.class_inputs(np.random.default_rng(6), 256, model.input_shape)
        stats = calibrate(model, x[:32])
        q = build_quantized_network(model, stats)
        x_int = quantize_tensor(x, q.input_params)[0].astype(np.int16)
        snet = compile_network(q)
        tracemalloc.start()
        try:
            runner(snet, x_int)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_run_batch_peak_memory(self):
        """run_batch keeps one window's int16 wire values, and each
        population step's planes only for a sample block."""
        peak = self._peak(run_batch)
        assert peak <= 16 * 2**20, peak / 2**20

    def test_cached_run_peak_memory(self):
        """The tuner's whole-batch cache holds one int16 per neuron and sample,
        not K bytes."""
        peak = self._peak(CachedRun)
        assert peak <= 48 * 2**20, peak / 2**20

    def test_rerun_at_k16_widens_before_rot(self):
        """At K=16, q_max + 2^(r-1) overflows int16, so ``rerun`` must widen
        the cached V before ``rot``: every rerun equals a fresh run."""
        qnet, _ = _quantized(fixtures.make_mlp(), n=24, k=16, acc_bits=32)
        x = np.random.default_rng(16).integers(-(1 << 15), 1 << 15,
                                               size=(32,) + qnet.input_shape)
        snet = compile_network(qnet, plan=SparsityPlan.identity())
        cache = CachedRun(snet, x)
        hidden = [p.name for p in snet.populations if not p.signed]
        assert any(int(cache.values[name].max()) == qnet.q_max for name in hidden)
        for name in hidden:
            setting = LayerSparsity(3, 2)
            _assert_same_run(cache.rerun(name, setting), CachedRun(
                dataclasses.replace(snet, plan=snet.plan.replaced(name, setting)), x))

    @pytest.mark.parametrize("k", [8, 16])
    def test_input_range_checked(self, k):
        """The input wire is signed: [-2^(K-1), 2^(K-1)-1] runs, and one past
        either end is rejected."""
        qnet, _ = _quantized(fixtures.make_mlp(), n=24, k=k, acc_bits=32)
        snet = compile_network(qnet)
        lo, hi = -(1 << (k - 1)), (1 << (k - 1)) - 1
        x = np.zeros((2,) + qnet.input_shape, dtype=np.int64)
        x[0, 0], x[1, -1] = lo, hi
        run_batch(snet, x)
        CachedRun(snet, x)
        for bad in (hi + 1, lo - 1):
            x[1, 0] = bad
            for runner in (run_batch, CachedRun):
                with pytest.raises(ValueError, match="outside encodable range"):
                    runner(snet, x)


def _cnn28_shaped(seed: int = 28) -> FloatModel:
    """1x28x28: conv 1->16, pool 2, conv 16->32, pool 2, fc 1568->10."""
    rng = np.random.default_rng(seed)
    model = FloatModel(name="cnn28-shaped", input_shape=(1, 28, 28), layers=[
        fixtures._conv("conv1", "input", 1, 16, rng, 0.45),
        fixtures._pool("pool1", "conv1"),
        fixtures._conv("conv2", "pool1", 16, 32, rng, 0.12),
        fixtures._pool("pool2", "conv2"),
        LayerDesc(name="flat", kind="flatten", attrs={}, inputs=["pool2"]),
        fixtures._fc("fc", "flat", 1568, 10, rng, 0.06, relu=False),
    ])
    infer_shapes(model)
    return model


def _unprotected(qnet, name):
    """`qnet` with layer `name`'s overflow protection dropped (M0 = 1)."""
    q = copy.deepcopy(qnet)
    lyr = next(l for l in q.layers if l.name == name)
    lyr.m0 = from_real(1.0)
    lyr.m1 = lyr.m_hat
    q.validate()
    return q


def _every_result(q, x, y) -> list[tuple[str, object]]:
    """(label, value) of everything the run functions report on (q, x, y):
    run_batch with wire values, CachedRun reruns (each the cache of the next), the
    tuner and the pipeline, each under the identity plan and rot 1/drlo 2 on
    every hidden layer."""
    base = compile_network(q, plan=SparsityPlan.identity())
    thin = _thinning_plan(base)
    got = []
    for label, snet in (("identity", base), ("thin", dataclasses.replace(base, plan=thin))):
        res = run_batch(snet, x, record_values=True)
        got += [(f"{label} batch outputs", res.outputs), (f"{label} batch traces", res.traces)]
        got += [(f"{label} batch values {n}", v) for n, v in res.values.items()]
        pipe = run_pipeline(snet, x)
        got += [(f"{label} pipeline outputs", pipe.outputs),
                (f"{label} pipeline timing", pipe.timing),
                (f"{label} pipeline saturations", pipe.saturations)]
    cache = CachedRun(base, x)
    for name, setting in thin.entries.items():
        cache = cache.rerun(name, setting)
        got += [(f"rerun {name} outputs", cache.outputs),
                (f"rerun {name} traces", cache.layer_traces)]
        got += [(f"rerun {name} values {n}", v) for n, v in cache.values.items()]
    got.append(("tune", tune_hybrid(q, x, y, accuracy_budget=1.0)))
    return got


def _assert_same(got, want):
    assert [label for label, _ in got] == [label for label, _ in want]
    for (label, a), (_, b) in zip(got, want):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), label
        else:
            assert a == b, label


class TestPopulationBlocks:
    """Blocks and windows split only the batch axis, so every BLOCK_BYTES and
    PIPELINE_WINDOW gives exactly the results of the default constants."""

    N = 24

    @pytest.fixture(params=["mlp", "cnn", "residual", "widefan-overflow"])
    def case(self, request):
        """(quantized network, inputs, labels) of N samples."""
        name = request.param
        b = request.getfixturevalue(f"{name.split('-')[0]}_bundle")
        q = _unprotected(b.qnet, "fc") if name == "widefan-overflow" else b.qnet
        return q, b.x_int[:self.N], b.ds.labels[:self.N]

    def _split(self, q, block_bytes, monkeypatch) -> list[int]:
        """Set BLOCK_BYTES ("one-sample", or the default halved until some
        population's last block of N samples is partial); returns the
        populations' block sizes under the identity plan."""
        snet = compile_network(q, plan=SparsityPlan.identity())

        def sizes(b):
            monkeypatch.setattr(netsim, "BLOCK_BYTES", b)
            return [netsim._block_samples(p, len(netsim._live_steps(snet, p)))
                    for p in snet.populations]

        if block_bytes == "one-sample":
            return sizes(1)
        b = netsim.BLOCK_BYTES
        while not any(1 < s < self.N and self.N % s for s in sizes(b)):
            b //= 2
        return sizes(b)

    @pytest.mark.parametrize("block_bytes", ["one-sample", "ragged"])
    def test_blocks_change_no_result(self, case, block_bytes, monkeypatch):
        want = _every_result(*case)
        sizes = self._split(case[0], block_bytes, monkeypatch)
        assert min(sizes) < self.N                   # some population splits
        _assert_same(_every_result(*case), want)

    @pytest.mark.parametrize("window", [1, 5], ids=["1", "non-divisor"])
    def test_windows_change_no_result(self, case, window, monkeypatch):
        monkeypatch.setattr(netsim, "PIPELINE_WINDOW", self.N)     # the whole batch
        want = _every_result(*case)
        monkeypatch.setattr(netsim, "PIPELINE_WINDOW", window)
        _assert_same(_every_result(*case), want)

    @pytest.mark.parametrize("block_bytes", ["one-sample", "ragged"])
    def test_overflow_falls_in_several_blocks(self, widefan_bundle, block_bytes,
                                              monkeypatch):
        q, x = _unprotected(widefan_bundle.qnet, "fc"), widefan_bundle.x_int[:self.N]
        want = run_batch(compile_network(q), x)
        self._split(q, block_bytes, monkeypatch)
        saturated = []
        original = netsim._integrate_block

        def counting(pop, sums, steps, acc_bits):
            v, sat = original(pop, sums, steps, acc_bits)
            saturated.append(sat)
            return v, sat

        monkeypatch.setattr(netsim, "_integrate_block", counting)
        got = run_batch(compile_network(q), x)
        assert np.array_equal(got.outputs, want.outputs)
        assert got.traces == want.traces
        assert sum(sat > 0 for sat in saturated) >= 2
        assert sum(saturated) == want.traces[0].saturations

    def test_pool_block_holds_its_tap_planes(self):
        """A global average pool's int16 tap planes, 2 bytes per tap, output
        neuron and live step, outweigh its int64 step sums: a sample block
        holds as many samples as keep them within BLOCK_BYTES."""
        snet = compile_network(_one_layer_qnet((64, 16, 16), "avgpool2d",
                                               {"kernel": [16, 16]}))
        pop = snet.populations[0]
        steps = len(_live_steps(snet, pop))
        per_sample = steps * 2 * pop.gather_idx.size
        assert per_sample > steps * 8 * pop.n_out
        size = netsim._block_samples(pop, steps)
        assert size > 1
        assert size * per_sample <= netsim.BLOCK_BYTES < (size + 1) * per_sample

    def test_dense_block_holds_its_planes(self):
        """A cnn28-shaped fc (1568 -> 10) unpacks float32 planes, 4 bytes per
        input neuron and live step, that outweigh its int64 step sums: a
        sample block holds as many samples as keep them within BLOCK_BYTES."""
        weights = np.random.default_rng(5).integers(-127, 128, size=(10, 1568))
        snet = compile_network(_one_layer_qnet(
            (1568,), "fully-connected", {"in_features": 1568, "out_features": 10}, weights))
        pop = snet.populations[0]
        steps = len(_live_steps(snet, pop))
        per_sample = steps * pop.dense_w.itemsize * pop.dense_w.shape[1]
        assert per_sample > steps * 8 * pop.n_out
        size = netsim._block_samples(pop, steps)
        assert size > 1
        assert size * per_sample <= netsim.BLOCK_BYTES < (size + 1) * per_sample

    @pytest.mark.parametrize("bundle,block_bytes", [
        ("cnn_bundle", None), ("residual_bundle", netsim.BLOCK_BYTES // 4)])
    def test_step_sum_rows_within_block(self, bundle, block_bytes, request, monkeypatch):
        b = request.getfixturevalue(bundle)
        if block_bytes is not None:
            monkeypatch.setattr(netsim, "BLOCK_BYTES", block_bytes)
        snet = compile_network(b.qnet)
        calls = []
        original = Population.step_sum

        def counting(self, values, steps):
            assert values[0].shape[0] <= netsim._block_samples(self, len(steps))
            calls.append(self.name)
            return original(self, values, steps)

        monkeypatch.setattr(Population, "step_sum", counting)
        run_batch(snet, b.x_int)
        assert len(calls) > len(snet.populations)     # some population splits
        tune_hybrid(b.qnet, b.x_int[:40], b.ds.labels[:40], accuracy_budget=0.015)
        run_pipeline(snet, b.x_int)


class TestSpikeDumps:
    def test_rle_examples(self):
        assert rle_encode(np.array([0, 0, 1, 1, 1, 0])) == "2 3 1"
        assert rle_encode(np.array([1, 1])) == "0 2"
        assert rle_encode(np.array([0, 0, 0])) == "3"
        assert rle_encode(np.array([])) == ""

    def test_rle_decode_examples(self):
        assert rle_decode("2 3 1", 6).tolist() == [0, 0, 1, 1, 1, 0]
        assert rle_decode("0 2", 2).tolist() == [1, 1]
        assert rle_decode("", 0).tolist() == []

    def test_rle_length_mismatch(self):
        with pytest.raises(ValueError, match="run lengths"):
            rle_decode("2 3", 6)

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=64))
    def test_rle_roundtrip(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        assert np.array_equal(rle_decode(rle_encode(arr), len(bits)), arr)

    def test_dump_file_parses_back(self, tmp_path, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        res = run_batch(snet, mlp_bundle.x_int[:2], record_values=True)
        path = tmp_path / "spikes.txt"
        dump_spike_trains(path, res.values, snet.k)
        rebuilt = {}
        for line in path.read_text().splitlines():
            name, sample, step, runs = (line.split(" ", 3) + [""])[:4]
            rebuilt.setdefault(name, {})[(int(sample), int(step))] = runs
        assert len(rebuilt) == len(snet.populations) + 1
        for name, trains in _trains(res, snet.k).items():
            for s in range(trains.shape[0]):
                for t in range(snet.k):
                    got = rle_decode(rebuilt[name][(s, t)], trains.shape[1])
                    assert np.array_equal(got, trains[s, :, t])

    def test_trains_not_recorded_by_default(self, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        assert run_batch(snet, mlp_bundle.x_int[:1]).values is None
