import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stemc import fixtures, metrics, netsim
from stemc.fixedpoint import from_real
from stemc.modelio import INPUT_NAME, FloatModel, LayerDesc, infer_shapes
from stemc.netsim import (
    CachedRun,
    HardwareProfile,
    PipelineResult,
    PipelineTiming,
    Population,
    _as_batch,
    _integrate_block,
    _planes,
    _wire_phis,
    check_capacity,
    compile_network,
    dump_spike_trains,
    rle_decode,
    rle_encode,
    run_batch,
    run_pipeline,
    with_plan,
)
from stemc.quantizer import build_quantized_network, calibrate, quantize_tensor
from stemc.refengine import int_forward
from stemc.sparsity import LayerSparsity, SparsityPlan, tune_hybrid
from stemc.stem import WireSchedule, decode_train, encode_planes


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

    def test_real_outputs_are_scaled(self, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        res = run_batch(snet, mlp_bundle.x_int[:4])
        want = res.outputs * mlp_bundle.qnet.output_layer.scale_out
        assert np.allclose(res.outputs_real, want)

    def test_unbatched_sample(self, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        res = run_batch(snet, mlp_bundle.x_int[0])
        assert res.outputs.shape == (1, 10)

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


class TestGatherTables:
    def _brute_step(self, pop, row, phi):
        padded = np.concatenate([row, np.zeros((row.shape[0], 1), np.int64)], axis=1)
        out = np.zeros((row.shape[0], pop.n_out), dtype=np.int64)
        for s in range(row.shape[0]):
            for j in range(pop.n_out):
                acc = 0
                for f in range(pop.gather_idx.shape[1]):
                    acc += int(pop.gather_w[j, f]) * int(padded[s, pop.gather_idx[j, f]])
                out[s, j] = acc * phi
        return out

    def test_conv_table_vs_synapse_walk(self, cnn_bundle, rng):
        snet = compile_network(cnn_bundle.qnet)
        pop = next(p for p in snet.populations if p.name == "conv2")
        n_in = int(np.prod(pop.in_shapes[0]))
        row = rng.integers(0, 2, size=(2, n_in)).astype(np.int64)
        got = pop.step_sum([row.astype(np.uint8)], [32])
        assert np.array_equal(got, self._brute_step(pop, row, 32))

    def test_padded_conv_edges_stay_silent(self, cnn_bundle):
        snet = compile_network(cnn_bundle.qnet)
        pop = next(p for p in snet.populations if p.name == "conv1")
        silent = pop.n_in_padded - 1
        masked = pop.gather_idx == silent
        assert masked.any()                      # padding=1 creates halo slots
        assert (pop.gather_w[masked] == 0).all()
        # an all-ones spike row must not pick up anything from the halo
        row = np.ones((1, silent), dtype=np.uint8)
        got = pop.step_sum([row], [1])
        want = self._brute_step(pop, row.astype(np.int64), 1)
        assert np.array_equal(got, want)

    def test_pool_table_vs_synapse_walk(self, cnn_bundle, rng):
        snet = compile_network(cnn_bundle.qnet)
        pop = next(p for p in snet.populations if p.name == "pool1")
        n_in = int(np.prod(pop.in_shapes[0]))
        row = rng.integers(0, 2, size=(3, n_in)).astype(np.int64)
        got = pop.step_sum([row.astype(np.uint8)], [-128])
        assert np.array_equal(got, self._brute_step(pop, row, -128))
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


def _synapse_walk(pop: Population, rows: list[np.ndarray], phis: np.ndarray) -> np.ndarray:
    """Brute force: every step, neuron and synapse of rows [N, K, n_in]."""
    n, k = rows[0].shape[:2]
    out = np.zeros((n, k, pop.n_out), dtype=np.int64)
    for s in range(n):
        for t in range(k):
            branches = [[int(b) for b in row[s, t]] + [0] for row in rows]  # + silent slot
            for j in range(pop.n_out):
                acc = 0
                for bits in branches:
                    if pop.kind == "residual-add":
                        acc += bits[j]
                    elif pop.dense_w is not None:
                        acc += sum(int(w) * b for w, b in zip(pop.dense_w[j], bits))
                    else:
                        acc += sum(int(w) * bits[i] for w, i in
                                   zip(pop.gather_w[j], pop.gather_idx[j]))
                out[s, t, j] = int(phis[t]) * acc
    return out


class TestKPlaneKernel:
    PHIS = WireSchedule(8, signed=True).weights()        # sign step first

    def _check(self, pop, rng):
        rows = [rng.integers(0, 2, size=(2, 8, int(np.prod(shape))), dtype=np.uint8)
                for shape in pop.in_shapes]
        got = pop.step_sum(rows, [self.PHIS[:, None]] * len(rows))
        assert got.dtype == np.int64
        assert np.array_equal(got, _synapse_walk(pop, rows, self.PHIS))

    @pytest.mark.parametrize("name,form", [
        ("conv1", "conv"), ("pool1", "pool"), ("conv2", "dense"), ("fc", "dense")])
    def test_cnn_layers_vs_synapse_walk(self, cnn_bundle, rng, name, form):
        pop = next(p for p in compile_network(cnn_bundle.qnet).populations
                   if p.name == name)
        assert pop.form == form
        self._check(pop, rng)

    def test_strided_convs_vs_synapse_walk(self, rng):
        qnet, _ = _quantized(_strided_model(), n=16)
        pops = {p.name: p for p in compile_network(qnet).populations}
        assert pops["conv_s"].form == "conv"          # padded, stride 2
        assert pops["conv_t"].form == "dense"         # unpadded, stride 2
        for name in ("conv_s", "conv_t", "fc"):
            self._check(pops[name], rng)

    def test_residual_add_vs_synapse_walk(self, residual_bundle, rng):
        pops = {p.name: p for p in compile_network(residual_bundle.qnet).populations}
        assert pops["join"].form == "identity"
        for name in ("conv_a", "conv_b", "join"):
            self._check(pops[name], rng)

    def test_block_equals_per_step_calls(self, cnn_bundle, rng):
        for pop in compile_network(cnn_bundle.qnet).populations:
            n_in = int(np.prod(pop.in_shapes[0]))
            rows = (rng.random((3, 8, n_in)) < 0.4).astype(np.uint8)
            block = pop.step_sum([rows], [self.PHIS[:, None]])
            for t in range(8):
                step = pop.step_sum([rows[:, t]], [int(self.PHIS[t])])
                assert np.array_equal(block[:, t], step)

    def test_wide_fanin_at_max_weights_exact(self, widefan_bundle):
        snet = compile_network(widefan_bundle.qnet)
        pop = snet.populations[0]
        assert int(np.abs(pop.dense_w).min()) == 127       # every weight at max
        rows = np.ones((2, 8, 512), dtype=np.uint8)
        got = pop.step_sum([rows], [self.PHIS[:, None]])
        want = np.sign(pop.dense_w[:, 0]) * 512 * 127 * self.PHIS[:, None]
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
# each active stage integrates its one sample, and trains are really buffered.
# ``run_pipeline`` counts its timing from the stage numbers and must agree
# with it on every field.


def run_pipeline_per_block(snet, x_int) -> PipelineResult:
    """Stream a batch through the staged network on one global clock.

    Stage l integrates sample s during block l-1+s, global steps
    [(l-1+s)K, (l+s)K); the output train of the last stage is itself
    transmitted during the following block, so S samples complete in exactly
    K*(n_stages + S) steps. The clock advances a block at a time: every train
    a stage reads in block b was emitted by the end of block b-1. Emitted
    trains are buffered until every consumer (a shortcut's join may lag) has
    read them; the buffer peak is taken at each block's end, the only step at
    which trains are emitted or released.
    """
    k = snet.k
    xb = _as_batch(x_int, snet.input_shape)
    n_samples = xb.shape[0]
    n_stages = snet.n_stages
    input_planes = encode_planes(xb, k, signed=True)

    consumers: dict[str, int] = {INPUT_NAME: 0}
    for pop in snet.populations:
        consumers[pop.name] = 0
        for src in pop.inputs:
            consumers[src] += 1
    consumers[snet.output.name] += 1            # the external reader

    phis = _wire_phis(snet)
    out_pop = snet.output
    reader_stage = out_pop.stage + 1            # decodes the final train

    emitted: dict[tuple[str, int], np.ndarray] = {}
    reads: dict[tuple[str, int], int] = {}
    out_acc = np.zeros((n_samples, out_pop.n_out), dtype=np.int64)
    out_sched = WireSchedule(k, signed=True)
    peak = 0
    last_active = -1
    saturations = 0

    def fetch(src: str, s: int) -> np.ndarray:
        if src == INPUT_NAME:
            return input_planes[s]
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
            rows = _planes([fetch(src, s)[None] for src in pop.inputs])
            sums = pop.step_sum(rows, [phis[src] for src in pop.inputs])
            v, sat = _integrate_block(pop, sums, snet.acc_bits)
            saturations += sat
            emitted[(pop.name, s)] = pop.emit(v, k)[0]
            for src in pop.inputs:
                release(src, s)
        s_out = block - (reader_stage - 1)
        if 0 <= s_out < n_samples:
            last_active = block
            out_acc[s_out] = decode_train(fetch(out_pop.name, s_out), out_sched)
            release(out_pop.name, s_out)
        peak = max(peak, len(emitted))

    if emitted:
        raise RuntimeError("pipeline finished with undrained state")
    timing = PipelineTiming(
        k=k, n_stages=n_stages, n_samples=n_samples,
        total_steps=k * (last_active + 1), buffered_train_peak=peak,
        stage_of={p.name: p.stage for p in snet.populations},
    )
    return PipelineResult(
        outputs=out_acc,
        outputs_real=out_acc.astype(np.float64) * out_pop.scale_out,
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
        assert res.timing.stage_of == {"conv_a": 1, "conv_b": 2, "join": 3, "fc": 4}

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
        assert np.array_equal(got.outputs_real, want.outputs_real)
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
        # a dense form copies its input rows to float64, 8*K bytes per input
        # neuron and sample: 512 inputs make that the largest temporary
        snet = compile_network(widefan_bundle.qnet)
        x = np.tile(widefan_bundle.x_int, (50, 1))               # 2000 samples
        peaks = []
        for n in (netsim.PIPELINE_WINDOW, x.shape[0]):
            tracemalloc.start()
            run_batch(snet, x[:n])
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0]
        assert peaks[1] < 4 * 2**20


class TestSaturationParity:
    def test_forced_overflow_identical_in_both_routes(self, widefan_bundle):
        q = copy.deepcopy(widefan_bundle.qnet)
        lyr = q.layers[0]
        lyr.m0 = from_real(1.0)       # drop overflow protection entirely
        lyr.m1 = lyr.m_hat            # product still equals m_hat exactly
        q.validate()
        x = widefan_bundle.x_int
        want, rec = int_forward(q, x, mode="hw")
        oracle_sat = sum(a.saturations for a in rec.layers.values())
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

    def test_calibrated_network_does_not_saturate(self, widefan_bundle):
        snet = compile_network(widefan_bundle.qnet)
        got = run_batch(snet, widefan_bundle.x_int)
        assert sum(t.saturations for t in got.traces) == 0


class TestCapacity:
    def test_default_profile_fits_fixtures(self, mlp_bundle, cnn_bundle):
        for bundle in (mlp_bundle, cnn_bundle):
            snet = compile_network(bundle.qnet)
            assert check_capacity(snet).violations == []

    def test_rows_and_cores(self, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        report = check_capacity(snet, HardwareProfile(neurons_per_core=16))
        by_name = {r.name: r for r in report.rows}
        assert by_name["fc1"].neurons == 24
        assert by_name["fc1"].fanin == 36
        assert by_name["fc1"].cores == 2
        assert report.total_cores == 2 + 1 + 1

    def test_fanin_violation(self, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        report = check_capacity(snet, HardwareProfile(max_fanin=20))
        assert any("fan-in" in v for v in report.violations)

    def test_core_budget_violation(self, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        report = check_capacity(snet, HardwareProfile(neurons_per_core=4, cores=2))
        assert any("cores" in v for v in report.violations)

    def test_weight_width_violation(self, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        report = check_capacity(snet, HardwareProfile(weight_bits=2))
        assert any("weight magnitude" in v for v in report.violations)

    def test_accumulator_width_violation(self, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        report = check_capacity(snet, HardwareProfile(acc_bits=8))
        assert any("accumulator" in v for v in report.violations)

    def test_checked_only_when_strict(self, mlp_bundle, monkeypatch):
        calls = []
        monkeypatch.setattr(netsim, "check_capacity",
                            lambda *args: calls.append(args) or check_capacity(*args))
        compile_network(mlp_bundle.qnet)
        assert calls == []
        compile_network(mlp_bundle.qnet, strict_capacity=True)
        assert len(calls) == 1

    def test_strict_compile_raises(self, mlp_bundle):
        with pytest.raises(ValueError, match="capacity"):
            compile_network(mlp_bundle.qnet,
                            profile=HardwareProfile(max_fanin=20),
                            strict_capacity=True)


class TestPlanPrecedence:
    def test_embedded_manifest_used_by_default(self, mlp_bundle):
        q = copy.deepcopy(mlp_bundle.qnet)
        q.sparsity = [{"layer": "fc1", "rot": 1, "drlo": 1}]
        snet = compile_network(q)
        pop = {p.name: p for p in snet.populations}
        assert pop["fc1"].sparsity == LayerSparsity(1, 1)

    def test_argument_overrides_manifest(self, mlp_bundle):
        q = copy.deepcopy(mlp_bundle.qnet)
        q.sparsity = [{"layer": "fc1", "rot": 1, "drlo": 1}]
        snet = compile_network(q, plan=SparsityPlan.identity())
        pop = {p.name: p for p in snet.populations}
        assert pop["fc1"].sparsity.is_identity()

    def test_output_layer_never_sparsified(self, mlp_bundle):
        plan = SparsityPlan({"fc3": LayerSparsity(3, 4)})
        snet = compile_network(mlp_bundle.qnet, plan=plan)
        assert snet.output.sparsity.is_identity()

    def test_with_plan_matches_fresh_compile(self, cnn_bundle):
        base = compile_network(cnn_bundle.qnet, plan=SparsityPlan.identity())
        plan = SparsityPlan({"conv1": LayerSparsity(1, 2), "pool2": LayerSparsity(2, 0)})
        derived = with_plan(base, plan)
        fresh = compile_network(cnn_bundle.qnet, plan=plan)
        assert derived.plan is plan
        assert ([p.sparsity for p in derived.populations]
                == [p.sparsity for p in fresh.populations])
        assert all(p.sparsity.is_identity() for p in base.populations)
        assert all(d.form_w is b.form_w for d, b in zip(derived.populations, base.populations))
        x = cnn_bundle.x_int[:32]
        a, b = run_batch(derived, x), run_batch(fresh, x)
        assert np.array_equal(a.outputs, b.outputs)
        assert a.traces == b.traces


def _thinning_plan(snet) -> SparsityPlan:
    """rot 1 and drlo 2 on every hidden population."""
    return SparsityPlan({p.name: LayerSparsity(1, 2)
                         for p in snet.populations if not p.is_output})


class TestSpikeCounts:
    """Traces count each train once, where it is emitted; every field must
    equal a recount of the recorded trains by each of their readers."""

    @pytest.mark.parametrize("which", ["mlp", "cnn", "residual", "bias"])
    @pytest.mark.parametrize("thinned", [False, True], ids=["exact", "rot-drlo"])
    def test_traces_match_recount(self, which, thinned, request):
        b = request.getfixturevalue(f"{which}_bundle")
        snet = compile_network(b.qnet, plan=SparsityPlan.identity())
        if thinned:
            snet = with_plan(snet, _thinning_plan(snet))
        res = run_batch(snet, b.x_int[:32], record_trains=True)
        for pop, t in zip(snet.populations, res.traces):
            ins = [res.trains[s] for s in pop.inputs]
            assert t.spikes_in == sum(int(tr.sum()) for tr in ins)
            assert t.sops == sum(metrics.count_sops(tr.sum(axis=(0, 2)), fo)
                                 for tr, fo in zip(ins, pop.fanouts))
            assert t.spikes_out == int(res.trains[pop.name].sum())
            assert (t.name, t.kind, t.neurons) == (pop.name, pop.kind, pop.n_out)


class TestCachedRun:
    @pytest.mark.parametrize("which", ["mlp", "cnn", "residual"])
    def test_rerun_and_adopt_match_run_batch(self, which, request):
        b = request.getfixturevalue(f"{which}_bundle")
        x = b.x_int[:24]
        base = compile_network(b.qnet, plan=SparsityPlan.identity())
        cache = CachedRun(base, x)
        plan = SparsityPlan.identity()
        for name, setting in _thinning_plan(base).entries.items():
            before = run_batch(with_plan(base, plan), x)
            run = cache.rerun(name, setting)
            plan = plan.replaced(name, setting)
            want = run_batch(with_plan(base, plan), x)
            assert np.array_equal(run.outputs, want.outputs)
            assert run.layer_traces == want.traces
            # the rerun leaves the cache as it was until it is adopted
            assert np.array_equal(cache.outputs, before.outputs)
            assert cache.layer_traces == before.traces
            cache.adopt(run)
            assert cache.snet.plan.entries == plan.entries
            assert np.array_equal(cache.outputs, want.outputs)
            assert cache.layer_traces == want.traces


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
    run_batch with trains, CachedRun reruns and adoptions, the tuner and the
    pipeline, each under the identity plan and rot 1/drlo 2 on every hidden
    layer."""
    base = compile_network(q, plan=SparsityPlan.identity())
    thin = _thinning_plan(base)
    got = []
    for label, snet in (("identity", base), ("thin", with_plan(base, thin))):
        res = run_batch(snet, x, record_trains=True)
        got += [(f"{label} batch outputs", res.outputs), (f"{label} batch traces", res.traces)]
        got += [(f"{label} batch train {n}", tr) for n, tr in res.trains.items()]
        pipe = run_pipeline(snet, x)
        got += [(f"{label} pipeline outputs", pipe.outputs),
                (f"{label} pipeline timing", pipe.timing),
                (f"{label} pipeline saturations", pipe.saturations)]
    cache = CachedRun(base, x)
    for name, setting in thin.entries.items():
        run = cache.rerun(name, setting)
        cache.adopt(run)
        for label, r in ((f"rerun {name}", run), (f"adopt {name}", cache)):
            got += [(f"{label} outputs", r.outputs), (f"{label} traces", r.layer_traces)]
            got += [(f"{label} value {n}", v) for n, v in r.values.items()]
            got += [(f"{label} train {n}", tr) for n, tr in r.trains.items()]
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
        populations' block sizes."""
        pops = compile_network(q).populations
        k = q.k

        def sizes(b):
            monkeypatch.setattr(netsim, "BLOCK_BYTES", b)
            return [netsim._block_samples(p, k) for p in pops]

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

        def counting(pop, sums, acc_bits):
            v, sat = original(pop, sums, acc_bits)
            saturated.append(sat)
            return v, sat

        monkeypatch.setattr(netsim, "_integrate_block", counting)
        got = run_batch(compile_network(q), x)
        assert np.array_equal(got.outputs, want.outputs)
        assert got.traces == want.traces
        assert sum(sat > 0 for sat in saturated) >= 2
        assert sum(saturated) == want.traces[0].saturations

    @pytest.mark.parametrize("bundle,block_bytes", [
        ("cnn_bundle", None), ("residual_bundle", netsim.BLOCK_BYTES // 4)])
    def test_step_sum_rows_within_block(self, bundle, block_bytes, request, monkeypatch):
        b = request.getfixturevalue(bundle)
        if block_bytes is not None:
            monkeypatch.setattr(netsim, "BLOCK_BYTES", block_bytes)
        snet = compile_network(b.qnet)
        calls = []
        original = Population.step_sum

        def counting(self, rows, phis):
            assert rows[0].shape[0] <= netsim._block_samples(self, snet.k)
            calls.append(self.name)
            return original(self, rows, phis)

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
        res = run_batch(snet, mlp_bundle.x_int[:2], record_trains=True)
        path = tmp_path / "spikes.txt"
        dump_spike_trains(path, res.trains)
        rebuilt = {}
        for line in path.read_text().splitlines():
            name, sample, step, runs = (line.split(" ", 3) + [""])[:4]
            rebuilt.setdefault(name, {})[(int(sample), int(step))] = runs
        for name, planes in res.trains.items():
            flat = planes.reshape(planes.shape[0], -1, planes.shape[-1])
            for s in range(flat.shape[0]):
                for t in range(flat.shape[2]):
                    got = rle_decode(rebuilt[name][(s, t)], flat.shape[1])
                    assert np.array_equal(got, flat[s, :, t])

    def test_trains_not_recorded_by_default(self, mlp_bundle):
        snet = compile_network(mlp_bundle.qnet)
        assert run_batch(snet, mlp_bundle.x_int[:1]).trains is None
