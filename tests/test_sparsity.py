import dataclasses
from collections import Counter

import numpy as np
import pytest

from conftest import encode_planes
from stemc import netsim
from stemc.metrics import io_layer_names, sop_total
from stemc.modelio import INPUT_NAME
from stemc.sparsity import (
    DRLO_CANDIDATES,
    ROT_CANDIDATES,
    LayerSparsity,
    SparsityPlan,
    TuneResult,
    TuneStep,
    drlo,
    rot,
    tune_hybrid,
)


class TestRot:
    def test_rounds_low_bits_up(self):
        assert rot(83, 2, 8) == 84       # ...011 -> ...100

    def test_rounds_half_up(self):
        assert rot(2, 2, 8) == 4
        assert rot(1, 2, 8) == 0

    def test_clamps_to_emittable_max(self):
        assert rot(127, 1, 8) == 127
        assert rot(126, 3, 8) == 127

    def test_zero_bits_is_identity(self):
        for v in (0, 1, 83, 127):
            assert rot(v, 0, 8) == v

    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            rot(-1, 1, 8)
        with pytest.raises(ValueError):
            rot(np.array([3, -2]), 1, 8)

    def test_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            rot(5, -1, 8)

    def test_array_matches_scalar(self):
        vals = np.arange(128)
        out = rot(vals, 2, 8)
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [rot(int(v), 2, 8) for v in vals]

    @pytest.mark.parametrize("rb", [1, 2, 3])
    def test_exhaustive_properties(self, rb):
        unit = 1 << rb
        for v in range(128):
            r = rot(v, rb, 8)
            assert 0 <= r <= 127
            assert r % unit == 0 or r == 127       # clamp may break alignment
            assert abs(r - v) <= unit // 2 + (unit - 1)  # clamp pullback bound
            if r % unit == 0 and v + unit // 2 <= 127:
                assert abs(r - v) <= unit // 2


class TestDrlo:
    def test_cuts_low_bits(self):
        assert drlo(84, 3) == 80
        assert drlo(7, 3) == 0
        assert drlo(127, 4) == 112

    def test_zero_cut_is_identity(self):
        assert drlo(83, 0) == 83

    def test_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            drlo(5, -2)

    @pytest.mark.parametrize("cb", [1, 2, 3, 4])
    def test_exhaustive_properties(self, cb):
        for v in range(128):
            d = drlo(v, cb)
            assert d == (v >> cb) << cb
            assert 0 <= d <= v

    def test_array_form(self):
        out = drlo(np.array([84, 7, 127]), 3)
        assert out.tolist() == [80, 0, 120]


class TestSpikeThinning:
    def test_chain_83_to_80(self):
        after_rot = rot(83, 2, 8)
        assert after_rot == 84
        assert drlo(after_rot, 3) == 80
        before = int(encode_planes(np.array(83), 8, signed=False).sum())
        after = int(encode_planes(drlo(after_rot, 3), 8, signed=False).sum())
        assert (before, after) == (4, 2)

    def test_never_adds_spikes_on_average(self):
        vals = np.arange(128)
        dense = encode_planes(vals, 8, signed=False).sum()
        thin = encode_planes(drlo(vals, 2), 8, signed=False).sum()
        assert thin <= dense


class TestPlan:
    def test_manifest_roundtrip_sorted(self):
        plan = SparsityPlan({
            "z": LayerSparsity(1, 2),
            "a": LayerSparsity(0, 3),
            "mid": LayerSparsity(0, 0),     # identity: dropped on export
        })
        manifest = plan.to_manifest()
        assert manifest == [
            {"layer": "a", "rot": 0, "drlo": 3},
            {"layer": "z", "rot": 1, "drlo": 2},
        ]
        back = SparsityPlan.from_manifest(manifest)
        assert back.for_layer("a") == LayerSparsity(0, 3)
        assert back.for_layer("z") == LayerSparsity(1, 2)
        assert back.for_layer("mid") == LayerSparsity(0, 0)

    def test_unknown_layer_defaults_identity(self):
        assert SparsityPlan.identity().for_layer("anything").is_identity()

    def test_replaced_leaves_original(self):
        base = SparsityPlan.identity()
        new = base.replaced("fc1", LayerSparsity(1, 1))
        assert base.to_manifest() == []
        assert new.to_manifest() == [{"layer": "fc1", "rot": 1, "drlo": 1}]
        assert new.for_layer("fc1") == LayerSparsity(1, 1)


class TestTuner:
    def test_zero_budget_never_loses_accuracy(self, mlp_bundle):
        x = mlp_bundle.x_int[:24]
        y = mlp_bundle.ds.labels[:24]
        result = tune_hybrid(mlp_bundle.qnet, x, y, accuracy_budget=0.0)
        assert result.final_accuracy >= result.baseline_accuracy
        assert result.final_sops <= result.baseline_sops
        assert [s.layer for s in result.steps] == ["fc1", "fc2"]

    def test_plan_covers_only_hidden_layers(self, mlp_bundle):
        x = mlp_bundle.x_int[:24]
        y = mlp_bundle.ds.labels[:24]
        result = tune_hybrid(mlp_bundle.qnet, x, y, accuracy_budget=0.05)
        assert "fc3" not in result.plan.entries
        assert set(result.plan.entries) <= {"fc1", "fc2"}

    def test_deterministic(self, mlp_bundle):
        x = mlp_bundle.x_int[:16]
        y = mlp_bundle.ds.labels[:16]
        a = tune_hybrid(mlp_bundle.qnet, x, y, accuracy_budget=0.01)
        b = tune_hybrid(mlp_bundle.qnet, x, y, accuracy_budget=0.01)
        assert a.plan.to_manifest() == b.plan.to_manifest()
        assert a.final_sops == b.final_sops


# Reference tuner: every candidate is scored by a full run_batch of the whole
# network under the candidate plan. ``tune_hybrid`` re-runs only the layers
# downstream of the tuned one and must return the same TuneResult.


def tune_hybrid_full_rerun(qnet, inputs_int: np.ndarray, labels: np.ndarray,
                           accuracy_budget: float, include_io: bool = False) -> TuneResult:
    compiled = netsim.compile_network(qnet, plan=SparsityPlan.identity())

    def evaluate(plan: SparsityPlan) -> tuple[int, float]:
        res = netsim.run_batch(dataclasses.replace(compiled, plan=plan), inputs_int)
        preds = np.argmax(res.outputs, axis=-1)
        acc = float(np.mean(preds == labels))
        return sop_total(res.traces, qnet, include_io=include_io), acc

    hidden = [
        lyr.name for lyr in qnet.layers
        if lyr.kind != "flatten" and lyr is not qnet.output_layer
    ]
    plan = SparsityPlan.identity()
    base_sops, base_acc = evaluate(plan)
    cur_sops, cur_acc = base_sops, base_acc
    steps: list[TuneStep] = []
    for name in hidden:
        candidates = []
        for rb in ROT_CANDIDATES:
            for db in DRLO_CANDIDATES:
                setting = LayerSparsity(rb, db)
                if setting.is_identity():
                    candidates.append((0, 0, 0, setting, cur_sops, cur_acc))
                    continue
                sops, acc = evaluate(plan.replaced(name, setting))
                candidates.append((-(cur_sops - sops), rb, db, setting, sops, acc))
        # most SOPs saved first; deterministic tie-break on (rot, drlo)
        candidates.sort(key=lambda c: (c[0], c[1], c[2]))
        for _, _, _, setting, sops, acc in candidates:
            if base_acc - acc <= accuracy_budget and sops <= cur_sops:
                if not setting.is_identity():
                    plan = plan.replaced(name, setting)
                cur_sops, cur_acc = sops, acc
                steps.append(TuneStep(name, setting, sops, acc))
                break
    return TuneResult(plan, base_sops, base_acc, cur_sops, cur_acc, steps)


BUNDLES = ["mlp_bundle", "cnn_bundle", "residual_bundle", "bias_bundle", "deep_mlp_bundle"]


def _tune_inputs(bundle, n=40):
    return bundle.qnet, bundle.x_int[:n], bundle.ds.labels[:n]


class TestTunerReference:
    @pytest.mark.parametrize("include_io", [False, True], ids=["hidden", "io"])
    # 80 samples let a budget of 0.015 tolerate one lost sample; at one
    # sample, most candidates of a layer emit the same train
    @pytest.mark.parametrize("budget,n", [(0.0, 40), (0.015, 80), (1.0, 40), (0.0, 1), (1.0, 1)],
                             ids=["0.0", "0.015", "1.0", "0.0-n1", "1.0-n1"])
    @pytest.mark.parametrize("bundle", BUNDLES)
    def test_matches_full_rerun(self, bundle, budget, n, include_io, request):
        qnet, x, y = _tune_inputs(request.getfixturevalue(bundle), n)
        got = tune_hybrid(qnet, x, y, accuracy_budget=budget, include_io=include_io)
        want = tune_hybrid_full_rerun(qnet, x, y, accuracy_budget=budget,
                                      include_io=include_io)
        assert got.steps == want.steps       # layer, setting, sops, accuracy
        assert got == want                   # plan, baseline and final values too

    def test_budget_one_sparsifies(self, cnn_bundle):
        """The widest budget must reach non-identity settings, or the reference
        comparison above would not exercise a rerun that becomes the cache."""
        qnet, x, y = _tune_inputs(cnn_bundle)
        result = tune_hybrid(qnet, x, y, accuracy_budget=1.0)
        assert result.plan.to_manifest() != []
        assert result.final_sops < result.baseline_sops


def _layer_states(qnet, result):
    """(layer, plan before it was tuned, its TuneStep) for each tuned layer."""
    plan = SparsityPlan.identity()
    for step in result.steps:
        yield step.layer, plan, step
        plan = plan.replaced(step.layer, step.chosen)


def _counting_reruns(monkeypatch) -> list[tuple[str, LayerSparsity]]:
    """Every (layer, setting) that ``CachedRun.rerun`` is called with, in order."""
    calls = []
    original = netsim.CachedRun.rerun

    def counting(self, name, setting, *args):
        calls.append((name, setting))
        return original(self, name, setting, *args)

    monkeypatch.setattr(netsim.CachedRun, "rerun", counting)
    return calls


def _full_rerun_sops(qnet, plan, x, include_io) -> int:
    """SOPs of a whole-network ``run_batch`` of `x` under `plan`."""
    res = netsim.run_batch(netsim.compile_network(qnet, plan=plan), x)
    return sop_total(res.traces, qnet, include_io=include_io)


class TestDistinctTrains:
    @pytest.mark.parametrize("bundle,n", [("cnn_bundle", 1), ("cnn_bundle", 40),
                                          ("residual_bundle", 40)])
    def test_one_rerun_per_distinct_train(self, bundle, n, request, monkeypatch):
        """A layer's candidates are rerun at most once per distinct train other
        than the identity's, counted here from ``rot`` and ``drlo`` of the
        layer's exact V under the plan tuned so far; the SOP floor skips some
        of them on the residual network."""
        qnet, x, y = _tune_inputs(request.getfixturevalue(bundle), n)
        calls = _counting_reruns(monkeypatch)
        result = tune_hybrid(qnet, x, y, accuracy_budget=1.0)

        want = {}
        for name, plan, _ in _layer_states(qnet, result):
            snet = netsim.compile_network(qnet, plan=plan)
            v = netsim.CachedRun(snet, x).values[name].astype(np.int64)
            trains = {drlo(rot(v, rb, qnet.k), db).tobytes()
                      for rb in ROT_CANDIDATES for db in DRLO_CANDIDATES}
            want[name] = len(trains - {v.tobytes()})
        got = Counter(name for name, _ in calls)
        assert [s.layer for s in result.steps] == qnet.hidden_layers
        assert len(set(calls)) == len(calls)                # no candidate twice
        assert all(got[name] <= c for name, c in want.items()), (dict(got), want)
        assert sum(want.values()) < len(want) * (len(ROT_CANDIDATES) * len(DRLO_CANDIDATES) - 1)
        if bundle == "residual_bundle":
            assert sum(got.values()) < sum(want.values())


class TestSopsFloor:
    @pytest.mark.parametrize("include_io", [False, True], ids=["hidden", "io"])
    @pytest.mark.parametrize("bundle", BUNDLES)
    def test_floor_never_exceeds_rerun_sops(self, bundle, include_io, request):
        """At every hidden layer, under the plan tuned before it, every
        candidate's floor is at most the SOPs of a full run of the network
        under the candidate."""
        qnet, x, y = _tune_inputs(request.getfixturevalue(bundle))
        result = tune_hybrid(qnet, x, y, accuracy_budget=1.0, include_io=include_io)
        counted = {lyr.name for lyr in qnet.layers if lyr.kind != "flatten"}
        if not include_io:
            counted -= io_layer_names(qnet)
        checked = 0
        for name, plan, _ in _layer_states(qnet, result):
            cache = netsim.CachedRun(netsim.compile_network(qnet, plan=plan), x)
            for rb in ROT_CANDIDATES:
                for db in DRLO_CANDIDATES:
                    setting = LayerSparsity(rb, db)
                    floor = cache.sops_floor(name, cache.emitted(name, setting), counted)
                    full = _full_rerun_sops(qnet, plan.replaced(name, setting), x, include_io)
                    assert 0 <= floor <= full, (name, setting)
                    checked += 1
        assert checked == len(qnet.hidden_layers) * len(ROT_CANDIDATES) * len(DRLO_CANDIDATES)

    @pytest.mark.parametrize("include_io", [False, True], ids=["hidden", "io"])
    @pytest.mark.parametrize("budget", [0.0, 1.0])
    @pytest.mark.parametrize("bundle", BUNDLES)
    def test_skipped_candidates_cannot_win(self, bundle, budget, include_io, request,
                                           monkeypatch):
        """Every candidate the tuner does not rerun has a full-run (SOPs, rot,
        drlo) greater than the chosen candidate's (SOPs, rot, drlo)."""
        qnet, x, y = _tune_inputs(request.getfixturevalue(bundle))
        calls = _counting_reruns(monkeypatch)
        result = tune_hybrid(qnet, x, y, accuracy_budget=budget, include_io=include_io)
        rerun, skipped = set(calls), 0
        for name, plan, step in _layer_states(qnet, result):
            chosen = (step.sops, step.chosen.rot_bits, step.chosen.drlo_bits)
            for rb in ROT_CANDIDATES:
                for db in DRLO_CANDIDATES:
                    setting = LayerSparsity(rb, db)
                    if setting.is_identity() or (name, setting) in rerun:
                        continue
                    sops = _full_rerun_sops(qnet, plan.replaced(name, setting), x, include_io)
                    assert (sops, rb, db) > chosen, (name, setting)
                    skipped += 1
        assert skipped > 0


class TestSuffixOnly:
    @pytest.mark.parametrize("bundle", ["cnn_bundle", "residual_bundle"])
    def test_step_sum_calls_per_population(self, bundle, request, monkeypatch):
        qnet, x, y = _tune_inputs(request.getfixturevalue(bundle))
        calls = Counter()
        original = netsim._population_step

        def counting(pop, *args):
            calls[pop.name] += 1
            return original(pop, *args)

        monkeypatch.setattr(netsim, "_population_step", counting)
        tune_hybrid(qnet, x, y, accuracy_budget=0.015)

        pops = netsim.compile_network(qnet).populations
        hidden = {p.name for p in pops if not p.signed}
        upstream = {INPUT_NAME: set()}
        for pop in pops:
            upstream[pop.name] = set(pop.inputs).union(*(upstream[s] for s in pop.inputs))
        # per tuned upstream layer: every non-identity candidate, once each
        candidates = len(ROT_CANDIDATES) * len(DRLO_CANDIDATES) - 1
        assert calls[pops[0].name] == 1
        for pop in pops:
            assert calls[pop.name] <= 1 + candidates * len(upstream[pop.name] & hidden)
        assert sum(calls.values()) < len(pops) * (1 + candidates * len(hidden))
