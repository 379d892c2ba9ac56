"""End-to-end acceptance gate.

Each test checks one shipping criterion and prints a single
``criterion N <name>: PASS/FAIL - detail`` line (visible with ``pytest -s``
or ``-rA``) before asserting, so a red run names exactly what regressed.
"""

import copy
import time

import numpy as np

from conftest import encode_integer, encode_planes
from stemc import fixtures, metrics, netsim
from stemc.fixedpoint import FixedMult, apply, from_real
from stemc.quantizer import build_quantized_network, calibrate, quantize_tensor
from stemc.refengine import int_forward
from stemc.sparsity import LayerSparsity, SparsityPlan, drlo, rot, tune_hybrid
from stemc.stem import step_weights


def _report(n: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {n} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def _saturations(layers) -> int:
    return sum(a.saturations for a in layers.values())


def _deep(depth: int, n: int, k: int = 8):
    model = fixtures.make_deep_mlp(depth)
    rng = np.random.default_rng(31 + depth)
    x = rng.uniform(0.0, 1.0, size=(n,) + model.input_shape).astype(np.float32)
    stats = calibrate(model, x)
    qnet = build_quantized_network(model, stats, k=k)
    x_int, _ = quantize_tensor(x, qnet.input_params)
    return qnet, x_int


def test_criterion_1_bit_exact_equivalence(mlp_bundle, cnn_bundle, residual_bundle):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    total = mismatches = 0
    for bundle in (mlp_bundle, cnn_bundle, residual_bundle):
        q = bundle.qnet
        x = rng.integers(-q.q_max, q.q_max + 1, size=(500,) + tuple(q.input_shape))
        sim = netsim.run_batch(netsim.compile_network(q), x).outputs
        ref, _ = int_forward(q, x, mode="hw")
        mismatches += int(np.count_nonzero(np.any(sim != ref, axis=-1)))
        total += x.shape[0]
    dt = time.perf_counter() - t0
    _report(1, "spiking run equals integer oracle", mismatches == 0 and dt < 60.0,
            f"{mismatches} mismatches / {total} full-range random samples "
            f"across 3 topologies in {dt:.1f}s")


def test_criterion_2_wire_format():
    t0 = time.perf_counter()
    signed = step_weights(8, signed=True)
    unsigned = step_weights(8, signed=False)
    ok = all(encode_integer(q, 8, True) @ signed == q for q in range(-128, 128))
    ok &= all(encode_integer(v, 8, False) @ unsigned == v for v in range(128))
    ok &= all(np.array_equal(encode_planes(np.array(v), 8, False),
                             encode_integer(v, 8, False))
              for v in range(128))
    dt = time.perf_counter() - t0
    _report(2, "wire format round-trips exhaustively", bool(ok) and dt < 1.0,
            f"signed [-128,127], unsigned/generated [0,127] in {dt:.2f}s")


def test_criterion_3_spike_thinning_example():
    after_rot = rot(83, 2, 8)
    after_cut = drlo(after_rot, 3)
    spikes_before = int(encode_planes(np.array(83), 8, False).sum())
    spikes_after = int(encode_planes(np.array(after_cut), 8, False).sum())
    ok = (after_rot, after_cut, spikes_before, spikes_after) == (84, 80, 4, 2)
    _report(3, "round-off + low-bit drop thins the train", ok,
            f"83 -> {after_rot} -> {after_cut}, spikes {spikes_before} -> {spikes_after}")


def test_criterion_4_saturation_discipline(mlp_bundle, cnn_bundle, residual_bundle,
                                           bias_bundle, widefan_bundle):
    t0 = time.perf_counter()
    # calibrated M0 keeps every accumulator in range on the calibration set
    clean = 0
    for bundle in (mlp_bundle, cnn_bundle, residual_bundle, bias_bundle):
        x = bundle.x_int[:64]
        _, rec = int_forward(bundle.qnet, x, mode="hw")
        res = netsim.run_batch(netsim.compile_network(bundle.qnet), x)
        clean += _saturations(rec) + sum(t.saturations for t in res.traces)
    # stripping the protection must overflow - identically on both routes
    q = copy.deepcopy(widefan_bundle.qnet)
    q.layers[0].m0 = from_real(1.0)
    q.layers[0].m1 = q.layers[0].m_hat
    q.validate()
    ref, rec = int_forward(q, widefan_bundle.x_int, mode="hw")
    res = netsim.run_batch(netsim.compile_network(q), widefan_bundle.x_int)
    forced_ref = _saturations(rec)
    forced_sim = sum(t.saturations for t in res.traces)
    same = np.array_equal(res.outputs, ref)
    dt = time.perf_counter() - t0
    ok = clean == 0 and forced_ref > 0 and forced_ref == forced_sim and same and dt < 10.0
    _report(4, "accumulators saturate only without M0 protection", ok,
            f"calibrated saturations {clean}; unprotected {forced_ref} (oracle) "
            f"== {forced_sim} (simulator), outputs still identical, in {dt:.1f}s")


def test_criterion_5_bias_schemes(bias_bundle):
    q = bias_bundle.qnet
    model = bias_bundle.model
    fc1, fc2 = q.layer("fc1"), q.layer("fc2")
    # what the product scale would have required for fc1
    prod_q = np.round(model.layer("fc1").bias.astype(np.float64)
                      / (fc1.scale_w * fc1.scale_in))
    overflow = int(np.abs(prod_q).max())
    ok = (fc1.bias_scheme == "output" and fc1.bias_width == 8
          and overflow > 32767
          and int(np.abs(fc1.bias).max()) <= 127
          and fc2.bias_scheme == "product" and fc2.bias_width == 16
          and int(np.abs(fc2.bias).max()) <= 32767)
    _report(5, "oversized biases fall back to the output scheme", ok,
            f"fc1 product-scale |q_b| up to {overflow} (> 32767) stored as "
            f"output/8b; fc2 stays product/16b")


def test_criterion_6_pipeline_timing(residual_bundle):
    t0 = time.perf_counter()
    checks = []
    for depth, k, n_samples in ((2, 8, 1), (2, 8, 5), (4, 8, 16)):
        qnet, x_int = _deep(depth, max(n_samples, 8), k=k)
        snet = netsim.compile_network(qnet)
        pipe = netsim.run_pipeline(snet, x_int[:n_samples])
        seq = netsim.run_batch(snet, x_int[:n_samples])
        checks.append(pipe.timing.total_steps == k * (depth + n_samples)
                      and np.array_equal(pipe.outputs, seq.outputs))
    snet = netsim.compile_network(residual_bundle.qnet)
    pipe = netsim.run_pipeline(snet, residual_bundle.x_int)
    seq = netsim.run_batch(snet, residual_bundle.x_int)
    checks.append(pipe.timing.total_steps == 8 * (4 + len(residual_bundle.x_int))
                  and np.array_equal(pipe.outputs, seq.outputs))
    dt = time.perf_counter() - t0
    ok = all(checks) and dt < 30.0
    _report(6, "pipeline drains in K*(stages+samples) steps", ok,
            f"(L,K,S) timing and output parity on 3 depths + shortcut "
            f"topology in {dt:.1f}s")


def test_criterion_7_sparsity_savings(cnn_bundle):
    t0 = time.perf_counter()
    q = cnn_bundle.qnet
    x, labels = cnn_bundle.x_int, cnn_bundle.ds.labels

    def measure(plan):
        res = netsim.run_batch(netsim.compile_network(q, plan=plan), x)
        acc = float(np.mean(np.argmax(res.outputs, axis=-1) == labels))
        return metrics.sop_total(res.traces, q), acc

    base_sops, base_acc = measure(SparsityPlan.identity())
    hidden = [l.name for l in q.layers
              if l.kind != "flatten" and l is not q.output_layer]
    rot_sops, _ = measure(SparsityPlan({n: LayerSparsity(1, 0) for n in hidden}))
    rot_cut = (base_sops - rot_sops) / base_sops

    tuned = tune_hybrid(q, x, labels, accuracy_budget=0.015)
    tuned_cut = (tuned.baseline_sops - tuned.final_sops) / tuned.baseline_sops
    drop = tuned.baseline_accuracy - tuned.final_accuracy
    dt = time.perf_counter() - t0
    ok = rot_cut >= 0.10 and tuned_cut >= 0.05 and drop <= 0.015 and dt < 120.0
    _report(7, "sparsification saves SOPs within the accuracy budget", ok,
            f"global rot=1 cuts {100 * rot_cut:.1f}% (need >=10%); tuner cuts "
            f"{100 * tuned_cut:.1f}% (need >=5%) at accuracy drop "
            f"{drop:.4f} <= 0.015, base {base_acc:.4f}, in {dt:.1f}s")


def test_criterion_8_energy_model(cnn_bundle):
    # break-even flips exactly at SOPs == (mac_pj / ac_pj) * MACs
    pairs_ok = (metrics.energy_estimate(300, 2299).ratio < 1.0
                and metrics.energy_estimate(300, 2301).ratio > 1.0
                and metrics.energy_estimate(100, 766).ratio < 1.0
                and metrics.energy_estimate(100, 767).ratio > 1.0)
    res = netsim.run_batch(netsim.compile_network(cnn_bundle.qnet),
                           cnn_bundle.x_int[:32])
    sops = metrics.sop_total(res.traces, cnn_bundle.qnet)
    macs = metrics.count_macs(cnn_bundle.qnet) * 32
    est = metrics.energy_estimate(macs, sops)
    want = (metrics.AC_PJ * sops) / (metrics.MAC_PJ * macs)
    exact = abs(est.ratio - want) <= 1e-12 * want
    wins = (est.sdann_uj < est.ann_uj) == (sops < macs * metrics.MAC_PJ / metrics.AC_PJ)
    ok = pairs_ok and exact and wins
    _report(8, "energy ratio follows 0.03pJ/SOP vs 0.23pJ/MAC", ok,
            f"measured cnn run: {sops} SOPs vs {macs} MACs, ratio {est.ratio:.4f}")


def test_criterion_9_fixed_point_oracle():
    t0 = time.perf_counter()

    def brute(m: FixedMult, x: int) -> int:
        p = x * m.mantissa
        d = 1 << m.shift
        if p >= 0:
            return (2 * p + d) // (2 * d)
        return -((-2 * p + d) // (2 * d))

    rng = np.random.default_rng(99)
    mismatches = 0
    total = 0
    for _ in range(50):
        mantissa = int(rng.integers(1 << 30, 1 << 31))
        if rng.random() < 0.25:
            mantissa = -mantissa
        m = FixedMult(mantissa, int(rng.integers(0, 63)))
        small = rng.integers(-(1 << 20), 1 << 20, size=19_600)
        large = rng.integers(-(1 << 40), 1 << 40, size=400)   # big-int fallback
        for xs in (small, large):
            got = apply(m, xs)
            for x, g in zip(xs.tolist(), np.asarray(got).tolist()):
                mismatches += int(g != brute(m, int(x)))
            total += xs.size
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and total == 1_000_000 and dt < 10.0
    _report(9, "requantization matches the big-int oracle", ok,
            f"{mismatches} mismatches / {total} draws "
            f"(incl. beyond-int64 operands) in {dt:.1f}s")
