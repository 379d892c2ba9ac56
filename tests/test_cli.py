import json
import logging
import tracemalloc

import numpy as np
import pytest

from stemc import cli, fixtures, netsim
from stemc.modelio import (FloatModel, LayerDesc, infer_shapes, load_dataset,
                           load_quantized_model, save_dataset, save_model)
from stemc.netsim import rle_decode
from stemc.quantizer import build_quantized_network, calibrate, quantize_tensor
from test_netsim import _cnn28_shaped


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """Fixture models + a quantized mlp, built once through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    rc = cli.main(["make-fixtures", str(root / "fx"),
                   "--calib", "16", "--eval", "24"])
    assert rc == 0
    mlp = root / "fx" / "mlp"
    rc = cli.main(["quantize", str(mlp / "model.json"), str(mlp / "calib.ds"),
                   "-o", str(root / "mlp.q.json")])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def report_dir(tree):
    out = tree / "r1"
    rc = cli.main(["run", str(tree / "mlp.q.json"),
                   str(tree / "fx" / "mlp" / "eval.ds"), "--report", str(out)])
    assert rc == 0
    return out


class TestMakeFixtures:
    def test_tree_layout(self, tree):
        for name in ("bias-stress", "cnn", "mlp", "residual"):
            d = tree / "fx" / name
            assert (d / "model.json").exists()
            assert (d / "calib.ds").exists()
            assert (d / "eval.ds").exists()


class TestQuantize:
    def test_writes_loadable_model(self, tree):
        qnet = load_quantized_model(tree / "mlp.q.json")
        assert [l.name for l in qnet.layers] == ["fc1", "fc2", "fc3"]

    def test_constant_table_shows_schemes(self, tree, capsys):
        d = tree / "fx" / "bias-stress"
        rc = cli.main(["quantize", str(d / "model.json"), str(d / "calib.ds"),
                       "-o", str(tree / "bias.q.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "output/8b" in out
        assert "product/16b" in out
        assert "i_max" in out

    def test_k_flag_respected(self, tree):
        d = tree / "fx" / "mlp"
        rc = cli.main(["quantize", str(d / "model.json"), str(d / "calib.ds"),
                       "--k", "6", "-o", str(tree / "mlp.k6.json")])
        assert rc == 0
        assert load_quantized_model(tree / "mlp.k6.json").k == 6


class TestCompare:
    def test_routes_agree(self, tree, capsys):
        rc = cli.main(["compare", str(tree / "mlp.q.json"),
                       str(tree / "fx" / "mlp" / "eval.ds")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 mismatches / 24 samples" in out


class TestLoadInputs:
    def test_quantized_per_window(self, tmp_path):
        """The inputs are quantized one PIPELINE_WINDOW at a time into one
        int16 array: the values of quantizing the whole set at once, and on
        2048 cnn28-shaped samples a traced peak within 16 MiB (55.1 MiB when
        the whole set went through float64 and int64 temporaries)."""
        model = _cnn28_shaped()
        x = fixtures.class_inputs(np.random.default_rng(6), 2048, model.input_shape)
        qnet = build_quantized_network(model, calibrate(model, x[:32]))
        save_dataset(tmp_path / "x.ds", x, np.zeros(len(x), dtype=np.int32))
        tracemalloc.start()
        try:
            _, x_int = cli._load_inputs(qnet, str(tmp_path / "x.ds"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, peak / 2**20
        assert x_int.dtype == np.int16
        assert np.array_equal(x_int, quantize_tensor(x, qnet.input_params)[0])


class TestRun:
    def test_report_reruns_byte_identical(self, tree, report_dir):
        args = ["run", str(tree / "mlp.q.json"), str(tree / "fx" / "mlp" / "eval.ds")]
        assert cli.main(args + ["--report", str(tree / "r2")]) == 0
        for fname in ("summary.json", "layers.csv"):
            a = (report_dir / fname).read_bytes()
            assert a == (tree / "r2" / fname).read_bytes()

    def test_summary_fields(self, report_dir):
        doc = json.loads((report_dir / "summary.json").read_text())
        assert doc["mode"] == "sim"
        assert doc["samples"] == 24
        assert doc["saturations"] == 0
        assert doc["total_sops"] > 0
        assert doc["energy_ratio"] == pytest.approx(
            doc["sdann_uj"] / doc["ann_uj"])
        assert doc["steps_per_sample"] == 8 * 4      # 3 stages + output train

    def test_pipeline_mode_line(self, tree, capsys):
        rc = cli.main(["run", str(tree / "mlp.q.json"),
                       str(tree / "fx" / "mlp" / "eval.ds"), "--mode", "pipeline"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"pipeline: {8 * (3 + 24)} steps for 24 samples" in out

    def test_pipeline_summary_reports_saturations(self, tree, report_dir):
        rc = cli.main(["run", str(tree / "mlp.q.json"),
                       str(tree / "fx" / "mlp" / "eval.ds"), "--mode", "pipeline",
                       "--report", str(tree / "rp")])
        assert rc == 0
        doc = json.loads((tree / "rp" / "summary.json").read_text())
        sim = json.loads((report_dir / "summary.json").read_text())
        assert doc["mode"] == "pipeline"
        assert doc["total_steps"] == 8 * (3 + 24)
        assert isinstance(doc["saturations"], int)
        assert doc["saturations"] == sim["saturations"]

    @pytest.mark.parametrize("fixture", ["bias-stress", "cnn", "mlp", "residual"])
    def test_pipeline_report_equals_sim(self, tree, fixture):
        d = tree / "fx" / fixture
        q = tree / f"{fixture}.pipe.q.json"
        assert cli.main(["quantize", str(d / "model.json"), str(d / "calib.ds"),
                         "-o", str(q)]) == 0
        for mode in ("sim", "pipeline"):
            assert cli.main(["run", str(q), str(d / "eval.ds"), "--mode", mode,
                             "--report", str(tree / f"{fixture}-{mode}")]) == 0
        sim, pipe = (tree / f"{fixture}-sim", tree / f"{fixture}-pipeline")
        assert (pipe / "layers.csv").read_bytes() == (sim / "layers.csv").read_bytes()
        doc = json.loads((pipe / "summary.json").read_text())
        want = json.loads((sim / "summary.json").read_text())
        assert doc["total_sops"] is not None
        for key in ("mode", "steps_per_sample", "total_steps"):
            del doc[key], want[key]
        assert doc == want

    def test_oracle_mode_summary(self, tree):
        rc = cli.main(["run", str(tree / "mlp.q.json"),
                       str(tree / "fx" / "mlp" / "eval.ds"),
                       "--mode", "oracle", "--oracle-mode", "direct",
                       "--report", str(tree / "ro")])
        assert rc == 0
        doc = json.loads((tree / "ro" / "summary.json").read_text())
        assert doc["mode"] == "oracle-direct"
        assert doc["total_sops"] is None             # no spikes in oracle mode

    def test_summary_is_strict_json_without_macs(self, tmp_path):
        """A network of one avgpool does no MACs, so its energy ratio has no
        finite value: summary.json writes it as null, and stays strict JSON."""
        model = FloatModel(name="pool-only", input_shape=(1, 4, 4), layers=[
            LayerDesc(name="pool", kind="avgpool2d", attrs={"kernel": [2, 2]},
                      inputs=["input"])])
        infer_shapes(model)
        save_model(model, tmp_path / "model.json")
        x = np.random.default_rng(0).uniform(0, 1, size=(8, 1, 4, 4)).astype(np.float32)
        save_dataset(tmp_path / "data.ds", x, np.zeros(8, dtype=np.int64))
        q, data = str(tmp_path / "q.json"), str(tmp_path / "data.ds")
        assert cli.main(["quantize", str(tmp_path / "model.json"), data, "-o", q]) == 0
        assert cli.main(["run", q, data, "--report", str(tmp_path / "r")]) == 0

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        text = (tmp_path / "r" / "summary.json").read_text()
        doc = json.loads(text, parse_constant=reject)
        assert doc["macs_per_sample"] == 0 and doc["energy_ratio"] is None

    @pytest.mark.parametrize("mode", ["sim", "oracle"])
    def test_windows_change_no_report(self, tree, mode, monkeypatch):
        args = ["run", str(tree / "mlp.q.json"), str(tree / "fx" / "mlp" / "eval.ds"),
                "--mode", mode]
        assert cli.main(args + ["--report", str(tree / f"w-{mode}")]) == 0   # one window
        monkeypatch.setattr(netsim, "PIPELINE_WINDOW", 5)
        assert cli.main(args + ["--report", str(tree / f"w5-{mode}")]) == 0
        for path in (tree / f"w-{mode}").iterdir():
            assert path.read_bytes() == (tree / f"w5-{mode}" / path.name).read_bytes()

    def test_dump_spikes_parses(self, tree):
        dump = tree / "spikes.txt"
        rc = cli.main(["run", str(tree / "mlp.q.json"),
                       str(tree / "fx" / "mlp" / "eval.ds"),
                       "--dump-spikes", str(dump)])
        assert rc == 0
        lines = dump.read_text().splitlines()
        # 24 samples x 8 steps x (input + 3 layers)
        assert len(lines) == 24 * 8 * 4
        name, sample, step, runs = lines[0].split(" ", 3)
        assert name == "input" and (sample, step) == ("0", "0")
        assert rle_decode(runs, 36).shape == (36,)

    def test_strict_capacity_flag(self, tree, capsys):
        """A profile the network fits changes nothing a run prints or writes."""
        profile = tree / "fits.json"
        profile.write_text(json.dumps({"acc_bits": 16, "weight_bits": 8, "max_fanin": 1024,
                                       "neurons_per_core": 1024, "cores": 128}))
        for mode in ("sim", "pipeline", "oracle"):
            report = tree / f"fits-{mode}"
            args = ["run", str(tree / "mlp.q.json"), str(tree / "fx" / "mlp" / "eval.ds"),
                    "--mode", mode, "--report", str(report)]
            capsys.readouterr()
            assert cli.main(args) == 0
            want = capsys.readouterr().out, {f.name: f.read_bytes() for f in report.iterdir()}
            assert cli.main(args + ["--hw-profile", str(profile)]) == 0
            got = capsys.readouterr().out, {f.name: f.read_bytes() for f in report.iterdir()}
            assert got == want


class TestTune:
    def test_tuned_manifest_reloads_and_runs(self, tree, capsys):
        rc = cli.main(["tune-sparsity", str(tree / "mlp.q.json"),
                       str(tree / "fx" / "mlp" / "eval.ds"),
                       "--budget", "0.05", "-o", str(tree / "mlp.tuned.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "baseline: sops=" in out
        assert "tuned:" in out and "fewer SOPs" in out
        qnet = load_quantized_model(tree / "mlp.tuned.json")
        for entry in qnet.sparsity:
            assert set(entry) == {"layer", "rot", "drlo"}
        rc = cli.main(["run", str(tree / "mlp.tuned.json"),
                       str(tree / "fx" / "mlp" / "eval.ds")])
        assert rc == 0


class TestReport:
    def test_consolidates_runs(self, tree, report_dir, capsys):
        rc = cli.main(["report", str(report_dir / "summary.json"),
                       str(report_dir / "summary.json"),
                       "-o", str(tree / "runs.csv")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wrote" in out
        lines = (tree / "runs.csv").read_text().splitlines()
        assert lines[0].startswith("run,")
        assert len(lines) == 3

    def test_accepts_report_directories(self, tree, report_dir, capsys):
        rc = cli.main(["report", str(report_dir), str(report_dir / "summary.json"),
                       "-o", str(tree / "runs2.csv")])
        assert rc == 0
        lines = (tree / "runs2.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[0] == report_dir.name


class TestErrors:
    def test_missing_model_exits_2(self, tree, capsys):
        rc = cli.main(["run", str(tree / "nope.json"),
                       str(tree / "fx" / "mlp" / "eval.ds")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")

    def test_malformed_quantized_manifest_exits_2(self, tree, capsys):
        doc = json.loads((tree / "mlp.q.json").read_text())
        del doc["layers"][0]["m0"]
        bad = tree / "no-m0.q.json"
        bad.write_text(json.dumps(doc))
        rc = cli.main(["run", str(bad), str(tree / "fx" / "mlp" / "eval.ds")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: no-m0.q.json: layer 'fc1': missing m0\n")

    def test_corrupt_dataset_exits_2(self, tree, capsys):
        bad = tree / "bad.ds"
        bad.write_bytes(b"not a dataset")
        rc = cli.main(["compare", str(tree / "mlp.q.json"), str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["quantize", "{tree}/fx/mlp/model.json", "{empty}", "-o", "{tree}/e.q.json"],
        ["run", "{tree}/mlp.q.json", "{empty}", "--mode", "sim"],
        ["run", "{tree}/mlp.q.json", "{empty}", "--mode", "pipeline"],
        ["run", "{tree}/mlp.q.json", "{empty}", "--mode", "oracle"],
        ["compare", "{tree}/mlp.q.json", "{empty}"],
        ["tune-sparsity", "{tree}/mlp.q.json", "{empty}", "--budget", "0.05"],
    ], ids=["quantize", "run-sim", "run-pipeline", "run-oracle", "compare", "tune"])
    def test_empty_dataset_exits_2(self, tree, capsys, argv):
        empty = tree / "empty.ds"
        save_dataset(empty, np.zeros((0, 36), dtype=np.float32),
                     np.zeros(0, dtype=np.int32))
        rc = cli.main([a.format(tree=tree, empty=empty) for a in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {empty}: dataset holds no samples\n"

    @pytest.mark.parametrize("argv", [
        ["quantize", "{tree}/fx/mlp/model.json", "{bad}", "-o", "{tree}/nan.q.json"],
        ["run", "{tree}/mlp.q.json", "{bad}", "--mode", "sim"],
        ["run", "{tree}/mlp.q.json", "{bad}", "--mode", "pipeline"],
        ["run", "{tree}/mlp.q.json", "{bad}", "--mode", "oracle"],
        ["compare", "{tree}/mlp.q.json", "{bad}"],
        ["tune-sparsity", "{tree}/mlp.q.json", "{bad}", "--budget", "0.05"],
    ], ids=["quantize", "run-sim", "run-pipeline", "run-oracle", "compare", "tune"])
    def test_non_finite_input_exits_2(self, tree, capsys, argv):
        ds = load_dataset(tree / "fx" / "mlp" / "eval.ds")
        inputs = ds.inputs[:5].copy()
        inputs[2, 7] = np.nan
        bad = tree / "nan.ds"
        save_dataset(bad, inputs, ds.labels[:5])
        rc = cli.main([a.format(tree=tree, bad=bad) for a in argv])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: 1 of 180 input values are not finite\n")

    def test_dataset_error_names_the_path_as_given(self, tree, capsys, monkeypatch):
        """Every fixture's eval set is called eval.ds, so an error must name
        the directory too: here a relative path, printed as typed."""
        ds = load_dataset(tree / "fx" / "cnn" / "eval.ds")
        inputs = ds.inputs[:4].copy()
        inputs[1, 0, 2, 3] = np.nan
        (tree / "work" / "cnn").mkdir(parents=True)
        save_dataset(tree / "work" / "cnn" / "bad.ds", inputs, ds.labels[:4])
        rc = cli.main(["quantize", str(tree / "fx" / "cnn" / "model.json"),
                       str(tree / "fx" / "cnn" / "calib.ds"), "-o", str(tree / "cnn.q.json")])
        assert rc == 0
        monkeypatch.chdir(tree)
        capsys.readouterr()
        assert cli.main(["run", "cnn.q.json", "work/cnn/bad.ds"]) == 2
        assert capsys.readouterr().err == (
            "error: work/cnn/bad.ds: 1 of 256 input values are not finite\n")

    @pytest.mark.parametrize("flag,count", [("--calib", "0"), ("--eval", "0"),
                                            ("--calib", "-3"), ("--eval", "-1")])
    def test_make_fixtures_count_below_1_exits_2(self, tmp_path, capsys, flag, count):
        out = tmp_path / "fx"
        rc = cli.main(["make-fixtures", str(out), flag, count])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {flag} must be at least 1, not {count}\n"
        assert not out.exists()

    def test_make_fixtures_negative_seed_exits_2(self, tmp_path, capsys):
        """A negative seed is rejected before any file is written."""
        out = tmp_path / "fx"
        rc = cli.main(["make-fixtures", str(out), "--seed", "-1"])
        assert rc == 2
        assert capsys.readouterr().err == "error: --seed must be non-negative, not -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["pipeline", "oracle"])
    def test_dump_spikes_needs_sim_mode(self, tree, capsys, mode):
        dump = tree / f"spikes-{mode}.txt"
        rc = cli.main(["run", str(tree / "mlp.q.json"),
                       str(tree / "fx" / "mlp" / "eval.ds"), "--mode", mode,
                       "--dump-spikes", str(dump)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --dump-spikes needs --mode sim, not --mode {mode}\n")
        assert not dump.exists()

    def test_strict_capacity_needs_simulator(self, tree, capsys):
        """Every mode, the oracle too, fails on a profile the network exceeds,
        with one line naming every population and limit, and writes no report."""
        profile = tree / "exceeded.json"
        profile.write_text(json.dumps({"acc_bits": 12, "weight_bits": 2, "max_fanin": 12}))
        want = ("error: capacity check failed: accumulator width 16 exceeds profile 12; "
                + "; ".join(f"{name}: fan-in {fanin} exceeds 12; "
                            f"{name}: weight magnitude 127 exceeds 2-bit range"
                            for name, fanin in (("fc1", 36), ("fc2", 24), ("fc3", 16)))
                + "\n")
        for mode in ("sim", "pipeline", "oracle"):
            report = tree / f"exceeded-{mode}"
            rc = cli.main(["run", str(tree / "mlp.q.json"),
                           str(tree / "fx" / "mlp" / "eval.ds"), "--mode", mode,
                           "--hw-profile", str(profile), "--report", str(report)])
            assert rc == 2
            assert capsys.readouterr().err == want
            assert not report.exists()

    @pytest.mark.parametrize("text,key", [
        (None, None),
        ("{acc_bits: 16", None),
        ("[16]", None),
        ('{"acc_width": 16}', "acc_width"),
        ('{"acc_bits": true}', "acc_bits"),
        ('{"acc_bits": 0}', "acc_bits"),
        ('{"acc_bits": "16"}', "acc_bits"),
        ('{"cores": 4}', "cores"),
    ], ids=["unreadable", "not-json", "not-object", "unknown-key", "bool", "zero",
            "string", "cores-alone"])
    def test_bad_hw_profile_exits_2(self, tree, capsys, text, key):
        profile = tree / "bad-profile.json"
        profile.unlink(missing_ok=True)
        if text is not None:
            profile.write_text(text)
        report = tree / "bad-profile-report"
        rc = cli.main(["run", str(tree / "mlp.q.json"), str(tree / "fx" / "mlp" / "eval.ds"),
                       "--hw-profile", str(profile), "--report", str(report)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(profile) in err
        assert key is None or repr(key) in err
        assert not report.exists()

    def test_unknown_command_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_tune_requires_budget(self, tree):
        with pytest.raises(SystemExit):
            cli.main(["tune-sparsity", str(tree / "mlp.q.json"),
                      str(tree / "fx" / "mlp" / "eval.ds")])

    @pytest.mark.parametrize("budget", ["-0.5", "nan", "1.5"])
    def test_budget_outside_0_1_exits_2(self, tree, capsys, budget):
        out = tree / f"tuned-{budget}.q.json"
        rc = cli.main(["tune-sparsity", str(tree / "mlp.q.json"),
                       str(tree / "fx" / "mlp" / "eval.ds"), "--budget", budget,
                       "-o", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: accuracy budget {float(budget)!r} is not a fraction in [0, 1]\n")
        assert not out.exists()

    def test_bias_bits_beyond_int32_exits_2(self, tree, capsys):
        d = tree / "fx" / "mlp"
        out = tree / "bias33.q.json"
        rc = cli.main(["quantize", str(d / "model.json"), str(d / "calib.ds"),
                       "--bias-bits", "33", "-o", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: bias check width 33 outside [2, 32]: biases are stored as int32\n")
        assert not out.exists()


class TestLogging:
    def test_only_the_documented_records(self, tree, caplog):
        caplog.set_level(logging.DEBUG, logger="stemc")
        args = [str(tree / "mlp.q.json"), str(tree / "fx" / "mlp" / "eval.ds")]
        assert cli.main(["run", *args, "--mode", "pipeline"]) == 0
        assert cli.main(["compare", *args]) == 0
        assert caplog.records == []                   # nothing per layer or stage
        assert cli.main(["tune-sparsity", *args, "--budget", "0.05"]) == 0
        assert [r.levelname for r in caplog.records] == ["INFO"]
        assert caplog.records[0].getMessage().startswith("tuned plan")
        caplog.clear()
        assert cli.main(["run", str(tree / "missing.q.json"), args[1]]) == 2
        assert [r.levelname for r in caplog.records] == ["DEBUG"]
        assert caplog.records[0].exc_info is not None  # the failure's traceback
