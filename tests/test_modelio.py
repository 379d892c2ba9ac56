import json
import re
import struct

import numpy as np
import pytest

from stemc import fixtures
from stemc.modelio import (
    FloatModel,
    LayerDesc,
    ModelFormatError,
    infer_shapes,
    load_dataset,
    load_model,
    load_quantized_model,
    save_dataset,
    save_model,
    save_quantized_model,
)
from stemc.refengine import int_forward


def _fc_desc(name, src, n_in, n_out, rng):
    return LayerDesc(
        name=name, kind="fully-connected",
        attrs={"in_features": n_in, "out_features": n_out}, inputs=[src],
        weights=rng.normal(size=(n_out, n_in)).astype(np.float32),
        bias=rng.normal(size=n_out).astype(np.float32),
    )


class TestFloatRoundtrip:
    def test_mlp_bit_exact(self, tmp_path):
        model = fixtures.make_mlp()
        save_model(model, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        assert back.name == model.name
        assert back.input_shape == model.input_shape
        assert [l.name for l in back.layers] == [l.name for l in model.layers]
        for a, b in zip(model.layers, back.layers):
            assert a.kind == b.kind
            assert a.inputs == b.inputs
            assert a.out_shape == b.out_shape
            assert a.activation == b.activation
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_cnn_attrs_survive(self, tmp_path):
        model = fixtures.make_cnn()
        save_model(model, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        conv = back.layer("conv1")
        assert conv.attrs["kernel"] == [3, 3]
        assert conv.attrs["padding"] == 1
        assert back.layer("pool1").attrs["stride"] == 2
        assert back.layer("flat").weights is None

    def test_truncated_blob(self, tmp_path):
        save_model(fixtures.make_mlp(), tmp_path / "m.json")
        blob = tmp_path / "m.fc1.w.bin"
        blob.write_bytes(blob.read_bytes()[:-4])
        with pytest.raises(ModelFormatError, match="expected"):
            load_model(tmp_path / "m.json")

    def test_missing_blob(self, tmp_path):
        save_model(fixtures.make_mlp(), tmp_path / "m.json")
        (tmp_path / "m.fc2.w.bin").unlink()
        with pytest.raises(ModelFormatError, match="does not exist"):
            load_model(tmp_path / "m.json")

    def test_version_mismatch(self, tmp_path):
        save_model(fixtures.make_mlp(), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["format_version"] = 99
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="format_version"):
            load_model(tmp_path / "m.json")

    def test_not_json(self, tmp_path):
        (tmp_path / "m.json").write_text("{broken")
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "m.json")


class TestQuantizedRoundtrip:
    def test_constants_bit_exact(self, tmp_path, mlp_bundle):
        save_quantized_model(mlp_bundle.qnet, tmp_path / "q.json")
        back = load_quantized_model(tmp_path / "q.json")
        q = mlp_bundle.qnet
        assert (back.k, back.acc_bits, back.bias_check_width) == (
            q.k, q.acc_bits, q.bias_check_width)
        assert back.input_scale == q.input_scale
        for a, b in zip(q.layers, back.layers):
            assert a.name == b.name and a.kind == b.kind
            assert a.scale_in == b.scale_in
            assert a.scale_w == b.scale_w
            assert a.scale_out == b.scale_out
            if a.kind == "flatten":
                continue
            assert (a.m0.mantissa, a.m0.shift) == (b.m0.mantissa, b.m0.shift)
            assert (a.m1.mantissa, a.m1.shift) == (b.m1.mantissa, b.m1.shift)
            assert (a.m_hat.mantissa, a.m_hat.shift) == (b.m_hat.mantissa, b.m_hat.shift)
            assert a.i_max == b.i_max
            assert a.bias_scheme == b.bias_scheme
            assert a.bias_width == b.bias_width
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_behavior_identical_after_reload(self, tmp_path, mlp_bundle):
        save_quantized_model(mlp_bundle.qnet, tmp_path / "q.json")
        back = load_quantized_model(tmp_path / "q.json")
        x = mlp_bundle.x_int[:8]
        want, _ = int_forward(mlp_bundle.qnet, x, mode="hw")
        got, _ = int_forward(back, x, mode="hw")
        assert np.array_equal(want, got)

    def test_sparsity_manifest_survives(self, tmp_path, mlp_bundle):
        save_quantized_model(mlp_bundle.qnet, tmp_path / "q.json")
        q2 = load_quantized_model(tmp_path / "q.json")
        q2.sparsity = [{"layer": "fc1", "rot": 1, "drlo": 2}]
        save_quantized_model(q2, tmp_path / "q2.json")
        q3 = load_quantized_model(tmp_path / "q2.json")
        assert q3.sparsity == [{"layer": "fc1", "rot": 1, "drlo": 2}]

    def test_wrong_manifest_type(self, tmp_path, mlp_bundle):
        save_model(fixtures.make_mlp(), tmp_path / "f.json")
        save_quantized_model(mlp_bundle.qnet, tmp_path / "q.json")
        with pytest.raises(ModelFormatError, match="not a quantized"):
            load_quantized_model(tmp_path / "f.json")
        with pytest.raises(ModelFormatError, match="not a float"):
            load_model(tmp_path / "q.json")


def _entry(doc, name):
    return next(e for e in doc["layers"] if e["name"] == name)


def _pool_takes_conv_weights(doc):
    _entry(doc, "pool1")["weights_file"] = _entry(doc, "conv1")["weights_file"]


BOTH_TYPES = [
    ("no-layer-name", lambda d: d["layers"][1].pop("name"), "layer #1 has no 'name'"),
    ("pool-weights", _pool_takes_conv_weights,
     "layer 'pool1': kind 'avgpool2d' takes no weights"),
    ("no-inputs", lambda d: _entry(d, "conv1").pop("inputs"), "layer 'conv1' has no inputs"),
    ("no-attr", lambda d: _entry(d, "fc")["attrs"].pop("in_features"),
     "layer 'fc': missing attr 'in_features'"),
    ("int-kernel", lambda d: _entry(d, "conv1")["attrs"].update(kernel=3),
     "layer 'conv1': bad attr 'kernel' value 3"),
    ("kernel-zero", lambda d: _entry(d, "pool1")["attrs"].update(kernel=[2, 0]),
     "layer 'pool1': bad attr 'kernel' value [2, 0]"),
    ("kernel-triple", lambda d: _entry(d, "conv2")["attrs"].update(kernel=[3, 3, 3]),
     "layer 'conv2': bad attr 'kernel' value [3, 3, 3]"),
    ("stride-zero", lambda d: _entry(d, "conv1")["attrs"].update(stride=0),
     "layer 'conv1': bad attr 'stride' value 0"),
    ("pool-stride-zero", lambda d: _entry(d, "pool2")["attrs"].update(stride=0),
     "layer 'pool2': bad attr 'stride' value 0"),
    ("padding-negative", lambda d: _entry(d, "conv2")["attrs"].update(padding=-1),
     "layer 'conv2': bad attr 'padding' value -1"),
    ("channels-zero", lambda d: _entry(d, "conv1")["attrs"].update(out_channels=0),
     "layer 'conv1': bad attr 'out_channels' value 0"),
    ("channels-float", lambda d: _entry(d, "conv2")["attrs"].update(in_channels=4.0),
     "layer 'conv2': bad attr 'in_channels' value 4.0"),
    ("features-string", lambda d: _entry(d, "fc")["attrs"].update(out_features="10"),
     "layer 'fc': bad attr 'out_features' value '10'"),
]


@pytest.mark.parametrize("model_type,edit,match", [
    pytest.param(t, edit, match, id=f"{t}-{case}")
    for t in ("float", "quantized") for case, edit, match in BOTH_TYPES
] + [
    pytest.param("float", lambda d: d.pop("input_shape"), "missing key 'input_shape'",
                 id="float-no-input_shape"),
    pytest.param("quantized", lambda d: d.pop("k"), "missing key 'k'", id="quantized-no-k"),
    pytest.param("quantized", lambda d: _entry(d, "conv2").pop("m0"),
                 "layer 'conv2': missing m0", id="quantized-no-m0"),
    pytest.param("quantized", lambda d: _entry(d, "fc").update(bias_scheme="bogus"),
                 "layer 'fc': bias scheme 'bogus'", id="quantized-bad-bias-scheme"),
])
def test_malformed_manifest_raises(tmp_path, cnn_bundle, model_type, edit, match):
    path = tmp_path / "m.json"
    if model_type == "float":
        save_model(cnn_bundle.model, path)
        load = load_model
    else:
        save_quantized_model(cnn_bundle.qnet, path)
        load = load_quantized_model
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=re.escape(match)):
        load(path)


class TestValidation:
    def test_conv_weight_shape_mismatch(self, rng):
        lyr = LayerDesc(
            name="c", kind="conv2d",
            attrs={"in_channels": 4, "out_channels": 16, "kernel": [3, 3],
                   "stride": 1, "padding": 1},
            inputs=["input"], weights=np.zeros((16, 3, 3, 3), dtype=np.float32),
        )
        m = FloatModel("bad", (4, 8, 8), [lyr])
        with pytest.raises(ModelFormatError, match="weight shape"):
            infer_shapes(m)

    def test_duplicate_name(self, rng):
        m = FloatModel("bad", (6,), [
            _fc_desc("a", "input", 6, 6, rng),
            _fc_desc("a", "a", 6, 4, rng),
        ])
        with pytest.raises(ModelFormatError, match="duplicate"):
            infer_shapes(m)

    def test_forward_reference(self, rng):
        m = FloatModel("bad", (6,), [
            _fc_desc("a", "zz", 6, 6, rng),
            _fc_desc("zz", "a", 6, 4, rng),
        ])
        with pytest.raises(ModelFormatError, match="before its"):
            infer_shapes(m)

    def test_residual_branch_shapes_differ(self, rng):
        m = FloatModel("bad", (6,), [
            _fc_desc("a", "input", 6, 6, rng),
            _fc_desc("b", "a", 6, 4, rng),
            LayerDesc("j", "residual-add", {}, ["a", "b"]),
        ])
        with pytest.raises(ModelFormatError, match="branch shapes differ"):
            infer_shapes(m)

    def test_two_sinks(self, rng):
        m = FloatModel("bad", (6,), [
            _fc_desc("a", "input", 6, 6, rng),
            _fc_desc("b", "a", 6, 4, rng),
            _fc_desc("c", "a", 6, 4, rng),
        ])
        with pytest.raises(ModelFormatError, match="exactly one output"):
            infer_shapes(m)

    def test_pool_window_too_big(self):
        m = FloatModel("bad", (1, 4, 4), [
            LayerDesc("p", "avgpool2d", {"kernel": [5, 5], "stride": 5}, ["input"]),
        ])
        with pytest.raises(ModelFormatError, match="larger than input"):
            infer_shapes(m)

    def test_fc_needs_flat_input(self, rng):
        m = FloatModel("bad", (1, 4, 4), [
            _fc_desc("f", "input", 16, 4, rng),
        ])
        with pytest.raises(ModelFormatError, match="flatten first"):
            infer_shapes(m)

    def test_unknown_kind(self):
        m = FloatModel("bad", (6,), [LayerDesc("x", "maxpool2d", {}, ["input"])])
        with pytest.raises(ModelFormatError, match="unknown kind"):
            infer_shapes(m)

    def test_no_inputs(self, rng):
        lyr = _fc_desc("a", "input", 6, 6, rng)
        lyr.inputs = []
        with pytest.raises(ModelFormatError, match="no inputs"):
            infer_shapes(FloatModel("bad", (6,), [lyr]))

    def test_bias_shape_mismatch(self, rng):
        lyr = _fc_desc("a", "input", 6, 6, rng)
        lyr.bias = np.zeros(5, dtype=np.float32)
        with pytest.raises(ModelFormatError, match="bias shape"):
            infer_shapes(FloatModel("bad", (6,), [lyr]))

    def test_activation_tagging(self):
        model = fixtures.make_cnn()
        assert model.layer("conv1").activation == "relu"
        assert model.layer("pool1").activation == "none"
        assert model.layer("fc").activation == "none"  # output layer


class TestDataset:
    def test_roundtrip_image_shape(self, tmp_path, rng):
        x = rng.random((7, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 10, size=7).astype(np.int32)
        save_dataset(tmp_path / "d.ds", x, y)
        ds = load_dataset(tmp_path / "d.ds")
        assert np.array_equal(ds.inputs, x)
        assert np.array_equal(ds.labels, y)
        assert ds.labels.ndim == 1          # width-1 labels come back flat
        assert len(ds) == 7

    def test_roundtrip_wide_labels(self, tmp_path, rng):
        x = rng.random((5, 12)).astype(np.float32)
        y = rng.integers(0, 4, size=(5, 3)).astype(np.int32)
        save_dataset(tmp_path / "d.ds", x, y)
        ds = load_dataset(tmp_path / "d.ds")
        assert ds.labels.shape == (5, 3)
        assert np.array_equal(ds.labels, y)

    def test_iteration(self, tmp_path, rng):
        x = rng.random((4, 6)).astype(np.float32)
        y = np.arange(4, dtype=np.int32)
        save_dataset(tmp_path / "d.ds", x, y)
        pairs = list(load_dataset(tmp_path / "d.ds"))
        assert len(pairs) == 4
        assert np.array_equal(pairs[2][0], x[2])
        assert pairs[2][1] == 2

    def test_bad_magic(self, tmp_path):
        (tmp_path / "d.ds").write_bytes(b"XXXX" + b"\0" * 32)
        with pytest.raises(ModelFormatError, match="not a dataset"):
            load_dataset(tmp_path / "d.ds")

    def test_truncated(self, tmp_path, rng):
        x = rng.random((4, 6)).astype(np.float32)
        save_dataset(tmp_path / "d.ds", x, np.zeros(4, dtype=np.int32))
        raw = (tmp_path / "d.ds").read_bytes()
        (tmp_path / "d.ds").write_bytes(raw[:-4])
        with pytest.raises(ModelFormatError, match="expected"):
            load_dataset(tmp_path / "d.ds")

    @pytest.mark.parametrize("raw", [
        b"STDS\1\0",
        b"STDS" + struct.pack("<IIII", 1, 4, 2, 1),   # no room for its 2 dims
    ], ids=["in-counts", "in-dims"])
    def test_truncated_header(self, tmp_path, raw):
        (tmp_path / "d.ds").write_bytes(raw)
        with pytest.raises(ModelFormatError, match="expected at least"):
            load_dataset(tmp_path / "d.ds")

    def test_label_count_mismatch(self, tmp_path, rng):
        with pytest.raises(ModelFormatError, match="label count"):
            save_dataset(tmp_path / "d.ds", rng.random((4, 6)),
                         np.zeros(3, dtype=np.int32))

    def test_version_rejected(self, tmp_path, rng):
        x = rng.random((2, 3)).astype(np.float32)
        save_dataset(tmp_path / "d.ds", x, np.zeros(2, dtype=np.int32))
        raw = bytearray((tmp_path / "d.ds").read_bytes())
        raw[4] = 9   # version field, little-endian low byte
        (tmp_path / "d.ds").write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="version"):
            load_dataset(tmp_path / "d.ds")
