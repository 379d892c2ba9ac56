"""Deterministic synthetic models and datasets for tests and demos.

Every builder takes a seed and returns the same network for the same seed;
datasets label inputs with the float model's own argmax, so a quantized or
spiking run has a meaningful accuracy to lose. Input ranges are part of the
fixture (images live in [0, 1], the bias-stress net in [-0.5, 0.5]) because
the input scale is calibrated from them.
"""

from __future__ import annotations

import numpy as np

from .modelio import Dataset, FloatModel, LayerDesc, infer_shapes, save_dataset, save_model
from .refengine import float_forward


def _fc(name, src, n_in, n_out, rng, a, bias=None, relu=True) -> LayerDesc:
    w = rng.uniform(-a, a, size=(n_out, n_in)).astype(np.float32)
    b = bias if bias is not None else rng.uniform(-0.1, 0.1, size=n_out)
    return LayerDesc(
        name=name, kind="fully-connected",
        attrs={"in_features": n_in, "out_features": n_out},
        inputs=[src], weights=w, bias=np.asarray(b, dtype=np.float32),
        activation="relu" if relu else "none",
    )


def _conv(name, src, c_in, c_out, rng, a, k=3, pad=1, relu=True) -> LayerDesc:
    w = rng.uniform(-a, a, size=(c_out, c_in, k, k)).astype(np.float32)
    b = rng.uniform(-0.1, 0.1, size=c_out).astype(np.float32)
    return LayerDesc(
        name=name, kind="conv2d",
        attrs={"in_channels": c_in, "out_channels": c_out,
               "kernel": [k, k], "stride": 1, "padding": pad},
        inputs=[src], weights=w, bias=b,
        activation="relu" if relu else "none",
    )


def _pool(name, src, k=2) -> LayerDesc:
    return LayerDesc(name=name, kind="avgpool2d",
                     attrs={"kernel": [k, k], "stride": k}, inputs=[src])


def make_mlp(seed: int = 7) -> FloatModel:
    """36 -> 24 -> 16 -> 10 fully-connected stack (three stages)."""
    rng = np.random.default_rng(seed)
    m = FloatModel(name="mlp", input_shape=(36,), layers=[
        _fc("fc1", "input", 36, 24, rng, 0.30),
        _fc("fc2", "fc1", 24, 16, rng, 0.35),
        _fc("fc3", "fc2", 16, 10, rng, 0.40, relu=False),
    ])
    infer_shapes(m)
    return m


def make_deep_mlp(depth: int, seed: int = 21, n_in: int = 16,
                  width: int = 20, n_out: int = 8) -> FloatModel:
    """`depth` fully-connected layers; pipeline depth equals `depth`."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rng = np.random.default_rng(seed)
    layers = []
    src, n_prev = "input", n_in
    for i in range(depth - 1):
        layers.append(_fc(f"fc{i + 1}", src, n_prev, width, rng, 0.30))
        src, n_prev = f"fc{i + 1}", width
    layers.append(_fc(f"fc{depth}", src, n_prev, n_out, rng, 0.35, relu=False))
    m = FloatModel(name=f"mlp{depth}", input_shape=(n_in,), layers=layers)
    infer_shapes(m)
    return m


def make_cnn(seed: int = 11) -> FloatModel:
    """conv-pool-conv-pool-fc classifier on 1x8x8 images."""
    rng = np.random.default_rng(seed)
    m = FloatModel(name="cnn", input_shape=(1, 8, 8), layers=[
        _conv("conv1", "input", 1, 4, rng, 0.45),
        _pool("pool1", "conv1"),
        _conv("conv2", "pool1", 4, 8, rng, 0.30),
        _pool("pool2", "conv2"),
        LayerDesc(name="flat", kind="flatten", attrs={}, inputs=["pool2"]),
        _fc("fc", "flat", 32, 10, rng, 0.40, relu=False),
    ])
    infer_shapes(m)
    return m


def make_residual(seed: int = 13) -> FloatModel:
    """Two convs with a shortcut around the second, joined by a residual add."""
    rng = np.random.default_rng(seed)
    m = FloatModel(name="residual", input_shape=(1, 6, 6), layers=[
        _conv("conv_a", "input", 1, 4, rng, 0.45),
        _conv("conv_b", "conv_a", 4, 4, rng, 0.30),
        LayerDesc(name="join", kind="residual-add", attrs={},
                  inputs=["conv_b", "conv_a"]),
        LayerDesc(name="flat", kind="flatten", attrs={}, inputs=["join"]),
        _fc("fc", "flat", 144, 10, rng, 0.35, relu=False),
    ])
    infer_shapes(m)
    return m


def make_bias_stress(seed: int = 17) -> FloatModel:
    """First layer carries biases far too large for the weight-product scale.

    With inputs in [-0.5, 0.5] and weights in [-0.2, 0.2] the product scale is
    about 6e-6, so a bias of 2.5 lands near 4e5 - far outside 16 bits - and
    the layer must fall back to output-scale bias handling. The second layer's
    small biases stay on the product scheme.
    """
    rng = np.random.default_rng(seed)
    b1 = rng.uniform(0.05, 0.30, size=12)
    b1[3] = 2.5
    b1[7] = 2.2
    b2 = rng.uniform(-0.05, 0.05, size=10)
    m = FloatModel(name="bias-stress", input_shape=(16,), layers=[
        _fc("fc1", "input", 16, 12, rng, 0.20, bias=b1),
        _fc("fc2", "fc1", 12, 10, rng, 0.15, bias=b2, relu=False),
    ])
    infer_shapes(m)
    return m


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def class_inputs(rng: np.random.Generator, n: int, shape: tuple[int, ...],
                 n_classes: int = 10, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Class prototypes plus noise, clipped to the fixture's input range."""
    protos = rng.uniform(lo, hi, size=(n_classes,) + tuple(shape))
    idx = rng.integers(0, n_classes, size=n)
    noise = rng.normal(0.0, 0.05 * (hi - lo), size=(n,) + tuple(shape))
    return np.clip(protos[idx] + noise, lo, hi).astype(np.float32)


def labeled_dataset(model: FloatModel, n: int, seed: int,
                    lo: float = 0.0, hi: float = 1.0) -> Dataset:
    """Inputs from class_inputs, labels from the float model's own argmax.
    The float pass holds one window's float64 tensors however large `n` is,
    so only the float32 inputs and the labels grow with `n`."""
    rng = np.random.default_rng(seed)
    n_classes = int(np.prod(model.output_layer.out_shape))
    x = class_inputs(rng, n, model.input_shape, n_classes=n_classes, lo=lo, hi=hi)
    logits, _ = float_forward(model, x)
    labels = np.argmax(logits, axis=-1).astype(np.int32)
    return Dataset(inputs=x, labels=labels)


# name -> (builder, input_lo, input_hi)
FIXTURES = {
    "mlp": (make_mlp, 0.0, 1.0),
    "cnn": (make_cnn, 0.0, 1.0),
    "residual": (make_residual, 0.0, 1.0),
    "bias-stress": (make_bias_stress, -0.5, 0.5),
}


def write_fixture_tree(root, calib_n: int = 64, eval_n: int = 200,
                       seed: int = 100) -> list[str]:
    """Materialize every fixture as model.json + calib.ds + eval.ds."""
    from pathlib import Path
    written = []
    for i, (name, (builder, lo, hi)) in enumerate(sorted(FIXTURES.items())):
        d = Path(root) / name
        d.mkdir(parents=True, exist_ok=True)
        model = builder()
        save_model(model, d / "model.json")
        calib = labeled_dataset(model, calib_n, seed + 2 * i, lo, hi)
        save_dataset(d / "calib.ds", calib.inputs, calib.labels)
        ev = labeled_dataset(model, eval_n, seed + 2 * i + 1, lo, hi)
        save_dataset(d / "eval.ds", ev.inputs, ev.labels)
        written.append(str(d))
    return written
