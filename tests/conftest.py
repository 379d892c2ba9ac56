import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from stemc import fixtures as fx
from stemc.modelio import FloatModel, LayerDesc, infer_shapes
from stemc.quantizer import build_quantized_network, calibrate, quantize_tensor
from stemc.stem import check_encodable

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def encode_planes(values: np.ndarray, k: int, signed: bool) -> np.ndarray:
    """The trains of `values`: the k low bits of each value's two's
    complement, most significant first, as uint8 values.shape + (k,), from
    the bytes of u << (16 - k) as big-endian uint16."""
    v = np.asarray(values, dtype=np.int64)
    check_encodable(v, k, signed)
    words = ((v & ((1 << k) - 1))[..., None] << (16 - k)).astype(">u2").view(np.uint8)
    return np.unpackbits(words, axis=-1, count=k)


def encode_integer(q: int, k: int, signed: bool) -> np.ndarray:
    """Scalar reference for ``encode_planes``: the two's-complement
    spike train of q, MSB first, one bit at a time. Returns uint8[k]."""
    lo = -(1 << (k - 1)) if signed else 0
    hi = (1 << (k - 1)) - 1
    if not lo <= q <= hi:
        raise ValueError(f"value {q} outside encodable range [{lo}, {hi}]")
    u = q & ((1 << k) - 1)
    return np.array([(u >> (k - 1 - t)) & 1 for t in range(k)], dtype=np.uint8)


def make_wide_fanin(seed: int = 19, n_in: int = 512, n_out: int = 8) -> FloatModel:
    """Single layer, every weight at the maximum magnitude: the worst case
    for per-step accumulation when all inputs spike together."""
    rng = np.random.default_rng(seed)
    w = np.full((n_out, n_in), 0.2, dtype=np.float32)
    m = FloatModel(name="wide-fanin", input_shape=(n_in,), layers=[
        LayerDesc(name="fc", kind="fully-connected",
                  attrs={"in_features": n_in, "out_features": n_out},
                  inputs=["input"], weights=w,
                  bias=rng.uniform(-0.01, 0.01, size=n_out).astype(np.float32),
                  activation="none"),
    ])
    infer_shapes(m)
    return m


class Bundle:
    """A fixture model quantized once per session, with its data."""

    def __init__(self, model, ds, stats, qnet, x_int):
        self.model = model
        self.ds = ds
        self.stats = stats
        self.qnet = qnet
        self.x_int = x_int


def _bundle(builder, lo, hi, n, data_seed, **quant_kwargs) -> Bundle:
    model = builder()
    ds = fx.labeled_dataset(model, n, data_seed, lo, hi)
    stats = calibrate(model, ds.inputs[:64])
    qnet = build_quantized_network(model, stats, **quant_kwargs)
    x_int, _ = quantize_tensor(ds.inputs, qnet.input_params)
    return Bundle(model, ds, stats, qnet, x_int)


@pytest.fixture(scope="session")
def mlp_bundle():
    return _bundle(fx.make_mlp, 0.0, 1.0, 80, 42)


@pytest.fixture(scope="session")
def cnn_bundle():
    return _bundle(fx.make_cnn, 0.0, 1.0, 200, 101)


@pytest.fixture(scope="session")
def residual_bundle():
    return _bundle(fx.make_residual, 0.0, 1.0, 80, 43)


@pytest.fixture(scope="session")
def bias_bundle():
    return _bundle(fx.make_bias_stress, -0.5, 0.5, 80, 44)


@pytest.fixture(scope="session")
def deep_mlp_bundle():
    return _bundle(lambda: fx.make_deep_mlp(4), 0.0, 1.0, 80, 46)


@pytest.fixture(scope="session")
def widefan_bundle():
    # worst-case per-step accumulation: all weights at max magnitude
    return _bundle(make_wide_fanin, 0.0, 1.0, 40, 45)


@pytest.fixture
def rng():
    # function-scoped: tests must not share generator state
    return np.random.default_rng(2024)
