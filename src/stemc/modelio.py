"""Model and dataset file formats.

A model on disk is a JSON manifest plus sibling raw little-endian blobs, one
per weight/bias tensor. The manifest carries the layer graph (a DAG; layers
reference their inputs by name, the reserved name "input" is the model
input); blobs carry no header, so the manifest attrs are authoritative for
shapes and every blob is validated against its expected element count.

Float manifests describe the network to be quantized. Quantized manifests add
the per-layer scales, the frozen fixed-point requantization constants, the
integer range bound i_max (derived from the layer's integer weights, bias and
input wire format), the bias scheme, and (optionally) an embedded sparsity
plan. Saving and re-loading a quantized model is bit-exact:
integer tensors round-trip through raw blobs and scales round-trip through
JSON's shortest-repr floats.

Datasets are a single binary file: a header (magic, version, sample count,
input shape, label width) followed by packed float32 inputs and int32 labels.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1
DATASET_MAGIC = b"STDS"

LAYER_KINDS = ("fully-connected", "conv2d", "avgpool2d", "residual-add", "flatten")
INPUT_NAME = "input"


class ModelFormatError(ValueError):
    """Malformed manifest, blob, or dataset file."""


@dataclass
class TensorBlob:
    """A raw tensor: dtype + shape + the array itself."""

    dtype: str
    shape: tuple[int, ...]
    data: np.ndarray


def read_blob(path: Path, dtype: str, shape: tuple[int, ...]) -> TensorBlob:
    if not path.exists():
        raise ModelFormatError(f"referenced blob does not exist: {path}")
    raw = path.read_bytes()
    dt = np.dtype(dtype)
    expected = int(np.prod(shape)) * dt.itemsize
    if len(raw) != expected:
        raise ModelFormatError(
            f"blob {path.name}: {len(raw)} bytes, expected {expected} "
            f"for shape {tuple(shape)} of {dtype}"
        )
    data = np.frombuffer(raw, dtype=dt).reshape(shape).copy()
    return TensorBlob(dtype, tuple(shape), data)


def write_blob(path: Path, array: np.ndarray, dtype: str) -> None:
    np.ascontiguousarray(array.astype(np.dtype(dtype))).tofile(path)


# ---------------------------------------------------------------------------
# float model
# ---------------------------------------------------------------------------

@dataclass
class LayerDesc:
    name: str
    kind: str
    attrs: dict
    inputs: list[str]
    weights: np.ndarray | None = None   # float32
    bias: np.ndarray | None = None      # float32
    out_shape: tuple[int, ...] = ()
    activation: str = "none"            # "relu" | "none", derived at validation


@dataclass
class FloatModel:
    name: str
    input_shape: tuple[int, ...]
    layers: list[LayerDesc] = field(default_factory=list)

    def layer(self, name: str) -> LayerDesc:
        for lyr in self.layers:
            if lyr.name == name:
                return lyr
        raise KeyError(name)

    @property
    def output_layer(self) -> LayerDesc:
        return self.layers[-1]


def _expected_weight_shape(kind: str, attrs: dict) -> tuple[int, ...] | None:
    if kind == "fully-connected":
        return (int(attrs["out_features"]), int(attrs["in_features"]))
    if kind == "conv2d":
        kh, kw = attrs["kernel"]
        return (int(attrs["out_channels"]), int(attrs["in_channels"]), int(kh), int(kw))
    return None


def conv_out_hw(h: int, w: int, attrs: dict) -> tuple[int, int]:
    kh, kw = attrs["kernel"]
    s = int(attrs.get("stride", 1))
    p = int(attrs.get("padding", 0))
    oh = (h + 2 * p - kh) // s + 1
    ow = (w + 2 * p - kw) // s + 1
    return oh, ow


def pool_out_hw(h: int, w: int, attrs: dict) -> tuple[int, int]:
    kh, kw = attrs["kernel"]
    s = int(attrs.get("stride", kh))
    return (h - kh) // s + 1, (w - kw) // s + 1


def infer_shapes(model: FloatModel) -> None:
    """Topology + shape validation; fills out_shape and activation in place."""
    shapes: dict[str, tuple[int, ...]] = {INPUT_NAME: tuple(model.input_shape)}
    seen: set[str] = set()
    consumed: set[str] = set()
    for lyr in model.layers:
        if lyr.kind not in LAYER_KINDS:
            raise ModelFormatError(f"layer {lyr.name!r}: unknown kind {lyr.kind!r}")
        if lyr.name in shapes:
            raise ModelFormatError(f"duplicate layer name {lyr.name!r}")
        if not lyr.inputs:
            raise ModelFormatError(f"layer {lyr.name!r} has no inputs")
        for src in lyr.inputs:
            if src not in shapes:
                # forward reference == cycle or missing layer in a manifest
                # that is required to be topologically ordered
                raise ModelFormatError(
                    f"layer {lyr.name!r} references {src!r} before its "
                    "definition (cycle or missing layer)"
                )
            consumed.add(src)
        in_shapes = [shapes[s] for s in lyr.inputs]

        if lyr.kind == "fully-connected":
            (ins,) = in_shapes
            nin = int(lyr.attrs["in_features"])
            if ins != (nin,):
                raise ModelFormatError(
                    f"layer {lyr.name!r}: input shape {ins} does not match "
                    f"in_features {nin} (flatten first?)"
                )
            out = (int(lyr.attrs["out_features"]),)
        elif lyr.kind == "conv2d":
            (ins,) = in_shapes
            if len(ins) != 3 or ins[0] != int(lyr.attrs["in_channels"]):
                raise ModelFormatError(
                    f"layer {lyr.name!r}: input shape {ins} does not match "
                    f"declared in_channels {lyr.attrs['in_channels']}"
                )
            oh, ow = conv_out_hw(ins[1], ins[2], lyr.attrs)
            if oh < 1 or ow < 1:
                raise ModelFormatError(f"layer {lyr.name!r}: kernel larger than input")
            out = (int(lyr.attrs["out_channels"]), oh, ow)
        elif lyr.kind == "avgpool2d":
            (ins,) = in_shapes
            if len(ins) != 3:
                raise ModelFormatError(f"layer {lyr.name!r}: avgpool2d needs a C,H,W input")
            oh, ow = pool_out_hw(ins[1], ins[2], lyr.attrs)
            if oh < 1 or ow < 1:
                raise ModelFormatError(f"layer {lyr.name!r}: pool window larger than input")
            out = (ins[0], oh, ow)
        elif lyr.kind == "residual-add":
            if len(in_shapes) != 2:
                raise ModelFormatError(f"layer {lyr.name!r}: residual-add needs exactly 2 inputs")
            if in_shapes[0] != in_shapes[1]:
                raise ModelFormatError(
                    f"layer {lyr.name!r}: branch shapes differ: "
                    f"{in_shapes[0]} vs {in_shapes[1]}"
                )
            out = in_shapes[0]
        else:  # flatten
            (ins,) = in_shapes
            out = (int(np.prod(ins)),)

        wshape = _expected_weight_shape(lyr.kind, lyr.attrs)
        if wshape is not None:
            if lyr.weights is None:
                raise ModelFormatError(f"layer {lyr.name!r}: missing weights")
            if tuple(lyr.weights.shape) != wshape:
                raise ModelFormatError(
                    f"layer {lyr.name!r}: weight shape {tuple(lyr.weights.shape)} "
                    f"!= expected {wshape}"
                )
            if lyr.bias is not None and tuple(lyr.bias.shape) != (wshape[0],):
                raise ModelFormatError(f"layer {lyr.name!r}: bias shape mismatch")

        lyr.out_shape = out
        shapes[lyr.name] = out
        seen.add(lyr.name)

    sinks = [l for l in model.layers if l.name not in consumed]
    if len(sinks) != 1:
        raise ModelFormatError(
            f"model must have exactly one output layer, found {[l.name for l in sinks]}"
        )
    if sinks[0] is not model.layers[-1]:
        raise ModelFormatError("output layer must be the last manifest entry")
    # ReLU on hidden fully-connected/conv layers, nothing on the output layer.
    for lyr in model.layers:
        if lyr.kind in ("fully-connected", "conv2d") and lyr is not sinks[0]:
            lyr.activation = "relu"
        else:
            lyr.activation = "none"


def _check_version(doc: dict, path: Path) -> None:
    ver = doc.get("format_version")
    if ver != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path.name}: format_version {ver!r} not supported (expected {FORMAT_VERSION})"
        )


def load_model(path: str | Path) -> FloatModel:
    """Load and validate a float model manifest + blobs."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot read manifest {path}: {exc}") from exc
    _check_version(doc, path)
    if doc.get("model_type", "float") != "float":
        raise ModelFormatError(f"{path.name}: not a float model manifest")
    base = path.parent
    layers = []
    for entry in doc["layers"]:
        kind = entry.get("kind", "")
        attrs = dict(entry.get("attrs", {}))
        name = entry.get("name")
        if not name:
            raise ModelFormatError("every layer needs a name")
        weights = bias = None
        wshape = _expected_weight_shape(kind, attrs) if kind in LAYER_KINDS else None
        if entry.get("weights_file"):
            if wshape is None:
                raise ModelFormatError(f"layer {name!r}: kind {kind!r} takes no weights")
            weights = read_blob(base / entry["weights_file"], "<f4", wshape).data
        if entry.get("bias_file"):
            if wshape is None:
                raise ModelFormatError(f"layer {name!r}: kind {kind!r} takes no bias")
            bias = read_blob(base / entry["bias_file"], "<f4", (wshape[0],)).data
        layers.append(LayerDesc(name, kind, attrs, list(entry.get("inputs", [])),
                                weights, bias))
    model = FloatModel(doc["name"], tuple(int(d) for d in doc["input_shape"]), layers)
    infer_shapes(model)
    return model


def save_model(model: FloatModel, path: str | Path) -> None:
    """Write a float model manifest plus weight/bias blobs next to it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "format_version": FORMAT_VERSION,
        "model_type": "float",
        "name": model.name,
        "input_shape": list(model.input_shape),
        "layers": [],
    }
    stem = path.stem
    for lyr in model.layers:
        entry = {
            "name": lyr.name,
            "kind": lyr.kind,
            "attrs": lyr.attrs,
            "inputs": lyr.inputs,
            "weights_file": None,
            "bias_file": None,
        }
        if lyr.weights is not None:
            fname = f"{stem}.{lyr.name}.w.bin"
            write_blob(path.parent / fname, lyr.weights, "<f4")
            entry["weights_file"] = fname
        if lyr.bias is not None:
            fname = f"{stem}.{lyr.name}.b.bin"
            write_blob(path.parent / fname, lyr.bias, "<f4")
            entry["bias_file"] = fname
        doc["layers"].append(entry)
    path.write_text(json.dumps(doc, indent=1))


# ---------------------------------------------------------------------------
# quantized model
# ---------------------------------------------------------------------------

def save_quantized_model(qnet, path: str | Path) -> None:
    """Serialize a QuantizedNetwork; integer tensors as blobs, exact scales."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    stem = path.stem
    doc = {
        "format_version": FORMAT_VERSION,
        "model_type": "quantized",
        "name": qnet.name,
        "input_shape": list(qnet.input_shape),
        "k": qnet.k,
        "acc_bits": qnet.acc_bits,
        "bias_check_width": qnet.bias_check_width,
        "input_scale": qnet.input_scale,
        "layers": [],
    }
    if qnet.sparsity:
        doc["sparsity"] = [dict(e) for e in qnet.sparsity]
    for lyr in qnet.layers:
        entry = {
            "name": lyr.name,
            "kind": lyr.kind,
            "attrs": lyr.attrs,
            "inputs": lyr.inputs,
            "weights_file": None,
            "bias_file": None,
            "scale_in": lyr.scale_in,
            "scale_w": lyr.scale_w,
            "scale_out": lyr.scale_out,
            "bias_scheme": lyr.bias_scheme,
            "bias_width": lyr.bias_width,
        }
        if lyr.m_hat is not None:
            entry["m_hat"] = {"mantissa": lyr.m_hat.mantissa, "shift": lyr.m_hat.shift}
            entry["m0"] = {"mantissa": lyr.m0.mantissa, "shift": lyr.m0.shift}
            entry["m1"] = {"mantissa": lyr.m1.mantissa, "shift": lyr.m1.shift}
            entry["i_max"] = lyr.i_max
        if lyr.weights is not None:
            fname = f"{stem}.{lyr.name}.w.bin"
            write_blob(path.parent / fname, lyr.weights, "<i1")
            entry["weights_file"] = fname
        if lyr.bias is not None:
            fname = f"{stem}.{lyr.name}.b.bin"
            write_blob(path.parent / fname, lyr.bias, "<i4")
            entry["bias_file"] = fname
        doc["layers"].append(entry)
    path.write_text(json.dumps(doc, indent=1))


def load_quantized_model(path: str | Path):
    """Load a quantized manifest + blobs back into a QuantizedNetwork."""
    from .fixedpoint import FixedMult
    from .quantizer import QuantizedLayer, QuantizedNetwork

    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot read manifest {path}: {exc}") from exc
    _check_version(doc, path)
    if doc.get("model_type") != "quantized":
        raise ModelFormatError(f"{path.name}: not a quantized model manifest")
    base = path.parent
    layers = []
    for entry in doc["layers"]:
        name, kind = entry["name"], entry["kind"]
        if kind not in LAYER_KINDS:
            raise ModelFormatError(f"layer {name!r}: unknown kind {kind!r}")
        attrs = dict(entry.get("attrs", {}))
        weights = bias = None
        if entry.get("weights_file"):
            wshape = _expected_weight_shape(kind, attrs)
            weights = read_blob(base / entry["weights_file"], "<i1", wshape).data
        if entry.get("bias_file"):
            nout = _expected_weight_shape(kind, attrs)[0]
            bias = read_blob(base / entry["bias_file"], "<i4", (nout,)).data
        consts = {}
        for key in ("m_hat", "m0", "m1"):
            if key in entry:
                consts[key] = FixedMult(int(entry[key]["mantissa"]), int(entry[key]["shift"]))
            else:
                consts[key] = None
        lyr = QuantizedLayer(
            name=name, kind=kind, attrs=attrs, inputs=list(entry["inputs"]),
            weights=weights, bias=bias,
            bias_scheme=entry.get("bias_scheme"),
            bias_width=entry.get("bias_width"),
            scale_in=entry.get("scale_in"), scale_w=entry.get("scale_w"),
            scale_out=entry.get("scale_out"),
            m_hat=consts["m_hat"], m0=consts["m0"], m1=consts["m1"],
            i_max=entry.get("i_max"),
        )
        layers.append(lyr)
    qnet = QuantizedNetwork(
        name=doc["name"],
        input_shape=tuple(int(d) for d in doc["input_shape"]),
        k=int(doc["k"]),
        acc_bits=int(doc["acc_bits"]),
        bias_check_width=int(doc.get("bias_check_width", 16)),
        input_scale=float(doc["input_scale"]),
        layers=layers,
        sparsity=[dict(e) for e in doc.get("sparsity", [])],
    )
    qnet.validate()
    return qnet


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    """Float inputs plus integer labels, iterable as (input, label) pairs."""

    inputs: np.ndarray           # float32 [count, *shape]
    labels: np.ndarray           # int32 [count] or [count, label_width]

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def __iter__(self):
        for i in range(len(self)):
            yield self.inputs[i], self.labels[i]


def save_dataset(path: str | Path, inputs: np.ndarray, labels: np.ndarray) -> None:
    path = Path(path)
    inputs = np.ascontiguousarray(inputs, dtype="<f4")
    labels = np.ascontiguousarray(labels, dtype="<i4")
    if labels.ndim == 1:
        labels = labels[:, None]
    if labels.shape[0] != inputs.shape[0]:
        raise ModelFormatError("label count does not match input count")
    shape = inputs.shape[1:]
    header = DATASET_MAGIC + struct.pack(
        "<IIII", FORMAT_VERSION, inputs.shape[0], len(shape), labels.shape[1]
    )
    header += struct.pack(f"<{len(shape)}I", *shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(inputs.tobytes())
        fh.write(labels.tobytes())


def load_dataset(path: str | Path) -> Dataset:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != DATASET_MAGIC:
        raise ModelFormatError(f"{path.name}: not a dataset file")
    ver, count, ndim, label_width = struct.unpack_from("<IIII", raw, 4)
    if ver != FORMAT_VERSION:
        raise ModelFormatError(f"{path.name}: dataset version {ver} not supported")
    dims = struct.unpack_from(f"<{ndim}I", raw, 20)
    offset = 20 + 4 * ndim
    n_in = count * int(np.prod(dims)) if ndim else count
    expected = offset + 4 * n_in + 4 * count * label_width
    if len(raw) != expected:
        raise ModelFormatError(
            f"{path.name}: {len(raw)} bytes, expected {expected} from header"
        )
    inputs = np.frombuffer(raw, dtype="<f4", count=n_in, offset=offset)
    inputs = inputs.reshape((count,) + tuple(dims)).copy()
    labels = np.frombuffer(raw, dtype="<i4", count=count * label_width,
                           offset=offset + 4 * n_in)
    labels = labels.reshape(count, label_width).copy()
    if label_width == 1:
        labels = labels[:, 0]
    return Dataset(inputs, labels)
