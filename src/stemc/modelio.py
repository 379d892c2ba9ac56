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

Both model types go through one codec: one reader parses and checks every
manifest and one writer emits it. A `_Format` names what differs, namely the
model type, the blob dtypes (float32 or int8/int32) and the keys a quantized
manifest adds, so every check applies to both types and each malformed file
raises `ModelFormatError`.

Datasets are a single binary file: a header (magic, version, sample count,
input shape, label width) followed by packed float32 inputs and int32 labels.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fixedpoint import FixedMult

FORMAT_VERSION = 1
DATASET_MAGIC = b"STDS"

LAYER_KINDS = ("fully-connected", "conv2d", "avgpool2d", "residual-add", "flatten")
_REQUIRED_ATTRS = {
    "fully-connected": ("in_features", "out_features"),
    "conv2d": ("in_channels", "out_channels", "kernel"),
    "avgpool2d": ("kernel",),
}
# least value of each integer attr; a kernel is a pair of them
_INT_ATTRS = {"in_features": 1, "out_features": 1, "in_channels": 1, "out_channels": 1,
              "kernel": 1, "stride": 1, "padding": 0}
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
    weights: np.ndarray | None = None   # float32 (int8 when quantized)
    bias: np.ndarray | None = None      # float32 (int32 when quantized)
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

    def validate(self) -> None:
        infer_shapes(self)


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


# ---------------------------------------------------------------------------
# manifest codec, shared by the float and the quantized model types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Key:
    """A manifest key stored in the container field of the same name."""

    name: str
    decode: Callable = lambda v: v      # JSON value -> field
    encode: Callable = lambda v: v      # field -> JSON value
    required: bool = False              # else a missing or null key reads `default`
    default: object = None
    omit_empty: bool = False            # write nothing for an empty field


@dataclass(frozen=True)
class _Format:
    """What one model type stores beyond each layer's name, kind, attrs,
    inputs and weight/bias blobs."""

    model_type: str
    blob_dtypes: tuple[str, str]        # weights, bias
    head: tuple[_Key, ...]              # network keys before "layers"
    layer_keys: tuple[_Key, ...] = ()   # per-layer keys after the blob files
    tail: tuple[_Key, ...] = ()         # network keys after "layers"


def _fixed_mult(value: dict) -> FixedMult:
    return FixedMult(int(value["mantissa"]), int(value["shift"]))


def _fixed_mult_json(m: FixedMult) -> dict:
    return {"mantissa": m.mantissa, "shift": m.shift}


_HEAD = (_Key("name", required=True),
         _Key("input_shape", lambda v: tuple(int(d) for d in v), list, required=True))
_CONST = {"decode": _fixed_mult, "encode": _fixed_mult_json, "omit_empty": True}

_FLOAT = _Format("float", ("<f4", "<f4"), _HEAD)
_QUANTIZED = _Format(
    "quantized", ("<i1", "<i4"),
    head=_HEAD + (_Key("k", int, required=True), _Key("acc_bits", int, required=True),
                  _Key("bias_check_width", int, default=16),
                  _Key("input_scale", float, required=True)),
    layer_keys=(_Key("scale_in"), _Key("scale_w"), _Key("scale_out"),
                _Key("bias_scheme"), _Key("bias_width"),
                _Key("m_hat", **_CONST), _Key("m0", **_CONST), _Key("m1", **_CONST),
                _Key("i_max", omit_empty=True)),
    tail=(_Key("sparsity", lambda v: [dict(e) for e in v], default=[],
               omit_empty=True),),
)


def _decode(keys: tuple[_Key, ...], doc: dict, where: str) -> dict:
    fields = {}
    for key in keys:
        raw = doc.get(key.name)
        if raw is None:
            if key.required:
                raise ModelFormatError(f"{where}: missing key {key.name!r}")
            raw = key.default
        try:
            fields[key.name] = None if raw is None else key.decode(raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"{where}: bad {key.name!r} value {raw!r}") from exc
    return fields


def _encode(keys: tuple[_Key, ...], obj, doc: dict) -> None:
    for key in keys:
        value = getattr(obj, key.name)
        if value or not key.omit_empty:
            doc[key.name] = None if value is None else key.encode(value)


def _int_attr_ok(attr: str, value) -> bool:
    """`value` is an int (a kernel: a pair of ints) of at least the attr's least value."""
    least = _INT_ATTRS[attr]
    if attr == "kernel":
        return (isinstance(value, list) and len(value) == 2
                and all(type(v) is int and v >= least for v in value))
    return type(value) is int and value >= least


def _read_manifest(path: str | Path, fmt: _Format, net_cls: type[FloatModel],
                   layer_cls: type[LayerDesc]) -> FloatModel:
    """Parse, check and validate a `fmt` manifest and its blobs."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path.name}: manifest is not a JSON object")
    ver = doc.get("format_version")
    if ver != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path.name}: format_version {ver!r} not supported (expected {FORMAT_VERSION})"
        )
    if doc.get("model_type", "float") != fmt.model_type:
        raise ModelFormatError(f"{path.name}: not a {fmt.model_type} model manifest")
    fields = _decode(fmt.head + fmt.tail, doc, path.name)
    if not isinstance(doc.get("layers"), list):
        raise ModelFormatError(f"{path.name}: needs a 'layers' list")
    layers = []
    for i, entry in enumerate(doc["layers"]):
        name = entry.get("name") if isinstance(entry, dict) else None
        if not name:
            raise ModelFormatError(f"{path.name}: layer #{i} has no 'name'")
        kind, attrs = entry.get("kind", ""), dict(entry.get("attrs", {}))
        for attr in _REQUIRED_ATTRS.get(kind, ()):
            if attr not in attrs:
                raise ModelFormatError(f"layer {name!r}: missing attr {attr!r}")
        for attr, value in attrs.items():
            if attr in _INT_ATTRS and not _int_attr_ok(attr, value):
                raise ModelFormatError(f"layer {name!r}: bad attr {attr!r} value {value!r}")
        blobs = []
        for what, dtype in zip(("weights", "bias"), fmt.blob_dtypes):
            fname = entry.get(f"{what}_file")
            if not fname:
                blobs.append(None)
                continue
            wshape = _expected_weight_shape(kind, attrs)
            if wshape is None:
                raise ModelFormatError(f"layer {name!r}: kind {kind!r} takes no {what}")
            shape = wshape if what == "weights" else wshape[:1]
            blobs.append(read_blob(path.parent / fname, dtype, shape).data)
        layers.append(layer_cls(
            name=name, kind=kind, attrs=attrs, inputs=list(entry.get("inputs", [])),
            weights=blobs[0], bias=blobs[1],
            **_decode(fmt.layer_keys, entry, f"layer {name!r}")))
    model = net_cls(layers=layers, **fields)
    try:
        model.validate()
    except ValueError as exc:
        raise ModelFormatError(f"{path.name}: {exc}") from exc
    return model


def _write_manifest(model, path: str | Path, fmt: _Format) -> None:
    """Write `model` as a `fmt` manifest plus weight/bias blobs next to it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"format_version": FORMAT_VERSION, "model_type": fmt.model_type}
    _encode(fmt.head, model, doc)
    doc["layers"] = []
    for lyr in model.layers:
        entry = {"name": lyr.name, "kind": lyr.kind, "attrs": lyr.attrs,
                 "inputs": lyr.inputs}
        for what, array, dtype in zip(("weights", "bias"), (lyr.weights, lyr.bias),
                                      fmt.blob_dtypes):
            entry[f"{what}_file"] = None
            if array is not None:
                entry[f"{what}_file"] = f"{path.stem}.{lyr.name}.{what[0]}.bin"
                write_blob(path.parent / entry[f"{what}_file"], array, dtype)
        _encode(fmt.layer_keys, lyr, entry)
        doc["layers"].append(entry)
    _encode(fmt.tail, model, doc)
    path.write_text(json.dumps(doc, indent=1))


def load_model(path: str | Path) -> FloatModel:
    """Load and validate a float model manifest + blobs."""
    return _read_manifest(path, _FLOAT, FloatModel, LayerDesc)


def save_model(model: FloatModel, path: str | Path) -> None:
    """Write a float model manifest plus weight/bias blobs next to it."""
    _write_manifest(model, path, _FLOAT)


def load_quantized_model(path: str | Path):
    """Load and validate a quantized manifest + blobs as a QuantizedNetwork."""
    from .quantizer import QuantizedLayer, QuantizedNetwork

    return _read_manifest(path, _QUANTIZED, QuantizedNetwork, QuantizedLayer)


def save_quantized_model(qnet, path: str | Path) -> None:
    """Serialize a QuantizedNetwork; integer tensors as blobs, exact scales."""
    _write_manifest(qnet, path, _QUANTIZED)


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


def _unpack_header(fmt: str, raw: bytes, offset: int, name: str) -> tuple:
    end = offset + struct.calcsize(fmt)
    if len(raw) < end:
        raise ModelFormatError(
            f"{name}: {len(raw)} bytes, expected at least {end} for the header"
        )
    return struct.unpack_from(fmt, raw, offset)


def load_dataset(path: str | Path) -> Dataset:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != DATASET_MAGIC:
        raise ModelFormatError(f"{path.name}: not a dataset file")
    ver, count, ndim, label_width = _unpack_header("<IIII", raw, 4, path.name)
    if ver != FORMAT_VERSION:
        raise ModelFormatError(f"{path.name}: dataset version {ver} not supported")
    dims = _unpack_header(f"<{ndim}I", raw, 20, path.name)
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
