"""Model checkpoints: JSON header + raw little-endian float64 payload.

Layout: 8-byte magic, 8-byte little-endian header length, UTF-8 JSON
header, then the concatenated tensor data. The header stores the model
config, the full vocabulary (so a checkpoint is self-contained), its
hash for fast dataset compatibility checks, the tensor directory
(name/shape/offset in float64 units, parameters and batchnorm running
buffers alike) and any extra run metadata the trainer wants to keep.
Version 1 files, which also held two config knobs and the last layer's
edge head, are read by rewriting their header as version 2.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .model import GcnModel, ModelConfig
from .scene import DatasetFormatError, Vocabulary

MAGIC = b"SGEMBED1"
FORMAT_VERSION = 2
_REQUIRED_KEYS = ("total_floats", "tensors", "model_config", "vocab", "vocab_hash")


class CheckpointError(ValueError):
    """The file is not a readable checkpoint of the expected version."""


class CheckpointHashMismatch(CheckpointError):
    """Checkpoint vocabulary does not match the dataset it is used with."""


def _all_tensors(model: GcnModel) -> dict[str, np.ndarray]:
    arrays = {name: p.data for name, p in model.parameters().items()}
    arrays.update(model.buffers())
    return arrays


def save_checkpoint(model: GcnModel, path, extra: dict | None = None) -> None:
    arrays = _all_tensors(model)
    directory = []
    offset = 0
    for name, arr in arrays.items():
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
    header = {
        "format_version": FORMAT_VERSION,
        "model_config": asdict(model.config),
        "vocab": {
            "objects": list(model.vocab.object_labels),
            "relationships": list(model.vocab.relationship_labels),
        },
        "vocab_hash": model.vocab.content_hash(),
        "tensors": directory,
        "total_floats": offset,
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path, expected_vocab_hash: str | None = None) -> tuple[GcnModel, dict]:
    """Rebuild a model from a checkpoint; returns (model, extra metadata)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    header_len = int.from_bytes(raw[8:16], "little")
    if len(raw) < 16 + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header: not a JSON object")
    version = header.get("format_version")
    if type(version) is not int or version not in (1, FORMAT_VERSION):
        raise CheckpointError(f"{path}: unsupported format version {version}")
    for key in _REQUIRED_KEYS:
        if key not in header:
            raise CheckpointError(f"{path}: header has no {key!r}")
    if version == 1:
        _v1_to_v2(path, header)
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise CheckpointError(f"{path}: malformed 'extra': not a JSON object")
    payload = np.frombuffer(raw[16 + header_len :], dtype="<f8")
    if payload.size != header["total_floats"]:
        raise CheckpointError(
            f"{path}: truncated payload ({payload.size} floats, expected {header['total_floats']})"
        )

    config = _model_config(path, header["model_config"])
    objects, relationships = (_field(path, "vocab", header["vocab"], key, list) for key in ("objects", "relationships"))
    try:
        vocab = Vocabulary(objects, relationships)
    except DatasetFormatError as e:
        raise DatasetFormatError(f"{path}: {e}") from None
    if vocab.content_hash() != header["vocab_hash"]:
        raise CheckpointError(f"{path}: header vocabulary does not match its recorded hash")
    if expected_vocab_hash is not None and header["vocab_hash"] != expected_vocab_hash:
        raise CheckpointHashMismatch(
            f"{path}: checkpoint vocabulary hash {header['vocab_hash'][:12]}... does not match the dataset"
        )

    model = GcnModel.create(config, vocab, seed=0)
    arrays = _all_tensors(model)
    expected_names = list(arrays.keys())
    if not isinstance(header["tensors"], list):
        raise CheckpointError(f"{path}: malformed 'tensors': not a JSON list")
    directory = {_field(path, "tensors", entry, "name", str): entry for entry in header["tensors"]}
    if set(directory) != set(expected_names):
        raise CheckpointError(f"{path}: tensor directory does not match the model structure")
    for name in expected_names:
        entry = directory[name]
        arr = arrays[name]
        shape = _field(path, "tensors", entry, "shape", list)
        if tuple(shape) != arr.shape:
            raise CheckpointError(f"{path}: tensor {name} has shape {shape}, model expects {list(arr.shape)}")
        start = _field(path, "tensors", entry, "offset", int)
        if not 0 <= start <= payload.size - arr.size:
            raise CheckpointError(f"{path}: tensor {name} offset {start} lies outside the payload")
        np.copyto(arr, payload[start : start + arr.size].reshape(arr.shape))
    return model, extra


def _model_config(path, values) -> ModelConfig:
    try:
        return ModelConfig(**values)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed 'model_config': {e}") from None


def _v1_to_v2(path, header: dict) -> None:
    """Drop a version 1 header's config knobs, which must be true, and its last-layer edge head entries."""
    values = header["model_config"]
    for knob in ("pool_include_trivial", "renormalize_embedding"):
        if isinstance(values, dict) and values.pop(knob, True) is not True:
            raise CheckpointError(f"{path}: version 1 model_config {knob!r} must be true")
    last = _model_config(path, values).num_layers - 1
    dead = {f"layers.{last}.head_e_w", f"layers.{last}.head_e_b"}
    if isinstance(header["tensors"], list):
        header["tensors"] = [e for e in header["tensors"] if not (isinstance(e, dict) and e.get("name") in dead)]


def _field(path, section: str, entry, key: str, kind: type):
    """entry[key] of a header section, checked to be a ``kind``."""
    if not isinstance(entry, dict) or not isinstance(entry.get(key), kind):
        raise CheckpointError(f"{path}: malformed {section!r}: not an object with a {kind.__name__} {key!r}")
    return entry[key]

