"""Model checkpoints: JSON header + raw little-endian float64 payload.

Layout: 8-byte magic, 8-byte little-endian header length, UTF-8 JSON
header, then the concatenated tensor data. The header stores the model
config, the full vocabulary (so a checkpoint is self-contained), its
hash for fast dataset compatibility checks, the tensor directory
(name/shape/offset in float64 units, parameters and batchnorm running
buffers alike, tiling the payload in order) and any extra run metadata
the trainer wants to keep.

Only FORMAT_VERSION is read. A change to the tensor layout bumps it, and
files of any other version are then refused, not upgraded.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from .model import GcnModel, ModelConfig, array_shapes
from .scene import DatasetFormatError, Vocabulary, reading

MAGIC = b"SGEMBED1"
FORMAT_VERSION = 4
_REQUIRED_KEYS = ("total_floats", "tensors", "model_config", "vocab", "vocab_hash")


class CheckpointError(DatasetFormatError):
    """The file is not a readable checkpoint of the expected version."""


class CheckpointHashMismatch(CheckpointError):
    """Checkpoint vocabulary does not match the dataset it is used with."""


def save_checkpoint(model: GcnModel, path, extra: dict | None = None) -> None:
    arrays = model.arrays()
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
    with reading(path):
        with open(path, "rb") as fh:
            raw = fh.read()
        if len(raw) < 16 or raw[:8] != MAGIC:
            raise CheckpointError("not a checkpoint file (bad magic)")
        header_len = int.from_bytes(raw[8:16], "little")
        if len(raw) < 16 + header_len:
            raise CheckpointError("truncated header")
        try:
            header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise CheckpointError(f"corrupt header: {e}") from None
        if not isinstance(header, dict):
            raise CheckpointError("corrupt header: not a JSON object")
        version = header.get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise CheckpointError(f"unsupported format version {version!r}; only version {FORMAT_VERSION} is read")
        for key in _REQUIRED_KEYS:
            if key not in header:
                raise CheckpointError(f"header has no {key!r}")
        extra = header.get("extra", {})
        if not isinstance(extra, dict):
            raise CheckpointError("malformed 'extra': not a JSON object")
        payload_bytes = len(raw) - 16 - header_len
        if payload_bytes / 8 != header["total_floats"]:  # also refuses a length frombuffer would
            raise CheckpointError(f"truncated payload ({payload_bytes} bytes, expected {header['total_floats']} floats of 8)")
        stored = _stored_tensors(header["tensors"], np.frombuffer(raw, dtype="<f8", offset=16 + header_len))

        config = _model_config(header["model_config"])
        vocab = Vocabulary(*(_field("vocab", header["vocab"], key, list) for key in ("objects", "relationships")))
        if vocab.content_hash() != header["vocab_hash"]:
            raise CheckpointError("header vocabulary does not match its recorded hash")
        if expected_vocab_hash is not None and header["vocab_hash"] != expected_vocab_hash:
            raise CheckpointHashMismatch(
                f"checkpoint vocabulary hash {header['vocab_hash'][:12]}... does not match the dataset"
            )

        # Checked before the model is allocated: the header's model_config alone can ask for any size.
        if config.num_layers > len(stored):  # each layer holds tensors; array_shapes would walk them all
            raise CheckpointError(f"model_config 'num_layers' {config.num_layers} exceeds the tensor directory")
        expected = array_shapes(config, vocab)
        if set(stored) != set(expected):
            raise CheckpointError("tensor directory does not match the model structure")
        for name, shape in expected.items():
            if stored[name].shape != shape:
                raise CheckpointError(f"tensor {name} has shape {list(stored[name].shape)}, model expects {list(shape)}")
        model = GcnModel.create(config, vocab, seed=0)
    for name, arr in model.arrays().items():
        np.copyto(arr, stored[name])
    return model, extra


def _stored_tensors(directory, payload: np.ndarray) -> dict[str, np.ndarray]:
    """The header's tensor directory as name -> view of the payload.

    The entries tile the payload: no name repeats, each starts where the one
    before it ends, and the last ends where the payload does.
    """
    if not isinstance(directory, list):
        raise CheckpointError("malformed 'tensors': not a JSON list")
    stored, end = {}, 0
    for entry in directory:
        name = _field("tensors", entry, "name", str)
        shape = _field("tensors", entry, "shape", list)
        if not all(type(n) is int and n >= 0 for n in shape):
            raise CheckpointError(f"tensor {name} has shape {shape}, not a list of sizes")
        start = _field("tensors", entry, "offset", int)
        if name in stored:
            raise CheckpointError(f"tensor {name} is listed twice")
        if start != end:
            raise CheckpointError(f"tensor {name} offset {start} is not {end}, where the tensor before it ends")
        end += math.prod(shape)
        if end > payload.size:
            raise CheckpointError(f"tensor {name} ends at {end}, past the payload's {payload.size} floats")
        stored[name] = payload[start:end].reshape(shape)
    if end != payload.size:
        last = next(reversed(stored), None)
        raise CheckpointError(f"the payload holds {payload.size - end} floats after the last tensor, {last}")
    return stored


def _model_config(values) -> ModelConfig:
    try:
        return ModelConfig(**values)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"malformed 'model_config': {e}") from None


def _field(section: str, entry, key: str, kind: type):
    """entry[key] of a header section, checked to be a ``kind``."""
    if not isinstance(entry, dict) or not isinstance(entry.get(key), kind):
        raise CheckpointError(f"malformed {section!r}: not an object with a {kind.__name__} {key!r}")
    return entry[key]

