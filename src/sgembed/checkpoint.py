"""Model checkpoints: JSON header + raw little-endian float64 payload.

Layout: 8-byte magic, 8-byte little-endian header length, UTF-8 JSON
header, then the concatenated tensor data. The header stores the model
config, the full vocabulary (so a checkpoint is self-contained), its
hash for fast dataset compatibility checks, the tensor directory
(name/shape/offset in float64 units, parameters and batchnorm running
buffers alike, tiling the payload in order), the payload's length and
any extra run metadata the trainer wants to keep. All but that metadata
follows from the config and vocabulary. _layout derives the directory and
length for the writer (through _header) and for the reader, which requires
the file's to be, entry for entry, what it gives.

Only FORMAT_VERSION is read. A change to the tensor layout bumps it, and
files of any other version are then refused, not upgraded.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict

import numpy as np

from .model import GcnModel, ModelConfig, array_shapes, check_layout
from .scene import DatasetFormatError, Vocabulary, json_object, reading

MAGIC = b"SGEMBED1"
FORMAT_VERSION = 4
_REQUIRED_KEYS = ("total_floats", "tensors", "model_config", "vocab", "vocab_hash")
_GIVEN = "the model_config and vocabulary give"
_MISSING = object()  # zip_longest's fill for a directory shorter or longer than the layout; equal to no JSON value


class CheckpointError(DatasetFormatError):
    """The file is not a readable checkpoint of the expected version."""


class CheckpointHashMismatch(CheckpointError):
    """Checkpoint vocabulary does not match the dataset it is used with."""


def _layout(config: ModelConfig, vocab: Vocabulary) -> tuple[list[dict], int]:
    """The tensor directory (name, shape, offset, in layout order) and total_floats of this config and vocabulary."""
    tensors, offset = [], 0
    for name, shape in array_shapes(config, vocab).items():
        tensors.append({"name": name, "shape": list(shape), "offset": offset})
        offset += math.prod(shape)
    return tensors, offset


def _header(config: ModelConfig, vocab: Vocabulary) -> dict:
    """Every header key but 'extra', as save_checkpoint writes it for a model of this config and vocabulary."""
    tensors, total_floats = _layout(config, vocab)
    return {
        "format_version": FORMAT_VERSION,
        "model_config": asdict(config),
        "vocab": vocab.to_json(),
        "vocab_hash": vocab.content_hash(),
        "tensors": tensors,
        "total_floats": total_floats,
    }


def save_checkpoint(model: GcnModel, path, extra: dict | None = None) -> None:
    header = {**_header(model.config, model.vocab), "extra": extra or {}}
    arrays = model.arrays()
    check_layout(model.config, model.vocab, arrays)
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
            text = raw[16 : 16 + header_len].decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"corrupt header: {e}") from None
        header = json_object(text, "checkpoint header", CheckpointError)
        version = header.get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise CheckpointError(f"unsupported format version {version!r}; only version {FORMAT_VERSION} is read")
        for key in _REQUIRED_KEYS:
            if key not in header:
                raise CheckpointError(f"header has no {key!r}")
        extra = header.get("extra", {})
        if not isinstance(extra, dict):
            raise CheckpointError("malformed 'extra': not a JSON object")

        config = _model_config(header["model_config"])
        vocab = Vocabulary.from_json(header["vocab"], CheckpointError)
        if vocab.content_hash() != header["vocab_hash"]:
            raise CheckpointError("header vocabulary does not match its recorded hash")
        if expected_vocab_hash is not None and header["vocab_hash"] != expected_vocab_hash:
            raise CheckpointHashMismatch(
                f"checkpoint vocabulary hash {header['vocab_hash'][:12]}... does not match the dataset"
            )

        # Checked before the model is allocated: the header's model_config alone can ask for any size.
        if not isinstance(header["tensors"], list):
            raise CheckpointError("malformed 'tensors': not a JSON list")
        if config.num_layers > len(header["tensors"]):  # each layer holds tensors; array_shapes would walk them all
            raise CheckpointError(f"model_config 'num_layers' {config.num_layers} exceeds the tensor directory")
        layout, total_floats = _layout(config, vocab)
        after = "the start"
        for i, (entry, want) in enumerate(itertools.zip_longest(header["tensors"], layout, fillvalue=_MISSING)):
            if _json(entry) != _json(want):
                name = entry.get("name") if isinstance(entry, dict) else None
                where = f"tensor {name}" if isinstance(name, str) else f"tensor directory entry {i}, after {after},"
                raise CheckpointError(f"{where} is {_json(entry)}; {_GIVEN} {_json(want)}")
            after = want["name"]
        if _json(header["total_floats"]) != _json(total_floats):
            raise CheckpointError(f"'total_floats' is {_json(header['total_floats'])}; {_GIVEN} {total_floats}")
        payload_bytes = len(raw) - 16 - header_len
        if payload_bytes != 8 * total_floats:
            raise CheckpointError(f"truncated payload ({payload_bytes} bytes, expected {total_floats} floats of 8)")
    # Copied, so that the model's arrays are writable and aligned: numpy's matmul hands only aligned arrays to BLAS.
    payload = np.frombuffer(raw, dtype="<f8", offset=16 + header_len).copy()
    arrays = {t["name"]: payload[t["offset"] : t["offset"] + math.prod(t["shape"])].reshape(t["shape"]) for t in layout}
    return GcnModel(config, vocab, arrays), extra


def _json(value) -> str:
    """value as JSON text: the header is compared as text, since 5.0 == 5 and True == 1 yet only an int is a size."""
    return "missing" if value is _MISSING else json.dumps(value, sort_keys=True)


def _model_config(values) -> ModelConfig:
    try:
        return ModelConfig(**values)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"malformed 'model_config': {e}") from None
