"""Checkpoint format: round trips, corruption detection, mismatch refusals."""

import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import models_equal, reference_embeddings
from sgembed.checkpoint import (
    MAGIC,
    CheckpointError,
    CheckpointHashMismatch,
    load_checkpoint,
    save_checkpoint,
)
from sgembed.model import GcnModel, ModelConfig, embed_graphs, forward
from sgembed.scene import DatasetFormatError, SceneGraph, Vocabulary, augment_trivial
from sgembed.tensor import Mode

_GIVEN = "the model_config and vocabulary give"
SMALL = ModelConfig(label_dim=5, message_dim=4, out_dim=3, num_layers=2, mlp_hidden=6)


@pytest.fixture
def model(tiny_vocab):
    m = GcnModel.create(SMALL, tiny_vocab, seed=8)
    # make the running stats non-trivial so the round trip covers them
    m.layers[0].trunk_bn.running_mean[:] = 0.25
    m.layers[1].node_bn.running_var[:] = 1.75
    return m


def test_round_trip_is_exact(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, extra={"epoch": 3})
    loaded, extra = load_checkpoint(path)
    assert models_equal(model, loaded)
    assert extra["epoch"] == 3
    assert loaded.layers[0].trunk_bn.running_mean[0] == 0.25


def test_truncated_file_detected(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 64])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("cut", [1, 3, 7, 9])
def test_payload_cut_short_names_the_file(model, tmp_path, cut):
    """A payload whose length is not a multiple of 8 bytes is refused like any other short payload."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: truncated payload"):
        load_checkpoint(path)


def test_header_vocabulary_without_the_image_label_names_the_file(model, tmp_path):
    """A header vocabulary that lacks the reserved image-node label, recorded with the hash of its own
    lists: Vocabulary appends the label, so the rebuilt vocabulary no longer fits that hash."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    header, payload = _read_header(path)
    header["vocab"]["objects"] = ["image" if label == "__image__" else label for label in header["vocab"]["objects"]]
    lists = json.dumps(header["vocab"], sort_keys=True, separators=(",", ":"))
    header["vocab_hash"] = hashlib.sha256(lists.encode("utf-8")).hexdigest()
    _write_header(path, header, payload)
    message = f"^{re.escape(str(path))}: header vocabulary does not match its recorded hash$"
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_garbage_file_detected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_vocab_hash_mismatch_refused(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    other = Vocabulary(("x", "y"), ("r",))
    with pytest.raises(CheckpointHashMismatch):
        load_checkpoint(path, expected_vocab_hash=other.content_hash())


def test_matching_expectations_accepted(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path, expected_vocab_hash=model.vocab.content_hash())
    assert models_equal(model, loaded)


def test_save_is_deterministic(model, tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, p1, extra={"k": 1})
    save_checkpoint(model, p2, extra={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_models_equal_detects_differences(model, tiny_vocab):
    other = GcnModel.create(SMALL, tiny_vocab, seed=8)
    other.layers[0].trunk_bn.running_mean[:] = 0.25
    other.layers[1].node_bn.running_var[:] = 1.75
    assert models_equal(model, other)
    other.object_table.data[0, 0] += 1e-9
    assert not models_equal(model, other)


def _read_header(path):
    blob = path.read_bytes()
    n = int.from_bytes(blob[8:16], "little")
    return json.loads(blob[16 : 16 + n]), blob[16 + n :]


def _write_header(path, header, payload):
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + len(raw).to_bytes(8, "little") + raw + payload)


def test_tensor_directory_layout_is_fixed(model, tmp_path):
    """The names, shapes and order of a 2-layer model's tensors are the file format."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    header, _ = _read_header(path)
    layer = [
        ("trunk_gamma", [6]),
        ("trunk_beta", [6]),
        ("head_s_w", [6, 4]),
        ("head_s_b", [4]),
        ("head_t_w", [6, 4]),
        ("head_e_w", [6, 3]),
        ("node_w1", [4, 6]),
        ("node_gamma", [6]),
        ("node_beta", [6]),
        ("node_w2", [6, 3]),
        ("node_b2", [3]),
    ]
    expected = [("object_table", [5, 5]), ("relationship_table", [4, 5])]
    expected += [("layers.0.trunk_w", [15, 6])] + [(f"layers.0.{n}", s) for n, s in layer]
    # The last layer has no edge head.
    expected += [("layers.1.trunk_w", [9, 6])] + [(f"layers.1.{n}", s) for n, s in layer if n != "head_e_w"]
    for i in (0, 1):
        for bn in ("trunk_bn", "node_bn"):
            expected += [(f"layers.{i}.{bn}.running_mean", [6]), (f"layers.{i}.{bn}.running_var", [6])]
    assert [(e["name"], e["shape"]) for e in header["tensors"]] == expected
    offsets = [e["offset"] for e in header["tensors"]]
    sizes = [int(np.prod(shape)) for _, shape in expected]
    assert offsets == [sum(sizes[:i]) for i in range(len(sizes))]
    assert header["total_floats"] == sum(sizes)


# (test id, header mutation, key the error must name)
_MALFORMED = [
    *[(k, lambda h, k=k: h.pop(k), k) for k in ("total_floats", "tensors", "model_config", "vocab", "vocab_hash")],
    ("hidden_layers", lambda h: h["model_config"].update(hidden_layers=3), "hidden_layers"),
    ("num_layers_fractional", lambda h: h["model_config"].update(num_layers=2.5), "num_layers"),
    ("label_dim_float", lambda h: h["model_config"].update(label_dim=5.0), "label_dim"),
    ("num_layers_bool", lambda h: h["model_config"].update(num_layers=True), "num_layers"),
    ("num_layers_past_the_directory", lambda h: h["model_config"].update(num_layers=10**5), "num_layers"),
    ("model_config_not_object", lambda h: h.update(model_config=[2]), "model_config"),
    ("vocab_empty", lambda h: h.update(vocab={}), "objects"),
    ("vocab_not_object", lambda h: h.update(vocab=["cat"]), "vocab"),
    ("vocab_no_relationships", lambda h: h["vocab"].pop("relationships"), "relationships"),
    ("tensors_not_list", lambda h: h.update(tensors={}), "tensors"),
    *[(f"tensor_no_{k}", lambda h, k=k: h["tensors"][0].pop(k), k) for k in ("name", "shape", "offset")],
    ("tensor_offset_outside_payload", lambda h: h["tensors"][-1].update(offset=h["total_floats"]), "offset"),
    # the directory must tile the payload in order
    ("tensor_overlaps_the_one_before", lambda h: h["tensors"][1].update(offset=0), "relationship_table"),
    ("tensor_after_a_gap", lambda h: h["tensors"][1].update(offset=h["tensors"][1]["offset"] + 1), "relationship_table"),
    ("tensor_listed_twice", lambda h: h["tensors"].insert(1, dict(h["tensors"][0])), "object_table"),
    ("payload_after_the_last_tensor", lambda h: h["tensors"].pop(), "layers.1.node_bn.running_mean"),
    ("extra_not_object", lambda h: h.update(extra=[]), "extra"),
]


@pytest.mark.parametrize("mutate, key", [pytest.param(m, k, id=i) for i, m, k in _MALFORMED])
def test_malformed_header_names_file_and_key(model, tmp_path, mutate, key):
    """A missing or ill-typed header key, or a model_config field ModelConfig lacks."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    header, payload = _read_header(path)
    mutate(header)
    _write_header(path, header, payload)
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value) and key in str(exc.value)


def _swap_first_two(header):
    """The first two tensors in each other's place, their offsets re-tiled: every tensor present, one order off."""
    first, second = header["tensors"][:2]
    header["tensors"][:2] = [{**second, "offset": 0}, {**first, "offset": math.prod(second["shape"])}]


@pytest.mark.parametrize(
    "mutate, tensor",
    [
        (_swap_first_two, "relationship_table"),
        (lambda h: h["tensors"][0].update(shape=[5.0, 5]), "object_table"),
        (lambda h: h["tensors"][1].update(offset=True), "relationship_table"),
        (lambda h: h["tensors"][1].update(extra=1), "relationship_table"),
    ],
    ids=["reordered", "float_size", "bool_offset", "extra_key"],
)
def test_directory_that_is_not_the_layout_names_the_tensor(model, tmp_path, mutate, tensor):
    """The directory must equal, as JSON, the one the header's model_config and vocabulary give: a
    CheckpointError (exit 5) names the file and the first tensor that differs, and shows both entries."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    header, payload = _read_header(path)
    mutate(header)
    _write_header(path, header, payload)
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert type(exc.value) is CheckpointError
    message = f"{re.escape(str(path))}: tensor {re.escape(tensor)} is {{.*}}; the model_config and vocabulary give {{"
    assert re.match(message, str(exc.value))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda t: t.append(None), lambda n: f"entry {len(n)}, after {n[-1]}, is null; {_GIVEN} missing"),
        (lambda t: t.pop(), lambda n: f"entry {len(n) - 1}, after {n[-2]}, is missing; {_GIVEN} {{"),
        (lambda t: t[0].pop("name"), lambda n: f'entry 0, after the start, is {{"offset": 0, "shape": [5, 5]}}; {_GIVEN} {{'),
    ],
    ids=["trailing_null", "last_missing", "nameless"],
)
def test_directory_entry_without_a_name_is_named_by_its_place(model, tmp_path, mutate, message):
    """An entry past the layout's end, one short of it, or one with no name is named by its index and the
    layout's tensor before it, still as a plain CheckpointError (exit 5) that begins with the path."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    header, payload = _read_header(path)
    names = [t["name"] for t in header["tensors"]]
    mutate(header["tensors"])
    _write_header(path, header, payload)
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert type(exc.value) is CheckpointError
    assert str(exc.value).startswith(f"{path}: tensor directory {message(names)}")


def test_model_whose_arrays_are_not_its_layout_is_not_saved(model, tmp_path):
    """The writer describes the arrays by their config and vocabulary, so it refuses arrays that differ."""
    model.object_table.data = model.object_table.data[:1]
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match="the model's arrays are not the layout"):
        save_checkpoint(model, path)
    assert not path.exists()


@pytest.mark.parametrize("extra_floats, total", [(1, lambda n: n + 1), (0, float)], ids=["one_float_longer", "float"])
def test_total_floats_that_is_not_the_layout_refused(model, tmp_path, extra_floats, total):
    """A total_floats the payload agrees with is still refused unless it is the layout's, as a JSON int."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    header, payload = _read_header(path)
    n = header["total_floats"]
    header["total_floats"] = total(n)
    _write_header(path, header, payload + bytes(8 * extra_floats))
    message = f"{path}: 'total_floats' is {total(n)}; the model_config and vocabulary give {n}"
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["objects", "relationships"])
@pytest.mark.parametrize("label", [["cat"], {"cat": 1}, 3, None], ids=["list", "object", "number", "null"])
def test_vocabulary_label_that_is_not_a_string(model, tmp_path, key, label):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    header, payload = _read_header(path)
    header["vocab"][key].append(label)
    _write_header(path, header, payload)
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: vocabulary '{key}' must be a list of strings")):
        load_checkpoint(path)


def test_oversized_model_config_refused_before_allocating(tiny_vocab, tmp_path):
    """A 1-layer width-4 file whose header asks for mlp_hidden 400000 is refused by its tensor
    directory, without allocating the model that config describes (about 125 MiB)."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(GcnModel.create(ModelConfig(4, 4, 4, 1, 4), tiny_vocab), path)
    header, payload = _read_header(path)
    header["model_config"]["mlp_hidden"] = 400_000
    _write_header(path, header, payload)
    tracemalloc.start()
    try:
        message = 'tensor layers.0.trunk_w is {"name": "layers.0.trunk_w", "offset": 36, "shape": [12, 4]}; the model_config'
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_loaded_model_matches_the_numpy_reference(model, tmp_path, tiny_vocab):
    """A reloaded model's EVAL embeddings equal the plain-numpy forward of the saved model's arrays."""
    graphs = [
        augment_trivial(SceneGraph("a", (0, 1, 2), ((0, 0, 1), (1, 1, 2))), tiny_vocab),
        augment_trivial(SceneGraph("b", (3, 1), ((1, 2, 0),)), tiny_vocab),
    ]
    for _ in range(3):  # nonzero running means
        forward(model, graphs, Mode.TRAIN)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path)
    np.testing.assert_allclose(
        embed_graphs(loaded, graphs), reference_embeddings(model.arrays(), SMALL.num_layers, graphs), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize(
    "version", [1, 2, 3, 5, 4.0, True, "4", None], ids=["1", "2", "3", "5", "4.0", "true", "string_4", "missing"]
)
def test_unknown_format_version_refused(model, tmp_path, version):
    """Only format version 4, as a JSON integer, is read; older files are refused, not upgraded."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    header, payload = _read_header(path)
    del header["format_version"]
    if version is not None:
        header["format_version"] = version
    _write_header(path, header, payload)
    message = f"{path}: unsupported format version {version!r}; only version 4 is read"
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
        load_checkpoint(path)
