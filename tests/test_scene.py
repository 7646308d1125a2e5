"""Data model, file round-trips, augmentation and corruption."""

import json
import math
import pathlib
import re
import warnings

import numpy as np
import pytest

from conftest import make_dataset
from sgembed.scene import (
    Dataset,
    DatasetFormatError,
    DimensionMismatchError,
    ReservedLabelError,
    SceneGraph,
    SimilarityMatrix,
    UnknownLabelError,
    Vocabulary,
    augment_trivial,
    corrupt,
    load_dataset,
    load_similarity,
    save_dataset,
    save_similarity,
    split_dataset,
)


def write_fixture(tmp_path, graphs_jsonl, similarity_rows, vocab_json):
    gp, sp, vp = tmp_path / "graphs.jsonl", tmp_path / "similarity.csv", tmp_path / "vocabulary.json"
    gp.write_text(graphs_jsonl)
    sp.write_text(similarity_rows)
    vp.write_text(vocab_json)
    return str(gp), str(sp), str(vp)


VOCAB = '{"objects": ["man", "dog", "frisbee"], "relationships": ["throwing", "catching"]}'
GRAPHS = "\n".join(
    [
        '{"image_id": "a", "objects": [{"label": "man"}, {"label": "frisbee"}], "relationships": [{"subject": 0, "predicate": "throwing", "object": 1}]}',
        '{"image_id": "b", "objects": [{"label": "dog"}], "relationships": []}',
        '{"image_id": "c", "objects": [{"label": "man"}, {"label": "dog"}], "relationships": [{"subject": 1, "predicate": "catching", "object": 0}]}',
    ]
)
SIM = "a,b,c\n1.000000,0.500000,0.250000\n0.500000,1.000000,0.750000\n0.250000,0.750000,1.000000\n"


class TestLoading:
    def test_three_image_fixture(self, tmp_path):
        ds = load_dataset(*write_fixture(tmp_path, GRAPHS, SIM, VOCAB))
        assert len(ds.graphs) == 3
        assert ds.similarity.values.shape == (3, 3)
        # reserved labels are appended on load
        assert "__image__" in ds.vocab.object_labels
        assert "__in_image__" in ds.vocab.relationship_labels

    def test_wrong_similarity_dimension(self, tmp_path):
        bad_sim = "a,b\n1.000000,0.500000\n0.500000,1.000000\n"
        with pytest.raises(DimensionMismatchError):
            load_dataset(*write_fixture(tmp_path, GRAPHS, bad_sim, VOCAB))

    def test_unknown_label_rejected(self, tmp_path):
        bad = GRAPHS.replace('"label": "dog"', '"label": "zzz"', 1)
        with pytest.raises(UnknownLabelError, match="zzz"):
            load_dataset(*write_fixture(tmp_path, bad, SIM, VOCAB))

    def test_malformed_record_reports_line(self, tmp_path):
        bad = GRAPHS + "\n{not json}"
        with pytest.raises(DatasetFormatError, match=":4"):
            load_dataset(*write_fixture(tmp_path, bad, SIM, VOCAB))

    def test_similarity_out_of_range(self, tmp_path):
        bad_sim = SIM.replace("0.750000", "1.750000")
        with pytest.raises(DatasetFormatError):
            load_dataset(*write_fixture(tmp_path, GRAPHS, bad_sim, VOCAB))

    def test_self_loop_rejected(self, tmp_path):
        bad = GRAPHS.replace('"subject": 0, "predicate": "throwing", "object": 1', '"subject": 0, "predicate": "throwing", "object": 0')
        with pytest.raises(DatasetFormatError, match="self-loop"):
            load_dataset(*write_fixture(tmp_path, bad, SIM, VOCAB))

    @pytest.mark.parametrize(
        "subject, obj",
        [("0.9", "1.2"), ("true", "0"), ("0", "true"), ("1.5", "0"), ('"1"', "0"), ("0", '" 1"'), ("null", "1"), ("[0]", "1")],
    )
    def test_non_integral_or_boolean_endpoint_rejected(self, tmp_path, subject, obj):
        """Only a JSON int or an integral float is a node index: not a fraction, a boolean, a string, null or a list."""
        edge = '"subject": 0, "predicate": "throwing", "object": 1'
        bad = GRAPHS.replace(edge, f'"subject": {subject}, "predicate": "throwing", "object": {obj}')
        with pytest.raises(DatasetFormatError, match=r"graphs\.jsonl:1: relationship endpoint .* is not an integer"):
            load_dataset(*write_fixture(tmp_path, bad, SIM, VOCAB))

    @pytest.mark.parametrize(
        "key, value", [("objects", "mandog"), ("relationships", "on"), ("objects", ["man", 3]), ("relationships", {"a": 1})]
    )
    def test_vocabulary_lists_must_hold_strings(self, tmp_path, key, value):
        vocab = {**json.loads(VOCAB), key: value}
        with pytest.raises(DatasetFormatError, match=rf"vocabulary\.json: vocabulary '{key}' must be a list of strings"):
            load_dataset(*write_fixture(tmp_path, GRAPHS, SIM, json.dumps(vocab)))

    @pytest.mark.parametrize(
        "body",
        [
            "1.000000,0.500000,0.250000\n0.500000,x,0.750000\n0.250000,0.750000,1.000000\n",
            "1.000000,0.500000,0.250000\n0.500000,,0.750000\n0.250000,0.750000,1.000000\n",
            "1.000000,0.500000,0.250000\n0.500000,1.000000\n0.250000,0.750000,1.000000\n",
        ],
        ids=["non-numeric", "empty-entry", "ragged"],
    )
    def test_malformed_similarity_body_names_the_file(self, tmp_path, body):
        with pytest.raises(DatasetFormatError, match=r"similarity\.csv: malformed similarity body"):
            load_dataset(*write_fixture(tmp_path, GRAPHS, "a,b,c\n" + body, VOCAB))

    @pytest.mark.parametrize(
        "body",
        [
            "",
            "1.000000,0.500000,0.250000\n" * 4,
            "1.000000,0.500000\n" * 3,
            "1.000000,0.500000,0.250000,0.1\n" * 3,
        ],
        ids=["header-only", "extra-row", "short-rows", "long-rows"],
    )
    def test_similarity_body_must_be_n_by_n(self, tmp_path, body):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatchError, match="header lists 3 images"):
                load_dataset(*write_fixture(tmp_path, GRAPHS, "a,b,c\n" + body, VOCAB))

    def test_similarity_parses_like_float(self, tmp_path):
        values = np.random.default_rng(0).random((40, 40))
        path = tmp_path / "similarity.csv"
        save_similarity(SimilarityMatrix(tuple(f"img{i}" for i in range(40)), values), path)
        expected = np.array([[float("%.6f" % v) for v in row] for row in values])
        assert load_similarity(path).values.tobytes() == expected.tobytes()

    def test_round_trip_is_value_identical(self, tmp_path):
        ds = load_dataset(*write_fixture(tmp_path, GRAPHS, SIM, VOCAB))
        out = tmp_path / "rt"
        out.mkdir()
        paths = (str(out / "graphs.jsonl"), str(out / "similarity.csv"), str(out / "vocabulary.json"))
        save_dataset(ds, *paths)
        ds2 = load_dataset(*paths)
        assert ds2.vocab == ds.vocab
        assert ds2.graphs == ds.graphs
        assert np.array_equal(ds2.similarity.values, ds.similarity.values)
        assert ds2.similarity.image_ids == ds.similarity.image_ids


class TestAugment:
    def test_counts(self, tiny_vocab):
        g = SceneGraph("x", (0, 1, 2), ((0, 0, 1),))
        out = augment_trivial(g, tiny_vocab)
        assert len(out.nodes) == 4
        assert len(out.edges) == 4

    def test_minimal_graph_connected(self, tiny_vocab):
        g = SceneGraph("x", (0,), ())
        out = augment_trivial(g, tiny_vocab)
        assert len(out.nodes) == 2
        assert len(out.edges) == 1
        src, rel, tgt = out.edges[0]
        assert (src, tgt) == (0, 1)
        assert tiny_vocab.relationship_labels[rel] == "__in_image__"

    def test_double_augment_rejected(self, tiny_vocab):
        g = augment_trivial(SceneGraph("x", (0,), ()), tiny_vocab)
        with pytest.raises(ReservedLabelError):
            augment_trivial(g, tiny_vocab)

    def test_empty_graph_rejected(self, tiny_vocab):
        # Its image node would have no incident edge.
        with pytest.raises(ValueError, match="^x: graph has no nodes$"):
            augment_trivial(SceneGraph("x", (), ()), tiny_vocab)

    @pytest.mark.parametrize("seed", range(5))
    def test_augmented_is_weakly_connected(self, seed, tiny_vocab):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        edges = tuple(
            (int(a), 0, int(b))
            for a, b in rng.integers(0, n, size=(int(rng.integers(0, 5)), 2))
            if a != b
        )
        out = augment_trivial(SceneGraph("x", tuple([0] * n), edges), tiny_vocab)
        # every node reaches the image node directly, so connectivity is immediate
        image_node = len(out.nodes) - 1
        touched = {s for s, _, t in out.edges if t == image_node}
        assert touched == set(range(n))


class TestCorrupt:
    def test_m_zero_is_identity(self, tiny_vocab):
        g = SceneGraph("x", (0, 1, 2), ((0, 0, 1), (1, 1, 2)))
        assert corrupt(g, 0, 123) == g

    def test_remove_all_edges_keeps_fallback_node(self):
        g = SceneGraph("x", (3, 1, 2), ((0, 0, 1), (1, 1, 2)))
        out = corrupt(g, 99, 7)
        assert out.nodes == (3,)
        assert out.edges == ()

    def test_path_graph_one_removal(self):
        # a->b->c: removing edge (a,b) leaves {b, c}; removing (b,c) leaves {a, b}.
        g = SceneGraph("x", (10, 11, 12), ((0, 0, 1), (1, 0, 2)))
        seen = set()
        for seed in range(40):
            out = corrupt(g, 1, seed)
            assert len(out.edges) == 1
            assert out.nodes in {(11, 12), (10, 11)}
            seen.add(out.nodes)
        assert seen == {(11, 12), (10, 11)}, "both removal outcomes should occur"

    def test_deterministic_given_seed(self):
        g = SceneGraph("x", (0, 1, 2, 3), ((0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 0, 0)))
        assert corrupt(g, 2, 42) == corrupt(g, 2, 42)

    @pytest.mark.parametrize("m", [1, 2, 3, 10])
    @pytest.mark.parametrize("seed", range(10))
    def test_nodes_are_exactly_surviving_endpoints(self, m, seed):
        rng = np.random.default_rng(seed * 100 + m)
        n = int(rng.integers(2, 8))
        edges = []
        for _ in range(int(rng.integers(1, 10))):
            a, b = rng.choice(n, size=2, replace=False)
            edges.append((int(a), 0, int(b)))
        g = SceneGraph("x", tuple(range(100, 100 + n)), tuple(edges))
        out = corrupt(g, m, seed)
        if out.edges:
            endpoints = {u for u, _, _ in out.edges} | {v for _, _, v in out.edges}
            assert endpoints == set(range(len(out.nodes)))
        else:
            assert len(out.nodes) == 1
            assert out.nodes[0] == g.nodes[0]

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            corrupt(SceneGraph("x", (0,), ()), -1, 0)

    @staticmethod
    def _random_graphs(count, seed):
        rng = np.random.default_rng(seed)
        for k in range(count):
            n = int(rng.integers(1, 9))
            edges = tuple((int(rng.integers(n)), int(rng.integers(3)), int(rng.integers(n))) for _ in range(rng.integers(0, 12)))
            yield SceneGraph(f"g{k}", tuple(int(x) for x in rng.integers(0, 50, size=n)), edges)

    def test_stripping_every_edge_draws_nothing(self, monkeypatch):
        """For every m >= |edges| the result is the first node alone, and no generator is built."""
        graphs = list(self._random_graphs(200, seed=1))
        monkeypatch.setattr(np.random, "default_rng", None)  # building a generator now raises TypeError
        for g in graphs:
            for m in range(max(len(g.edges), 1), len(g.edges) + 3):
                assert corrupt(g, m, (5, m)) == SceneGraph(g.image_id, (g.nodes[0],), ())

    def test_seed_tuple_draws_as_its_seed_sequence(self):
        """While some edge survives, a seed tuple and the SeedSequence made from it give the same graph."""
        checked = 0
        for q, g in enumerate(self._random_graphs(200, seed=2)):
            for m in range(1, len(g.edges)):
                assert corrupt(g, m, (3, m, q)) == corrupt(g, m, np.random.SeedSequence((3, m, q)))
                checked += 1
        assert checked > 500

    @pytest.mark.parametrize(
        "g, seed, expected",
        [
            (SceneGraph("a", (4, 2, 7), ((0, 0, 1), (1, 1, 2))), 0, (4,)),
            (SceneGraph("b", (5, 5, 1, 3), ((2, 0, 3), (3, 1, 0), (1, 2, 0))), 11, (5,)),
            (SceneGraph("c", (9, 0), ((1, 3, 0),)), np.random.SeedSequence((7, 2, 5)), (9,)),
        ],
    )
    def test_all_edges_removed_as_the_generator_path_gave(self, g, seed, expected):
        """m == |edges|: the results that drawing every edge with the generator gave, pinned."""
        assert corrupt(g, len(g.edges), seed) == SceneGraph(g.image_id, expected, ())


class TestSplit:
    def test_ten_images_70_20_10(self, tiny_vocab):
        ds = make_dataset(10, tiny_vocab)
        split = split_dataset(ds, (0.7, 0.2, 0.1), seed=0)
        assert (len(split.train), len(split.val), len(split.test)) == (7, 2, 1)
        assert sorted(split.train + split.val + split.test) == list(range(10))

    def test_same_seed_same_assignment(self, tiny_vocab):
        ds = make_dataset(20, tiny_vocab)
        assert split_dataset(ds, (0.7, 0.2, 0.1), seed=5) == split_dataset(ds, (0.7, 0.2, 0.1), seed=5)

    def test_three_images_remainder_to_train(self, tiny_vocab):
        ds = make_dataset(3, tiny_vocab)
        split = split_dataset(ds, (0.7, 0.2, 0.1), seed=1)
        assert (len(split.train), len(split.val), len(split.test)) == (3, 0, 0)

    def test_bad_ratios_rejected(self, tiny_vocab):
        ds = make_dataset(4, tiny_vocab)
        with pytest.raises(ValueError):
            split_dataset(ds, (0.7, 0.2, 0.2), seed=0)
        for ratios in (5, (0.5, 0.5), ("a", "b", "c"), (1.5, -0.5, 0.0), (0.5, 0.5, math.nan), (True, False, False)):
            with pytest.raises(ValueError, match="three finite non-negative numbers"):
                split_dataset(ds, ratios, seed=0)


class TestTypes:
    def test_similarity_requires_square(self):
        with pytest.raises(DimensionMismatchError):
            SimilarityMatrix(("a", "b"), np.zeros((2, 3)))

    def test_similarity_rejects_nan(self):
        values = np.full((2, 2), np.nan)
        with pytest.raises(DatasetFormatError):
            SimilarityMatrix(("a", "b"), values)

    def test_similarity_without_images_rejected(self):
        with pytest.raises(DatasetFormatError, match="^similarity matrix has no images$"):
            SimilarityMatrix((), np.zeros((0, 0)))

    def test_dataset_checks_graph_order(self, tiny_vocab):
        g = SceneGraph("a", (0,), ())
        sim = SimilarityMatrix(("zzz",), np.ones((1, 1)))
        with pytest.raises(DatasetFormatError):
            Dataset((g,), sim, tiny_vocab)

    def test_vocabulary_rejects_duplicates(self):
        with pytest.raises(DatasetFormatError):
            Vocabulary(("a", "a"), ("r",))

    def test_vocabulary_carries_each_reserved_label_once(self):
        built = Vocabulary(("cat",), ("on",))
        assert built.object_labels == ("cat", "__image__")
        assert built.relationship_labels == ("on", "__in_image__")
        assert (built.trivial_node_label, built.trivial_edge_label) == (1, 1)
        listed = Vocabulary(("__image__", "cat"), ("on", "__in_image__", "near"))
        assert listed.object_labels == ("__image__", "cat")
        assert listed.relationship_labels == ("on", "__in_image__", "near")
        assert (listed.trivial_node_label, listed.trivial_edge_label) == (0, 1)


PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "sgembed"


def test_only_scene_names_the_reserved_labels():
    """Every other module reads the reserved labels' indices from the Vocabulary."""
    reserved = re.compile(r"TRIVIAL_(NODE|EDGE)_LABEL|__image__|__in_image__")
    naming = [path.name for path in sorted(PACKAGE.glob("*.py")) if reserved.search(path.read_text(encoding="utf-8"))]
    assert naming == ["scene.py"]
