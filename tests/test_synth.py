"""Synthetic generator: determinism, similarity band, learnability signal."""

import numpy as np
import pytest

from sgembed.scene import augment_trivial, load_dataset, save_dataset
from sgembed.synth import SynthConfig, _difference_histogram, dataset_stats, generate, similarity_from_mixtures

FAST = SynthConfig(n_images=40, n_object_labels=30, n_relationship_labels=12, n_topics=3, objects_max=10, edges_max=8, seed=5)


class TestGenerate:
    def test_shapes_and_band(self):
        ds = generate(FAST)
        assert len(ds.graphs) == 40
        values = ds.similarity.values
        off = values[~np.eye(40, dtype=bool)]
        low, high = FAST.similarity_band
        assert off.min() >= low and off.max() <= high
        np.testing.assert_allclose(np.diag(values), 1.0)

    def test_symmetric(self):
        ds = generate(FAST)
        np.testing.assert_array_equal(ds.similarity.values, ds.similarity.values.T)

    def test_identical_mixtures_map_to_band_top(self):
        mixtures = np.array([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]])
        values = similarity_from_mixtures(mixtures, (0.6, 0.8))
        assert values[0, 1] == 0.8

    def test_orthogonal_mixtures_map_to_band_bottom(self):
        mixtures = np.array([[1.0, 0.0], [0.0, 1.0]])
        values = similarity_from_mixtures(mixtures, (0.6, 0.8))
        assert values[0, 1] == 0.6
        assert values[0, 0] == 1.0  # diagonal forced to 1

    def test_deterministic_files(self, tmp_path):
        paths1 = tuple(str(tmp_path / f"a_{n}") for n in ("g.jsonl", "s.csv", "v.json"))
        paths2 = tuple(str(tmp_path / f"b_{n}") for n in ("g.jsonl", "s.csv", "v.json"))
        save_dataset(generate(FAST), *paths1)
        save_dataset(generate(FAST), *paths2)
        for p1, p2 in zip(paths1, paths2):
            assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_different_seed_different_data(self):
        ds1 = generate(FAST)
        ds2 = generate(SynthConfig(**{**FAST.__dict__, "seed": 6}))
        assert not np.array_equal(ds1.similarity.values, ds2.similarity.values)

    def test_graphs_fit_the_config_and_augment(self):
        ds = generate(FAST)
        for g in ds.graphs:
            assert FAST.objects_min <= len(g.nodes) <= FAST.objects_max
            assert FAST.edges_min <= len(g.edges) <= FAST.edges_max
            aug = augment_trivial(g, ds.vocab)
            assert len(aug.nodes) == len(g.nodes) + 1

    def test_generated_files_load_back(self, tmp_path):
        """load_graphs applies every graphs.jsonl record rule, so each generated graph passes them."""
        ds = generate(FAST)
        paths = (str(tmp_path / "g.jsonl"), str(tmp_path / "s.csv"), str(tmp_path / "v.json"))
        save_dataset(ds, *paths)
        ds2 = load_dataset(*paths)
        assert ds2.graphs == ds.graphs
        np.testing.assert_array_equal(ds2.similarity.values, ds.similarity.values)

    def test_infeasible_config_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(objects_min=10, objects_max=3)
        with pytest.raises(ValueError):
            SynthConfig(n_topics=1)
        with pytest.raises(ValueError):
            SynthConfig(similarity_band=(0.8, 0.6))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_similar_mixtures_share_more_labels(self, seed):
        """Pairs with near-identical topic mixtures share more object labels
        than near-orthogonal pairs: the graph modality carries the signal."""
        config = SynthConfig(
            n_images=120, n_object_labels=60, n_relationship_labels=12, n_topics=4, seed=seed
        )
        ds = generate(config)
        mixtures = np.random.default_rng(np.random.SeedSequence((config.seed, 0))).dirichlet(
            np.ones(config.n_topics), size=config.n_images
        )
        unit = mixtures / np.linalg.norm(mixtures, axis=1, keepdims=True)
        cosine = unit @ unit.T
        label_sets = [set(g.nodes) for g in ds.graphs]

        def mean_overlap(pairs):
            overlaps = [
                len(label_sets[i] & label_sets[j]) / len(label_sets[i] | label_sets[j]) for i, j in pairs
            ]
            return float(np.mean(overlaps))

        close, far = [], []
        n = config.n_images
        for i in range(n):
            for j in range(i + 1, n):
                if cosine[i, j] > 0.9:
                    close.append((i, j))
                elif cosine[i, j] < 0.35:
                    far.append((i, j))
        assert len(close) > 10 and len(far) > 10
        assert mean_overlap(close) > mean_overlap(far)


class TestStats:
    def test_median_edges(self, tiny_vocab):
        from sgembed.scene import Dataset, SceneGraph, SimilarityMatrix

        graphs = (
            SceneGraph("a", (0, 1), ((0, 0, 1),)),
            SceneGraph("b", (0, 1, 2), ((0, 0, 1), (1, 1, 2))),
            SceneGraph("c", tuple(range(4)) * 3, tuple((0, 0, 1) for _ in range(9))),
        )
        sim = SimilarityMatrix(("a", "b", "c"), np.eye(3) * 0.0 + np.full((3, 3), 0.5) + np.eye(3) * 0.5)
        ds = Dataset(graphs, sim, tiny_vocab)
        stats = dataset_stats(ds)
        assert stats["median_edges"] == 2
        assert stats["n_images"] == 3

    def test_identical_similarities_concentrate_diff_histogram(self, tiny_vocab):
        from sgembed.scene import Dataset, SceneGraph, SimilarityMatrix

        graphs = tuple(SceneGraph(f"g{i}", (0, 1), ((0, 0, 1),)) for i in range(4))
        values = np.full((4, 4), 0.5)
        np.fill_diagonal(values, 1.0)
        ds = Dataset(graphs, SimilarityMatrix(tuple(g.image_id for g in graphs), values), tiny_vocab)
        stats = dataset_stats(ds)
        counts = stats["similarity_difference_histogram"]["counts"]
        assert sum(counts[1:]) == 0 and counts[0] > 0

    def test_generated_band_respected_in_histogram(self):
        ds = generate(FAST)
        stats = dataset_stats(ds)
        assert stats["median_edges"] >= FAST.edges_min
        counts = np.asarray(stats["similarity_histogram"]["counts"])
        edges = np.asarray(stats["similarity_histogram"]["bin_edges"])
        nonzero_bins = np.flatnonzero(counts)
        low, high = FAST.similarity_band
        assert edges[nonzero_bins[0]] >= low - 0.05
        assert edges[nonzero_bins[-1] + 1] <= high + 0.05


def histogram_of_difference_matrices(values, edges):
    """The (n-1)^2 difference matrix of every row, binned by np.histogram."""
    n = values.shape[0]
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    for i in range(n):
        row = values[i, np.arange(n) != i]
        diffs = np.abs(row[:, None] - row[None, :])
        counts += np.histogram(diffs[np.triu_indices(len(row), 1)], bins=edges)[0]
    return counts


class TestDifferenceHistogram:
    EDGES = np.linspace(0.0, 1.0, 21)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 30, 90])
    @pytest.mark.parametrize("kind", ["uniform", "tenths", "twentieths", "two-levels", "constant", "band"])
    def test_counts_equal_np_histogram(self, n, kind):
        rng = np.random.default_rng(n)
        values = rng.uniform(size=(n, n))
        values = {
            "uniform": values,
            "tenths": np.round(values, 1),  # differences land on or one rounding away from every edge
            "twentieths": np.round(values * 20) / 20,
            "two-levels": np.where(values < 0.5, 0.0, 1.0),  # differences of exactly 0 and 1, the closed last bin
            "constant": np.full((n, n), 0.35),
            "band": np.round(0.6 + 0.2 * values, 6),  # the generator's rounding
        }[kind]
        got = _difference_histogram(values, self.EDGES)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, histogram_of_difference_matrices(values, self.EDGES))

    def test_dataset_stats_counts_equal_np_histogram(self):
        ds = generate(SynthConfig(n_images=120, seed=11))
        counts = dataset_stats(ds)["similarity_difference_histogram"]["counts"]
        assert counts == histogram_of_difference_matrices(ds.similarity.values, self.EDGES).tolist()
        assert sum(counts) == 120 * 119 * 118 // 2
