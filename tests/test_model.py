"""GCN invariants: gather semantics, message means, norms, permutation and
batching invariance, end-to-end gradients."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from conftest import reference_layer, relative_gradient_error
from sgembed import model as model_module
from sgembed import tensor as T
from sgembed.model import (
    BatchedGraph,
    GcnModel,
    ModelConfig,
    array_shapes,
    embed_graphs,
    embed_inputs,
    forward,
    layer_forward,
    pool,
)
from sgembed.scene import SceneGraph, augment_trivial
from sgembed.synth import SynthConfig, generate
from sgembed.tensor import EmptySegmentError, IndexRangeError, Mode, Tensor

SMALL = ModelConfig(label_dim=6, message_dim=5, out_dim=4, num_layers=2, mlp_hidden=7)


@pytest.fixture
def model(tiny_vocab):
    return GcnModel.create(SMALL, tiny_vocab, seed=3)


def augmented(graphs, vocab):
    return [augment_trivial(g, vocab) for g in graphs]


def test_created_arrays_follow_the_law_of_their_kind():
    """At the acceptance widths: tables normal with std 1/sqrt(label_dim), weights He-uniform on their fan-in,
    the two biases uniform within 1/sqrt(mlp_hidden), every batchnorm the identity."""
    config = ModelConfig(label_dim=32, message_dim=64, out_dim=32, num_layers=2, mlp_hidden=64)
    arrays = GcnModel.create(config, generate(SynthConfig()).vocab, seed=0).arrays()
    bias_bound = 1.0 / math.sqrt(config.mlp_hidden)
    for name, a in arrays.items():
        kind = name.split(".", 2)[-1]
        if kind in ("object_table", "relationship_table"):
            assert abs(a.std() * math.sqrt(config.label_dim) - 1.0) < 0.1, name
        elif kind in ("trunk_w", "head_s_w", "head_t_w", "head_e_w", "node_w1", "node_w2"):
            bound = math.sqrt(6.0 / a.shape[0])
            assert 0.9 * bound < np.abs(a).max() <= bound, name
        elif kind in ("head_s_b", "node_b2"):
            assert 0.5 * bias_bound < np.abs(a).max() <= bias_bound, name
        elif kind in ("trunk_gamma", "node_gamma", "trunk_bn.running_var", "node_bn.running_var"):
            assert np.array_equal(a, np.ones_like(a)), name
        else:
            assert kind in ("trunk_beta", "node_beta", "trunk_bn.running_mean", "node_bn.running_mean"), name
            assert np.array_equal(a, np.zeros_like(a)), name


def test_array_of_no_known_kind_is_refused(tiny_vocab, monkeypatch):
    """An array_shapes name that create has no law for raises rather than starting as zeros."""
    shapes = model_module.array_shapes
    monkeypatch.setattr(model_module, "array_shapes", lambda c, v: {**shapes(c, v), "layers.0.node_scale": (4,)})
    with pytest.raises(ValueError, match="no initialization law for the model array 'layers.0.node_scale'"):
        GcnModel.create(SMALL, tiny_vocab, seed=0)


def test_seed_fixes_every_parameter(tiny_vocab):
    """The bytes of every parameter a seed gives, in parameters() order: reordering a draw changes them."""
    model = GcnModel.create(SMALL, tiny_vocab, seed=0)
    digest = hashlib.sha256(b"".join(p.data.astype("<f8").tobytes() for p in model.parameters().values()))
    assert digest.hexdigest() == "9859234c397b10f7592ecd410965eefdb300d55c06e113ab289ac4458ad32755"


def test_acceptance_model_size():
    """The 2-layer acceptance model holds 25 parameter tensors, 46,080 floats on the default synthetic vocabulary."""
    config = ModelConfig(label_dim=32, message_dim=64, out_dim=32, num_layers=2, mlp_hidden=64)
    params = GcnModel.create(config, generate(SynthConfig()).vocab, seed=0).parameters()
    assert (len(params), sum(p.data.size for p in params.values())) == (25, 46_080)


@pytest.mark.parametrize(
    "config",
    [SMALL, ModelConfig(3, 4, 5, 1, 2), ModelConfig(2, 3, 4, 3, 5), ModelConfig(32, 64, 32, 2, 64)],
    ids=["small", "one_layer", "three_layers", "acceptance"],
)
def test_array_shapes_match_a_created_model(tiny_vocab, config):
    """array_shapes is GcnModel.create(...).arrays() by name, shape and order, computed without a model."""
    arrays = GcnModel.create(config, tiny_vocab, seed=0).arrays()
    assert list(array_shapes(config, tiny_vocab).items()) == [(name, a.shape) for name, a in arrays.items()]


def _without(name):
    return lambda arrays: {n: a for n, a in arrays.items() if n != name}


def _swapped(first, second):
    swap = {first: second, second: first}
    return lambda arrays: {swap.get(n, n): arrays[swap.get(n, n)] for n in arrays}


def _reshaped(name):
    return lambda arrays: {**arrays, name: np.zeros(arrays[name].size + 1)}


def _converted(convert):
    return lambda arrays: {n: convert(a) for n, a in arrays.items()}


@pytest.mark.parametrize(
    "edit",
    [
        _without("layers.1.head_t_w"),
        _swapped("layers.0.trunk_gamma", "layers.0.trunk_beta"),
        _reshaped("layers.0.node_b2"),
        _converted(lambda a: a.astype(np.float32)),
        _converted(np.asfortranarray),
    ],
    ids=["one_name_missing", "two_names_swapped", "one_shape_off", "float32", "fortran_order"],
)
def test_table_that_is_not_the_layout_is_refused(tiny_vocab, edit):
    """The constructor takes a created model's table and refuses it with one name missing, two names in each
    other's place (trunk_gamma and trunk_beta share a shape, so only the order is off), one shape off, or
    arrays that Tensor would copy rather than share: float32, or Fortran-ordered 2-d arrays."""
    arrays = GcnModel.create(SMALL, tiny_vocab, seed=3).arrays()
    GcnModel(SMALL, tiny_vocab, arrays)
    with pytest.raises(ValueError, match="^the model's arrays are not the layout that its config and vocabulary give$"):
        GcnModel(SMALL, tiny_vocab, edit(arrays))


def test_model_shares_the_arrays_it_is_built_on(tiny_vocab):
    """Parameters, layer views and batchnorm states are the given arrays themselves, not copies."""
    arrays = {name: np.full(shape, 0.5) for name, shape in array_shapes(SMALL, tiny_vocab).items()}
    model = GcnModel(SMALL, tiny_vocab, arrays)
    assert list(model.arrays()) == list(arrays)
    assert all(a is arrays[name] for name, a in model.arrays().items())
    first, last = model.layers
    assert first.head_e_w.data is arrays["layers.0.head_e_w"] and last.head_e_w is None
    assert last.trunk_w is model.parameters()["layers.1.trunk_w"] and last.trunk_w.data is arrays["layers.1.trunk_w"]
    assert first.trunk_bn.running_mean is arrays["layers.0.trunk_bn.running_mean"]
    assert last.node_bn.running_var is arrays["layers.1.node_bn.running_var"]


class TestEmbedInputs:
    def test_single_node_gathers_table_row(self, model, tiny_vocab):
        batch = BatchedGraph.from_graphs([SceneGraph("x", (0,), ())])
        nodes, edges = embed_inputs(model, batch)
        np.testing.assert_array_equal(nodes.data[0], model.object_table.data[0])
        assert edges.shape == (0, SMALL.label_dim)

    def test_same_label_same_row(self, model):
        batch = BatchedGraph.from_graphs([SceneGraph("x", (2, 2), ((0, 1, 1),))])
        nodes, _ = embed_inputs(model, batch)
        np.testing.assert_array_equal(nodes.data[0], nodes.data[1])

    def test_batch_rows_in_graph_order(self, model):
        g1 = SceneGraph("a", (0, 1), ())
        g2 = SceneGraph("b", (2, 3, 0), ())
        batch = BatchedGraph.from_graphs([g1, g2])
        nodes, _ = embed_inputs(model, batch)
        assert nodes.shape[0] == 5
        expected = model.object_table.data[[0, 1, 2, 3, 0]]
        np.testing.assert_array_equal(nodes.data, expected)

    def test_out_of_range_label(self, model):
        batch = BatchedGraph.from_graphs([SceneGraph("x", (999,), ())])
        with pytest.raises(IndexRangeError):
            embed_inputs(model, batch)


class TestBatchedGraph:
    def test_empty_list_refused(self):
        with pytest.raises(ValueError, match="^cannot batch an empty graph list$"):
            BatchedGraph.from_graphs([])

    def test_graph_without_nodes_refused(self):
        with pytest.raises(ValueError, match="^y: graph has no nodes$"):
            BatchedGraph.from_graphs([SceneGraph("x", (0,), ()), SceneGraph("y", (), ())])

    @pytest.mark.parametrize("bad, edge", [(0, (0, 0, 2)), (1, (-1, 0, 1))], ids=["past_the_end", "negative"])
    def test_endpoint_outside_its_graph_refused(self, bad, edge):
        """Offset by the nodes of the graphs before it, the endpoint would name a node of the
        other graph: an index inside the batch, which no later range check could refuse."""
        graphs = [SceneGraph(name, (0, 1), ((0, 0, 1),)) for name in ("x", "y")]
        graphs[bad] = SceneGraph(graphs[bad].image_id, (0, 1), (edge,))
        with pytest.raises(ValueError, match=f"^{graphs[bad].image_id}: edge endpoint out of range$"):
            BatchedGraph.from_graphs(graphs)


class TestLayerForward:
    def _states(self, model, batch):
        return embed_inputs(model, batch)

    def test_single_edge_source_receives_its_message_exactly(self, model):
        # With one edge u->v, node u's pooled vector is the mean of one
        # message, i.e. the source message itself. Verify against the numpy
        # reference layer through the same weights in EVAL mode.
        g = SceneGraph("x", (0, 1), ((0, 0, 1),))
        batch = BatchedGraph.from_graphs([g])
        nodes, edges = self._states(model, batch)
        new_nodes, _ = layer_forward(model.layers[0], nodes, edges, batch, Mode.EVAL)

        src, tgt = batch.edge_src, batch.edge_tgt
        expected, _ = reference_layer(model.arrays(), "layers.0.", nodes.data, edges.data, src, tgt)
        np.testing.assert_allclose(new_nodes.data[0], expected[0], atol=1e-12)

    def test_two_identical_messages_average_to_the_message(self, model):
        # Parallel duplicate edges produce identical messages; a node whose
        # inbox holds only those duplicates pools to exactly one of them,
        # so its state matches the single-edge layer output.
        single = BatchedGraph.from_graphs([SceneGraph("x", (0, 1), ((0, 0, 1),))])
        doubled = BatchedGraph.from_graphs([SceneGraph("x", (0, 1), ((0, 0, 1), (0, 0, 1)))])
        layer = model.layers[0]
        n1, e1 = embed_inputs(model, single)
        n2, e2 = embed_inputs(model, doubled)
        out1, _ = layer_forward(layer, n1, e1, single, Mode.EVAL)
        out2, _ = layer_forward(layer, n2, e2, doubled, Mode.EVAL)
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-9)

    def test_node_rows_unit_norm(self, model):
        g = SceneGraph("x", (0, 1, 2), ((0, 0, 1), (2, 1, 0)))
        batch = BatchedGraph.from_graphs([g])
        nodes, edges = self._states(model, batch)
        new_nodes, _ = layer_forward(model.layers[0], nodes, edges, batch, Mode.EVAL)
        np.testing.assert_allclose(np.linalg.norm(new_nodes.data, axis=1), 1.0, atol=1e-12)

    def test_isolated_node_rejected(self, model):
        # Node 2 has no incident edge, so it receives no message to average.
        batch = BatchedGraph.from_graphs([SceneGraph("x", (0, 1, 2), ((0, 0, 1),))])
        nodes, edges = self._states(model, batch)
        with pytest.raises(EmptySegmentError, match=r"\[2\]"):
            layer_forward(model.layers[0], nodes, edges, batch, Mode.EVAL)


class TestPool:
    def test_single_node_graph_returns_state(self):
        state = np.array([[0.6, 0.8]])
        out = pool(Tensor(state), [0], 1)
        np.testing.assert_allclose(out.data, state, atol=1e-15)

    def test_opposite_states_degenerate_to_zero_row(self):
        w = np.array([[0.6, 0.8]])
        states = Tensor(np.vstack([w, -w]))
        before = T.degenerate_norm_count()
        out = pool(states, [0, 0], 1)
        np.testing.assert_allclose(out.data, [[0.0, 0.0]], atol=1e-15)
        assert T.degenerate_norm_count() == before + 1

    def test_batched_graphs_pool_independently(self, model, tiny_vocab):
        g1 = SceneGraph("a", (0, 1), ((0, 0, 1),))
        g2 = SceneGraph("b", (2, 3, 1), ((0, 1, 1), (1, 2, 2)))
        together = forward(model, augmented([g1, g2], tiny_vocab), Mode.EVAL).data
        alone1 = forward(model, augmented([g1], tiny_vocab), Mode.EVAL).data
        alone2 = forward(model, augmented([g2], tiny_vocab), Mode.EVAL).data
        np.testing.assert_allclose(together, np.vstack([alone1, alone2]), atol=1e-9)


class TestForwardInvariants:
    def test_requires_augmented_graphs(self, model):
        with pytest.raises(ValueError, match="augment"):
            forward(model, [SceneGraph("x", (0, 1), ((0, 0, 1),))], Mode.EVAL)

    def test_unit_norm_output(self, model, tiny_vocab):
        gs = [
            SceneGraph("a", (0, 1, 2), ((0, 0, 1), (1, 1, 2))),
            SceneGraph("b", (3,), ()),
        ]
        out = forward(model, augmented(gs, tiny_vocab), Mode.EVAL)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_node_permutation_invariance(self, model, tiny_vocab, seed):
        rng = np.random.default_rng(seed)
        nodes = (0, 1, 2, 3, 1)
        edges = ((0, 0, 1), (1, 1, 2), (3, 2, 4), (2, 0, 0))
        g = SceneGraph("x", nodes, edges)
        perm = rng.permutation(len(nodes))
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(nodes))
        g_perm = SceneGraph(
            "x",
            tuple(nodes[i] for i in perm),
            tuple((int(inv[u]), r, int(inv[v])) for u, r, v in edges),
        )
        out = forward(model, augmented([g], tiny_vocab), Mode.EVAL).data
        out_perm = forward(model, augmented([g_perm], tiny_vocab), Mode.EVAL).data
        np.testing.assert_allclose(out, out_perm, atol=1e-9)

    def test_batch_of_one_equals_unbatched(self, model, tiny_vocab):
        g = SceneGraph("x", (0, 1, 2), ((0, 0, 1), (1, 1, 2)))
        batched = forward(model, augmented([g], tiny_vocab), Mode.EVAL).data
        single = forward(model, augmented([g], tiny_vocab), Mode.EVAL).data
        np.testing.assert_allclose(batched, single, atol=1e-12)

    def test_isomorphic_graphs_identical_embeddings(self, model, tiny_vocab):
        g1 = SceneGraph("a", (0, 1), ((0, 0, 1),))
        g2 = SceneGraph("b", (1, 0), ((1, 0, 0),))
        out = forward(model, augmented([g1, g2], tiny_vocab), Mode.EVAL).data
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)

    def test_embed_graphs_records_no_tape(self, model, tiny_vocab, monkeypatch):
        graphs = augmented([SceneGraph("a", (0, 1, 2), ((0, 0, 1), (1, 2, 2))), SceneGraph("b", (3,), ())], tiny_vocab)
        expected = forward(model, graphs, Mode.EVAL).data
        monkeypatch.setattr(T, "TapeNode", None)  # recording any node now raises TypeError
        np.testing.assert_array_equal(embed_graphs(model, graphs), expected)
        assert all(p.requires_grad for p in model.parameters().values())


ACCEPTANCE = ModelConfig(label_dim=32, message_dim=64, out_dim=32, num_layers=2, mlp_hidden=64)


@pytest.fixture(scope="module")
def synthetic_400():
    """400 augmented synthetic graphs and an untrained acceptance-width model on their vocabulary."""
    dataset = generate(SynthConfig(n_images=400))
    return augmented(dataset.graphs, dataset.vocab), GcnModel.create(ACCEPTANCE, dataset.vocab, seed=0)


class TestEmbedGraphsChunks:
    @pytest.mark.parametrize(
        "edges, budget, expected",
        [
            ([10, 50, 10, 10, 25], 40, [(0, 1), (1, 2), (2, 4), (4, 5)]),
            ([3, 3, 3], 6, [(0, 2), (2, 3)]),
            ([7], 1, [(0, 1)]),
            ([1, 1, 1], 10**9, [(0, 3)]),
            ([], 5, []),
        ],
    )
    def test_edge_budget_chunks(self, monkeypatch, edges, budget, expected):
        """Runs of consecutive graphs within the budget; a graph over it forms its own chunk."""
        monkeypatch.setattr(model_module, "_EMBED_EDGES", budget)
        graphs = [SceneGraph(str(i), (0, 1), ((0, 0, 1),) * e) for i, e in enumerate(edges)]
        chunks = model_module._edge_budget_chunks(graphs)
        assert [(c.start, c.stop) for c in chunks] == expected

    @pytest.mark.parametrize("budget", [1, 7, model_module._EMBED_EDGES, 60, 10**9])
    def test_chunking_cannot_change_an_embedding(self, synthetic_400, monkeypatch, budget):
        """Every budget gives the same bits: one graph per forward, a few graphs per forward, one forward.
        At 60 edges some of the 40 graphs exceed the budget and share no chunk."""
        graphs, model = synthetic_400
        graphs = graphs[:40]
        assert max(len(g.edges) for g in graphs) > 60 > min(len(g.edges) for g in graphs)
        expected = embed_graphs(model, graphs)
        monkeypatch.setattr(model_module, "_EMBED_EDGES", budget)
        np.testing.assert_array_equal(embed_graphs(model, graphs), expected)
        np.testing.assert_array_equal(embed_graphs(model, graphs), forward(model, graphs, Mode.EVAL).data)

    def test_working_memory_does_not_follow_graph_count(self, synthetic_400):
        """The traced peak of embed_graphs, less its (n, out_dim) result, is the same for 50 and 400 graphs."""
        graphs, model = synthetic_400
        embed_graphs(model, graphs[:50])  # first-call allocations stay out of the measurement

        def working_peak(some):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = embed_graphs(model, some)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - base - out.nbytes

        small, large = working_peak(graphs[:50]), working_peak(graphs)
        assert max(small, large) <= 1.5 * min(small, large), (small, large)


class TestEndToEndGradients:
    def test_minimal_graph_all_parameters_match_finite_differences(self, tiny_vocab):
        """2-node, 1-edge graph, loss = sum(embedding): every parameter."""
        config = ModelConfig(label_dim=4, message_dim=3, out_dim=3, num_layers=2, mlp_hidden=4)
        model = GcnModel.create(config, tiny_vocab, seed=7)
        graphs = augmented([SceneGraph("a", (0, 1), ((0, 0, 1),))], tiny_vocab)
        params = model.parameters()

        def build():
            return T.sum(forward(model, graphs, Mode.TRAIN))

        err = relative_gradient_error(build, list(params.values()))
        assert err < 1e-4, f"gradient error {err}"

    def test_all_parameters_match_finite_differences(self, tiny_vocab):
        config = ModelConfig(label_dim=4, message_dim=3, out_dim=3, num_layers=2, mlp_hidden=4)
        model = GcnModel.create(config, tiny_vocab, seed=11)
        g1 = SceneGraph("a", (0, 1), ((0, 0, 1),))
        g2 = SceneGraph("b", (2, 3, 1), ((0, 1, 1), (1, 2, 2)))
        graphs = augmented([g1, g2], tiny_vocab)
        params = model.parameters()

        def build():
            return T.sum(forward(model, graphs, Mode.TRAIN))

        err = relative_gradient_error(build, list(params.values()))
        assert err < 1e-4, f"gradient error {err}"
