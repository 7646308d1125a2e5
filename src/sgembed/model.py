"""Graph convolutional network mapping augmented scene graphs to unit-norm
embeddings.

Each layer runs a shared trunk MLP over every edge's concatenated
(source, edge, target) states, emits a message to the edge's source and
target plus the edge's next state via three linear heads, averages the
messages arriving at each node, and passes the average through a second
MLP followed by row-wise l2 normalization. Graph embeddings are the mean
of the final node states over each graph, re-normalized to unit length.
The last layer has no edge head: its edge states would feed nothing.
Each MLP starts with matmul, batchnorm, relu. That matmul has no bias, nor
has the edge head, whose output reaches the next trunk's batchnorm, nor the
target message: node batchnorm cancels a shift common to both messages.

GcnModel.create draws every array in array_shapes order from one seeded
stream, by its kind. The two biases are small-uniform rather than zero, so
that a row whose activations all die still emits a normalizable vector.

Minibatches are processed as one disjoint-union graph: node indices are
offset per graph and a per-node graph id drives the pooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import tensor as T
from .scene import Vocabulary
from .tensor import BatchNormState, Mode, Tensor


@dataclass(frozen=True)
class ModelConfig:
    """Widths and depth of the network.

    label_dim is the label-embedding width, message_dim the per-edge message
    width, out_dim the node / edge state and final embedding width.
    """

    label_dim: int = 300
    message_dim: int = 512
    out_dim: int = 300
    num_layers: int = 5
    mlp_hidden: int = 512

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int or value <= 0:
                raise ValueError(f"ModelConfig.{f.name} must be a positive int, got {value!r}")


_BATCHNORMS = ("trunk_bn", "node_bn")
_BUFFERS = (".running_mean", ".running_var")


class GcnModel:
    """All learnable state: two label-embedding tables plus the layer stack.

    Built on a name -> array table in array_shapes order, whose arrays it
    shares. Layer i is a view of the entries named ``layers.{i}.<name>``
    by <name>: parameters as tensors, ``trunk_bn`` / ``node_bn`` as
    BatchNormStates, and ``head_e_w`` None in the last layer.
    """

    def __init__(self, config: ModelConfig, vocab: Vocabulary, arrays: dict[str, np.ndarray]):
        check_layout(config, vocab, arrays)
        self.config = config
        self.vocab = vocab
        self._params = {n: Tensor(a, requires_grad=True) for n, a in arrays.items() if not n.endswith(_BUFFERS)}
        self._buffers = {n: a for n, a in arrays.items() if n.endswith(_BUFFERS)}
        self.object_table = self._params["object_table"]
        self.relationship_table = self._params["relationship_table"]
        self.layers = [self._layer(f"layers.{i}.") for i in range(config.num_layers)]

    def _layer(self, prefix: str) -> SimpleNamespace:
        tensors = {n.removeprefix(prefix): p for n, p in self._params.items() if n.startswith(prefix)}
        bn = {b: BatchNormState(*(self._buffers[f"{prefix}{b}{s}"] for s in _BUFFERS)) for b in _BATCHNORMS}
        return SimpleNamespace(**{"head_e_w": None, **tensors, **bn})

    @classmethod
    def create(cls, config: ModelConfig, vocab: Vocabulary, seed: int = 0) -> "GcnModel":
        """A model drawn in array_shapes order from one seeded stream, each array by its kind: label tables
        normal with std 1/sqrt(label_dim), weight matrices He-uniform on fan-in shape[0], the biases head_s_b
        and node_b2 uniform within 1/sqrt(mlp_hidden), gammas and running variances ones, betas and running
        means zeros. An array of no listed kind raises ValueError."""
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))

        def draw(name: str, shape: tuple[int, ...]) -> np.ndarray:
            if name.endswith("_table"):
                return rng.normal(0.0, 1.0 / math.sqrt(config.label_dim), size=shape)
            if name.endswith(("_w", "_w1", "_w2")):
                bound = math.sqrt(6.0 / shape[0])
                return rng.uniform(-bound, bound, size=shape)
            if name.endswith(("_b", "_b2")):
                bound = 1.0 / math.sqrt(config.mlp_hidden)
                return rng.uniform(-bound, bound, size=shape)
            if name.endswith(("_gamma", ".running_var")):
                return np.ones(shape)
            if name.endswith(("_beta", ".running_mean")):
                return np.zeros(shape)
            raise ValueError(f"no initialization law for the model array {name!r}")

        return cls(config, vocab, {name: draw(name, shape) for name, shape in array_shapes(config, vocab).items()})

    def parameters(self) -> dict[str, Tensor]:
        return dict(self._params)

    def arrays(self) -> dict[str, np.ndarray]:
        """Every parameter's array, then every batchnorm buffer, by name: the checkpoint's tensor layout."""
        return {n: p.data for n, p in self._params.items()} | self._buffers


def array_shapes(config: ModelConfig, vocab: Vocabulary) -> dict[str, tuple[int, ...]]:
    """The names and shapes of a model's arrays, in order: the one tensor layout of GcnModel and its checkpoints."""
    d, h, out, hidden, n = config.label_dim, config.message_dim, config.out_dim, config.mlp_hidden, config.num_layers
    shapes = {"object_table": (len(vocab.object_labels), d), "relationship_table": (len(vocab.relationship_labels), d)}
    for i in range(n):
        edge_head = {"head_e_w": (hidden, out)} if i < n - 1 else {}
        layer = {"trunk_w": (3 * (d if i == 0 else out), hidden), "trunk_gamma": (hidden,), "trunk_beta": (hidden,)}
        layer |= {"head_s_w": (hidden, h), "head_s_b": (h,), "head_t_w": (hidden, h), **edge_head}
        layer |= {"node_w1": (h, hidden), "node_gamma": (hidden,), "node_beta": (hidden,)}
        layer |= {"node_w2": (hidden, out), "node_b2": (out,)}
        shapes |= {f"layers.{i}.{name}": shape for name, shape in layer.items()}
    buffers = [bn + stat for bn in _BATCHNORMS for stat in _BUFFERS]
    return shapes | {f"layers.{i}.{name}": (hidden,) for i in range(n) for name in buffers}


def check_layout(config: ModelConfig, vocab: Vocabulary, arrays: dict[str, np.ndarray]) -> None:
    """Raise ValueError unless ``arrays`` has array_shapes(config, vocab)'s names and shapes, in its order, and
    every array is float64 and C-contiguous: an array that Tensor and the batchnorm states share without a copy."""
    given = [(n, a.shape, a.dtype, a.flags.c_contiguous) for n, a in arrays.items()]
    if given != [(n, shape, np.float64, True) for n, shape in array_shapes(config, vocab).items()]:
        raise ValueError("the model's arrays are not the layout that its config and vocabulary give")


@dataclass
class BatchedGraph:
    """Disjoint union of a minibatch of graphs with batch-offset indices."""

    node_labels: np.ndarray
    edge_labels: np.ndarray
    edge_src: np.ndarray
    edge_tgt: np.ndarray
    graph_ids: np.ndarray
    num_graphs: int

    @classmethod
    def from_graphs(cls, graphs) -> "BatchedGraph":
        graphs = list(graphs)
        if not graphs:
            raise ValueError("cannot batch an empty graph list")
        node_labels, edge_labels, srcs, tgts, gids = [], [], [], [], []
        offset = 0
        for gid, g in enumerate(graphs):
            n = len(g.nodes)
            if n == 0:
                raise ValueError(f"{g.image_id}: graph has no nodes")
            node_labels.extend(g.nodes)
            gids.extend([gid] * n)
            for u, r, v in g.edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"{g.image_id}: edge endpoint out of range")
                srcs.append(u + offset)
                edge_labels.append(r)
                tgts.append(v + offset)
            offset += n
        return cls(
            node_labels=np.asarray(node_labels, dtype=np.int64),
            edge_labels=np.asarray(edge_labels, dtype=np.int64),
            edge_src=np.asarray(srcs, dtype=np.int64),
            edge_tgt=np.asarray(tgts, dtype=np.int64),
            graph_ids=np.asarray(gids, dtype=np.int64),
            num_graphs=len(graphs),
        )

    @property
    def num_nodes(self) -> int:
        return self.node_labels.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edge_labels.shape[0]


def embed_inputs(model: GcnModel, batch: BatchedGraph) -> tuple[Tensor, Tensor]:
    """Initial node and edge states gathered from the embedding tables."""
    node_states = T.gather_rows(model.object_table, batch.node_labels)
    edge_states = T.gather_rows(model.relationship_table, batch.edge_labels)
    return node_states, edge_states


def _matmul_bn_relu(x: Tensor, w: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState, mode: Mode) -> Tensor:
    """The first stage of the trunk and node MLPs. It has no bias: TRAIN-mode
    batchnorm subtracts the batch mean, which cancels any shift added before it."""
    return T.relu(T.batchnorm(T.matmul(x, w), gamma, beta, state, mode))


def layer_forward(
    layer: SimpleNamespace,
    node_states: Tensor,
    edge_states: Tensor,
    batch: BatchedGraph,
    mode: Mode,
) -> tuple[Tensor, Tensor | None]:
    """One convolution: per-edge messages, edge update, mean-pooled node update.

    The new edge states are None for a layer without an edge head.
    """
    src_states = T.gather_rows(node_states, batch.edge_src)
    tgt_states = T.gather_rows(node_states, batch.edge_tgt)
    trunk_in = T.concat([src_states, edge_states, tgt_states], axis=1)
    hidden = _matmul_bn_relu(trunk_in, layer.trunk_w, layer.trunk_gamma, layer.trunk_beta, layer.trunk_bn, mode)
    msg_to_src = T.add(T.matmul(hidden, layer.head_s_w), layer.head_s_b)
    msg_to_tgt = T.matmul(hidden, layer.head_t_w)
    new_edge_states = None if layer.head_e_w is None else T.matmul(hidden, layer.head_e_w)

    # Augmentation gives every node an incident edge, so no segment is empty.
    messages = T.concat([msg_to_src, msg_to_tgt], axis=0)
    segment_ids = np.concatenate([batch.edge_src, batch.edge_tgt])
    pooled = T.segment_mean(messages, segment_ids, batch.num_nodes)

    pre = _matmul_bn_relu(pooled, layer.node_w1, layer.node_gamma, layer.node_beta, layer.node_bn, mode)
    new_node_states = T.rowwise_l2_normalize(T.add(T.matmul(pre, layer.node_w2), layer.node_b2))
    return new_node_states, new_edge_states


def pool(node_states: Tensor, graph_ids, num_graphs: int) -> Tensor:
    """Mean of node states per graph, re-normalized to unit rows."""
    return T.rowwise_l2_normalize(T.segment_mean(node_states, graph_ids, num_graphs))


def forward(model: GcnModel, graphs, mode: Mode) -> Tensor:
    """Embed a list of augmented scene graphs; one row per graph."""
    batch = BatchedGraph.from_graphs(graphs)
    if np.unique(batch.graph_ids[batch.node_labels == model.vocab.trivial_node_label]).size < batch.num_graphs:
        raise ValueError("forward expects augmented graphs (missing trivial node); call augment_trivial")
    node_states, edge_states = embed_inputs(model, batch)
    for layer in model.layers:
        node_states, edge_states = layer_forward(layer, node_states, edge_states, batch, mode)
    return pool(node_states, batch.graph_ids, batch.num_graphs)


# Augmented edges per disjoint-union forward. An augmented graph has at most
# one node more than it has edges, so this bounds every row count of a forward
# and with it embed_graphs' working memory, whatever the number or size of the
# graphs. In noise_sweep, small forwards also stop glibc trimming the freed heap
# top after each forward and faulting it back in during the next: on 1000
# synthetic graphs, 128-graph chunks took about 20,000 minor faults per call and
# this budget under 10. 256 and 1024 were as fast; 128 was much slower.
_EMBED_EDGES = 512


def _edge_budget_chunks(graphs) -> list[slice]:
    """Consecutive runs of graphs with at most _EMBED_EDGES edges in all, or one larger graph."""
    chunks, start, edges = [], 0, 0
    for i, g in enumerate(graphs):
        if i > start and edges + len(g.edges) > _EMBED_EDGES:
            chunks.append(slice(start, i))
            start, edges = i, 0
        edges += len(g.edges)
    if graphs:
        chunks.append(slice(start, len(graphs)))
    return chunks


def embed_graphs(model: GcnModel, graphs) -> np.ndarray:
    """Embeddings of many graphs as a plain (n, out_dim) array, from edge-budgeted
    EVAL-mode forwards on parameters that share the model's arrays but record
    no tape."""
    graphs = list(graphs)
    frozen = GcnModel(model.config, model.vocab, model.arrays())
    for p in frozen.parameters().values():
        p.requires_grad = False
    out = np.empty((len(graphs), model.config.out_dim))
    for chunk in _edge_budget_chunks(graphs):
        out[chunk] = forward(frozen, graphs[chunk], Mode.EVAL).data
    return out
