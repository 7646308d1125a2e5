"""Scene-graph data model, file formats, trivial-node augmentation and
edge-removal corruption. This module alone names the reserved labels of the
trivial image node and its edges; other modules read their indices from the
Vocabulary.

File formats:
  graphs     JSON Lines, one image per line:
             {"image_id": ..., "objects": [{"label": ...}, ...],
              "relationships": [{"subject": i, "predicate": ..., "object": j}, ...]}
             where the image id is a string, no object carries the reserved
             label __image__, and i and j are integral node indices (not booleans).
  vocabulary JSON {"objects": [...], "relationships": [...]}, two lists of
             strings; every Vocabulary, loaded or built, appends the
             reserved labels when absent.
  similarity CSV; first row lists the image ids in dataset order, then an
             NxN block of floats formatted "%.6f".
Each loader reads under reading(), so a refusal names its file (path:line for
a graphs record, both files when graphs and similarity disagree). json_object
parses every JSON input, these and a --config file or checkpoint header alike.

Every JSON document and CSV file the pipeline writes goes through write_json
(UTF-8, indent 1, keys sorted, a trailing newline) or write_csv (UTF-8, the
csv module's default dialect: comma-separated, CRLF line ends).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

TRIVIAL_NODE_LABEL = "__image__"
TRIVIAL_EDGE_LABEL = "__in_image__"


class DatasetFormatError(ValueError):
    """An input file violates its documented format."""


@contextmanager
def reading(culprit):
    """Put ``culprit: `` before the message of a DatasetFormatError raised inside, keeping its class;
    an undecodable byte raises one too. Blocks do not nest, so a message names one culprit."""
    try:
        yield
    except (DatasetFormatError, UnicodeDecodeError) as e:
        raise (type(e) if isinstance(e, DatasetFormatError) else DatasetFormatError)(f"{culprit}: {e}") from None


class UnknownLabelError(DatasetFormatError):
    """A graph references a label missing from the vocabulary."""


class DimensionMismatchError(DatasetFormatError):
    """Similarity matrix dimensions disagree with the graph list."""


class ReservedLabelError(ValueError):
    """A graph already holds the trivial image node, so it cannot be augmented again."""


@dataclass(frozen=True)
class Vocabulary:
    """Ordered object and relationship label lists; indices are stable. Each list gets its reserved
    label appended unless it holds it; trivial_node_label and trivial_edge_label are their indices."""

    object_labels: tuple[str, ...]
    relationship_labels: tuple[str, ...]

    def __post_init__(self):
        # the keys are the vocabulary file's and the checkpoint header's names for the two lists
        for attr, key, reserved in (
            ("object_labels", "objects", TRIVIAL_NODE_LABEL),
            ("relationship_labels", "relationships", TRIVIAL_EDGE_LABEL),
        ):
            labels = getattr(self, attr)
            if not (isinstance(labels, (list, tuple)) and all(isinstance(label, str) for label in labels)):
                raise DatasetFormatError(f"vocabulary {key!r} must be a list of strings")
            if len(set(labels)) != len(labels):
                raise DatasetFormatError(f"vocabulary {key!r} has duplicate labels")
            object.__setattr__(self, attr, tuple(labels) + ((reserved,) if reserved not in labels else ()))
        object.__setattr__(self, "_object_index", {l: i for i, l in enumerate(self.object_labels)})
        object.__setattr__(self, "_rel_index", {l: i for i, l in enumerate(self.relationship_labels)})
        object.__setattr__(self, "trivial_node_label", self._object_index[TRIVIAL_NODE_LABEL])
        object.__setattr__(self, "trivial_edge_label", self._rel_index[TRIVIAL_EDGE_LABEL])

    def object_index(self, label: str) -> int:
        try:
            return self._object_index[label]
        except KeyError:
            raise UnknownLabelError(f"unknown object label {label!r}") from None

    def relationship_index(self, label: str) -> int:
        try:
            return self._rel_index[label]
        except KeyError:
            raise UnknownLabelError(f"unknown relationship label {label!r}") from None

    def to_json(self) -> dict[str, list[str]]:
        """The vocabulary as the vocabulary file and the checkpoint header hold it."""
        return {"objects": list(self.object_labels), "relationships": list(self.relationship_labels)}

    @classmethod
    def from_json(cls, obj, error=DatasetFormatError) -> "Vocabulary":
        """The inverse of to_json; ``error`` unless ``obj`` is an object mapping both keys to lists."""
        for key in ("objects", "relationships"):
            if not (isinstance(obj, dict) and isinstance(obj.get(key), list)):
                raise error(f"vocabulary {key!r} must be a list of strings")
        return cls(obj["objects"], obj["relationships"])

    def content_hash(self) -> str:
        payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SceneGraph:
    """One image's labeled directed multigraph.

    nodes holds object-label indices; edges holds
    (source node, relationship-label index, target node) triples.
    """

    image_id: str
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """NxN weak-supervision values in [0,1], aligned with the dataset's image order; N is at least 1."""

    image_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        n = len(self.image_ids)
        if n == 0:
            raise DatasetFormatError("similarity matrix has no images")
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.shape != (n, n):
            raise DimensionMismatchError(f"similarity must be {n}x{n}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DatasetFormatError("similarity contains non-finite entries")
        if v.min() < 0.0 or v.max() > 1.0:
            raise DatasetFormatError("similarity entries must lie in [0, 1]")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Split:
    """Index lists for the train/val/test partition of a dataset."""

    train: tuple[int, ...]
    val: tuple[int, ...]
    test: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Dataset:
    graphs: tuple[SceneGraph, ...]
    similarity: SimilarityMatrix
    vocab: Vocabulary
    split: Split | None = None

    def __post_init__(self):
        if len(self.graphs) != len(self.similarity.image_ids):
            raise DimensionMismatchError(
                f"{len(self.graphs)} graphs but similarity is over {len(self.similarity.image_ids)} images"
            )
        for g, image_id in zip(self.graphs, self.similarity.image_ids):
            if g.image_id != image_id:
                raise DatasetFormatError(f"graph order mismatch at image {g.image_id!r}")

    def with_split(self, split: Split) -> "Dataset":
        return replace(self, split=split)


# ---------------------------------------------------------------------------
# loading / saving
# ---------------------------------------------------------------------------


def json_object(text, what: str, error=DatasetFormatError) -> dict:
    """``text`` as a JSON object; ``error`` for what json cannot read (deep nesting, huge integers) or a non-object."""
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise error(f"invalid {what} JSON: {e}") from None
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object")
    return value


def load_vocabulary(path) -> Vocabulary:
    with reading(path), open(path, "r", encoding="utf-8") as fh:
        return Vocabulary.from_json(json_object(fh.read(), "vocabulary"))


def write_json(obj, path) -> None:
    """``obj`` as a JSON document: UTF-8, indent 1, keys sorted, a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """A header row, then ``rows``, as UTF-8 CSV in the csv module's default dialect (CRLF line ends)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_vocabulary(vocab: Vocabulary, path) -> None:
    write_json(vocab.to_json(), path)


def _node_index(value) -> int:
    """A relationship endpoint (a JSON int or integral float) as an int; DatasetFormatError for anything else."""
    if type(value) is not int and not (type(value) is float and value.is_integer()):
        raise DatasetFormatError(f"relationship endpoint {value!r} is not an integer")
    return int(value)


def load_graphs(path, vocab: Vocabulary) -> tuple[SceneGraph, ...]:
    graphs = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            with reading(f"{fh.name}:{lineno}"):
                line = line.decode("utf-8").strip()
                if line:
                    graphs.append(_parse_graph(line, vocab))
    return tuple(graphs)


def _parse_graph(line: str, vocab: Vocabulary) -> SceneGraph:
    """One graphs.jsonl record as a SceneGraph, or DatasetFormatError for the first rule it breaks.

    The rules, in order: a JSON object with image_id and objects, known labels
    and integral endpoints, a string image_id, no reserved object label, then
    per edge endpoints within the graph and no self-loop.
    """
    rec = json_object(line, "graphs record")
    try:
        image_id = rec["image_id"]
        objects = rec["objects"]
        relationships = rec.get("relationships", [])
    except KeyError:
        raise DatasetFormatError("record missing image_id/objects") from None
    if not objects:
        raise DatasetFormatError(f"image {image_id!r} has no objects")
    try:
        nodes = tuple(vocab.object_index(o["label"]) for o in objects)
        edges = tuple(
            (_node_index(r["subject"]), vocab.relationship_index(r["predicate"]), _node_index(r["object"]))
            for r in relationships
        )
    except (KeyError, TypeError):
        raise DatasetFormatError("malformed object/relationship record") from None
    if not isinstance(image_id, str):
        raise DatasetFormatError(f"image_id {image_id!r} is not a string")
    if vocab.trivial_node_label in nodes:
        raise DatasetFormatError(f"{image_id}: object label {TRIVIAL_NODE_LABEL!r} is reserved for the image node")
    for src, _, tgt in edges:
        if not (0 <= src < len(nodes) and 0 <= tgt < len(nodes)):
            raise DatasetFormatError(f"{image_id}: edge endpoint out of range")
        if src == tgt:
            raise DatasetFormatError(f"{image_id}: self-loop outside trivial construction")
    return SceneGraph(image_id, nodes, edges)


def save_graphs(graphs, vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for g in graphs:
            rec = {
                "image_id": g.image_id,
                "objects": [{"label": vocab.object_labels[i]} for i in g.nodes],
                "relationships": [
                    {"subject": s, "predicate": vocab.relationship_labels[r], "object": t}
                    for s, r, t in g.edges
                ],
            }
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def load_similarity(path) -> SimilarityMatrix:
    with reading(path), open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            header = next(csv.reader(fh), None)
        except csv.Error as e:  # a field past csv.field_size_limit()
            raise DatasetFormatError(f"malformed similarity header: {e}") from None
        if header is None:
            raise DatasetFormatError("empty similarity file")
        try:
            # A header-only file has an empty body, which the shape check reports.
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        except ValueError as e:
            raise DatasetFormatError(f"malformed similarity body: {e}") from None
        n = len(header)
        if values.shape != (n, n):
            body = f"{values.shape[0]}x{values.shape[1]}" if values.size else "empty"
            raise DimensionMismatchError(f"header lists {n} images but the body is {body}")
        return SimilarityMatrix(tuple(header), values)


def save_similarity(sim: SimilarityMatrix, path) -> None:
    write_csv(path, sim.image_ids, (["%.6f" % v for v in row] for row in sim.values))


def load_dataset(graphs_path, similarity_path, vocab_path) -> Dataset:
    vocab = load_vocabulary(vocab_path)
    graphs = load_graphs(graphs_path, vocab)
    sim = load_similarity(similarity_path)
    with reading(f"{graphs_path}, {similarity_path}"):
        return Dataset(graphs, sim, vocab)


def save_dataset(dataset: Dataset, graphs_path, similarity_path, vocab_path) -> None:
    save_graphs(dataset.graphs, dataset.vocab, graphs_path)
    save_similarity(dataset.similarity, similarity_path)
    save_vocabulary(dataset.vocab, vocab_path)


# ---------------------------------------------------------------------------
# graph transformations
# ---------------------------------------------------------------------------


def augment_trivial(g: SceneGraph, vocab: Vocabulary) -> SceneGraph:
    """Add the trivial image node plus one trivial edge from every original node.

    The result is weakly connected, so every node has an incident edge. A
    graph with no nodes raises, since its image node would have none.
    Augmenting an already-augmented graph raises, which keeps the operation
    safely non-idempotent.
    """
    if not g.nodes:
        raise ValueError(f"{g.image_id}: graph has no nodes")
    if vocab.trivial_node_label in g.nodes:
        raise ReservedLabelError(f"{g.image_id}: graph already contains the trivial node")
    image_node = len(g.nodes)
    trivial_edges = tuple((u, vocab.trivial_edge_label, image_node) for u in range(image_node))
    return SceneGraph(g.image_id, g.nodes + (vocab.trivial_node_label,), g.edges + trivial_edges)


def corrupt(g: SceneGraph, m: int, rng_seed) -> SceneGraph:
    """Remove min(m, |edges|) edges uniformly at random, then drop isolated nodes.

    m == 0 returns the graph unchanged. Isolation ignores edge direction.
    Node indices are compacted in original order. ``rng_seed`` may be
    anything ``np.random.default_rng`` accepts, such as an int, a tuple of
    ints or a SeedSequence; a tuple and the SeedSequence made from it give
    the same draw.

    When m >= |edges| every edge goes whatever the draw, so no generator is
    built: the result keeps only the node with the smallest original index,
    so that it can still be embedded.
    """
    if m < 0:
        raise ValueError("noise level must be non-negative")
    if m == 0:
        return g
    n_edges = len(g.edges)
    if m >= n_edges:
        return SceneGraph(g.image_id, g.nodes[:1], ())
    rng = np.random.default_rng(rng_seed)
    removed = set(rng.choice(n_edges, size=m, replace=False).tolist())
    surviving = [e for i, e in enumerate(g.edges) if i not in removed]
    kept_nodes = sorted({u for u, _, _ in surviving} | {v for _, _, v in surviving})
    remap = {old: new for new, old in enumerate(kept_nodes)}
    return SceneGraph(
        g.image_id,
        tuple(g.nodes[i] for i in kept_nodes),
        tuple((remap[u], r, remap[v]) for u, r, v in surviving),
    )


def check_split_ratios(ratios) -> None:
    """ValueError unless ``ratios`` are three finite non-negative numbers summing to 1."""
    if not (
        isinstance(ratios, (tuple, list))
        and len(ratios) == 3
        and all(isinstance(r, numbers.Real) and not isinstance(r, bool) and math.isfinite(r) and r >= 0 for r in ratios)
    ):
        raise ValueError(f"split ratios must be three finite non-negative numbers, got {ratios!r}")
    total = math.fsum(ratios)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {total}")


def split_dataset(dataset: Dataset, ratios: tuple[float, float, float], seed: int) -> Split:
    """Deterministic shuffled split; sizes are floored, remainder goes to train."""
    check_split_ratios(ratios)
    n = len(dataset.graphs)
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(n * ratios[0])
    n_val = int(n * ratios[1])
    n_test = int(n * ratios[2])
    n_train += n - (n_train + n_val + n_test)
    train = tuple(int(i) for i in perm[:n_train])
    val = tuple(int(i) for i in perm[n_train : n_train + n_val])
    test = tuple(int(i) for i in perm[n_train + n_val :])
    return Split(train, val, test)
