"""Epoch-based training loop: seeded anchor shuffling, triple sampling over
the train split, one disjoint-union forward per batch, Adam updates,
validation tracking and checkpointing.

Everything is driven by the config seed, so a rerun with the same dataset
and config reproduces the parameters and the run log exactly. Wall-clock
timings are kept out of runlog.csv (they go to timing.csv) for the same
reason.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import save_checkpoint
from .evaluate import evaluate
from .model import GcnModel, ModelConfig, forward
from .objectives import LossConfig, SamplerConfig, TripleSampler, compute_loss, require_finite_floats
from .optim import AdamState, adam_step
from .scene import Dataset, augment_trivial, write_csv
from .tensor import Mode, backward

logger = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    """The batch loss became non-finite; the message carries the triple dump."""


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    epochs: int = 100
    batch_size: int = 16
    learning_rate: float = 1e-4
    seed: int = 0
    checkpoint_every: int = 0
    eval_every: int = 1

    def __post_init__(self):
        require_finite_floats(self)
        if self.epochs < 0 or self.batch_size <= 0 or self.learning_rate <= 0:
            raise ValueError("epochs must be >= 0, batch_size and learning_rate positive")
        if self.checkpoint_every < 0 or self.eval_every <= 0:
            raise ValueError("checkpoint_every must be >= 0 and eval_every positive")


@dataclass
class RunLogEntry:
    epoch: int
    mean_loss: float
    val_kendall_tau: float | None
    seconds: float


def write_runlog(entries, out_dir) -> None:
    """runlog.csv carries the deterministic columns; timing.csv the wall times."""
    write_csv(
        os.path.join(out_dir, "runlog.csv"),
        ["epoch", "mean_loss", "val_kendall_tau"],
        ([e.epoch, repr(e.mean_loss), "" if e.val_kendall_tau is None else repr(e.val_kendall_tau)] for e in entries),
    )
    timing = ([e.epoch, "%.3f" % e.seconds] for e in entries)
    write_csv(os.path.join(out_dir, "timing.csv"), ["epoch", "seconds"], timing)


def _batch_loss(model: GcnModel, augmented, triples, loss_config) -> T.Tensor:
    """Mean loss over a batch of triples, embedding each distinct graph once."""
    unique = sorted({i for t in triples for i in (t.anchor, t.positive, t.negative)})
    row_of = {img: row for row, img in enumerate(unique)}
    embeddings = forward(model, [augmented[i] for i in unique], Mode.TRAIN)
    rows = [(row_of[t.anchor], row_of[t.positive], row_of[t.negative]) for t in triples]
    f_a, f_p, f_n = (T.gather_rows(embeddings, column) for column in zip(*rows))
    return compute_loss(loss_config, f_a, f_p, f_n, triples)


def train(
    dataset: Dataset, config: TrainConfig, out_dir: str | None = None, extra: dict | None = None
) -> tuple[GcnModel, list[RunLogEntry]]:
    """Train a fresh model; returns (final model, run log).

    When ``out_dir`` is given, writes last.ckpt, best.ckpt (by validation
    row-wise Kendall tau), optional periodic checkpoints, runlog.csv and
    timing.csv there; the two logs after every epoch.
    """
    if dataset.split is None:
        raise ValueError("dataset has no split; call split_dataset first")
    train_idx = list(dataset.split.train)
    if len(train_idx) < 3:
        raise ValueError(f"need at least 3 train images, got {len(train_idx)}")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_runlog([], out_dir)  # rewritten after every epoch, so a run that stops keeps the epochs it finished

    model = GcnModel.create(config.model, dataset.vocab, seed=config.seed)
    params = model.parameters()
    state = AdamState.create(params, learning_rate=config.learning_rate)
    # The sampler's seed derives from the run seed, so distinct runs draw
    # distinct triple sequences while staying reproducible. Any change to the
    # key (seed, 2, 0) changes every run's triples.
    sampler_seed = int(np.random.SeedSequence((config.seed, 2, 0)).generate_state(1)[0])
    sampler = TripleSampler(dataset.similarity, config.sampler, sampler_seed, candidates=train_idx)
    augmented = {i: augment_trivial(dataset.graphs[i], dataset.vocab) for i in train_idx}

    def checkpoint(name: str, epoch: int, val_tau: float | None) -> None:
        record = {
            "epoch": epoch,
            "val_kendall_tau": val_tau,
            "train_seed": config.seed,
            "loss_kind": config.loss.kind,
            "sampler_kind": config.sampler.kind,
            **(extra or {}),
        }
        save_checkpoint(model, os.path.join(out_dir, name), extra=record)

    entries: list[RunLogEntry] = []
    best_tau = None
    for epoch in range(1, config.epochs + 1):
        tic = time.perf_counter()
        order = np.random.default_rng(np.random.SeedSequence((config.seed, 1, epoch))).permutation(train_idx)
        loss_sum, n_triples = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            anchors = order[start : start + config.batch_size]
            triples = [sampler.sample_triple(int(a)) for a in anchors]
            # The previous step's tape dies only here, when `loss` is rebound
            # after this forward, so the heap never shrinks between steps. A
            # `del loss` after backward(loss) lowers peak RSS (74 -> 62 MiB
            # for a 30-epoch acceptance run), but glibc then trims the heap
            # top and faults it back in every step: about 3,200 minor faults
            # per step against 200, and 22-27% fewer triples/s (2-core x86-64
            # VM, numpy with OpenBLAS).
            loss = _batch_loss(model, augmented, triples, config.loss)
            value = loss.item()
            if not np.isfinite(value):
                dump = "; ".join(
                    f"(a={t.anchor}, p={t.positive}, n={t.negative}, s_ap={t.s_ap}, s_an={t.s_an})"
                    for t in triples
                )
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}: {dump}")
            backward(loss)
            adam_step(params, state)
            loss_sum += value * len(triples)
            n_triples += len(triples)
        mean_loss = loss_sum / n_triples

        val_tau = None
        if dataset.split.val and (epoch % config.eval_every == 0 or epoch == config.epochs):
            val_tau = evaluate(model, dataset, dataset.split.val).row_wise["kendall_tau"]
        entry = RunLogEntry(epoch, mean_loss, val_tau, time.perf_counter() - tic)
        entries.append(entry)
        logger.info(
            "epoch %d: loss=%.6f val_tau=%s (%.2fs)",
            epoch,
            mean_loss,
            "n/a" if val_tau is None else "%.4f" % val_tau,
            entry.seconds,
        )

        if out_dir is not None:
            write_runlog(entries, out_dir)
            if val_tau is not None and (best_tau is None or val_tau > best_tau):
                best_tau = val_tau
                checkpoint("best.ckpt", epoch, val_tau)
            if config.checkpoint_every and epoch % config.checkpoint_every == 0:
                checkpoint(f"epoch_{epoch:04d}.ckpt", epoch, val_tau)

    if out_dir is not None:
        checkpoint("last.ckpt", config.epochs, None)
        if best_tau is None:
            # No validation split, or no epoch's validation tau was defined: the last
            # model is also the best known one.
            checkpoint("best.ckpt", config.epochs, None)
    return model, entries

