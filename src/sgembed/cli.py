"""Command-line pipeline: generate data, train, evaluate, retrieve, sweep.

Every subcommand writes its outputs (plus a resolved_config.json provenance
dump) into --out, which defaults to $SGEMBED_OUT_DIR or the current
directory. Config files are flat JSON whose keys mirror the flag names;
explicit flags win over file values. ``sgembed --help`` lists the exit codes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import typing

import numpy as np

from .checkpoint import CheckpointError, CheckpointHashMismatch, load_checkpoint
from .evaluate import (
    evaluate,
    evaluate_embeddings,
    noise_sweep,
    random_unit_embeddings,
    retrieval_experiment,
    write_eval_report_csv,
    write_ranks_csv,
    write_recall_curve_csv,
    write_retrieval_csv,
    write_sweep_csv,
)
from .model import ModelConfig
from .objectives import (
    DegenerateDistributionError,
    LossConfig,
    SamplerConfig,
    SamplerExhaustedError,
    LOSS_KINDS,
    SAMPLER_KINDS,
)
from .scene import (
    Dataset, DatasetFormatError, Split, check_split_ratios, load_dataset, reading, save_dataset, split_dataset, write_json
)
from .synth import SynthConfig, dataset_stats, generate
from .train import TrainConfig, TrainingDivergedError, train

EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_HASH_MISMATCH = 4
EXIT_BAD_DATA = 5
EXIT_RUNTIME = 6

GRAPHS_FILE = "graphs.jsonl"
SIMILARITY_FILE = "similarity.csv"
VOCAB_FILE = "vocabulary.json"
DEFAULT_SPLIT_RATIOS = (0.7, 0.2, 0.1)
DEFAULT_SPLIT_SEED = 0

# code -> (meaning, exception classes), in the order main matches them: 4 and 6 come before 5
# because CheckpointHashMismatch is a DatasetFormatError and DegenerateDistributionError a ValueError.
_EXIT_CODES = {
    0: ("success", ()),
    EXIT_USAGE: ("usage error (unknown flag or bad value)", ()),
    EXIT_MISSING_FILE: (
        "a referenced path is missing, or is a directory where a file is expected, or the reverse",
        (FileNotFoundError, IsADirectoryError, NotADirectoryError),
    ),
    EXIT_HASH_MISMATCH: ("checkpoint vocabulary-hash mismatch", (CheckpointHashMismatch,)),
    EXIT_RUNTIME: (
        "runtime failure (exhausted sampler, diverged training)",
        (SamplerExhaustedError, DegenerateDistributionError, TrainingDivergedError),
    ),
    EXIT_BAD_DATA: ("malformed dataset, config or checkpoint contents", (DatasetFormatError, ValueError)),
    1: ("unexpected internal error", (Exception,)),
}

_EPILOG = "exit codes:\n" + "".join(f"  {code}  {meaning}\n" for code, (meaning, _) in _EXIT_CODES.items())


def _out_dir(args) -> str:
    out = args.out or os.environ.get("SGEMBED_OUT_DIR") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except (FileExistsError, NotADirectoryError):  # a file at out or on the way to it
        raise NotADirectoryError(f"--out {out} is not a directory") from None
    return out


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with reading(path), open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise DatasetFormatError(f"invalid config JSON: {e}") from None
        if not isinstance(raw, dict):
            raise DatasetFormatError("config must be a JSON object")
    return raw


def _merged(file_values: dict, args, keys) -> dict:
    """File values overridden by explicitly-passed flags (non-None args)."""
    merged = {k: v for k, v in file_values.items() if k in keys}
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _write_resolved_config(args, out: str, values: dict) -> None:
    """resolved_config.json: the subcommand's name and ``values``."""
    write_json({"command": args.command, **values}, os.path.join(out, "resolved_config.json"))


def _dataset_paths(data_dir: str) -> tuple[str, str, str]:
    return (
        os.path.join(data_dir, GRAPHS_FILE),
        os.path.join(data_dir, SIMILARITY_FILE),
        os.path.join(data_dir, VOCAB_FILE),
    )


def _load_data(data_dir: str) -> Dataset:
    graphs_path, sim_path, vocab_path = _dataset_paths(data_dir)
    for p in (graphs_path, sim_path, vocab_path):
        if not os.path.exists(p):
            raise FileNotFoundError(f"missing dataset file: {p}")
    return load_dataset(graphs_path, sim_path, vocab_path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _flag_types(cls) -> dict[str, type]:
    """Name -> type of the int and float fields of a config dataclass, in field order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if hints[f.name] in (int, float)}


def _cast(key: str, typ: type, value):
    """``value`` as ``typ``; ValueError naming ``key`` for a boolean, a fractional int or a value ``typ`` refuses."""
    fractional = typ is int and isinstance(value, float) and not value.is_integer()
    if not (isinstance(value, bool) or fractional):
        try:
            return typ(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"config field {key!r} must be {typ.__name__}, got {value!r}")


def _non_negative(key: str, value) -> int:
    """A seed or noise level from a flag, a list item or a config file; ValueError naming both unless an int >= 0."""
    try:
        n = _cast(key, int, value)
        if n >= 0:
            return n
    except ValueError:
        pass
    raise ValueError(f"{_flag(key)} {value} is not a non-negative integer")


def _config(cls, values: dict, **fields):
    """``cls`` with its int and float fields that ``values`` sets, cast to the field type.

    Fields ``values`` does not set keep the dataclass default.
    """
    cast = {name: _cast(name, typ, values[name]) for name, typ in _flag_types(cls).items() if name in values}
    return cls(**cast, **fields)


_SYNTH_FLAGS = _flag_types(SynthConfig)

# --loss and --sampler pick the kind of the TrainConfig field they name.
_KIND_FLAGS = {
    "loss": ("objective", LossConfig, LOSS_KINDS),
    "sampler": ("triple sampler", SamplerConfig, SAMPLER_KINDS),
}

# Every other train flag and its type, in --help order.
_TRAIN_FLAGS = {
    **_flag_types(ModelConfig),
    **_flag_types(LossConfig),
    **_flag_types(TrainConfig),
    "split_seed": int,
}


def _cmd_gen_data(args) -> int:
    values = _merged(_load_config_file(args.config), args, _SYNTH_FLAGS)
    config = _config(SynthConfig, values)
    _non_negative("seed", config.seed)
    out = _out_dir(args)
    dataset = generate(config)
    graphs_path, sim_path, vocab_path = _dataset_paths(out)
    save_dataset(dataset, graphs_path, sim_path, vocab_path)
    stats = dataset_stats(dataset)
    write_json(stats, os.path.join(out, "stats.json"))
    _write_resolved_config(args, out, values)
    print(f"wrote {len(dataset.graphs)} graphs to {out} (median edges: {stats['median_edges']})")
    return 0


def _train_config_from(values: dict) -> TrainConfig:
    kinds = {
        flag: _config(cls, values, **({"kind": values[flag]} if flag in values else {}))
        for flag, (_, cls, _) in _KIND_FLAGS.items()
    }
    return _config(TrainConfig, values, model=_config(ModelConfig, values), **kinds)


def _cmd_train(args) -> int:
    values = _merged(_load_config_file(args.config), args, [*_TRAIN_FLAGS, *_KIND_FLAGS])
    config = _train_config_from(values)
    _non_negative("seed", config.seed)
    split_seed = _non_negative("split_seed", values.get("split_seed", DEFAULT_SPLIT_SEED))
    dataset = _load_data(args.data)
    dataset = dataset.with_split(split_dataset(dataset, DEFAULT_SPLIT_RATIOS, split_seed))
    out = _out_dir(args)
    _write_resolved_config(args, out, {"split_ratios": list(DEFAULT_SPLIT_RATIOS), **values})
    extra = {"split_seed": split_seed, "split_ratios": list(DEFAULT_SPLIT_RATIOS)}
    _, entries = train(dataset, config, out_dir=out, extra=extra)
    final = entries[-1].mean_loss if entries else float("nan")
    print(f"trained {config.epochs} epochs (final mean loss: {final:.6f}); checkpoints in {out}")
    return 0


def _checkpoint_inputs(args):
    """The dataset, the checkpoint's model, the indices of --split and the output directory.

    The split is the checkpoint's own, with its seed replaced by --split-seed
    when given. The output directory is created only after every check passed.
    """
    dataset = _load_data(args.data)
    model, extra = load_checkpoint(args.checkpoint, expected_vocab_hash=dataset.vocab.content_hash())
    with reading(args.checkpoint):
        seed = extra.get("split_seed", DEFAULT_SPLIT_SEED)
        if type(seed) is not int or seed < 0:
            raise CheckpointError(f"malformed 'split_seed': {seed!r} is not a non-negative integer")
        ratios = extra.get("split_ratios", DEFAULT_SPLIT_RATIOS)
        try:
            check_split_ratios(ratios)
        except ValueError as e:
            raise CheckpointError(f"malformed 'split_ratios': {e}") from None
    if args.split_seed is not None:
        seed = _non_negative("split_seed", args.split_seed)
    indices = getattr(split_dataset(dataset, tuple(ratios), seed), args.split)
    return dataset, model, indices, _out_dir(args)


def _write_checkpoint_provenance(args, out: str, **values) -> None:
    """resolved_config.json of a checkpoint command: ``values``, the split and the absolute checkpoint path."""
    _write_resolved_config(args, out, {"split": args.split, "checkpoint": os.path.abspath(args.checkpoint), **values})


def _cmd_eval(args) -> int:
    seed = _non_negative("seed", args.seed)
    dataset, model, indices, out = _checkpoint_inputs(args)
    report = evaluate(model, dataset, indices)
    baseline = evaluate_embeddings(
        random_unit_embeddings(len(indices), model.config.out_dim, seed),
        dataset.similarity.values[np.ix_(list(indices), list(indices))],
    )
    reports = {"model": report, "normal_features": baseline}
    write_json({name: r.to_dict() for name, r in reports.items()}, os.path.join(out, "eval_report.json"))
    write_eval_report_csv(reports, os.path.join(out, "eval_report.csv"))
    _write_checkpoint_provenance(args, out, seed=seed)
    tau = report.row_wise["kendall_tau"]
    print(f"eval[{args.split}] row-wise kendall_tau: {'n/a' if tau is None else '%.4f' % tau}")
    return 0


def _cmd_retrieve(args) -> int:
    noise = _non_negative("noise", args.noise)
    seed = _non_negative("seed", args.seed)
    dataset, model, indices, out = _checkpoint_inputs(args)
    report = retrieval_experiment(model, dataset, indices, noise, seed)
    write_retrieval_csv([report], os.path.join(out, "retrieval.csv"))
    write_recall_curve_csv(report, os.path.join(out, "recall_curve.csv"))
    if args.per_query_ranks:
        image_ids = [dataset.similarity.image_ids[i] for i in indices]
        write_ranks_csv(report, image_ids, os.path.join(out, "ranks.csv"))
    _write_checkpoint_provenance(args, out, noise=noise, seed=seed)
    print(f"retrieval at noise {noise}: mrr={report.mrr:.4f} r@1={report.recall_at[1]:.4f}")
    return 0


def _parse_noise_list(spec: str) -> list[int]:
    spec = spec.strip()
    if ".." in spec:
        lo, hi = (_non_negative("noise_list", tok) for tok in spec.split("..", 1))
        return list(range(lo, hi + 1))
    return [_non_negative("noise_list", tok) for tok in spec.split(",") if tok]


def _cmd_sweep(args) -> int:
    m_list = _parse_noise_list(args.noise_list)
    if not m_list:
        raise ValueError(f"--noise-list {args.noise_list!r} names no noise level")
    seeds = [_non_negative("seeds", s) for s in args.seeds.split(",") if s]
    if not seeds:
        raise ValueError(f"--seeds {args.seeds!r} names no retrieval seed")
    dataset, model, indices, out = _checkpoint_inputs(args)
    rows = []
    for seed in seeds:
        for report in noise_sweep(model, dataset, indices, m_list, seed):
            rows.append((seed, report))
    write_sweep_csv(rows, os.path.join(out, "sweep.csv"))
    _write_checkpoint_provenance(args, out, noise_list=m_list, seeds=seeds)
    print(f"swept {len(m_list)} noise levels x {len(seeds)} seeds into {out}/sweep.csv")
    return 0


def _cmd_stats(args) -> int:
    dataset = _load_data(args.data)
    stats = dataset_stats(dataset)
    print(json.dumps(stats, indent=1, sort_keys=True))
    if args.out:
        out = _out_dir(args)
        write_json(stats, os.path.join(out, "stats.json"))
        _write_resolved_config(args, out, {})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgembed",
        description="Scene-graph image embeddings: synthetic data, training, evaluation, retrieval.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary):
        p = sub.add_parser(name, help=summary, epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--out", help="output directory (default: $SGEMBED_OUT_DIR or '.')")
        p.set_defaults(fn=fn)
        return p

    def checkpoint_command(name, fn, summary):
        """A command that runs a checkpoint on one split of a dataset."""
        p = command(name, fn, summary)
        p.add_argument("--data", required=True)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--split", choices=[f.name for f in dataclasses.fields(Split)], default="test")
        p.add_argument("--split-seed", dest="split_seed", type=int, help="override the checkpoint's split seed")
        return p

    def overrides(p, flags):
        for key, typ in flags.items():
            p.add_argument(_flag(key), dest=key, type=typ, help=f"override {key}")

    p = command("gen-data", _cmd_gen_data, "generate a synthetic dataset")
    p.add_argument("--config", help="flat JSON config file with generator fields")
    overrides(p, _SYNTH_FLAGS)

    p = command("train", _cmd_train, "train a model on a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory (graphs/similarity/vocabulary)")
    p.add_argument("--config", help="flat JSON config file with training fields")
    overrides(p, _TRAIN_FLAGS)
    for key, (what, cls, kinds) in _KIND_FLAGS.items():
        p.add_argument(f"--{key}", choices=kinds, help=f"{what} (default {cls().kind})")

    p = checkpoint_command("eval", _cmd_eval, "rank-correlation evaluation of a checkpoint")
    p.add_argument("--seed", type=int, default=0, help="seed for the random-feature baseline")

    p = checkpoint_command("retrieve", _cmd_retrieve, "noisy-query retrieval experiment")
    p.add_argument("--noise", type=int, required=True, help="number of edges to remove per query")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-query-ranks", action="store_true", help="also write ranks.csv")

    p = checkpoint_command("sweep", _cmd_sweep, "retrieval metrics over a range of noise levels")
    p.add_argument("--noise-list", default="1..20", help="e.g. '1..20' or '0,2,12'")
    p.add_argument("--seeds", default="0", help="comma-separated retrieval seeds")

    p = command("stats", _cmd_stats, "dataset summary statistics")
    p.add_argument("--data", required=True)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return next(code for code, (_, kinds) in _EXIT_CODES.items() if isinstance(e, kinds))


if __name__ == "__main__":
    raise SystemExit(main())
