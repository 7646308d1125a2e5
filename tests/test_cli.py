"""CLI pipeline: end-to-end smoke, exit codes, idempotent outputs, help text."""

import argparse
import csv
import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgembed import cli
from sgembed.checkpoint import CheckpointError, CheckpointHashMismatch, load_checkpoint, save_checkpoint
from sgembed.cli import (
    EXIT_BAD_DATA,
    EXIT_HASH_MISMATCH,
    EXIT_MISSING_FILE,
    EXIT_RUNTIME,
    build_parser,
    main,
)
from sgembed.objectives import DegenerateDistributionError
from sgembed.scene import DatasetFormatError
from sgembed.synth import SynthConfig, generate
from sgembed.train import TrainConfig, TrainingDivergedError

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "src")

GEN_ARGS = [
    "gen-data",
    "--n-images", "24",
    "--n-object-labels", "20",
    "--n-relationship-labels", "8",
    "--n-topics", "3",
    "--objects-max", "8",
    "--edges-max", "6",
    "--seed", "5",
]

TRAIN_ARGS = [
    "--label-dim", "8",
    "--message-dim", "8",
    "--out-dim", "8",
    "--num-layers", "1",
    "--mlp-hidden", "8",
    "--epochs", "2",
    "--batch-size", "8",
    "--learning-rate", "0.001",
    "--seed", "0",
]


def run_cli(args, **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "sgembed.cli", *args], capture_output=True, text=True, env=env, **kw
    )


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> train once; reused by the read-only CLI tests below."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    run = str(root / "run")
    r = run_cli(GEN_ARGS + ["--out", data])
    assert r.returncode == 0, r.stderr
    r = run_cli(["train", "--data", data, *TRAIN_ARGS, "--out", run])
    assert r.returncode == 0, r.stderr
    return {"data": data, "run": run, "ckpt": os.path.join(run, "best.ckpt")}


class TestPipeline:
    def test_gen_data_outputs(self, pipeline):
        for name in ("graphs.jsonl", "similarity.csv", "vocabulary.json", "stats.json", "resolved_config.json"):
            assert os.path.exists(os.path.join(pipeline["data"], name))

    def test_train_outputs(self, pipeline):
        for name in ("best.ckpt", "last.ckpt", "runlog.csv", "timing.csv", "resolved_config.json"):
            assert os.path.exists(os.path.join(pipeline["run"], name))

    def test_train_records_its_numeric_environment(self, pipeline, tmp_path, monkeypatch):
        """train's resolved_config.json names numpy, its BLAS, the CPU count and the BLAS thread settings as set."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "run"
        r = run_cli(["train", "--data", pipeline["data"], *TRAIN_ARGS, "--out", str(out)])
        assert r.returncode == 0, r.stderr
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert json.loads((out / "resolved_config.json").read_text())["environment"] == {
            "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": None,
        }

    def test_eval_writes_parsable_report(self, pipeline, tmp_path):
        out = str(tmp_path / "eval")
        r = run_cli(["eval", "--data", pipeline["data"], "--checkpoint", pipeline["ckpt"], "--split", "test", "--out", out])
        assert r.returncode == 0, r.stderr
        report = json.loads(Path(out, "eval_report.json").read_text())
        assert "model" in report and "normal_features" in report
        assert report["model"]["n_images"] >= 2
        csv_text = Path(out, "eval_report.csv").read_text()
        assert csv_text.startswith("scope,metric,value")

    def test_retrieve_noise_zero_gives_mrr_one(self, pipeline, tmp_path):
        out = str(tmp_path / "ret")
        r = run_cli(
            ["retrieve", "--data", pipeline["data"], "--checkpoint", pipeline["ckpt"], "--noise", "0", "--seed", "1", "--out", out]
        )
        assert r.returncode == 0, r.stderr
        rows = Path(out, "retrieval.csv").read_text().strip().splitlines()
        header, row = rows[0].split(","), rows[1].split(",")
        assert header[:2] == ["M", "mrr"]
        assert row[0] == "0" and float(row[1]) == 1.0

    def test_sweep_row_count(self, pipeline, tmp_path):
        out = str(tmp_path / "sweep")
        r = run_cli(
            [
                "sweep",
                "--data", pipeline["data"],
                "--checkpoint", pipeline["ckpt"],
                "--noise-list", "1..4",
                "--seeds", "0,1",
                "--out", out,
            ]
        )
        assert r.returncode == 0, r.stderr
        rows = Path(out, "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4 * 2

    def test_stats_prints_json(self, pipeline):
        r = run_cli(["stats", "--data", pipeline["data"]])
        assert r.returncode == 0, r.stderr
        stats = json.loads(r.stdout)
        assert stats["n_images"] == 24

    def test_stats_writes_files_only_with_out(self, pipeline, tmp_path, monkeypatch):
        """--out gives stats.json and resolved_config.json; $SGEMBED_OUT_DIR alone gives nothing."""
        monkeypatch.setenv("SGEMBED_OUT_DIR", str(tmp_path / "env"))
        assert main(["stats", "--data", pipeline["data"]]) == 0
        assert not (tmp_path / "env").exists()
        out = tmp_path / "out"
        assert main(["stats", "--data", pipeline["data"], "--out", str(out)]) == 0
        assert json.loads((out / "stats.json").read_text())["n_images"] == 24
        assert json.loads((out / "resolved_config.json").read_text()) == {"command": "stats"}

    def test_retrieve_is_idempotent_byte_identical(self, pipeline, tmp_path):
        outs = [str(tmp_path / f"r{i}") for i in (1, 2)]
        for out in outs:
            r = run_cli(
                ["retrieve", "--data", pipeline["data"], "--checkpoint", pipeline["ckpt"], "--noise", "2", "--seed", "3", "--out", out]
            )
            assert r.returncode == 0, r.stderr
        for name in ("retrieval.csv", "recall_curve.csv", "resolved_config.json"):
            a = Path(outs[0], name).read_bytes()
            b = Path(outs[1], name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


@pytest.fixture(scope="module")
def four_images(tmp_path_factory):
    """A 4-image dataset, whose 0.7/0.2/0.1 split leaves val empty, and a model trained on it."""
    root = tmp_path_factory.mktemp("four")
    data = str(root / "data")
    run = str(root / "run")
    r = run_cli(["gen-data", "--n-images", "4", "--out", data])
    assert r.returncode == 0, r.stderr
    r = run_cli(["train", "--data", data, *TRAIN_ARGS, "--out", run])
    assert r.returncode == 0, r.stderr
    return {"data": data, "ckpt": os.path.join(run, "best.ckpt")}


class TestConfigFile:
    def test_flags_override_file_values(self, tmp_path):
        config = tmp_path / "gen.json"
        config.write_text(
            json.dumps(
                {
                    "n_images": 99,
                    "n_object_labels": 20,
                    "n_relationship_labels": 8,
                    "n_topics": 3,
                    "objects_max": 8,
                    "edges_max": 6,
                    "seed": 5,
                }
            )
        )
        out = str(tmp_path / "data")
        r = run_cli(["gen-data", "--config", str(config), "--n-images", "10", "--out", out])
        assert r.returncode == 0, r.stderr
        resolved = json.loads(Path(out, "resolved_config.json").read_text())
        assert resolved["n_images"] == 10  # flag beats the file
        assert resolved["n_object_labels"] == 20  # file value survives
        lines = [l for l in Path(out, "graphs.jsonl").read_text().splitlines() if l]
        assert len(lines) == 10

    @pytest.mark.parametrize("value", [20.9, True, "abc", [20]])
    def test_int_field_rejects_booleans_and_non_integral_values(self, tmp_path, capsys, value):
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({"n_images": value}))
        assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "data")]) == EXIT_BAD_DATA
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("ValueError:") and "n_images" in last
        assert not (tmp_path / "data" / "graphs.jsonl").exists()

    def test_float_field_rejects_booleans(self, pipeline, tmp_path, capsys):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"learning_rate": True}))
        assert main(["train", "--data", pipeline["data"], "--config", str(config), "--out", str(tmp_path)]) == EXIT_BAD_DATA
        assert "learning_rate" in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize(
        "text, culprit",
        [
            ('{"learning_rate": NaN}', "TrainConfig.learning_rate must be finite, got nan"),
            ('{"ranking_temperature": Infinity}', "LossConfig.ranking_temperature must be finite, got inf"),
            ('{"margin": -Infinity}', "LossConfig.margin must be finite, got -inf"),
        ],
        ids=["learning_rate_nan", "ranking_temperature_inf", "margin_minus_inf"],
    )
    def test_non_finite_float_refused_before_any_output(self, pipeline, tmp_path, capsys, text, culprit):
        config = tmp_path / "train.json"
        config.write_text(text)
        out = tmp_path / "run"
        assert main(["train", "--data", pipeline["data"], "--config", str(config), "--out", str(out)]) == EXIT_BAD_DATA
        assert capsys.readouterr().err.splitlines()[-1] == f"ValueError: {culprit}"
        assert not out.exists()

    def test_missing_config_file_exit_code(self, tmp_path):
        r = run_cli(["gen-data", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert r.returncode == EXIT_MISSING_FILE

    def test_undecodable_config_file_names_it(self, tmp_path, capsys):
        config = tmp_path / "gen.json"
        config.write_bytes(b'{"seed": 1, "x": "\xff"}')
        assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "data")]) == EXIT_BAD_DATA
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"DatasetFormatError: {config}: 'utf-8' codec can't decode byte 0xff")
        assert not (tmp_path / "data").exists()


class TestExitCodes:
    def test_missing_data_dir(self, tmp_path):
        r = run_cli(["stats", "--data", str(tmp_path / "nope")])
        assert r.returncode == EXIT_MISSING_FILE
        assert "FileNotFoundError" in r.stderr.splitlines()[-1]

    def test_unknown_flag_usage_error(self):
        r = run_cli(["stats", "--data", ".", "--definitely-not-a-flag"])
        assert r.returncode == 2

    def test_hash_mismatch_no_partial_output(self, pipeline, tmp_path):
        other_data = str(tmp_path / "other")
        r = run_cli(["gen-data", "--n-images", "12", "--seed", "99", "--out", other_data])
        assert r.returncode == 0, r.stderr
        out = str(tmp_path / "evalx")
        r = run_cli(["eval", "--data", other_data, "--checkpoint", pipeline["ckpt"], "--out", out])
        assert r.returncode == EXIT_HASH_MISMATCH
        assert "CheckpointHashMismatch" in r.stderr.splitlines()[-1]
        assert not os.path.exists(os.path.join(out, "eval_report.json"))

    def test_malformed_data_exit_code(self, pipeline, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        for name in ("graphs.jsonl", "similarity.csv", "vocabulary.json"):
            (bad / name).write_text("garbage\n")
        r = run_cli(["stats", "--data", str(bad)])
        assert r.returncode == EXIT_BAD_DATA

    @pytest.mark.parametrize("command", [["retrieve", "--noise", "1"], ["sweep"]])
    def test_empty_split_names_the_problem(self, four_images, tmp_path, command):
        r = run_cli(
            [*command, "--data", four_images["data"], "--checkpoint", four_images["ckpt"], "--split", "val",
             "--out", str(tmp_path / "out")]
        )
        assert r.returncode == EXIT_BAD_DATA
        assert r.stderr.splitlines()[-1] == "ValueError: cannot run retrieval on an empty split"

    def test_sweep_without_seeds_is_refused(self, pipeline, tmp_path):
        out = tmp_path / "sweep"
        r = run_cli(["sweep", "--data", pipeline["data"], "--checkpoint", pipeline["ckpt"], "--seeds", "", "--out", str(out)])
        assert r.returncode == EXIT_BAD_DATA
        last = r.stderr.splitlines()[-1]
        assert last.startswith("ValueError:") and "--seeds" in last
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("command", [["retrieve", "--noise", "3"], ["sweep", "--noise-list", "0,3"]])
    def test_non_finite_model_refused_without_output(self, pipeline, tmp_path, capsys, command):
        model, extra = load_checkpoint(pipeline["ckpt"])
        model.parameters()["layers.0.node_w2"].data[...] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(model, ckpt, extra)
        out = tmp_path / "out"
        args = [*command, "--data", pipeline["data"], "--checkpoint", str(ckpt), "--split", "train", "--out", str(out)]
        assert main(args) == EXIT_BAD_DATA
        assert capsys.readouterr().err.splitlines()[-1] == "ValueError: inputs must be finite"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("spec", ["5..2", ","])
    def test_sweep_without_noise_levels_is_refused(self, pipeline, tmp_path, capsys, spec):
        out = tmp_path / "sweep"
        args = ["sweep", "--data", pipeline["data"], "--checkpoint", pipeline["ckpt"], f"--noise-list={spec}"]
        assert main([*args, "--out", str(out)]) == EXIT_BAD_DATA
        assert capsys.readouterr().err.splitlines()[-1] == f"ValueError: --noise-list {spec!r} names no noise level"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["eval"], ["retrieve", "--noise", "1"], ["sweep"], ["train"]])
    def test_negative_split_seed_names_the_flag(self, pipeline, tmp_path, capsys, command):
        out = tmp_path / "out"
        checkpoint = [] if command == ["train"] else ["--checkpoint", pipeline["ckpt"]]
        args = [*command, "--data", pipeline["data"], *checkpoint, "--split-seed", "-1"]
        assert main([*args, "--out", str(out)]) == EXIT_BAD_DATA
        assert capsys.readouterr().err.splitlines()[-1] == "ValueError: --split-seed -1 is not a non-negative integer"
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize(
        "command, value, culprit",
        [
            (["gen-data", "--seed"], "-1", "-1"),
            (["train", "--seed"], "-1", "-1"),
            (["eval", "--seed"], "-1", "-1"),
            (["retrieve", "--noise", "1", "--seed"], "-1", "-1"),
            (["retrieve", "--noise"], "-2", "-2"),
            (["sweep", "--seeds"], "-1", "-1"),
            (["sweep", "--seeds"], "0,x", "x"),
            (["sweep", "--noise-list"], "-2..1", "-2"),
            (["sweep", "--noise-list"], "1..x", "x"),
        ],
        ids=[
            "gen-data-seed", "train-seed", "eval-seed", "retrieve-seed", "retrieve-noise",
            "sweep-seeds", "sweep-seeds-not-int", "sweep-noise-list", "sweep-noise-list-not-int",
        ],
    )
    def test_bad_seed_or_noise_names_the_flag(self, pipeline, tmp_path, capsys, command, value, culprit):
        out = tmp_path / "out"
        name, flag = command[0], command[-1]
        inputs = {"gen-data": [], "train": ["--data", pipeline["data"]]}.get(
            name, ["--data", pipeline["data"], "--checkpoint", pipeline["ckpt"]]
        )
        assert main([*command[:-1], f"{flag}={value}", *inputs, "--out", str(out)]) == EXIT_BAD_DATA
        assert capsys.readouterr().err.splitlines()[-1] == f"ValueError: {flag} {culprit} is not a non-negative integer"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, culprit",
        [
            ("--ranking-temperature", "inf", "LossConfig.ranking_temperature must be finite, got inf"),
            ("--learning-rate", "nan", "TrainConfig.learning_rate must be finite, got nan"),
        ],
        ids=["ranking_temperature_inf", "learning_rate_nan"],
    )
    def test_non_finite_float_flag_names_the_field(self, pipeline, tmp_path, capsys, flag, value, culprit):
        out = tmp_path / "run"
        assert main(["train", "--data", pipeline["data"], flag, value, "--out", str(out)]) == EXIT_BAD_DATA
        assert capsys.readouterr().err.splitlines()[-1] == f"ValueError: {culprit}"
        assert not out.exists()

    def test_negative_seed_in_config_file_names_the_flag(self, tmp_path, capsys):
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({"seed": -3}))
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == EXIT_BAD_DATA
        assert capsys.readouterr().err.splitlines()[-1] == "ValueError: --seed -3 is not a non-negative integer"
        assert not out.exists()

    @pytest.mark.parametrize(
        "error, code",
        [
            (FileNotFoundError, EXIT_MISSING_FILE),
            (IsADirectoryError, EXIT_MISSING_FILE),
            (NotADirectoryError, EXIT_MISSING_FILE),
            (CheckpointHashMismatch, EXIT_HASH_MISMATCH),
            (DegenerateDistributionError, EXIT_RUNTIME),
            (TrainingDivergedError, EXIT_RUNTIME),
            (ValueError, EXIT_BAD_DATA),
            (DatasetFormatError, EXIT_BAD_DATA),
            (CheckpointError, EXIT_BAD_DATA),
            (RuntimeError, 1),
            (KeyError, 1),
        ],
    )
    def test_main_maps_each_exception_kind_to_its_code(self, monkeypatch, capsys, error, code):
        def fail(data_dir):
            raise error("boom")

        monkeypatch.setattr(cli, "_load_data", fail)
        assert main(["stats", "--data", "."]) == code
        assert capsys.readouterr().err.splitlines()[-1].startswith(f"{error.__name__}: ")

    def test_malformed_checkpoint_header(self, pipeline, tmp_path):
        blob = Path(pipeline["ckpt"]).read_bytes()
        n = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16 : 16 + n])
        del header["vocab_hash"]
        raw = json.dumps(header).encode("utf-8")
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + n :])
        r = run_cli(["eval", "--data", pipeline["data"], "--checkpoint", str(ckpt), "--out", str(tmp_path / "e")])
        assert r.returncode == EXIT_BAD_DATA
        last = r.stderr.splitlines()[-1]
        assert last.startswith("CheckpointError:") and "vocab_hash" in last

    @pytest.mark.parametrize(
        "key, value",
        [
            ("split_ratios", 5),
            ("split_ratios", [0.5, 0.5]),
            ("split_ratios", ["a", "b", "c"]),
            ("split_ratios", [1.5, -0.5, 0.0]),
            ("split_seed", [1]),
            ("split_seed", 1.5),
        ],
    )
    def test_malformed_split_metadata(self, pipeline, tmp_path, capsys, key, value):
        blob = Path(pipeline["ckpt"]).read_bytes()
        n = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16 : 16 + n])
        header["extra"][key] = value
        raw = json.dumps(header).encode("utf-8")
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + n :])
        out = tmp_path / "e"
        assert main(["eval", "--data", pipeline["data"], "--checkpoint", str(ckpt), "--out", str(out)]) == EXIT_BAD_DATA
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"CheckpointError: {ckpt}: malformed '{key}'")
        assert not (out / "eval_report.json").exists()

    @pytest.mark.parametrize("key", ["objects", "relationships"])
    def test_checkpoint_vocabulary_entry_that_is_not_a_string(self, pipeline, tmp_path, capsys, key):
        blob = Path(pipeline["ckpt"]).read_bytes()
        n = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16 : 16 + n])
        header["vocab"][key][0] = ["not", "a", "label"]
        raw = json.dumps(header).encode("utf-8")
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + n :])
        out = tmp_path / "e"
        assert main(["eval", "--data", pipeline["data"], "--checkpoint", str(ckpt), "--out", str(out)]) == EXIT_BAD_DATA
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"DatasetFormatError: {ckpt}: vocabulary '{key}' must be a list of strings"
        assert not (out / "eval_report.json").exists()

    def test_version_3_checkpoint_is_refused(self, pipeline, tmp_path, capsys):
        blob = Path(pipeline["ckpt"]).read_bytes()
        n = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16 : 16 + n])
        header["format_version"] = 3
        raw = json.dumps(header).encode("utf-8")
        ckpt = tmp_path / "v3.ckpt"
        ckpt.write_bytes(blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + n :])
        out = tmp_path / "e"
        assert main(["eval", "--data", pipeline["data"], "--checkpoint", str(ckpt), "--out", str(out)]) == EXIT_BAD_DATA
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"CheckpointError: {ckpt}: unsupported format version 3; only version 4 is read"
        assert not (out / "eval_report.json").exists()

    @pytest.mark.parametrize(
        "mutate, tensor",
        [
            (lambda h: h["tensors"][1].update(offset=0), "relationship_table"),
            (lambda h: h["tensors"].insert(1, dict(h["tensors"][0])), "object_table"),
            (lambda h: h["tensors"][2].update(offset=h["tensors"][2]["offset"] + 1), "layers.0.trunk_w"),
            (lambda h: h["model_config"].update(mlp_hidden=400_000), "layers.0.trunk_w"),
            (lambda h: h["tensors"].append(None), "directory entry"),
        ],
        ids=["overlap", "duplicate", "gap", "oversized_model_config", "trailing_null"],
    )
    def test_misfit_tensor_directory_names_the_tensor(self, pipeline, tmp_path, capsys, mutate, tensor):
        """Exit 5 for a directory that does not tile the payload or does not fit the header's model_config."""
        blob = Path(pipeline["ckpt"]).read_bytes()
        n = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16 : 16 + n])
        mutate(header)
        raw = json.dumps(header).encode("utf-8")
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + n :])
        out = tmp_path / "e"
        assert main(["eval", "--data", pipeline["data"], "--checkpoint", str(ckpt), "--out", str(out)]) == EXIT_BAD_DATA
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"CheckpointError: {ckpt}: tensor {tensor} ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["gen-data", "--config"], ["eval", "--data", None, "--checkpoint"]], ids=["config", "checkpoint"]
    )
    def test_directory_given_for_a_file(self, pipeline, tmp_path, capsys, command):
        argv = [pipeline["data"] if a is None else a for a in command] + [str(tmp_path), "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_MISSING_FILE
        assert capsys.readouterr().err.splitlines()[-1].startswith("IsADirectoryError: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-data", "--out", "{afile}"],
            ["gen-data", "--out", "{afile}/run"],
            ["gen-data", "--config", "{afile}/x.json", "--out", "{o}"],
            ["eval", "--data", "{data}", "--checkpoint", "{ckpt}", "--out", "{afile}"],
            ["eval", "--data", "{data}", "--checkpoint", "{ckpt}", "--out", "{afile}/run"],
            ["eval", "--data", "{data}", "--checkpoint", "{afile}/x.ckpt", "--out", "{o}"],
        ],
        ids=["gen-data-out", "gen-data-out-under", "gen-data-config", "eval-out", "eval-out-under", "eval-checkpoint"],
    )
    def test_file_given_for_a_directory(self, pipeline, tmp_path, capsys, argv):
        """Exit 3 with one stderr line naming the path (and the flag, for --out) that is or lies under a file."""
        afile = tmp_path / "afile"
        afile.write_text("a file\n")
        argv = [a.format(afile=afile, o=tmp_path / "o", **pipeline) for a in argv]
        path = next(a for a in argv if a.startswith(str(afile)))
        if argv[argv.index(path) - 1] == "--out":
            message = f"--out {path} is not a directory"
        else:
            message = f"[Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: {path!r}"
        assert main(argv) == EXIT_MISSING_FILE
        assert capsys.readouterr().err.splitlines() == [f"NotADirectoryError: {message}"]
        assert os.listdir(tmp_path) == ["afile"] and afile.read_text() == "a file\n"

    @pytest.mark.parametrize(
        "name, edit, culprit, error, message",
        [
            *[
                (name, edit, culprit, "DatasetFormatError", "'utf-8' codec can't decode byte 0xff")
                for name, edit, culprit in [
                    ("graphs.jsonl", lambda b: b + b"\xff\n", "graphs.jsonl:25"),
                    ("similarity.csv", lambda b: b"\xff" + b, "similarity.csv"),
                    ("vocabulary.json", lambda b: b + b"\xff", "vocabulary.json"),
                ]
            ],
            *[
                ("similarity.csv", lambda b, v=v: b.replace(b"1.000000", v, 1), "similarity.csv", "DatasetFormatError", message)
                for v, message in [
                    (b"1.5", "similarity entries must lie in [0, 1]"),
                    (b"-0.1", "similarity entries must lie in [0, 1]"),
                    (b"nan", "similarity contains non-finite entries"),
                ]
            ],
            ("graphs.jsonl", lambda b: b"".join(b.splitlines(True)[:-1]), "graphs.jsonl, similarity.csv",
             "DimensionMismatchError", "23 graphs but similarity is over 24 images"),
            ("graphs.jsonl", lambda b: b"".join(b.splitlines(True)[1::-1] + b.splitlines(True)[2:]),
             "graphs.jsonl, similarity.csv", "DatasetFormatError", "graph order mismatch at image 'img_00001'"),
            ("graphs.jsonl", lambda b: b.replace(b'"image_id":"img_00000"', b'"image_id":1.5', 1), "graphs.jsonl:1",
             "DatasetFormatError", "image_id 1.5 is not a string"),
            ("graphs.jsonl", lambda b: b.replace(b'"label":"', b'"label":"__image__","x":"', 1), "graphs.jsonl:1",
             "DatasetFormatError", "img_00000: object label '__image__' is reserved for the image node"),
            ("similarity.csv", lambda b: b"x" * (csv.field_size_limit() + 1) + b, "similarity.csv", "DatasetFormatError",
             "malformed similarity header: field larger than field limit"),
        ],
        ids=[
            "graphs_not_utf8", "similarity_not_utf8", "vocabulary_not_utf8", "similarity_above_1", "similarity_negative",
            "similarity_nan", "graphs_one_record_short", "graphs_out_of_order", "image_id_not_a_string",
            "reserved_object_label", "similarity_header_past_the_csv_field_limit",
        ],
    )
    def test_refused_dataset_file_is_named(self, pipeline, tmp_path, capsys, name, edit, culprit, error, message):
        """Exit 5 with a message that begins with the refused file, file:line for a graphs record, and
        both files when graphs and similarity disagree."""
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        (data / name).write_bytes(edit((data / name).read_bytes()))
        assert main(["stats", "--data", str(data)]) == EXIT_BAD_DATA
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"{error}: {', '.join(f'{data}/{c}' for c in culprit.split(', '))}: {message}")

    @pytest.mark.parametrize("case", ["nesting", "long_integer"])
    @pytest.mark.parametrize("target", ["vocabulary", "config", "graphs", "checkpoint"])
    def test_json_that_json_cannot_read_names_the_file(self, pipeline, tmp_path, capsys, target, case):
        """Nesting past the recursion limit and an integer past CPython's 4,300-digit limit, in any JSON
        input: exit 5, naming the file (file:line for a graphs record), as for any other invalid JSON."""
        text = {"nesting": "[" * 100_000, "long_integer": '{"n": ' + "9" * 5000 + "}"}[case]
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        if target == "vocabulary":
            (data / "vocabulary.json").write_text(text)
            argv, culprit, error = ["stats", "--data", str(data)], f"{data}/vocabulary.json", "DatasetFormatError"
        elif target == "config":
            (tmp_path / "config.json").write_text(text)
            argv = ["gen-data", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "g")]
            culprit, error = f"{tmp_path}/config.json", "DatasetFormatError"
        elif target == "graphs":
            graphs = data / "graphs.jsonl"
            graphs.write_text(text + "\n" + "".join(graphs.read_text().splitlines(True)[1:]))
            argv, culprit, error = ["stats", "--data", str(data)], f"{graphs}:1", "DatasetFormatError"
        else:
            blob = Path(pipeline["ckpt"]).read_bytes()
            n = int.from_bytes(blob[8:16], "little")
            ckpt = tmp_path / "bad.ckpt"
            ckpt.write_bytes(blob[:8] + len(text).to_bytes(8, "little") + text.encode("ascii") + blob[16 + n :])
            argv = ["eval", "--data", str(data), "--checkpoint", str(ckpt), "--out", str(tmp_path / "e")]
            culprit, error = str(ckpt), "CheckpointError"
        what = {"graphs": "graphs record", "checkpoint": "checkpoint header"}.get(target, target)
        assert main(argv) == EXIT_BAD_DATA
        assert capsys.readouterr().err.splitlines()[-1].startswith(f"{error}: {culprit}: invalid {what} JSON: ")

    @pytest.mark.parametrize("cut", [1, 3])
    def test_checkpoint_cut_short_names_the_file(self, pipeline, tmp_path, capsys, cut):
        ckpt = tmp_path / "cut.ckpt"
        ckpt.write_bytes(Path(pipeline["ckpt"]).read_bytes()[:-cut])
        out = tmp_path / "e"
        assert main(["eval", "--data", pipeline["data"], "--checkpoint", str(ckpt), "--out", str(out)]) == EXIT_BAD_DATA
        assert capsys.readouterr().err.splitlines()[-1].startswith(f"CheckpointError: {ckpt}: truncated payload")
        assert not out.exists()

    def test_error_is_single_machine_readable_line(self, tmp_path):
        r = run_cli(["stats", "--data", str(tmp_path / "nope")])
        lines = [l for l in r.stderr.splitlines() if l.strip()]
        assert len(lines) == 1
        error_class = lines[0].split(":", 1)[0]
        assert error_class.isidentifier()


class TestHelp:
    def test_help_lists_every_implemented_flag(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, __import__("argparse")._SubParsersAction)
        )
        for name, sub in subparsers.choices.items():
            help_text = sub.format_help()
            for action in sub._actions:
                for opt in action.option_strings:
                    if opt.startswith("--"):
                        assert opt in help_text, f"{name}: {opt} missing from --help"

    def test_help_documents_exit_codes(self):
        help_text = build_parser().format_help()
        assert "exit codes" in help_text
        for code in ("2", "3", "4", "5", "6"):
            assert code in help_text

    def test_every_subcommand_help_lists_one_exit_code_per_line(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name, sub in subparsers.choices.items():
            lines = sub.format_help().splitlines()
            assert "exit codes:" in lines, name
            for code, (meaning, _) in cli._EXIT_CODES.items():
                assert f"  {code}  {meaning}" in lines, f"{name}: exit code {code} not on its own line"

    def test_readme_exit_code_table_matches_the_code(self):
        """README's table lists _EXIT_CODES' codes and meanings in order, each class in its row's "raised by" cell."""
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
            table = fh.read().split("| code | meaning | raised by |\n|---|---|---|\n", 1)[1]
        rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.split("\n\n", 1)[0].splitlines()]
        assert [(int(code), meaning) for code, meaning, _ in rows] == [(c, m) for c, (m, _) in cli._EXIT_CODES.items()]
        for (code, _, raised_by), (_, kinds) in zip(rows, cli._EXIT_CODES.values()):
            for kind in kinds:
                assert f"`{kind.__name__}`" in raised_by, f"exit {code}: {kind.__name__} not named"

    def test_main_returns_usage_error_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 2


def _long_options(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {opt for action in sub.choices[command]._actions for opt in action.option_strings if opt.startswith("--")}


class TestOptions:
    def test_train_options(self):
        assert _long_options("train") == {
            "--help", "--data", "--config", "--out",
            "--label-dim", "--message-dim", "--out-dim", "--num-layers", "--mlp-hidden",
            "--loss", "--margin", "--infonce-temperature", "--ranking-temperature", "--sampler",
            "--epochs", "--batch-size", "--learning-rate", "--seed",
            "--checkpoint-every", "--eval-every", "--split-seed",
        }

    def test_eval_options(self):
        assert _long_options("eval") == {
            "--help", "--data", "--checkpoint", "--split", "--split-seed", "--out", "--seed",
        }

    def test_retrieve_options(self):
        assert _long_options("retrieve") == {
            "--help", "--data", "--checkpoint", "--split", "--split-seed", "--out",
            "--noise", "--seed", "--per-query-ranks",
        }

    def test_sweep_options(self):
        assert _long_options("sweep") == {
            "--help", "--data", "--checkpoint", "--split", "--split-seed", "--out",
            "--noise-list", "--seeds",
        }

    @pytest.mark.parametrize(
        "command, keys",
        [
            (["eval"], {"command", "split", "checkpoint", "seed"}),
            (["retrieve", "--noise", "1"], {"command", "split", "checkpoint", "noise", "seed"}),
            (["sweep", "--noise-list", "1..2"], {"command", "split", "checkpoint", "noise_list", "seeds"}),
        ],
    )
    def test_checkpoint_command_resolved_config_keys(self, pipeline, tmp_path, command, keys):
        out = tmp_path / "out"
        args = [*command, "--data", pipeline["data"], "--checkpoint", pipeline["ckpt"], "--out", str(out)]
        assert main(args) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert set(resolved) == keys
        assert resolved["command"] == command[0] and resolved["split"] == "test"
        assert resolved["checkpoint"] == os.path.abspath(pipeline["ckpt"])

    def test_gen_data_options(self):
        assert _long_options("gen-data") == {
            "--help", "--config", "--out",
            "--n-images", "--n-object-labels", "--n-relationship-labels", "--n-topics",
            "--objects-min", "--objects-max", "--edges-min", "--edges-max", "--seed",
        }

    def test_train_without_flags_uses_config_defaults(self, pipeline, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "train", lambda dataset, config, **kw: (seen.append(config), (None, []))[1])
        assert main(["train", "--data", pipeline["data"], "--out", str(tmp_path)]) == 0
        assert seen == [TrainConfig()]

    def test_gen_data_without_flags_uses_config_defaults(self, tmp_path, monkeypatch):
        seen = []
        small = SynthConfig(n_images=4, n_object_labels=6, n_relationship_labels=3, objects_max=5, edges_max=5)
        monkeypatch.setattr(cli, "generate", lambda config: (seen.append(config), generate(small))[1])
        assert main(["gen-data", "--out", str(tmp_path)]) == 0
        assert seen == [SynthConfig()]


class TestEnvDefaults:
    def test_out_dir_env_var(self, pipeline, tmp_path, monkeypatch):
        out = tmp_path / "envout"
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["SGEMBED_OUT_DIR"] = str(out)
        r = subprocess.run(
            [sys.executable, "-m", "sgembed.cli", "retrieve", "--data", pipeline["data"],
             "--checkpoint", pipeline["ckpt"], "--noise", "0"],
            capture_output=True, text=True, env=env,
        )
        assert r.returncode == 0, r.stderr
        assert (out / "retrieval.csv").exists()
