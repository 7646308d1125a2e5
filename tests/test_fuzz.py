"""Seeded format fuzzer: one mutated value in one input file, then one CLI command, in process.

Each case copies a clean 12-image dataset and a 1-layer width-4 checkpoint, mutates one value
of graphs.jsonl, similarity.csv, vocabulary.json or the checkpoint header, cuts the checkpoint
payload by 1-64 bytes, or appends a byte that is not UTF-8 to one file. It then runs `stats`,
`train --epochs 1`, `eval` or `retrieve --noise 2` through `cli.main`. Every case must end within
its time limit with a documented exit code other than 1, and an exit-5 refusal must name the
mutated input. `run_cases` takes the seed and the case count, so a longer search is one call.
"""

import contextlib
import io
import json
import random
import shutil
import signal

import pytest

from sgembed.cli import EXIT_BAD_DATA, main

SEED = 0
CASES = 400
CASE_SECONDS = 10
DOCUMENTED_CODES = {0, 3, 4, 5, 6}

DATA_FILES = ("graphs.jsonl", "similarity.csv", "vocabulary.json")
GEN_ARGS = ["--n-images", "12", "--n-object-labels", "10", "--n-relationship-labels", "4"]
GEN_ARGS += ["--objects-max", "6", "--edges-max", "6", "--seed", "3"]
TRAIN_ARGS = ["--label-dim", "4", "--message-dim", "4", "--out-dim", "4", "--num-layers", "1", "--mlp-hidden", "4"]
TRAIN_ARGS += ["--epochs", "1", "--batch-size", "4"]

# What a mutated JSON value becomes: every JSON type, boundary and huge numbers, reserved labels.
JSON_VALUES = [None, True, False, 0, 1, -1, 2, 0.5, 1.5, -0.5, 1e300, 10**9, -(10**9), "", "x", "img_00000"]
JSON_VALUES += ["__image__", "__in_image__", [], [0], ["x"], {}, {"label": "x"}]
CSV_VALUES = ["", "x", "nan", "inf", "-inf", "-0.1", "1.5", "0", "1", "0.5", "1e300", "img_00000", "1,0"]


class _Timeout(BaseException):
    """Raised by SIGALRM; a BaseException, so that main's handler does not turn it into exit 1."""


def _quiet_main(argv) -> tuple[int, str]:
    """main(argv) under a CASE_SECONDS alarm, with its exit code and standard error."""

    def expire(signum, frame):
        raise _Timeout

    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def _mutate_json(rng: random.Random, doc):
    """``doc`` with one value, chosen over every nested value, deleted or replaced by a JSON_VALUES item
    or, half the time, by another scalar of ``doc``, which often leaves the file valid."""
    slots, scalars = [], []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in items:
            slots.append((node, key))
            if not isinstance(child, (dict, list)):
                scalars.append(child)
            walk(child)

    walk(doc)
    if not slots:
        return rng.choice(JSON_VALUES)
    node, key = rng.choice(slots)
    if rng.random() < 0.15:
        del node[key]
    else:
        node[key] = rng.choice(scalars if scalars and rng.random() < 0.5 else JSON_VALUES)
    return doc


def _mutate_csv(rng: random.Random, text: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    row = rng.choice(rows)
    row[rng.randrange(len(row))] = rng.choice(CSV_VALUES if rng.random() < 0.5 else rng.choice(rows))
    return "\r\n".join(",".join(r) for r in rows) + "\r\n"


def _mutate_header(rng: random.Random, blob: bytes) -> bytes:
    n = int.from_bytes(blob[8:16], "little")
    header = json.dumps(_mutate_json(rng, json.loads(blob[16 : 16 + n]))).encode("utf-8")
    return blob[:8] + len(header).to_bytes(8, "little") + header + blob[16 + n :]


def _mutate(rng: random.Random, data, ckpt) -> tuple[str, object]:
    """Damage one input in place; returns how, and the path an exit-5 message must name."""
    kind = rng.choice(["graphs", "similarity", "vocabulary", "header", "cut", "not_utf8"])
    if kind == "graphs":
        path = data / "graphs.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        i = rng.randrange(len(lines))
        lines[i] = json.dumps(_mutate_json(rng, json.loads(lines[i])))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return f"graphs line {i + 1}", data
    if kind == "similarity":
        path = data / "similarity.csv"
        path.write_text(_mutate_csv(rng, path.read_text(encoding="utf-8")), encoding="utf-8", newline="")
        return kind, data
    if kind == "vocabulary":
        path = data / "vocabulary.json"
        path.write_text(json.dumps(_mutate_json(rng, json.loads(path.read_text(encoding="utf-8")))), encoding="utf-8")
        return kind, data
    if kind == "header":
        ckpt.write_bytes(_mutate_header(rng, ckpt.read_bytes()))
        return kind, ckpt
    if kind == "cut":
        cut = rng.randint(1, 64)
        ckpt.write_bytes(ckpt.read_bytes()[:-cut])
        return f"payload cut by {cut}", ckpt
    path = rng.choice([data / name for name in DATA_FILES] + [ckpt])
    path.write_bytes(path.read_bytes() + bytes([rng.randint(0x80, 0xFF)]))
    return f"{path.name} + a byte that is not UTF-8", data if path != ckpt else ckpt


def run_cases(seed: int, cases: int, clean_data, clean_ckpt, work) -> list[str]:
    """Run ``cases`` fuzz cases drawn from ``seed`` in directory ``work``; returns one line per failed case."""
    rng = random.Random(seed)
    data, ckpt, out = work / "data", work / "model.ckpt", work / "out"
    failures = []
    for case in range(cases):
        for path in (data, out):
            shutil.rmtree(path, ignore_errors=True)
        shutil.copytree(clean_data, data)
        shutil.copyfile(clean_ckpt, ckpt)
        how, culprit = _mutate(rng, data, ckpt)
        checkpoint_args = ["--data", str(data), "--checkpoint", str(ckpt), "--out", str(out)]
        commands = [["eval", *checkpoint_args], ["retrieve", "--noise", "2", *checkpoint_args]]
        if culprit == data:
            commands += [["stats", "--data", str(data)], ["train", "--data", str(data), *TRAIN_ARGS, "--out", str(out)]]
        argv = rng.choice(commands)
        try:
            code, err = _quiet_main(argv)
        except _Timeout:
            failures.append(f"case {case} ({how}, {argv[0]}): no exit within {CASE_SECONDS} s")
            continue
        last = err.strip().splitlines()[-1] if err.strip() else ""
        if code not in DOCUMENTED_CODES or (code == EXIT_BAD_DATA and str(culprit) not in last):
            failures.append(f"case {case} ({how}, {argv[0]}): exit {code}: {last}")
    return failures


@pytest.fixture(scope="module")
def clean_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data, run = root / "data", root / "run"
    assert _quiet_main(["gen-data", *GEN_ARGS, "--out", str(data)])[0] == 0
    assert _quiet_main(["train", "--data", str(data), *TRAIN_ARGS, "--out", str(run)])[0] == 0
    return data, run / "best.ckpt"


def test_fuzzed_inputs_exit_with_a_documented_code_naming_the_input(clean_inputs, tmp_path):
    failures = run_cases(SEED, CASES, *clean_inputs, tmp_path)
    assert not failures, "\n".join(failures)
