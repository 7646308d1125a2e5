"""Output files: the exact bytes each writer produces, the one place files are opened for writing, and the one
place JSON is parsed."""

import ast
import pathlib

import numpy as np
import pytest

from sgembed.cli import build_parser, _write_resolved_config
from sgembed.evaluate import (
    EvalReport,
    RetrievalReport,
    write_eval_report_csv,
    write_ranks_csv,
    write_recall_curve_csv,
    write_retrieval_csv,
    write_sweep_csv,
)
from sgembed.scene import SimilarityMatrix, Vocabulary, save_similarity, save_vocabulary, write_csv, write_json
from sgembed.train import RunLogEntry, write_runlog

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "sgembed"


def _reports():
    return {
        "normal_features": EvalReport(
            row_wise={"kendall_tau": 0.015625, "spearman_rho": None, "pearson_r": -0.5},
            all_pairs={"kendall_tau": 0.0, "spearman_rho": 0.25, "pearson_r": 1.0},
            n_images=3,
            row_coverage={"kendall_tau": 3, "spearman_rho": 0, "pearson_r": 2},
        ),
        "model": EvalReport(
            row_wise={"kendall_tau": 0.5, "spearman_rho": 0.75, "pearson_r": 0.125},
            all_pairs={"kendall_tau": 1 / 3, "spearman_rho": None, "pearson_r": 2 / 3},
            n_images=3,
            row_coverage={"kendall_tau": 3, "spearman_rho": 3, "pearson_r": 3},
        ),
    }


def _retrieval(noise_level, mrr, ranks=(1, 3, 2, 1)):
    recall_at = {1: 0.5, 5: 0.75, 10: 1.0, 20: 1.0, 50: 1.0}
    return RetrievalReport(noise_level=noise_level, mrr=mrr, recall_at=recall_at, ranks=ranks)


def test_write_json_layout(tmp_path):
    path = tmp_path / "stats.json"
    write_json({"n_images": 3, "b": {"z": [1, 2.5], "a": None}, "a": "é"}, path)
    expected = '{\n "a": "\\u00e9",\n "b": {\n  "a": null,\n  "z": [\n   1,\n   2.5\n  ]\n },\n "n_images": 3\n}\n'
    assert path.read_bytes() == expected.encode("ascii")


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["name", "value"], [("a,b", 1), ('say "hi"', ""), ("é", 2.5)])
    assert path.read_bytes() == 'name,value\r\n"a,b",1\r\n"say ""hi""",\r\né,2.5\r\n'.encode("utf-8")


def test_vocabulary_bytes(tmp_path):
    path = tmp_path / "vocabulary.json"
    save_vocabulary(Vocabulary(("dog", "cat"), ("on",)), path)
    assert path.read_bytes() == (
        b'{\n "objects": [\n  "dog",\n  "cat",\n  "__image__"\n ],\n "relationships": [\n  "on",\n  "__in_image__"\n ]\n}\n'
    )


def test_similarity_bytes(tmp_path):
    path = tmp_path / "similarity.csv"
    values = np.array([[1.0, 0.25, 0.1234567], [0.25, 1.0, 0.5], [0.1234567, 0.5, 1.0]])
    save_similarity(SimilarityMatrix(("a", "b", "c"), values), path)
    assert path.read_bytes() == (
        b"a,b,c\r\n"
        b"1.000000,0.250000,0.123457\r\n"
        b"0.250000,1.000000,0.500000\r\n"
        b"0.123457,0.500000,1.000000\r\n"
    )


def test_runlog_and_timing_bytes(tmp_path):
    write_runlog([RunLogEntry(1, 0.5, None, 1.23456), RunLogEntry(2, 0.1, 1 / 3, 12.0)], tmp_path)
    assert (tmp_path / "runlog.csv").read_bytes() == (
        b"epoch,mean_loss,val_kendall_tau\r\n1,0.5,\r\n2,0.1,0.3333333333333333\r\n"
    )
    assert (tmp_path / "timing.csv").read_bytes() == b"epoch,seconds\r\n1,1.235\r\n2,12.000\r\n"


def test_eval_report_json_bytes(tmp_path):
    path = tmp_path / "eval_report.json"
    write_json({name: r.to_dict() for name, r in _reports().items()}, path)
    model = (
        ' "model": {\n  "all_pairs": {\n   "kendall_tau": 0.3333333333333333,\n   "pearson_r": 0.6666666666666666,\n'
        '   "spearman_rho": null\n  },\n  "n_images": 3,\n  "row_coverage": {\n   "kendall_tau": 3,\n'
        '   "pearson_r": 3,\n   "spearman_rho": 3\n  },\n  "row_wise": {\n   "kendall_tau": 0.5,\n'
        '   "pearson_r": 0.125,\n   "spearman_rho": 0.75\n  }\n },\n'
    )
    baseline = (
        ' "normal_features": {\n  "all_pairs": {\n   "kendall_tau": 0.0,\n   "pearson_r": 1.0,\n'
        '   "spearman_rho": 0.25\n  },\n  "n_images": 3,\n  "row_coverage": {\n   "kendall_tau": 3,\n'
        '   "pearson_r": 2,\n   "spearman_rho": 0\n  },\n  "row_wise": {\n   "kendall_tau": 0.015625,\n'
        '   "pearson_r": -0.5,\n   "spearman_rho": null\n  }\n }\n'
    )
    assert path.read_text(encoding="utf-8") == "{\n" + model + baseline + "}\n"


def test_eval_report_csv_bytes(tmp_path):
    path = tmp_path / "eval_report.csv"
    write_eval_report_csv(_reports(), path)
    assert path.read_bytes() == (
        b"scope,metric,value\r\n"
        b"model.row_wise,kendall_tau,0.500000\r\n"
        b"model.row_wise,spearman_rho,0.750000\r\n"
        b"model.row_wise,pearson_r,0.125000\r\n"
        b"model.all_pairs,kendall_tau,0.333333\r\n"
        b"model.all_pairs,spearman_rho,\r\n"
        b"model.all_pairs,pearson_r,0.666667\r\n"
        b"normal_features.row_wise,kendall_tau,0.015625\r\n"
        b"normal_features.row_wise,spearman_rho,\r\n"
        b"normal_features.row_wise,pearson_r,-0.500000\r\n"
        b"normal_features.all_pairs,kendall_tau,0.000000\r\n"
        b"normal_features.all_pairs,spearman_rho,0.250000\r\n"
        b"normal_features.all_pairs,pearson_r,1.000000\r\n"
    )


def test_retrieval_and_sweep_bytes(tmp_path):
    write_retrieval_csv([_retrieval(12, 0.7083333)], tmp_path / "retrieval.csv")
    assert (tmp_path / "retrieval.csv").read_bytes() == (
        b"M,mrr,r_at_1,r_at_5,r_at_10,r_at_20,r_at_50\r\n"
        b"12,0.708333,0.500000,0.750000,1.000000,1.000000,1.000000\r\n"
    )
    write_sweep_csv([(0, _retrieval(0, 1.0)), (7, _retrieval(2, 0.5))], tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == (
        b"M,seed,mrr,r_at_1,r_at_5,r_at_10,r_at_20,r_at_50\r\n"
        b"0,0,1.000000,0.500000,0.750000,1.000000,1.000000,1.000000\r\n"
        b"2,7,0.500000,0.500000,0.750000,1.000000,1.000000,1.000000\r\n"
    )


def test_ranks_and_recall_curve_bytes(tmp_path):
    report = _retrieval(3, 0.7083333)
    write_ranks_csv(report, ["img_a", "img_b", "img_c", "img_d"], tmp_path / "ranks.csv")
    assert (tmp_path / "ranks.csv").read_bytes() == b"image_id,rank\r\nimg_a,1\r\nimg_b,3\r\nimg_c,2\r\nimg_d,1\r\n"
    write_recall_curve_csv(report, tmp_path / "recall_curve.csv")
    assert (tmp_path / "recall_curve.csv").read_bytes() == (
        b"k,recall\r\n1,0.500000\r\n2,0.750000\r\n3,1.000000\r\n4,1.000000\r\n"
    )


def test_resolved_config_bytes(tmp_path):
    args = build_parser().parse_args(["stats", "--data", "d"])
    _write_resolved_config(args, str(tmp_path), {"seeds": [2, 0], "noise": 3})
    assert (tmp_path / "resolved_config.json").read_bytes() == (
        b'{\n "command": "stats",\n "noise": 3,\n "seeds": [\n  2,\n  0\n ]\n}\n'
    )


# The functions that may open a file for writing: one per output format.
WRITERS = {"scene.write_json", "scene.write_csv", "scene.save_graphs", "checkpoint.save_checkpoint"}
# Calls that write a file without open(): none of them may appear.
_DIRECT_WRITES = {"write_text", "write_bytes", "save", "savetxt", "savez", "savez_compressed", "tofile"}


def _opens_for_writing(call: ast.Call) -> bool:
    """open(path, mode) with a mode that is not read-only; a mode that is not a literal counts as writing."""
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set(mode.value) & set("wax+"))


def _callers(matches) -> set[str]:
    """module.function (module.outer.inner when nested) of every call in src/sgembed for which
    ``matches(call, name)`` holds, name being the called function's or method's name."""
    found = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if matches(node, name):
                found.add(".".join([module, *scope]))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    return found


def _file_writers() -> set[str]:
    """The functions in src/sgembed with a call that writes a file."""
    return _callers(lambda call, name: (name == "open" and _opens_for_writing(call)) or name in _DIRECT_WRITES)


def test_only_the_format_writers_open_files_for_writing():
    assert _file_writers() == WRITERS


def _parses_json(call: ast.Call, name) -> bool:
    """json.load(...) or json.loads(...)."""
    func = call.func
    return name in ("load", "loads") and isinstance(func, ast.Attribute) and ast.unparse(func.value) == "json"


def test_only_json_object_parses_json():
    """Every JSON input goes through scene.json_object, so each refuses what json cannot read the same way."""
    assert _callers(_parses_json) == {"scene.json_object"}


@pytest.mark.parametrize(
    "source, writes",
    [
        ("open(p)", False),
        ("open(p, 'r', encoding='utf-8')", False),
        ("open(p, 'rb')", False),
        ("open(p, 'w')", True),
        ("open(p, mode='ab')", True),
        ("open(p, 'r+')", True),
        ("open(p, m)", True),
    ],
)
def test_write_mode_detection(source, writes):
    assert _opens_for_writing(ast.parse(source, mode="eval").body) is writes
