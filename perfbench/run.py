"""sgembed benchmark: one command for the train, eval-pairs and retrieval-sweep workloads.

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Run from anywhere; the package is imported from the checkout's src/.
Inputs are generated from --seed with sgembed.synth and written as
dataset files; each workload then runs in its own child process, so peak
RSS is per workload and a crash or OOM kill fails that workload only.
The human-readable report goes first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics
(end-to-end metrics untraced, per-layer metrics with --trace 1).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
CHILD_BUDGET_S = 170.0  # a driver run must end within 180 s

EXIT_BENCHMARK_ERROR = 3


def _parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="input-generation seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="time budget of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    parser.add_argument("--out", help="also write the full record (environment, samples, checks) as JSON here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def _git_commit() -> str | None:
    """HEAD of the repository whose top level is this checkout, if it is one."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sgembed").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    """Threads the OpenBLAS that numpy loaded will use, when it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    import numpy as np

    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    # The build's directories say where numpy was built, not what it runs.
    libs = {
        kind: {k: v for k, v in info.items() if not k.endswith("directory")}
        for kind, info in build.items()
        if kind in ("blas", "lapack")
    }
    return {
        "numpy": np.__version__,
        "blas": libs.get("blas"),
        "lapack": libs.get("lapack"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def _check_benchmark_json(specs: dict[str, list]) -> None:
    """BENCHMARK.json must declare exactly the metrics this benchmark prints."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    declared = json.loads(path.read_text(encoding="utf-8"))
    for key, spec in specs.items():
        got = [(m["name"], m["unit"], m["better"]) for m in declared.get(key, [])]
        if got != list(spec):
            raise SystemExit(f"perfbench: BENCHMARK.json {key} {got} != benchmark's {list(spec)}")


def run_child(workloads_mod, name: str, args, work_dir: Path) -> dict | None:
    """Prepare inputs, run the workload in a child process and return its result.

    Returns None when the benchmark itself cannot run there. A child that
    is killed, times out or crashes outside a call fails the workload.
    """
    work_dir.mkdir(parents=True)
    deadline = time.monotonic() + CHILD_BUDGET_S
    inputs = workloads_mod.prepare_inputs(name, args.seed, str(work_dir))
    spec = {
        "workload": name,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "work_dir": str(work_dir),
        "result_path": str(work_dir / "result.json"),
    }
    spec_path = work_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    # The child's stdout goes to our stderr: our stdout carries only the report.
    child = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), str(spec_path)], stdout=sys.stderr)
    try:
        returncode = child.wait(timeout=max(deadline - time.monotonic(), 1.0))
        why = f"child killed by signal {-returncode}" if returncode < 0 else f"child exited with code {returncode}"
    except subprocess.TimeoutExpired:
        why = f"child did not finish within {CHILD_BUDGET_S:.0f} s"
        returncode = None
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if returncode == EXIT_BENCHMARK_ERROR:
        return None
    if returncode == 0:
        return json.loads(Path(spec["result_path"]).read_text(encoding="utf-8"))
    return {"workload": name, "trace": args.trace, "metrics": {}, "checks": {}, "attempted": 1, "failed": 1,
            "call_s": [], "errors": [why], "report": {}}


def final_line(result: dict, units: dict[str, str]) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": max(result["attempted"], 1),
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items() if k in units},
    }


def issue_metrics(result: dict) -> list[tuple[str, object, str]]:
    """The user-facing figures by their workload-specific names."""
    m, name = result["metrics"], result["workload"]
    rows = [("failed_share", result["failed"] / max(result["attempted"], 1), "ratio")]
    if name == "train":
        if not result["trace"]:
            rows.append(("train.triples_per_s", m.get("items_per_s"), "1/s"))
        rows.append(("train.test_tau", result["report"].get("train.test_tau"), "tau"))
    elif name == "eval-pairs" and result["call_s"] and not result["trace"]:
        rows.append((f"eval.call_s_p50 (n={len(result['call_s'])})", statistics.median(result["call_s"]), "s"))
    elif name == "retrieval-sweep" and not result["trace"]:
        rows.append(("retrieval.queries_per_s", m.get("items_per_s"), "1/s"))
    return rows


def print_report(result: dict, specs: dict[str, tuple[str, str]]) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']} ({mode}, {len(result['call_s'])} calls) ==")
    for name, value in result["metrics"].items():
        unit, better = specs[name]
        print(f"  {name:38s} {value:14.6g} {unit:6s} {better} is better")
    for name, value, unit in issue_metrics(result):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:38s} {shown:>14s} {unit}")
    for check, verdict in result["checks"].items():
        print(f"  check {check}: {verdict}")
    for error in result["errors"]:
        print("  error: " + error.strip().splitlines()[-1])


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import tracer
    import workloads

    args = _parse_args(argv, workloads.WORKLOADS)
    e2e = {n: (u, b) for n, u, b in workloads.END_TO_END}
    layers = {n: (u, b) for n, u, b in tracer.PER_LAYER}
    _check_benchmark_json({"end_to_end": workloads.END_TO_END, "per_layer": tracer.PER_LAYER})
    try:
        workloads.import_sgembed()
    except (workloads.BenchmarkError, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return EXIT_BENCHMARK_ERROR
    specs = layers if args.trace else e2e
    units = {n: u for n, (u, _) in specs.items()}
    env = environment()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)

    run_dir = WORK_ROOT / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            result = run_child(workloads, name, args, run_dir / name)
            if result is None:
                print(f"perfbench: the benchmark could not run workload {name}", file=sys.stderr)
                return EXIT_BENCHMARK_ERROR
            results[name] = result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    print("environment: " + json.dumps(env, sort_keys=True))
    for result in results.values():
        print_report(result, specs)
        result["final"] = final_line(result, units)
    if args.out:
        record = {"environment": env, "args": vars(args), "workloads": results}
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if len(results) == 1:
        final = results[names[0]]["final"]
    else:
        final = {
            "correct": all(r["final"]["correct"] for r in results.values()),
            "attempted": sum(r["final"]["attempted"] for r in results.values()),
            "failed": sum(r["final"]["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["final"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
