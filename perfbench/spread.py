"""Run the benchmark once per seed and summarise each metric across the runs.

    python3 perfbench/spread.py --workload train --seeds 0-9 --seconds 30 [--trace 0] [--out FILE]

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median. Runs are made
one after another. --out writes the summary and, per run, the result
line, the environment block, the call times, the check verdicts and
any error as JSON: the form of the recorded baselines in baseline/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",") if s]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None, "n": len(values)}


def run_seeds(args, record_path: Path) -> list[dict] | None:
    """One run.py run per seed; each result carries its full record and wall time."""
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(record_path)]
        tic = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        wall_s = time.monotonic() - tic
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads(record_path.read_text(encoding="utf-8"))
        detail = record["workloads"][args.workload]
        result.update(seed=seed, wall_s=wall_s, environment=record["environment"],
                      **{k: detail[k] for k in ("setup_s_samples", "call_s", "checks", "errors", "report") if k in detail})
        runs.append(result)
        values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed} ({wall_s:.0f} s): correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}", file=sys.stderr, flush=True)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    record_dir = HERE.parent / ".perfbench_work" / f"spread-{os.getpid()}"
    record_dir.mkdir(parents=True)
    try:
        runs = run_seeds(args, record_dir / "record.json")
    finally:
        shutil.rmtree(record_dir)
        try:
            record_dir.parent.rmdir()
        except OSError:
            pass
    if runs is None:
        return 1

    names = list(runs[0]["metrics"])
    summary = {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in names}
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:38s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {spread}")
    print(f"all correct: {all(r['correct'] for r in runs)}; failed {sum(r['failed'] for r in runs)}")
    if args.out:
        record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "runs": runs,
                  "summary": summary}
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
