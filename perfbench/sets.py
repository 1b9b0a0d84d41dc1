"""Run sets of benchmark runs and summarise their spread.

    python3 perfbench/sets.py run --seeds 1-10 --out perfbench/results/set-a.jsonl
    python3 perfbench/sets.py summary perfbench/results/set-a.jsonl [perfbench/results/set-b.jsonl]

`run` calls run.py once per workload and seed (workload after workload),
as `run.py --workload W --seed N --seconds <run_seconds of BENCHMARK.json>
--trace 0`, and appends each run's JSON line to --out. `summary` prints,
per workload and metric, the run count, median, quartiles and quartile
distance as a share of the median; given a second set it adds the change
of the median from the first set to the second, and the failed share of
each set.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("capacity", "broadcast", "scatter", "smearings-2d")


def run_set(args) -> int:
    lo, hi = (int(s) for s in args.seeds.split("-"))
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        for seed in range(lo, hi + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = {"workload": workload, "seed": seed, **result}
            raw = re.search(r"raw: (.*)$", proc.stdout, re.MULTILINE)
            if raw:
                record["raw"] = {k: {"value": float(v)} for k, v in
                                 (pair.split("=") for pair in raw.group(1).split())}
            with out.open("a", encoding="utf-8") as f:
                f.write(json.dumps(record) + "\n")
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)
    return 0


def load(path: str) -> dict:
    runs = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        for key, value in record.pop("raw", {}).items():
            record["metrics"][f"raw.{key}"] = value
        runs[record["workload"]].append(record)
    return runs


def spread(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def summary(args) -> int:
    sets = [load(p) for p in args.files]
    for workload in sets[0]:
        runs = [s.get(workload, []) for s in sets]
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in runs]
        correct = all(r["correct"] for rs in runs for r in rs)
        print(f"{workload}: correct={correct} failed share per set={shares}")
        for metric in runs[0][0]["metrics"]:
            cols = []
            medians = []
            for rs in runs:
                values = [r["metrics"][metric]["value"] for r in rs]
                med, q1, q3 = spread(values)
                medians.append(med)
                share = (q3 - q1) / med if med else float("nan")
                cols.append(f"n={len(values)} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                            f"iqr/median={share:.3f}")
            line = f"  {metric}: " + " | ".join(cols)
            if len(medians) == 2 and medians[0]:
                line += f" | median change={medians[1] / medians[0] - 1.0:+.3f}"
            print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--seeds", default="1-10", help="first-last, as in 1-10")
    p_run.add_argument("--out", required=True)
    p_sum = sub.add_parser("summary")
    p_sum.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    return run_set(args) if args.command == "run" else summary(args)


if __name__ == "__main__":
    sys.exit(main())
