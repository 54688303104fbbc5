"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads forecast-wide,build --seeds 1-10
    python3 perfbench/spread.py --workloads all --seeds 1-10 --compare .perfbench/spread-a.json

For every workload and end-to-end metric it prints the median of the runs
and the spread, (Q3 - Q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`, next to the metric's bound from
BENCHMARK.json. With --compare it also prints how much worse each median
is than the one in an earlier spread file, as a share of that median.
Runs go one at a time; raw values are saved to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["ungated"] = json.loads(saved.read_text(encoding="utf-8"))["samples"].get("ungated", {})
    return result


def worse_share(metric: dict, before: float, after: float) -> float:
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all", help="comma-separated names, or all")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--compare", default=None, help="an earlier spread file to compare medians with")
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]] if args.workloads == "all" else args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    earlier = json.loads(Path(args.compare).read_text(encoding="utf-8")) if args.compare else {}

    raw = {}
    for name in names:
        runs = []
        for seed in seeds:
            t0 = time.perf_counter()
            result = run_once(name, seed, args.seconds, 0)
            print(f"{name} seed {seed}: {time.perf_counter() - t0:.1f} s, correct={result['correct']}", flush=True)
            runs.append(result)
        raw[name] = {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs] for m in spec["end_to_end"]}
        ungated = sorted(runs[0]["ungated"])
        raw[name].update({key: [r["ungated"][key] for r in runs] for key in ungated})
        raw[name]["correct"] = all(r["correct"] for r in runs)
        print(f"\n{name}: all correct = {raw[name]['correct']}")
        print(f"  {'metric':22} {'median':>12} {'spread':>8} {'bound':>6}  {'vs earlier':>10}")
        for metric in spec["end_to_end"]:
            values = raw[name][metric["name"]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= metric["bound"] / 3 else (" >1/3" if spread <= metric["bound"] else " OVER")
            versus = ""
            if name in earlier:
                worse = worse_share(metric, statistics.median(earlier[name][metric["name"]]), med)
                versus = f"{worse:+10.4f}" + (" WORSE" if worse > metric["bound"] else "")
            print(f"  {metric['name']:22} {med:12.6g} {spread:8.4f} {metric['bound']:6.3f}{flag:6}{versus}")
        for key in ungated:
            values = raw[name][key]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {key:22} {med:12.6g} {(q3 - q1) / med:8.4f} (results file only)")
        print(flush=True)

    out = ROOT / ".perfbench" / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    print(f"raw values: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
