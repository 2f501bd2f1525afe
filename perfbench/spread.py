"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py --workload reduce_su4 --seeds 0-9
    python3 perfbench/spread.py --workload all --seeds 0-9 --out perfbench/BASELINE.json

Runs ``perfbench/run.py`` once per seed, with the command and ``run_seconds``
of ``BENCHMARK.json``, and prints for every end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound.
A spread below a third of the bound is what makes a comparison of two commits
meaningful; it exits with code 1 if any metric is wider.  Each seed's line
also shows the run's median ``host_ref_s``, the time of the host reference,
and the set's ``host_ref_s`` figures follow the metrics: they show how far
the host's speed moved during the set.  With
``--out`` it also makes one traced run per workload (the first seed) and
writes every run, these figures and the per-layer metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path("BENCHMARK.json")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int = 0) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["summary"] = lines[:-1]
    return result


def host_ref_s(summary: list[str]) -> float:
    """The median host_ref_s from the env line of a run's summary (NaN if it is missing)."""
    for line in summary:
        if line.startswith("env: "):
            return json.loads(line[len("env: "):]).get("host_ref_s", {}).get("median", float("nan"))
    return float("nan")


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "seeds": seed_range(args.seeds), "workloads": {}}
    all_steady = True
    for workload in names:
        runs = []
        for seed in record["seeds"]:
            result = run_once(spec, workload, seed)
            host = host_ref_s(result["summary"])
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "host_ref_s": host,
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "summary": result["summary"]})
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in
                                                         result["metrics"].items())
                  + f", failed {result['failed']}/{result['attempted']}, host_ref_s {host:.4g}", flush=True)
        figures = {}
        for metric, bound in bounds.items():
            figures[metric] = spread([r["metrics"][metric] for r in runs])
            figures[metric]["bound"] = bound
            steady = figures[metric]["spread"] < bound / 3
            all_steady &= steady
            print(f"  {metric:12s} median {figures[metric]['median']:.5g}  spread {figures[metric]['spread']:.4f}"
                  f"  bound {bound}  {'ok' if steady else 'WIDE'}", flush=True)
        host = spread([r["host_ref_s"] for r in runs])
        print(f"  host_ref_s   median {host['median']:.5g}  spread {host['spread']:.4f}", flush=True)
        record["workloads"][workload] = {"figures": figures, "host_ref_s": host, "runs": runs,
                                         "failed": sum(r["failed"] for r in runs),
                                         "attempted": sum(r["attempted"] for r in runs)}
        if args.out:
            traced = run_once(spec, workload, record["seeds"][0], trace=1)
            record["workloads"][workload]["traced"] = {
                "seed": record["seeds"][0], "correct": traced["correct"], "failed": traced["failed"],
                "attempted": traced["attempted"], "summary": traced["summary"],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
            print(f"  traced run: failed {traced['failed']}/{traced['attempted']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
