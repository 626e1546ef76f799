#!/usr/bin/env python3
"""Noise calibration for the repository benchmark.

Runs every workload ``--runs`` times in each of two sets, one seed per
run (the second set repeats the first set's seeds, so digests can be
compared seed by seed), and writes ``results/calibration.json``: for
each end-to-end metric and set, the sample count, median, quartiles
(``statistics.quantiles(values, n=4)``) and spread (interquartile range
over median), plus how far the second set's median moved from the
first's.  The same is kept for the timings before ``run.py``'s
host-speed correction (``sim_rps.raw``, ``cpu_us_per_req.raw`` and
``setup_s.raw``, read from each run's ``results/report.json``).  It
then derives each metric's regression bound:

* ``sim_rps`` and ``cpu_us_per_req``: the larger of 10% and 3 x the
  widest spread seen;
* ``setup_s``: 25%;
* ``peak_rss_mb``: 10% plus 16 MB over the smallest median;

each at most 25%, the largest bound BENCHMARK.json may hold, which
``setup_s`` gets so that work moved into set-up shows.  Last it checks
the bounds written in BENCHMARK.json against the data: every spread but
``setup_s`` within its bound and no second-set median worse than the
first by more than the bound.  The uncorrected timings go through the
same check under the same bounds; its outcome (``raw_check_failures``)
is recorded, to show what the correction buys, but fails nothing.

Run from the repository root; it takes about 40 minutes with the
defaults.  ``--recheck`` redoes only the derivation and the check on
the stored data, after BENCHMARK.json changed::

    python3 benchmarks/perf/calibrate.py [--runs 10] [--workload NAME ...]
    python3 benchmarks/perf/calibrate.py --recheck
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
REPORT = HERE / "results" / "calibration.json"
RUN_REPORT = HERE / "results" / "report.json"
#: The largest bound BENCHMARK.json may hold; ``setup_s`` gets it.
MAX_BOUND = 0.25
#: Timings before the host-speed correction, checked like the metrics.
RAW = ("sim_rps.raw", "cpu_us_per_req.raw", "setup_s.raw")


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict[str, float], str]:
    """One run's metric values (uncorrected timings as ``name.raw``) and
    digest, run as BENCHMARK.json's command is."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run failed: {result}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    raw = json.loads(RUN_REPORT.read_text())["workloads"][workload]["raw"]
    values.update({f"{name}.raw": value for name, value in raw.items()})
    digest = ""
    for line in lines[:-1]:
        fields = line.split()
        if fields[1] == "digest":
            digest = fields[2]
    return values, digest


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which the second median is worse than the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def collect(workloads: list[str], runs: int, seconds: int, metrics: dict) -> dict:
    """Two sets of ``runs`` runs per workload, summarised per metric.

    Each set runs every workload in turn, so a workload's two sets are
    a whole set apart in time, as far as host conditions can drift.
    """
    seeds = list(range(1, runs + 1))
    names = [*metrics, *RAW]
    values = {w: [{name: [] for name in names} for _ in range(2)] for w in workloads}
    digests = {w: ([], []) for w in workloads}
    run_s = {w: [] for w in workloads}
    for set_index in range(2):
        for workload in workloads:
            into = values[workload][set_index]
            for seed in seeds:
                start = time.perf_counter()
                result, digest = run_once(workload, seed, seconds)
                run_s[workload].append(time.perf_counter() - start)
                digests[workload][set_index].append(digest)
                for name in names:
                    into[name].append(result[name])
                print(f"{workload} set {set_index} seed {seed}: "
                      + " ".join(f"{n}={v[-1]:.6g}" for n, v in into.items()),
                      flush=True)
    report: dict = {"runs_per_set": runs, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        sets = values[workload]
        entry = {
            "digests_identical": digests[workload][0] == digests[workload][1],
            "run_s": {"median": statistics.median(run_s[workload]),
                      "max": max(run_s[workload])},
        }
        for name in names:
            better = metrics[name.removesuffix(".raw")]["better"]
            first, second = summary(sets[0][name]), summary(sets[1][name])
            entry[name] = {
                "sets": [first, second],
                "worse_by": worse_by(first["median"], second["median"], better),
            }
        report["workloads"][workload] = entry
    return report


def evaluate(report: dict, metrics: dict) -> list[str]:
    """Derive the bounds into ``report`` and check BENCHMARK.json's."""
    entries = report["workloads"].values()

    def widest(name: str) -> float:
        return max(s["spread"] for e in entries for s in e[name]["sets"])

    smallest_rss = min(s["median"] for e in entries for s in e["peak_rss_mb"]["sets"])
    derived = {
        "sim_rps": max(0.10, 3 * widest("sim_rps")),
        "cpu_us_per_req": max(0.10, 3 * widest("cpu_us_per_req")),
        "peak_rss_mb": 0.10 + 16 / smallest_rss,
    }
    report["rule_bounds"] = derived
    report["derived_bounds"] = {
        **{name: min(MAX_BOUND, bound) for name, bound in derived.items()},
        "setup_s": MAX_BOUND,
    }
    bounds = {name: m["bound"] for name, m in metrics.items()}
    report["checked_bounds"] = bounds
    failures, raw_failures = [], []
    for workload, entry in report["workloads"].items():
        if not entry["digests_identical"]:
            failures.append(f"{workload}: digests differ between the sets")
        for name in [*metrics, *RAW]:
            metric = name.removesuffix(".raw")
            bound = bounds[metric]
            into = raw_failures if name in RAW else failures
            spreads = [s["spread"] for s in entry[name]["sets"]]
            if metric != "setup_s" and max(spreads) > bound:
                into.append(f"{workload} {name}: spread {max(spreads):.3f} > {bound}")
            if entry[name]["worse_by"] > bound:
                into.append(
                    f"{workload} {name}: second median worse by "
                    f"{entry[name]['worse_by']:.3f} > {bound}"
                )
    report["check_failures"] = failures
    report["raw_check_failures"] = raw_failures
    return failures


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--recheck", action="store_true",
                        help="only re-derive and re-check the stored data")
    args = parser.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.recheck:
        report = json.loads(REPORT.read_text())
    else:
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        report = collect(workloads, args.runs, spec["run_seconds"], metrics)
        report["run_seconds"] = spec["run_seconds"]
    failures = evaluate(report, metrics)
    REPORT.parent.mkdir(exist_ok=True)
    REPORT.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["derived_bounds"], indent=2))
    for line in failures:
        print(f"CHECK FAILED {line}")
    for line in report["raw_check_failures"]:
        print(f"uncorrected timings would fail: {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
