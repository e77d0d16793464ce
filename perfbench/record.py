#!/usr/bin/env python3
"""Record the benchmark baseline into ``perfbench/baseline.json``.

    python3 perfbench/record.py            # write baseline.json
    python3 perfbench/record.py --bless    # rewrite expected.json

Runs ``perfbench/run.py`` for ``run_seconds`` (from ``BENCHMARK.json``) once
per seed and workload, each in its own process, one after another: two sets
of ten seeds, 0-9 and 10-19. Then one traced run and one cProfile run per
workload at the default seed. It prints, per end-to-end metric and set, the
median, the quartiles and the spread (interquartile range over the median)
against the metric's bound, and whether any second-set median is worse than
the first by more than the bound. It writes everything, with the host's CPU
count and Python version, to ``baseline.json``, and exits 1 if a run failed
or a second-set median was worse than the bound allows.

``--bless`` instead runs every workload once at the default seed, checks it
against its oracle, and writes its virtual makespan and results digest to
``expected.json`` (only the digest for sharded workloads, whose makespan is
what ``virtual_error_factor`` reports). Re-bless only for a change that is
meant to alter virtual-time outputs, and say so where the change is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perfbench.run import run_json  # noqa: E402

SEEDS = 10


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def seeded_set(bench, workloads, seeds, seconds):
    """``{workload: {"failed": n, "metrics": {name: summary}}}``."""
    out = {}
    for wl in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        failed = attempted = 0
        for seed in seeds:
            res = run_json(["--workload", wl, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"])
            if res is None:
                print(f"{wl} seed {seed}: no result", flush=True)
                failed += 1
                continue
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
            print(f"{wl} seed {seed}: " + "  ".join(
                f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()),
                flush=True)
        out[wl] = {"attempted": attempted, "failed": failed,
                   "metrics": {k: summary(v) for k, v in values.items()
                               if len(v) >= 2}}
    return out


def print_set(bench, results):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for wl, res in results.items():
        print(f"\n{wl}: {res['attempted']} runs, {res['failed']} failed")
        for name, s in res["metrics"].items():
            b = bounds[name]["bound"]
            flag = ("ok" if s["spread"] < b / 3 else
                    "WIDE" if s["spread"] <= b else "OVER")
            print(f"  {name:22s} median {s['median']:12.6f} "
                  f"{bounds[name]['unit']:6s} q1 {s['q1']:12.6f} "
                  f"q3 {s['q3']:12.6f} spread {s['spread']:.4f} "
                  f"(bound {b}) {flag}")


def compare_sets(bench, first, second):
    """Second-set medians worse than the first's by more than the bound."""
    worse = []
    for m in bench["end_to_end"]:
        sign = 1.0 if m["better"] == "lower" else -1.0
        for wl in first:
            a = first[wl]["metrics"][m["name"]]["median"]
            b = second[wl]["metrics"][m["name"]]["median"]
            change = sign * (b - a) / a
            print(f"  {wl:12s} {m['name']:22s} set1 {a:12.6f} set2 {b:12.6f}"
                  f" change {change:+.4f} (bound {m['bound']})")
            if change > m["bound"]:
                worse.append(f"{wl}/{m['name']}")
    return worse


def bless() -> int:
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    expected = {}
    for name, wl in WORKLOADS.items():
        prep = wl.setup(wl.inputs(DEFAULT_SEED)[0])
        outcome = wl.check(prep, wl.oracle(prep), prep.run())
        expected[name] = {"digest": outcome.digest}
        if wl.shards == 1:
            expected[name]["makespan"] = outcome.makespan
        print(name, expected[name], flush=True)
    with open(HERE / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=2)
        fh.write("\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--bless", action="store_true")
    if ap.parse_args().bless:
        return bless()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sets = []
    for first_seed in (0, SEEDS):
        sets.append(seeded_set(bench, names,
                               range(first_seed, first_seed + SEEDS), seconds))
        print_set(bench, sets[-1])
    print("\nsecond set against first:")
    worse = compare_sets(bench, *sets)
    print("worse than bound: " + (", ".join(worse) or "none"))

    traced, profiles = {}, {}
    for wl in names:
        res = run_json(["--workload", wl, "--seed", "0", "--seconds",
                        str(seconds), "--trace", "1"])
        traced[wl] = res and {k: m["value"] for k, m in res["metrics"].items()}
        profiles[wl] = run_json(["--workload", wl, "--seed", "0",
                                 "--profile"])
        print(f"\n{wl} traced split:")
        for k, v in (traced[wl] or {}).items():
            print(f"  {k:32s} {v:16.6f}")

    baseline = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "run_seconds": seconds,
        "why": {w["name"]: w["why"] for w in bench["workloads"]},
        "end_to_end": sets[0],
        "end_to_end_second_set": sets[1],
        "per_layer_traced_seed0": traced,
        "cprofile_self_share_seed0": profiles,
    }
    out = HERE / "baseline.json"
    out.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"\nwrote {out}")
    failed = sum(r["failed"] for s in sets for r in s.values())
    return 1 if failed or worse else 0


if __name__ == "__main__":
    sys.exit(main())
