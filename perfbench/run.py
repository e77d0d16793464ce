#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload isx-flat --seed 0 --seconds 25 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
same checkout. With ``--trace 0`` the workload runs end to end, untraced, for
about ``--seconds`` seconds (at least three runs), and the end-to-end metrics
are reported as medians. With ``--trace 1`` untraced and traced runs
alternate, and the per-layer split of the traced runs is reported. Every run
is checked; a run that crashes, times out or fails a check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload in turn, each in its own process, and prints one table.
``--profile`` runs once under cProfile and prints self time folded by
``repro.<pkg>.<module>``.

Exit status: 0 when a result was printed, whether or not every run passed
(``correct`` and ``failed`` say that); 2 when no result could be produced
(bad arguments, no passing run, or no program to benchmark in this
directory).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MIN_REPS = 3
#: Set-up is timed in a fresh process after every run, and in at least this
#: many; the median is reported.
SETUP_PROBES = 7
#: A single run longer than this counts as timed out.
REP_TIMEOUT_S = 90.0
#: Every invocation ends well inside the 180 s a caller allows it.
BUDGET_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "virtual_error_factor": "ratio",
}


class RepTimeout(Exception):
    pass


def log(msg: str) -> None:
    print(msg, flush=True)


@contextlib.contextmanager
def time_limit(deadline: float):
    """Raise :class:`RepTimeout` in the run if it outlives its share."""
    seconds = min(REP_TIMEOUT_S, deadline - time.monotonic())
    if seconds <= 0:
        raise RepTimeout("benchmark time budget exhausted")

    def _expired(signum, frame):
        raise RepTimeout(f"run exceeded {seconds:.0f} s")

    old = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def timed(run, deadline: float):
    gc.collect()
    with time_limit(deadline):
        t0 = time.perf_counter()
        result = run()
        wall = time.perf_counter() - t0
    return wall, result


def committed(name: str):
    """Makespan repr and digest committed for ``name`` at the default seed."""
    with open(Path(__file__).with_name("expected.json")) as fh:
        return json.load(fh).get(name)


class Input:
    """One input of a run: its parameters, what ``spmd_run`` receives, its
    oracle, and the outcome every run of it must repeat."""

    def __init__(self, wl, params, expected=None):
        self.params = params
        self.prep = wl.setup(params)
        self.oracle = wl.oracle(self.prep)
        #: Committed makespan and digest (seed 0's first input only).
        self.expected = expected
        self.first = None


def run_inputs(wl, seed: int):
    from perfbench.workloads import DEFAULT_SEED

    inputs = []
    for j, params in enumerate(wl.inputs(seed)):
        log(f"{wl.name}: seed {seed} input {j}: {params}")
        expected = committed(wl.name) if (seed, j) == (DEFAULT_SEED, 0) \
            else None
        inputs.append(Input(wl, params, expected))
    return inputs


class Ledger:
    """Attempted and failed runs."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        log(f"  {what}: FAILED {type(exc).__name__}: {exc}")


def admit(inp: Input, outcome) -> None:
    """Raise CheckFailed unless ``outcome`` repeats the input's first run
    and, where committed, the committed values."""
    from perfbench.workloads import CheckFailed

    if inp.first is None:
        inp.first = outcome
    elif outcome != inp.first:
        raise CheckFailed(f"not deterministic: {outcome} != {inp.first}")
    exp = inp.expected
    if exp is not None:
        if outcome.digest != exp["digest"]:
            raise CheckFailed(
                f"digest {outcome.digest} != committed {exp['digest']}")
        if "makespan" in exp and outcome.makespan != exp["makespan"]:
            raise CheckFailed(f"makespan {outcome.makespan} != "
                              f"committed {exp['makespan']}")


def rep(ledger: Ledger, inp: Input, deadline: float, label: str):
    """One checked run; returns ``(wall, result, outcome)`` or None."""
    ledger.attempted += 1
    try:
        wall, result = timed(inp.prep.run, deadline)
        outcome = ledger.wl.check(inp.prep, inp.oracle, result)
        admit(inp, outcome)
    except Exception as exc:  # noqa: BLE001 - any failure is one failed run
        ledger.fail(label, exc)
        return None
    log(f"  {label}: wall {wall:.4f} s  makespan {outcome.makespan}  "
        f"digest {outcome.digest[:16]}")
    return wall, result, outcome


def schedule(n_inputs: int, seconds: float, deadline: float):
    """Yield input indices round-robin while another run fits in
    ``seconds``: at least ``MIN_REPS`` runs, and ``n_inputs + 1``, so that
    every input runs and the first runs twice."""
    min_runs = max(MIN_REPS, n_inputs + 1)
    started, last, n = time.monotonic(), 0.0, 0
    while True:
        now = time.monotonic()
        if now + last > deadline:
            return
        if n >= min_runs and (now - started) + last > seconds:
            return
        yield n % n_inputs
        n += 1
        last = time.monotonic() - now


def peak_rss_mb(shards: int) -> float:
    """Peak RSS of this process so far, plus ``shards`` times the largest
    waited-for child's (the shards are forked, so their shared pages count
    twice: an upper bound)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if shards > 1:
        rss += shards * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


def probe_setup(name: str, params) -> float:
    """Set-up time of one fresh process, as measured: imports plus config,
    cluster and main."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--params", json.dumps(params)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                         cwd=ROOT, check=True)
    return float(out.stdout.split()[-1])


def measure(wl, seed: int, seconds: float, deadline: float):
    """Untraced runs: the end-to-end metrics."""
    from perfbench import hostspeed

    inputs = run_inputs(wl, seed)
    ledger = Ledger(wl)
    # A probe on one core tracks a single-process run; a sharded run loads
    # every core, and scaling it by a one-core probe widened its spread.
    scaled = wl.shards == 1
    runs = []  # (input, wall at the reference host speed, outcome)
    raw = []
    setups = []
    rss = before = None
    for j in schedule(len(inputs), seconds, deadline):
        inp = inputs[j]
        got = rep(ledger, inp, deadline,
                  f"run {ledger.attempted + 1} (input {j})")
        wall, outcome = (got[0], got[2]) if got is not None else (0, None)
        del got  # free the run's objects before probing
        gc.collect()
        if rss is None:
            # Read before the first probe, whose working set would
            # otherwise set the high-water mark.
            rss = peak_rss_mb(wl.shards)
            # The first fresh process can meet colder file and module caches
            # than the rest: a warm-up, not counted.
            probe_setup(wl.name, inputs[0].params)
        # Set-up probes go between the runs, so that they sample the host
        # over the same span of time as the runs do.
        setups.append(probe_setup(wl.name, inputs[0].params))
        after = hostspeed.probe() if scaled else 1.0
        if outcome is not None:
            raw.append(wall)
            runs.append((inp, hostspeed.scale(wall, before or after, after)
                         if scaled else wall, outcome))
        before = after
    if raw and scaled:
        log(f"  wall median {statistics.median(raw):.4f} s as measured, "
            f"{statistics.median(w for _, w, _ in runs):.4f} s at the "
            "reference host speed")

    errors = [1.0]
    if wl.shards > 1:
        runs, errors = against_single_shard(wl, ledger, inputs, runs,
                                            deadline)
    if not runs:
        return ledger, None
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(wl.name, inputs[0].params))
    log(f"  setup probes: {' '.join(f'{s:.4f}' for s in setups)}")
    metrics = {
        "wall_s": statistics.median(wall for _, wall, _ in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "virtual_error_factor": statistics.median(errors),
    }
    return ledger, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def against_single_shard(wl, ledger, inputs, runs, deadline):
    """Check each sharded run's digest against its input's single-shard
    run; return the passing runs and each input's virtual error factor."""
    errors = []
    for j, inp in enumerate(inputs):
        if inp.first is None:
            continue
        try:
            _, ref = timed(lambda: wl.reference(inp.prep, inp.oracle),
                           deadline)
        except Exception as exc:  # noqa: BLE001 - no reference: unverifiable
            log(f"  input {j} single-shard reference: FAILED "
                f"{type(exc).__name__}: {exc}")
            ref = None
        else:
            log(f"  input {j} single-shard reference: makespan "
                f"{ref.makespan}  digest {ref.digest[:16]}")
            ms, ref_ms = float(inp.first.makespan), float(ref.makespan)
            errors.append(1.0 + abs(ms - ref_ms) / ref_ms)
            log(f"  input {j} virtual_error_pct {100 * (errors[-1] - 1):.4f}")
        bad = [r for r in runs if r[0] is inp
               and (ref is None or r[2].digest != ref.digest)]
        if bad:
            log(f"  {len(bad)} run(s) of input {j}: digest not verified "
                "against the single-shard run")
            ledger.failed += len(bad)
            runs = [r for r in runs if r not in bad]
    return runs, errors


def measure_traced(wl, seed: int, seconds: float, deadline: float):
    """Untraced and traced runs alternating, on the run's first input: the
    per-layer split."""
    from perfbench import layers
    from perfbench.workloads import CheckFailed

    inp = run_inputs(wl, seed)[0]
    ledger = Ledger(wl)
    plain, traced, splits = [], [], []
    for _ in schedule(1, seconds, deadline):
        got = rep(ledger, inp, deadline, "untraced run")
        if got is not None:
            plain.append(got[0])
        del got
        if wl.shards > 1:
            # Spans inside shard processes are not recorded: the split of a
            # sharded run comes from its shard counters.
            got = rep(ledger, inp, deadline, "traced run")
            if got is not None:
                traced.append(got[0])
                splits.append(layers.shard_split(got[1], got[0]))
        else:
            tracer = layers.LayerTracer()
            with tracer:
                got = rep(ledger, inp, deadline, "traced run")
            if got is not None:
                wall, result, _ = got
                idle = tracer.uncalled(layers.ENTRY_POINTS)
                log(f"  entry points not called: {', '.join(idle) or '-'}")
                problems = layers.counter_mismatches(tracer, result)
                problems += [f"entry point never called: {k}"
                             for k in tracer.uncalled(wl.traced_entry_points)]
                if problems:
                    ledger.fail("traced run checks",
                                CheckFailed("; ".join(problems)))
                else:
                    traced.append(wall)
                    splits.append(layers.split(tracer, result, wall))
        del got
    if not traced or not plain:
        return ledger, None
    metrics = {k: statistics.median(s[k] for s in splits)
               for k in layers.PER_LAYER}
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(plain) - 1.0)
    return ledger, {k: (v, layers.PER_LAYER[k][0]) for k, v in metrics.items()}


def profile(wl, seed: int, deadline: float) -> dict:
    """Self time of one run folded by ``repro.<pkg>.<module>``."""
    import cProfile
    import pstats
    import tempfile

    prep = wl.setup(wl.inputs(seed)[0])
    prof = cProfile.Profile()
    with tempfile.TemporaryDirectory() as tmp:
        with profiled_shards(wl.shards, Path(tmp)):
            wall, _ = timed(lambda: _profiled(prof, prep.run), deadline)
        stats = [pstats.Stats(prof)]
        stats += [pstats.Stats(str(p)) for p in sorted(Path(tmp).iterdir())]
    fold: dict = {}
    for st in stats:
        for (filename, _, _), (_, _, tottime, _, _) in st.stats.items():
            key = module_of(filename)
            fold[key] = fold.get(key, 0.0) + tottime
    total = sum(fold.values())
    return {"wall_s": wall, "processes": len(stats),
            "self_share": {k: round(v / total, 4) for k, v in sorted(
                fold.items(), key=lambda kv: -kv[1]) if v / total >= 0.001}}


def _profiled(prof, run):
    prof.enable()
    try:
        return run()
    finally:
        prof.disable()


@contextlib.contextmanager
def profiled_shards(shards: int, out: Path):
    """Profile each forked shard process too, writing one stats file per
    shard into ``out``."""
    if shards < 2:
        yield
        return
    import cProfile

    from repro.exec import shards as shards_mod

    original = shards_mod._shard_child_main

    def child_main(*args):
        prof = cProfile.Profile()
        prof.enable()
        try:
            original(*args)
        finally:
            prof.disable()
            prof.dump_stats(str(out / f"shard-{args[4]}.pstats"))

    shards_mod._shard_child_main = child_main
    try:
        yield
    finally:
        shards_mod._shard_child_main = original


def module_of(filename: str) -> str:
    path = Path(filename)
    try:
        rel = path.resolve().relative_to(ROOT / "src")
    except (ValueError, OSError):
        if filename.startswith("~") or filename.startswith("<"):
            return "builtins"
        parts = path.parts
        for anchor in ("site-packages", "dist-packages"):
            if anchor in parts:
                return f"ext.{parts[parts.index(anchor) + 1]}"
        return "stdlib" if "python3" in filename else "other"
    mod = ".".join(rel.with_suffix("").parts)
    return mod[:-len(".__init__")] if mod.endswith(".__init__") else mod


def emit(ledger, metrics) -> int:
    for name, (value, unit) in metrics.items():
        log(f"  {name:32s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


def run_json(args):
    """Run this benchmark in a fresh process with ``args``; return its
    result line, or None (after echoing its output) if it printed none."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=BUDGET_S + 30)
    try:
        return json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        return None


def run_all(args) -> int:
    """Every workload in its own process; one table, one combined result."""
    from perfbench.workloads import WORKLOADS

    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        res = run_json(["--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace)])
        if res is None:
            log(f"{name}: no result")
            return 2
        attempted += res["attempted"]
        failed += res["failed"]
        log(f"{name}: {res['attempted']} runs, {res['failed']} failed")
        for k, m in res["metrics"].items():
            log(f"  {k:32s} {m['value']:14.6f} {m['unit']}")
            metrics[f"{name}/{k}"] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", action="store_true",
                    help="one run under cProfile; print the module fold")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--params", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        t0 = time.perf_counter()
        from perfbench.workloads import WORKLOADS

        WORKLOADS[args.workload].setup(json.loads(args.params))
        print(time.perf_counter() - t0)
        return 0

    try:
        import repro
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import the program: {exc}\n")
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"error: repro imported from {repro.__file__}, "
                         f"not from {ROOT / 'src'}\n")
        return 2
    from perfbench.workloads import WORKLOADS

    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{sorted(WORKLOADS)} or 'all'")
    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + BUDGET_S
    if args.profile:
        print(json.dumps(profile(wl, args.seed, deadline)), flush=True)
        return 0
    measure_fn = measure_traced if args.trace else measure
    ledger, metrics = measure_fn(wl, args.seed, args.seconds, deadline)
    if metrics is None:
        sys.stderr.write(f"error: no {wl.name} run passed its checks\n")
        return 2
    return emit(ledger, metrics)


if __name__ == "__main__":
    # Import the benchmark as a package and the program from this checkout.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    sys.exit(main())
