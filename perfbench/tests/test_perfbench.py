"""The benchmark's own checks, at a small scale of each workload.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import layers, run
from perfbench.workloads import (
    WORKLOADS,
    CheckFailed,
    IsxFlat,
    IsxSharded,
    Outcome,
    UtsHiper,
)

ROOT = Path(__file__).resolve().parents[2]

SMALL = {
    "isx-flat": IsxFlat(nodes=1, keys_per_pe=256),
    "uts-hiper": UtsHiper(nodes=2, tree_nodes=4000, subseeds=2),
    "isx-sharded": IsxSharded(nodes=16, keys_per_pe=16),
}
SINGLE_SHARD = [name for name, wl in SMALL.items() if wl.shards == 1]


def prepared(name, seed=0):
    wl = SMALL[name]
    prep = wl.setup(wl.inputs(seed)[0])
    return wl, prep, wl.oracle(prep)


@pytest.mark.parametrize("name", list(SMALL))
def test_runs_repeat_and_pass_the_oracle(name):
    wl, prep, oracle = prepared(name)
    first = wl.check(prep, oracle, prep.run())
    assert wl.check(prep, oracle, prep.run()) == first
    ref = wl.reference(prep, oracle)
    if wl.shards > 1:
        assert ref.digest == first.digest


@pytest.mark.parametrize("name", list(SMALL))
def test_a_second_seed_gives_other_inputs_that_pass(name):
    wl = SMALL[name]
    assert wl.inputs(0) != wl.inputs(1)
    outcomes = []
    for seed in (0, 1):
        _, prep, oracle = prepared(name, seed)
        outcomes.append(wl.check(prep, oracle, prep.run()))
    assert outcomes[0].digest != outcomes[1].digest


def _corrupt_isx(results):
    results[3] = results[3].copy()
    results[3][0] += 1


def _corrupt_uts(results):
    results[0] += 1


def _corrupt_sharded(results):
    count, _ = results[5]
    results[5] = (count, "0" * 16)


@pytest.mark.parametrize("name,corrupt", [
    ("isx-flat", _corrupt_isx),
    ("uts-hiper", _corrupt_uts),
    ("isx-sharded", _corrupt_sharded),
])
def test_a_corrupted_result_fails_the_check(name, corrupt):
    wl, prep, oracle = prepared(name)
    result = prep.run()
    wl.check(prep, oracle, result)
    corrupt(result.results)
    with pytest.raises(CheckFailed):
        wl.check(prep, oracle, result)


def test_a_corrupted_digest_or_makespan_fails_the_run_checks():
    good = Outcome("0.5", "ab" * 32)
    inp = SimpleNamespace(first=None, expected=None)
    run.admit(inp, good)
    run.admit(inp, good)
    with pytest.raises(CheckFailed, match="not deterministic"):
        run.admit(inp, Outcome(good.makespan, "cd" * 32))
    with pytest.raises(CheckFailed, match="not deterministic"):
        run.admit(inp, Outcome("0.50000001", good.digest))

    exp = run.committed("isx-flat")
    run.admit(SimpleNamespace(first=None, expected=exp),
              Outcome(exp["makespan"], exp["digest"]))
    with pytest.raises(CheckFailed, match="digest"):
        run.admit(SimpleNamespace(first=None, expected=exp),
                  Outcome(exp["makespan"], "cd" * 32))
    with pytest.raises(CheckFailed, match="makespan"):
        run.admit(SimpleNamespace(first=None, expected=exp),
                  Outcome("0.5", exp["digest"]))


def test_every_workload_has_committed_values():
    for name, wl in WORKLOADS.items():
        exp = run.committed(name)
        assert len(exp["digest"]) == 64
        assert ("makespan" in exp) == (wl.shards == 1)


@pytest.mark.parametrize("name", SINGLE_SHARD)
def test_traced_run_equals_untraced_and_counts_match(name):
    wl, prep, oracle = prepared(name)
    plain = wl.check(prep, oracle, prep.run())
    tracer = layers.LayerTracer()
    with tracer:
        result = prep.run()
    assert wl.check(prep, oracle, result) == plain
    assert layers.counter_mismatches(tracer, result) == []
    assert tracer.uncalled(wl.traced_entry_points) == []
    split = layers.split(tracer, result, wall=10.0)
    assert set(split) == set(layers.PER_LAYER)
    assert split["exec.sim.events"] == result.executor.events_processed > 0
    assert split["other.self_s"] > 0


def test_counter_check_catches_a_missed_count():
    wl, prep, oracle = prepared("isx-flat")
    tracer = layers.LayerTracer()
    with tracer:
        result = prep.run()
    tracer.counts["eventq.pops"] -= 1
    assert any("events_processed" in p
               for p in layers.counter_mismatches(tracer, result))


def test_tracer_restores_every_wrapped_name():
    def current():
        return [vars(layers.resolve(owner, attr))[attr]
                for _, owner, attr, _, _ in layers.ENTRY_POINTS.values()]

    before = current()
    with layers.LayerTracer():
        assert all(a is not b for a, b in zip(current(), before))
    assert current() == before


def test_deep_help_until_ready_nesting_survives_the_wrappers():
    from repro.distrib.spmd import ClusterConfig, spmd_run
    from repro.exec.sim import SimExecutor
    from repro.runtime.api import async_future

    depth = SimExecutor.MAX_HELP_DEPTH - 100

    def nest(d):
        if d == 0:
            return 0
        return async_future(lambda: nest(d - 1)).wait() + 1

    tracer = layers.LayerTracer()
    with tracer:
        res = spmd_run(lambda ctx: nest(depth), ClusterConfig())
    assert res.results == [depth]
    assert tracer.calls("exec.sim:SimExecutor.block_until") == depth


def test_uts_goes_through_same_size_trees_starting_at_the_preset():
    from repro.apps import presets
    from repro.apps.uts.common import sequential_count

    wl = UtsHiper(subseeds=3, tree_nodes=2000)
    first, second = wl.inputs(0), wl.inputs(1)
    assert len(first) == 3
    assert {p["tree_seed"] for p in first}.isdisjoint(
        p["tree_seed"] for p in second)
    for params in first + second:
        cfg = wl.setup(params).config
        assert 2000 <= sequential_count(cfg)
        fewer = dataclasses.replace(cfg, root_children=cfg.root_children - 1)
        assert sequential_count(fewer) < 2000
    default = WORKLOADS["uts-hiper"].inputs(0)[0]
    assert (default["tree_seed"], default["root_children"]) == \
        (presets.uts_t1xxl().seed, presets.uts_t1xxl().root_children)


@pytest.mark.parametrize("name", list(SMALL))
def test_measure_reports_every_end_to_end_metric(name):
    ledger, metrics = run.measure(SMALL[name], 1, seconds=0,
                                  deadline=time.monotonic() + 120)
    assert (ledger.failed, set(metrics)) == (0, set(run.END_TO_END))
    assert ledger.attempted >= max(3, SMALL[name].subseeds + 1)
    assert (metrics["virtual_error_factor"][0] > 1.0) == \
        (SMALL[name].shards > 1)


@pytest.mark.parametrize("name", list(SMALL))
def test_measure_traced_reports_every_per_layer_metric(name):
    ledger, metrics = run.measure_traced(SMALL[name], 1, seconds=0,
                                         deadline=time.monotonic() + 120)
    assert (ledger.failed, set(metrics)) == (0, set(layers.PER_LAYER))


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == \
        [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == layers.PER_LAYER


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "isx-flat",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_host_speed_probe_scales_and_leaves_gc_as_it_was():
    import gc

    from perfbench import hostspeed

    assert gc.isenabled()
    assert hostspeed.probe() > 0
    assert gc.isenabled()
    assert hostspeed.scale(2.0, hostspeed.REFERENCE_S,
                           hostspeed.REFERENCE_S) == 2.0
    assert hostspeed.scale(2.0, 0.1, 0.3) == pytest.approx(
        2.0 * hostspeed.REFERENCE_S / 0.2)


@pytest.mark.xfail(strict=True, reason=(
    "UTS AsyncSHMEM terminates early on some schedules: sub-seed 72 (tree "
    "seed 73, root fan-out 3737, cluster seed 72) counts 45,226 of 106,110 "
    "nodes. The benchmark counts such runs as failed."))
def test_uts_hiper_counts_every_node_of_sub_seed_72():
    wl = WORKLOADS["uts-hiper"]
    prep = wl.setup(wl.params(72))
    wl.check(prep, wl.oracle(prep), prep.run())
