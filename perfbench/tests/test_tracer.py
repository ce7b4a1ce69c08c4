"""Tests for the benchmark's layer tracer and run checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import child
import run as bench
import tracer
from workloads import WORKLOADS, input_seeds

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
ITERATIONS = 4


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


@pytest.fixture(scope="module")
def traced():
    """One short traced run per workload."""
    return {
        name: child.run_once("traced", name, 7, ITERATIONS) for name in WORKLOADS
    }


@pytest.mark.parametrize("entry", tracer.LAYERS, ids=lambda e: f"{e.layer}:{e.owner}")
def test_every_entry_point_exists(entry):
    with tracer.Tracer([entry]) as t:
        assert t._undo, f"{entry} patched nothing"
    assert not t._undo


@pytest.mark.parametrize(
    "entry",
    [
        tracer.Entry("loop", "repro.netsim.events", "Simulator", ("go",)),
        tracer.Entry("loop", "repro.netsim.events", "NoSuchSimulator", ("run",)),
        tracer.Entry("coll", "repro.distributed.transport", None, ("send_it",)),
    ],
)
def test_renamed_entry_point_fails_loudly(entry):
    from repro.netsim.events import Simulator

    original = vars(Simulator)["run"]
    with pytest.raises(tracer.TracerError, match="not found"):
        tracer.Tracer([tracer.LAYERS[0], entry]).install()
    assert vars(Simulator)["run"] is original, "partial install not undone"


def test_from_imports_are_patched_where_used():
    from repro.distributed import runner, transport
    from repro.distributed.collectives import ps

    build_cluster = runner.build_cluster
    send_vector = transport.send_vector
    assert ps.send_vector is send_vector
    with tracer.Tracer():
        assert runner.build_cluster is not build_cluster
        assert ps.send_vector is not send_vector
        for module in _repro_modules():
            for value in vars(module).values():
                assert value is not build_cluster and value is not send_vector
    assert runner.build_cluster is build_cluster
    assert ps.send_vector is send_vector


def test_classmethod_wrapper_keeps_binding():
    from repro.distributed.sync import SyncISwitch, SyncStrategy

    with tracer.Tracer():
        assert isinstance(vars(SyncStrategy)["create"], classmethod)
        assert SyncISwitch.create.__self__ is SyncISwitch


def test_nested_spans_split_self_time():
    ticks = iter(range(100))
    t = tracer.Tracer([], clock=lambda: next(ticks))
    entry = tracer.Entry("outer", "m", None, ("f",))
    inner = t._wrap(lambda: None, tracer.Entry("inner", "m", None, ("g",)), "g")
    outer = t._wrap(lambda: inner(), entry, "f")
    t.root(outer)
    # root 0..5, outer 1..4, inner 2..3
    assert dict(t.self_time) == {"inner": 1, "outer": 2, "run": 2}
    assert t.root_s == 5


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_self_times_sum_to_traced_wall(traced, workload):
    record = traced[workload]
    total = sum(record["self_s"].values())
    assert total == pytest.approx(record["wall_s"], rel=0.01)
    assert set(record["self_s"]) <= {*tracer.LAYER_NAMES, "run"}


def test_predicted_zeros(traced):
    def layer(workload, name):
        record = traced[workload]
        counts = {k: v for k, v in record["counts"].items() if k.startswith(name)}
        return record["self_s"].get(name, 0.0), counts

    isw = ("synth-isw-n8", "ppo-isw-n4", "lossy-int32-isw-n4")
    for name in ("accel", "client"):
        assert layer("synth-ps-n8", name) == (0.0, {})
        for workload in isw:
            assert layer(workload, name)[0] > 0
    for workload in WORKLOADS:
        seconds, counts = layer(workload, "codec")
        if workload == "lossy-int32-isw-n4":
            assert seconds > 0 and counts["codec.calls"] > 0
        else:
            assert (seconds, counts) == (0.0, {})
    for workload in isw:
        seconds, counts = layer(workload, "coll")
        assert counts == {}
        assert seconds <= 0.01 * traced[workload]["wall_s"]
    assert layer("synth-ps-n8", "coll")[1]["coll.chunks"] > 0
    assert layer("ppo-isw-n4", "env")[1]["env.steps"] > 0
    for workload in WORKLOADS:
        for name in ("loop", "link", "fwd", "grad", "optim", "setup"):
            assert layer(workload, name)[0] > 0, (workload, name)


def test_counts_run_digests_every_round():
    record = child.run_once("counts", "synth-isw-n8", 7, ITERATIONS)
    assert record["counts"]["rounds.diverged"] == 0
    assert record["counts"]["first_diverged_round"] is None
    assert record["counts"]["loop.events"] > 0
    assert record["replicas_identical"]


def test_stopped_run_fails_without_timings():
    from repro.netsim.events import Simulator

    original = vars(Simulator)["run"]
    record = child.run_once("plain", "synth-isw-n8", 7, 1000, deadline=0.5)
    assert record == {"mode": "plain",
                      "error": "DeadlineExceeded: deadline of 0.5 s exceeded"}
    assert vars(Simulator)["run"] is original, "tracer not uninstalled"


def test_plain_run_marks_the_first_simulated_event():
    record = child.run_once("plain", "lossy-int32-isw-n4", 7, ITERATIONS)
    assert record["replicas_identical"]
    assert 0 < record["setup_s"] and 0 < record["loop_s"] < record["wall_s"]
    assert record["iterations"] == ITERATIONS and record["sim_iter_ms"] > 0


def test_end_to_end_takes_sim_iter_ms_per_input():
    def plain(seed, sim_iter_ms, rate, setup_s=0.3):
        return {"mode": "plain", "seed": seed, "iterations": 60,
                "loop_s": 60 / rate, "setup_s": setup_s, "peak_rss_mb": 70.0,
                "sim_iter_ms": sim_iter_ms, "host_speed": 0.5}

    records = [plain(0, 9.0, 1.0)] + [
        plain(0, 1.0, 30.0), plain(0, 1.0, 32.0), plain(0, 1.0, 31.0),
        plain(1, 2.0, 29.0, 0.2), plain(2, 4.0, 33.0),
        {"mode": "plain", "seed": 3, "error": "DeadlineExceeded: ..."},
    ]
    values = bench.end_to_end(records)
    assert values["sim_iter_ms"] == 2.0
    assert values["raw iters_per_s"] == pytest.approx(31.0)
    assert values["iters_per_s"] == pytest.approx(62.0)
    assert values["raw setup_s"] == pytest.approx(0.3)
    assert values["setup_s"] == pytest.approx(0.15)
    with pytest.raises(RuntimeError):
        bench.end_to_end(records[:1] + records[-1:])


def test_input_seeds_are_disjoint():
    assert set(input_seeds(0)).isdisjoint(input_seeds(1))
    assert input_seeds(7) == input_seeds(7)


def test_round_divergence_names_first_round():
    same = [(1, "<f8", (3,))] * 3
    digests = {1: same, 2: same[:1] + [(9, "<f8", (3,))] + same[2:], 3: same}
    assert child._round_divergence(digests) == {
        "rounds.diverged": 1,
        "first_diverged_round": 1,
    }


def test_replica_check_is_bitwise():
    import numpy as np

    def workers(*vectors):
        return [
            types.SimpleNamespace(
                algorithm=types.SimpleNamespace(get_weights=lambda v=v: v)
            )
            for v in vectors
        ]

    a = np.array([0.0, 1.0])
    assert child._replica_check(workers(a, a.copy()))["replicas_identical"]
    b = np.array([-0.0, 1.0])  # equal by value, not bitwise
    assert not child._replica_check(workers(a, b))["replicas_identical"]


def test_check_runs_counts_each_failure_once():
    ok = {"mode": "plain", "seed": 4, "replicas_identical": True,
          "sim_iter_ms": 1.5}
    records = [
        dict(ok),
        dict(ok),
        dict(ok, seed=5, sim_iter_ms=1.25),
        dict(ok, sim_iter_ms=1.25),
        dict(ok, replicas_identical=False, replica_max_diff=1e-3),
        {"mode": "plain", "seed": 4, "error": "Traceback\nValueError: boom"},
    ]
    reasons = bench.check_runs(records)
    assert len(reasons) == 3
    assert "input 4: sim_iter_ms 1.25 differs from 1.5" in reasons[0]
    assert "replicas" in reasons[1]
    assert reasons[2].endswith("ValueError: boom")


def test_benchmark_json_matches_the_benchmark():
    spec = bench.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    result = bench.bench_workload("synth-isw-n8", 7, 0, True, spec)
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert result["correct"] and result["failed"] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-isw-n8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
