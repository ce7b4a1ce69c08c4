"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run of the simulator happens in a
child interpreter of its own (:mod:`child`), one at a time, with BLAS
pinned to one thread, a deadline and a memory cap.  A run that raises or
overruns counts as failed and is left out of the timing medians.

This process and its runs share one CPU.  ``iters_per_s`` and
``setup_s`` are reported at a reference host speed: this process
measures the host's speed with a fixed task (:func:`calibrate`) before
the first run and after every run, and scales each run's timings by the
speed around it.  The raw medians and the host speed are printed too.

``--seed N`` stands for the eight inputs ``8N .. 8N+7``
(:func:`workloads.input_seeds`).  ``--trace 0`` reports the end-to-end
metrics: one warm-up run, then timed runs cycling over the inputs until
``--seconds`` have passed; rates, set-up times and memory are medians
over the timed runs, and ``sim_iter_ms`` is the median over the inputs.
Several inputs keep one input on which the program misbehaves from
deciding the figures.  ``--trace 1`` reports the per-layer metrics of the
first input: one ``telemetry=True`` run for the program's counters, then
traced and untraced runs in turn; the layer ledger comes from the traced
run with the median wall time.

Every run is checked: replicas' final weights must be bitwise identical
and ``sim_iter_ms`` must equal that of every other run of its input in
the invocation (so the second check covers only inputs run more than
once; each input's value is printed for comparison across invocations).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print the
same metrics by name with their units, plus ``error_rate``.
``--workload all`` runs every workload in turn.  README.md documents the
workloads, the layers and the known defects.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)

from child import DEADLINE_S  # noqa: E402
from tracer import LAYER_NAMES  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    HELD_OUT_SEED,
    INPUTS_PER_SEED,
    WORKLOADS,
    input_seeds,
)

#: A child still running this long after its own deadline is killed.
CHILD_KILL_S = DEADLINE_S + 30.0
#: No child runs past this much of one workload's invocation, so the
#: process ends well inside three minutes even when every run stalls.
INVOCATION_BUDGET_S = 150.0
#: Timed runs made however short ``--seconds`` is: one per input.
MIN_TIMED_RUNS = INPUTS_PER_SEED
#: Seconds of :func:`calibrate` between two runs.
CALIBRATION_S = 0.25
#: :func:`calibrate` rounds per second on the reference host (a 2-core
#: x86-64 VM at its median speed); timings are reported at this speed.
REFERENCE_SPEED = 1300.0

#: Counts taken from the traced run's wrappers.
TRACED_COUNTS = (
    "link.packets", "link.trains", "fwd.packets", "accel.segments",
    "accel.completions", "accel.force_bcasts", "client.help", "coll.chunks",
    "codec.calls", "codec.elems", "env.steps", "grad.calls", "optim.steps",
)
#: Counts and simulated-time figures taken from the ``telemetry=True`` run.
TELEMETRY_COUNTS = (
    "loop.events", "link.drops", "accel.dup_drops", "client.rounds",
    "client.retransmits", "sim.compute_ms", "sim.aggregation_ms",
    "sim.update_ms", "sim.agg_latency_p50_us", "sim.agg_latency_p99_us",
    "rounds.diverged",
)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _calibration_round(scratch) -> int:
    heap, table, total = [], {}, 0
    for i in range(500):
        node = _Node((i * 7919) % 1009, i)
        heapq.heappush(heap, (node.key, i, node))
        table[i] = node
    while heap:
        _, i, node = heapq.heappop(heap)
        total += table.pop(i).value
    np.multiply(scratch[0], 0.5, out=scratch[1])
    np.add(scratch[1], scratch[0], out=scratch[1])
    return total


def calibrate(seconds: float = CALIBRATION_S) -> float:
    """Rounds per second of a fixed task that shares no code with the
    program: the host's speed at this moment.

    The host's speed drifts by 10-30 % over minutes (other tenants, clock
    changes); dividing a run's rate by the speed measured just before and
    after it removes most of that drift from the reported timings.
    """
    scratch = np.ones((2, 24_000))
    enabled = gc.isenabled()
    gc.disable()
    try:
        rounds = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            _calibration_round(scratch)
            rounds += 1
        return rounds / (time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()


def run_child(mode: str, workload: str, seed: int, timeout: float) -> dict:
    """Run one child to completion or deadline and return its record."""
    command = [sys.executable, os.path.join(HERE, "child.py"), mode,
               workload, str(seed)]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=timeout,
            env=child_env(), cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "seed": seed,
                "error": f"killed after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    if proc.returncode != 0:
        record.setdefault("error", f"exit {proc.returncode}")
    record.update(mode=mode, seed=seed)
    return record


def check_runs(records: list) -> list:
    """Mark each record's failures; returns the reasons, one per failure.

    A run fails if it raised or overran, if its replicas' final weights
    differ bitwise, or if its ``sim_iter_ms`` differs from the value most
    runs of its input report.
    """
    reference = _sim_iter_ms_by_input(records)
    reasons = []
    for record in records:
        if "error" in record:
            why = record["error"].strip().splitlines()[-1]
        elif not record["replicas_identical"]:
            why = (
                "replicas' final weights differ (max |diff| "
                f"{record['replica_max_diff']:.3g})"
            )
        elif record["sim_iter_ms"] != reference[record["seed"]]:
            why = (
                f"sim_iter_ms {record['sim_iter_ms']!r} differs from "
                f"{reference[record['seed']]!r} of the other runs"
            )
        else:
            continue
        record["failure"] = why
        reasons.append(f"{record['mode']} run, input {record['seed']}: {why}")
    return reasons


def run_loop(workload, seeds, seconds, started, first_mode, modes) -> list:
    """One ``first_mode`` run, then ``modes`` and ``seeds`` in turn for
    ``seconds``."""
    def timeout() -> float:
        return min(CHILD_KILL_S,
                   started + INVOCATION_BUDGET_S - time.monotonic())

    speeds = [calibrate()]

    def measured(record: dict) -> dict:
        speeds.append(calibrate())
        record["host_speed"] = (speeds[-2] + speeds[-1]) / 2 / REFERENCE_SPEED
        return record

    records = [measured(run_child(first_mode, workload, seeds[0], timeout()))]
    timed_start = time.monotonic()
    turn = 0
    while timeout() > 0 and (
        time.monotonic() - timed_start < seconds or turn < MIN_TIMED_RUNS
    ):
        records.append(measured(run_child(
            modes[turn % len(modes)], workload, seeds[turn % len(seeds)],
            timeout(),
        )))
        turn += 1
    return records


def _sim_iter_ms_by_input(records: list) -> dict:
    """Each input's ``sim_iter_ms``: the value most of its runs report."""
    values = {}
    for record in records:
        if "sim_iter_ms" in record:
            values.setdefault(record["seed"], []).append(record["sim_iter_ms"])
    return {
        seed: Counter(v).most_common(1)[0][0] for seed, v in values.items()
    }


def end_to_end(records: list) -> dict:
    """Medians over the timed runs that ended; runs that raised or
    overran have no timings."""
    timed = [r for r in records[1:] if "loop_s" in r]
    if not timed:
        raise RuntimeError("every timed run raised or overran")
    return {
        "iters_per_s": statistics.median(
            r["iterations"] / r["loop_s"] / r["host_speed"] for r in timed
        ),
        "raw iters_per_s": statistics.median(
            r["iterations"] / r["loop_s"] for r in timed
        ),
        "setup_s": statistics.median(
            r["setup_s"] * r["host_speed"] for r in timed
        ),
        "raw setup_s": statistics.median(r["setup_s"] for r in timed),
        "host_speed": statistics.median(r["host_speed"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "sim_iter_ms": statistics.median(
            _sim_iter_ms_by_input(timed).values()
        ),
    }


def per_layer(records: list, layer_names) -> dict:
    counted = records[0]
    traced = sorted(
        (r for r in records if r["mode"] == "traced" and "self_s" in r),
        key=lambda r: r["wall_s"],
    )
    plain = [r["wall_s"] for r in records
             if r["mode"] == "plain" and "wall_s" in r]
    if "counts" not in counted or not traced or not plain:
        raise RuntimeError("the counts run, every traced run or every "
                           "untraced run stopped before measuring anything")
    median = traced[(len(traced) - 1) // 2]
    metrics = {}
    for layer in layer_names:
        key = "setup.build_s" if layer == "setup" else f"{layer}.self_s"
        metrics[key] = median["self_s"].get(layer, 0.0)
    metrics["run.self_s"] = median["self_s"].get("run", 0.0)
    metrics["trace.wall_s"] = median["wall_s"]
    metrics["trace.overhead"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(plain)
    )
    for name in TRACED_COUNTS:
        metrics[name] = median["counts"].get(name, 0)
    for name in TELEMETRY_COUNTS:
        metrics[name] = counted["counts"][name]
    events, steps = metrics["loop.events"], metrics["env.steps"]
    calls, rounds = metrics["grad.calls"], metrics["client.rounds"]
    metrics["loop.ns_per_event"] = (
        metrics["loop.self_s"] / events * 1e9 if events else 0.0
    )
    metrics["env.us_per_step"] = (
        metrics["env.self_s"] / steps * 1e6 if steps else 0.0
    )
    metrics["grad.ms_per_call"] = (
        metrics["grad.self_s"] / calls * 1e3 if calls else 0.0
    )
    metrics["client.clean_round_ratio"] = (
        (rounds - median["help_rounds"]) / rounds if rounds else 0.0
    )
    metrics["first_diverged_round"] = counted["counts"]["first_diverged_round"]
    return metrics


def bench_workload(workload: str, seed: int, seconds: float, trace: bool,
                   spec: dict) -> dict:
    started = time.monotonic()
    seeds = input_seeds(seed)
    if trace:
        records = run_loop(workload, seeds[:1], seconds, started, "counts",
                           ("traced", "plain"))
    else:
        records = run_loop(workload, seeds, seconds, started, "plain",
                           ("plain",))
    reasons = check_runs(records)
    attempted, failed = len(records), len(reasons)
    values = per_layer(records, LAYER_NAMES) if trace else end_to_end(records)
    values["error_rate"] = failed / attempted
    declared = spec["per_layer"] if trace else spec["end_to_end"]

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"runs {attempted}  ({time.monotonic() - started:.1f} s)")
    print("host " + json.dumps(host_info()))
    for reason in reasons:
        print(f"  FAILED {reason}")
    units = {m["name"]: m["unit"] for m in declared}
    units["error_rate"] = "ratio"
    if not trace:
        units.update({"raw iters_per_s": "1/s", "raw setup_s": "s",
                      "host_speed": "x"})
    for name, unit in units.items():
        print(f"  {name:<26} {values[name]!r:>24} {unit}")
    if not trace:
        print("  sim_iter_ms by input: "
              + json.dumps(_sim_iter_ms_by_input(records)))
    if trace:
        ledger = sum(
            v for k, v in values.items()
            if k.endswith(".self_s") or k == "setup.build_s"
        )
        print(f"  ledger: layers + run.self_s = {ledger:.6f} s, traced wall "
              f"= {values['trace.wall_s']:.6f} s; first diverged round "
              f"{values['first_diverged_round']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"held out for re-checking claims: "
                             f"{HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isdir(os.path.join(SRC, "repro", "distributed")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    # The calibration and the runs share one CPU, so they see one speed.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = load_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = bench_workload(name, args.seed, args.seconds,
                                    bool(args.trace), spec)
        except RuntimeError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
