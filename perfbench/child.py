"""One benchmark run, in its own interpreter.

    python3 perfbench/child.py MODE WORKLOAD SEED

``MODE`` is one of

* ``plain``  -- the run with only the event loop wrapped: host set-up
  time (importing ``repro.distributed``, building the cluster and the
  strategy, up to the first simulated event), loop wall time and peak
  resident memory;
* ``traced`` -- the same run under the layer tracer (:mod:`tracer`);
* ``counts`` -- the same run with ``telemetry=True``, for the program's
  own counters, the simulated-time breakdown, and per-round digests of
  every worker's ``apply_update`` argument.

The run is bounded: after :data:`DEADLINE_S` seconds the simulation is
interrupted, and its address space is capped at :data:`MEMORY_LIMIT`, so
a run that stalls or grows without bound ends as a failed run.  Every
mode installs a :class:`tracer.Tracer`; its event-loop entry marks the
first simulated event.  Replicas' final
weights are compared bitwise.

The record is printed as one JSON line.  A run that raises or overruns
records only ``error``, with no timings.  The exit code is 1 only when no
record could be made.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import ITERATIONS, config_fields  # noqa: E402

MODES = ("plain", "traced", "counts")
#: Wall seconds after which a run is interrupted.  A normal run of any
#: workload takes 1-3 s on a 2-core x86-64 host.
DEADLINE_S = 10.0
#: Address-space cap of a child; a normal run peaks below 160 MB.
MEMORY_LIMIT = 1 << 30


class DeadlineExceeded(BaseException):
    """Raised inside the simulation when the run's deadline passes.

    A ``BaseException`` so that no ``except Exception`` in the program
    can swallow it.
    """


@contextlib.contextmanager
def _deadline(seconds: float):
    def expire(signum, frame):
        raise DeadlineExceeded(f"deadline of {seconds:g} s exceeded")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _replica_check(workers) -> dict:
    import numpy as np

    weights = [w.algorithm.get_weights() for w in workers]
    first = weights[0]
    identical = all(
        w.dtype == first.dtype and w.tobytes() == first.tobytes()
        for w in weights[1:]
    )
    max_diff = max(
        (float(np.max(np.abs(w - first))) for w in weights[1:]), default=0.0
    )
    return {"replicas_identical": identical, "replica_max_diff": max_diff}


def _round_divergence(digests: dict) -> dict:
    """Rounds in which the workers applied different updates."""
    streams = list(digests.values())
    rounds = max((len(s) for s in streams), default=0)
    diverged = [
        r
        for r in range(rounds)
        if len({s[r] if r < len(s) else None for s in streams}) > 1
    ]
    return {
        "rounds.diverged": len(diverged),
        "first_diverged_round": diverged[0] if diverged else None,
    }


def _telemetry_counts(snap, workers, digests) -> dict:
    import numpy as np

    waits = np.array(
        [s.end - s.start for s in snap.spans_named("grad.aggregation")]
    )
    iterations = sum(w.breakdown.iterations for w in workers) or 1
    per_iter = {
        component: sum(w.breakdown.totals[component] for w in workers)
        / iterations
        for component in workers[0].breakdown.totals
    }
    aggregation = per_iter.pop("grad_aggregation")
    update = per_iter.pop("weight_update")
    record = {
        "loop.events": snap.value("sim.events_processed"),
        "link.drops": snap.value("link.packets_dropped"),
        "accel.dup_drops": snap.value("switch.duplicates_dropped"),
        "client.rounds": snap.value("client.rounds_completed"),
        "client.retransmits": snap.value("client.retransmissions"),
        "sim.compute_ms": sum(per_iter.values()) * 1e3,
        "sim.aggregation_ms": aggregation * 1e3,
        "sim.update_ms": update * 1e3,
        "sim.agg_latency_p50_us": (
            float(np.percentile(waits, 50)) * 1e6 if waits.size else 0.0
        ),
        "sim.agg_latency_p99_us": (
            float(np.percentile(waits, 99)) * 1e6 if waits.size else 0.0
        ),
    }
    record.update(_round_divergence(digests))
    return record


def run_once(
    mode: str, workload: str, seed: int, iterations=ITERATIONS,
    deadline=DEADLINE_S,
) -> dict:
    """Run one workload once in this process and return its record."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    fields = config_fields(workload, seed, iterations)
    fields["telemetry"] = mode == "counts"
    import_start = time.perf_counter()
    from repro.distributed import ExperimentConfig, run

    import tracer as layer_tracer

    entries = {
        "plain": [layer_tracer.LOOP_ENTRY],
        "traced": layer_tracer.LAYERS,
        "counts": [layer_tracer.LOOP_ENTRY, layer_tracer.DIGEST_ENTRY],
    }[mode]
    record = {"mode": mode}
    with layer_tracer.Tracer(entries) as tracer:
        config = ExperimentConfig(**fields)
        try:
            with _deadline(deadline):
                result = tracer.root(run, config)
        except (Exception, DeadlineExceeded) as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            return record
        end = time.perf_counter()
    loop_start = tracer.marks["loop_start"]
    record.update(
        iterations=iterations,
        peak_rss_mb=_peak_rss_mb(),
        setup_s=loop_start - import_start,
        loop_s=end - loop_start,
        wall_s=tracer.root_s,
        sim_iter_ms=result.per_iteration_time * 1e3,
    )
    if mode == "traced":
        record.update(
            self_s=dict(tracer.self_time),
            counts=dict(tracer.counts),
            help_rounds=len(tracer.help_rounds),
        )
    elif mode == "counts":
        record["counts"] = _telemetry_counts(
            result.telemetry, result.workers, tracer.digests
        )
    record.update(_replica_check(result.workers))
    return record


def main(argv) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    try:
        mode, workload, seed = argv[0], argv[1], int(argv[2])
        record = run_once(mode, workload, seed)
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
