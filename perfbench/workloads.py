"""The benchmark's workloads and seeds.

Every workload is a synchronous simulator run through the public
``run(ExperimentConfig(...))`` API with ``telemetry=False``.  Transport,
scheduler and compute path stay at the library defaults, so the benchmark
times what ``repro train`` runs.  README.md says why each one is here.

This module imports nothing from ``repro``, so ``run.py`` can validate
its arguments before it knows whether the program is present.
"""

from __future__ import annotations

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 7

#: Seed kept out of tuning: a later speed claim is re-checked on it.
HELD_OUT_SEED = 1009

#: Inputs (``ExperimentConfig.seed`` values) one benchmark seed stands for.
INPUTS_PER_SEED = 8


def input_seeds(seed: int) -> list:
    """The inputs of benchmark seed ``seed``; disjoint across seeds."""
    return [seed * INPUTS_PER_SEED + i for i in range(INPUTS_PER_SEED)]


#: Sync iterations of one run.
ITERATIONS = 60

#: name -> ``ExperimentConfig`` fields of the workload.
WORKLOADS = {
    "synth-isw-n8": {"strategy": "isw", "workload": "synth", "n_workers": 8},
    "synth-ps-n8": {"strategy": "ps", "workload": "synth", "n_workers": 8},
    "ppo-isw-n4": {"strategy": "isw", "workload": "ppo", "n_workers": 4},
    "lossy-int32-isw-n4": {
        "strategy": "isw",
        "workload": "synth",
        "n_workers": 4,
        "loss_rate": 1e-3,
        "codec": "int32-bs",
    },
}


def config_fields(name: str, seed: int, iterations: int = ITERATIONS) -> dict:
    """The ``ExperimentConfig`` keyword arguments of one workload run."""
    return dict(
        WORKLOADS[name],
        mode="sync",
        backend="sim",
        seed=seed,
        iterations=iterations,
        telemetry=False,
    )
