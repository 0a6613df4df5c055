"""The correctness gate, run in the benchmark process outside timed regions.

* every experiment a workload uses reproduces its golden fixture
  (``tests/golden/<name>.json``, read only) byte for byte;
* the pooled workloads' rows are byte-identical to a serial run of the same
  task list and seed (the trials report SHA-256 digests of
  ``SweepResult.to_json()``; this module computes the serial reference).

The paper's GS bound is checked inside each trial on its own rows (see
``bench_trial.bound_failures``).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List


def golden_mismatches(experiments: List[str]) -> List[str]:
    """Experiments whose golden sweep no longer matches its fixture."""
    from repro.experiments.golden import compare
    mismatched = []
    for name in experiments:
        texts = compare(name)
        if texts["expected"] != texts["actual"]:
            mismatched.append(name)
    return mismatched


def serial_digests(workload, seed: int) -> Dict[str, str]:
    """Row digests of an uncached serial run of the workload's sweeps."""
    from repro.experiments.orchestrator import SweepRunner
    runner = SweepRunner(max_workers=1, backend="serial")
    return {
        sweep.experiment: hashlib.sha256(runner.run(
            sweep.experiment, sweep.overrides, sweep.replications,
            master_seed=seed).to_json().encode("utf-8")).hexdigest()
        for sweep in workload.sweeps}


def planned_tasks(workload, seed: int) -> Dict[str, int]:
    """Tasks per experiment of one pass over the workload."""
    from repro.experiments.orchestrator import SweepRunner
    from repro.experiments.registry import get_experiment
    runner = SweepRunner(max_workers=1, backend="serial")
    return {sweep.experiment: len(runner.tasks_for(
        get_experiment(sweep.experiment), sweep.overrides,
        sweep.replications, seed)) for sweep in workload.sweeps}
