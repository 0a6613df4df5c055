"""Shared helper that merges benchmark results into ``BENCH_*.json``.

Every benchmark that wants its numbers to survive the run calls
:func:`record` with a scenario name, a variant label and the measured
slots/wall pair.  Results merge into one payload per benchmark family,
seeded from the committed artifact at the repository root, alongside a
machine fingerprint so numbers from different hosts are never compared as
if they were one series.

The payload is written back only when ``REPRO_BENCH_DIR`` names an
existing directory (``REPRO_BENCH_DIR=. pytest benchmarks`` refreshes the
committed artifacts); a plain test run merges in memory and leaves every
``BENCH_*.json`` untouched.  With ``REPRO_BENCH_DIR`` set, the payload is
seeded from the artifact in that directory instead.

Artifact shape::

    {
      "benchmark": "interference",
      "machine": {"python": ..., "platform": ..., "cpu_count": ...},
      "scenarios": {
        "collision_lookup_N32": {
          "pairwise_scan":   {"slots": ..., "wall_seconds": ..., "slots_per_second": ...},
          "occupancy_index": {...},
          "speedup": 6.5
        }
      }
    }

``speedup`` is (re)derived whenever the caller names a
``reference_variant``/``fast_variant`` pair and both are present.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Dict, Optional

#: directory the artifacts are written to (unset: nothing is written)
BENCH_DIR_ENV = "REPRO_BENCH_DIR"

#: payloads merged so far in this process, by benchmark family
_PAYLOADS: Dict[str, Dict[str, object]] = {}


def machine_fingerprint() -> Dict[str, object]:
    """Coarse host description so artifacts from different machines are
    never read as one series."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def bench_dir() -> Optional[Path]:
    """The directory ``REPRO_BENCH_DIR`` names, if it is one."""
    directory = os.environ.get(BENCH_DIR_ENV)
    if directory and Path(directory).is_dir():
        return Path(directory)
    return None


def artifact_path(benchmark: str) -> Path:
    """Where the ``BENCH_<benchmark>.json`` artifact is read from."""
    root = bench_dir() or Path(__file__).resolve().parents[1]
    return root / f"BENCH_{benchmark}.json"


def _load(path: Path, benchmark: str) -> Dict[str, object]:
    if path.exists():
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(payload, dict) and payload.get("benchmark") == benchmark:
                return payload
        except ValueError:
            pass  # corrupt artifact: start over rather than crash the bench
    return {"benchmark": benchmark, "scenarios": {}}


def record(benchmark: str, scenario: str, variant: str,
           slots: int, wall_seconds: float,
           extra: Optional[Dict[str, object]] = None,
           reference_variant: Optional[str] = None,
           fast_variant: Optional[str] = None) -> Dict[str, object]:
    """Merge one measurement into the benchmark's payload and return it.

    The payload always reflects the *latest* run of each
    (scenario, variant) pair on the current machine; the machine
    fingerprint is refreshed on every call.  ``extra`` attaches
    explanatory detail to the variant entry; when
    ``reference_variant``/``fast_variant`` are given and both recorded,
    the scenario also gets their ``speedup``.  The artifact is written
    only when ``REPRO_BENCH_DIR`` names a directory.
    """
    payload = _PAYLOADS.get(benchmark)
    if payload is None:
        payload = _PAYLOADS[benchmark] = _load(artifact_path(benchmark),
                                               benchmark)
    payload["machine"] = machine_fingerprint()
    scenarios = payload.setdefault("scenarios", {})
    entry = scenarios.setdefault(scenario, {})
    rate = slots / wall_seconds if wall_seconds > 0 else float("inf")
    entry[variant] = {
        "slots": slots,
        "wall_seconds": round(wall_seconds, 6),
        "slots_per_second": round(rate),
    }
    if extra:
        entry[variant].update(extra)
    reference = entry.get(reference_variant)
    fast = entry.get(fast_variant)
    if reference and fast and reference["slots_per_second"]:
        entry["speedup"] = round(
            fast["slots_per_second"] / reference["slots_per_second"], 2)
    if bench_dir() is not None:
        artifact_path(benchmark).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return payload
