"""Pure helpers of the benchmark: percentiles, generation times, fingerprints.

Nothing here imports hybridabc or numpy, so the orchestrator and the tests
can use it without the program.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

#: Fingerprints of every workload at the default seed.
REFERENCE = Path(__file__).with_name("reference.json")

#: Floats in a fingerprint may differ by this share of their magnitude.
REL_TOL = 1e-9

#: Refill generations a run collects at least, so that the 90th percentile
#: has ten samples beyond it.
MIN_P90_SAMPLES = 100


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 1] (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def refill_durations(records) -> list[float]:
    """Wall time of every refill generation in a stream of progress records.

    ``records`` holds ``(generation, elapsed_s)`` pairs in the order the
    engine reported them, possibly from several engine runs. A run starts
    where ``generation`` returns to 1; ``elapsed_s`` counts from the start
    of its own run, so each refill generation (2 onward) lasts the
    difference to the record before it.
    """
    durations = []
    previous = None
    for generation, elapsed in records:
        if generation != 1:
            if previous is None:
                raise ValueError("progress records must start at generation 1")
            durations.append(elapsed - previous)
        previous = elapsed
    return durations


def reference_fingerprint(workload: str) -> dict:
    return json.loads(REFERENCE.read_text())["workloads"][workload]


def compare_fingerprints(expected, actual, path: str = "") -> list[str]:
    """Differences between two fingerprints, empty when they match.

    Leaves must have the same type. Integers and strings must be equal;
    floats may differ by ``REL_TOL`` of the larger magnitude. Lists and
    mappings must have the same length and keys.
    """
    where = path or "fingerprint"
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{where}: keys differ"]
        out = []
        for key in sorted(expected):
            out += compare_fingerprints(expected[key], actual[key], f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{where}: lengths differ"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += compare_fingerprints(e, a, f"{path}[{i}]")
        return out
    if type(expected) is not type(actual):
        return [f"{where}: {expected!r} != {actual!r}"]
    if isinstance(expected, float):
        equal = math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0)
    else:
        equal = expected == actual
    return [] if equal else [f"{where}: {expected!r} != {actual!r}"]


class FingerprintCheck:
    """Decides whether a call's fingerprint is correct.

    With a reference (the committed one at the default seed) every call
    must match it. Without one, the first fingerprint seen becomes the
    reference, so all calls at one seed must agree; with a ``store`` path
    that first fingerprint is also kept on disk, so later benchmark runs
    at the same seed in the same checkout must agree with it too.
    """

    def __init__(self, reference=None, store: Path | None = None):
        self.reference = reference
        self.store = store
        if reference is None and store is not None and store.is_file():
            self.reference = json.loads(store.read_text())

    def mismatches(self, fingerprint) -> list[str]:
        if self.reference is None:
            self.reference = fingerprint
            if self.store is not None:
                self.store.parent.mkdir(parents=True, exist_ok=True)
                tmp = self.store.with_suffix(f".tmp{os.getpid()}")
                tmp.write_text(json.dumps(fingerprint))
                os.replace(tmp, self.store)
            return []
        return compare_fingerprints(self.reference, fingerprint)
