"""Scoped wall-clock timers with fixed category names.

Categories mirror the run-report timing table.  "F(rho)" is the sum of the
four equilibrium sub-categories; "Other" is the unattributed remainder of
the total.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

CATEGORIES = (
    "Total",
    "F(rho)",
    "K_T",
    "RHS",
    "Factorizations",
    "Linear systems",
    "grad F(rho)",
    "Subproblem solving",
    "Filtering",
    "Other",
)

_EQUILIBRIUM_PARTS = ("K_T", "RHS", "Factorizations", "Linear systems")
_PHASES = ("grad F(rho)", "Subproblem solving", "Filtering")


class Timers:
    def __init__(self):
        self._acc = {name: 0.0 for name in CATEGORIES}
        self._start = time.perf_counter()

    @contextmanager
    def scope(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._acc[name] += time.perf_counter() - t0

    def table(self) -> dict:
        """Category -> seconds, with derived Total, F(rho) and Other."""
        out = dict(self._acc)
        out["Total"] = time.perf_counter() - self._start
        out["F(rho)"] = sum(out[c] for c in _EQUILIBRIUM_PARTS)
        attributed = out["F(rho)"] + sum(out[c] for c in _PHASES)
        out["Other"] = max(0.0, out["Total"] - attributed)
        return out

    @staticmethod
    def delta(after: dict, before: dict) -> dict:
        return {name: after[name] - before.get(name, 0.0) for name in after}

