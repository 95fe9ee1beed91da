"""Bimodal branch predictor used for Callgrind-style misprediction counts."""

from __future__ import annotations

from typing import Dict

__all__ = ["BimodalPredictor"]


class BimodalPredictor:
    """Classic two-bit saturating counter per static branch site.

    Counter states 0..3; predict taken when the counter is 2 or 3.  New sites
    start weakly not-taken (state 1), matching common hardware reset state.
    """

    def __init__(self) -> None:
        self._counters: Dict[int, int] = {}
        self.branches = 0
        self.mispredicts = 0

    def record(self, site: int, taken: bool) -> bool:
        """Feed one resolved branch; returns True if it was mispredicted."""
        self.branches += 1
        counter = self._counters.get(site, 1)
        predicted_taken = counter >= 2
        mispredicted = predicted_taken != taken
        if mispredicted:
            self.mispredicts += 1
        if taken:
            counter = min(counter + 1, 3)
        else:
            counter = max(counter - 1, 0)
        self._counters[site] = counter
        return mispredicted

    @property
    def miss_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0
