"""Branch predictors.

The paper's front end uses a perceptron predictor with a 64-bit global
history and a 512-entry weight table (Table 4).  A perfect predictor backs
the Figure 1 potential-performance study.
"""

from __future__ import annotations

from operator import add, mul, sub
from typing import Protocol

#: Saturation bounds of a perceptron weight (an 8-bit signed counter).
WEIGHT_MIN, WEIGHT_MAX = -128, 127


class BranchPredictor(Protocol):
    """Predict-then-update interface, driven in program (fetch) order."""

    def predict(self, pc: int) -> bool: ...

    def update(self, pc: int, taken: bool) -> None: ...


class PerfectPredictor:
    """Oracle predictor: every prediction is correct by construction."""

    is_perfect = True

    def predict(self, pc: int) -> bool:  # pragma: no cover - trivial
        return True

    def update(self, pc: int, taken: bool) -> None:  # pragma: no cover
        return None


class AlwaysTakenPredictor:
    """Static predict-taken baseline."""

    is_perfect = False

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        return None


class BimodalPredictor:
    """Classic 2-bit saturating counter table (cheap baseline)."""

    is_perfect = False

    def __init__(self, entries: int = 4096) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.counters = [2] * entries  # weakly taken

    def _index(self, pc: int) -> int:
        return (pc >> 3) & (self.entries - 1)

    def predict(self, pc: int) -> bool:
        return self.counters[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        value = self.counters[index]
        if taken:
            self.counters[index] = min(3, value + 1)
        else:
            self.counters[index] = max(0, value - 1)


class PerceptronPredictor:
    """Perceptron predictor (Jiménez & Lin) with the paper's configuration.

    512 perceptrons, each with a bias weight plus one weight per bit of a
    64-bit global history.  Training uses the standard threshold rule
    ``theta = floor(1.93 * h + 14)``.
    """

    is_perfect = False

    def __init__(self, entries: int = 512, history_bits: int = 64) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.history_bits = history_bits
        self.theta = int(1.93 * history_bits + 14)
        #: per perceptron, the bias weight followed by one weight per
        #: history bit
        self.weights = [[0] * (history_bits + 1) for _ in range(entries)]
        # history[i] in {-1, +1}; most recent outcome first.
        self.history = [1] * history_bits
        self._last_sum = 0

    def _index(self, pc: int) -> int:
        return (pc >> 3) & (self.entries - 1)

    def predict(self, pc: int) -> bool:
        row = self.weights[self._index(pc)]
        total = row[0] + sum(map(mul, row[1:], self.history))
        self._last_sum = total
        return total >= 0

    def update(self, pc: int, taken: bool) -> None:
        history = self.history
        outcome = 1 if taken else -1
        prediction_correct = (self._last_sum >= 0) == taken
        if not prediction_correct or abs(self._last_sum) <= self.theta:
            row = self.weights[self._index(pc)]
            # history entries are +-1: each weight moves by exactly one,
            # so only a weight already at a bound can leave the range
            adjusted = list(map(add if taken else sub, row[1:], history))
            if max(adjusted) > WEIGHT_MAX or min(adjusted) < WEIGHT_MIN:
                adjusted = [min(WEIGHT_MAX, max(WEIGHT_MIN, weight))
                            for weight in adjusted]
            row[0] = min(WEIGHT_MAX, max(WEIGHT_MIN, row[0] + outcome))
            row[1:] = adjusted
        history.pop()
        history.insert(0, outcome)


def make_predictor(kind: str) -> BranchPredictor:
    """Factory: ``perfect``, ``perceptron``, ``bimodal`` or ``taken``."""
    if kind == "perfect":
        return PerfectPredictor()
    if kind == "perceptron":
        return PerceptronPredictor()
    if kind == "bimodal":
        return BimodalPredictor()
    if kind == "taken":
        return AlwaysTakenPredictor()
    raise ValueError(f"unknown predictor kind {kind!r}")
