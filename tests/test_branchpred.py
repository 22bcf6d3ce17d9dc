"""Unit tests for branch predictors."""

import pytest

from repro.uarch.branchpred import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    PerceptronPredictor,
    PerfectPredictor,
    make_predictor,
)


def accuracy(predictor, stream):
    correct = 0
    for pc, taken in stream:
        if predictor.predict(pc) == taken:
            correct += 1
        predictor.update(pc, taken)
    return correct / len(stream)


class TestFactory:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("perfect", PerfectPredictor),
            ("perceptron", PerceptronPredictor),
            ("bimodal", BimodalPredictor),
            ("taken", AlwaysTakenPredictor),
        ],
    )
    def test_kinds(self, kind, cls):
        assert isinstance(make_predictor(kind), cls)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_predictor("psychic")


class TestBimodal:
    def test_learns_biased_branch(self):
        stream = [(0x1000, True)] * 100
        assert accuracy(BimodalPredictor(), stream) > 0.95

    def test_hysteresis_tolerates_single_flip(self):
        predictor = BimodalPredictor()
        for _ in range(10):
            predictor.predict(0x1000)
            predictor.update(0x1000, True)
        predictor.update(0x1000, False)  # one not-taken
        assert predictor.predict(0x1000) is True

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            BimodalPredictor(entries=1000)


class TestPerceptron:
    def test_paper_configuration(self):
        predictor = PerceptronPredictor()
        assert predictor.entries == 512
        assert predictor.history_bits == 64
        assert predictor.theta == int(1.93 * 64 + 14)

    def test_learns_always_taken(self):
        stream = [(0x2000, True)] * 200
        assert accuracy(PerceptronPredictor(), stream) > 0.95

    def test_learns_periodic_pattern(self):
        # T T T N repeating: bimodal cannot exceed ~75%; a history-based
        # perceptron learns it nearly perfectly after warm-up.
        pattern = [True, True, True, False] * 250
        stream = [(0x3000, taken) for taken in pattern]
        perceptron_accuracy = accuracy(PerceptronPredictor(), stream)
        assert perceptron_accuracy > 0.9

    def test_periodic_beats_bimodal(self):
        pattern = [True, True, False] * 300
        stream = [(0x3000, taken) for taken in pattern]
        assert accuracy(PerceptronPredictor(), stream) > accuracy(
            BimodalPredictor(), stream
        )

    def test_weights_saturate(self):
        predictor = PerceptronPredictor()
        for _ in range(10_000):
            predictor.predict(0x100)
            predictor.update(0x100, True)
        assert max(max(row) for row in predictor.weights) <= 127
        assert min(min(row) for row in predictor.weights) >= -128

    def test_history_tracks_outcomes(self):
        predictor = PerceptronPredictor()
        predictor.predict(0x10)
        predictor.update(0x10, True)
        predictor.predict(0x10)
        predictor.update(0x10, False)
        assert predictor.history[0] == -1
        assert predictor.history[1] == 1


class TestPerfect:
    def test_flag(self):
        assert PerfectPredictor.is_perfect
        assert not PerceptronPredictor.is_perfect
