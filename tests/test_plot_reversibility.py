"""Tests for ASCII plotting and reversibility analysis."""

import numpy as np
import pytest

from repro.balls.rules import ABKURule
from repro.markov import FiniteMarkovChain, scenario_a_kernel, stationary_distribution
from repro.markov.reversibility import (
    detailed_balance_residual,
    is_reversible,
    reversibilization,
)
from repro.markov.spectral import spectral_gap
from repro.utils.ascii_plot import histogram_bars, sparkline


class TestSparkline:
    def test_monotone_series(self):
        s = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert s[0] == "▁" and s[-1] == "█"
        assert len(s) == 8

    def test_constant_series(self):
        assert sparkline([3, 3, 3]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            sparkline([1.0, float("nan")])

    def test_pinned_scale(self):
        s = sparkline([5], lo=0, hi=10)
        assert s in "▄▅"

    def test_width_buckets_keep_spikes(self):
        """531 points render in 60 columns; each column is its bucket's max."""
        vals = [0.0] * 531
        vals[300] = 9.0  # a one-point spike
        s = sparkline(vals, width=60)
        assert len(s) == 60
        # Bucket 34 covers points [531·34 // 60, 531·35 // 60) = [300, 309).
        assert s.count("█") == 1 and s.index("█") == 34
        assert sparkline(vals[:40], width=60) == sparkline(vals[:40])
        with pytest.raises(ValueError):
            sparkline(vals, width=0)

    def test_recovery_trajectory_shape(self):
        """A crash-recovery trajectory renders high -> low."""
        from repro.balls.load_vector import LoadVector
        from repro.balls.scenario_a import ScenarioAProcess

        p = ScenarioAProcess(ABKURule(2), LoadVector.all_in_one(64, 64), seed=0)
        traj = p.trajectory(400, every=40)
        s = sparkline(traj)
        assert s[0] == "█" and s[-1] == "▁"


class TestHistogramBars:
    def test_renders(self):
        out = histogram_bars([1, 4, 2], ["a", "b", "c"], width=8)
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].count("#") == 8  # the peak fills the width

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram_bars([-1])
        with pytest.raises(ValueError):
            histogram_bars([1, 2], ["only-one"])

    def test_empty(self):
        assert histogram_bars([]) == ""


class TestReversibility:
    def test_reversible_chain_detected(self):
        # Birth-death chains are reversible.
        P = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        ch = FiniteMarkovChain([0, 1, 2], P)
        assert is_reversible(ch)

    def test_tiny_chains_happen_to_be_reversible(self, abku2):
        """For m <= 4 the partition graph is a path (birth-death-like),
        so the chains are accidentally reversible."""
        assert is_reversible(scenario_a_kernel(abku2, 3, 4))
        assert is_reversible(scenario_a_kernel(abku2, 4, 4))

    def test_ia_abku2_not_reversible(self, abku2):
        """From m = 5 the partition graph has cycles and the paper's
        chains are NOT reversible — documented by a witness pair."""
        ch = scenario_a_kernel(abku2, 3, 5)
        assert not is_reversible(ch)
        residual, (i, j) = detailed_balance_residual(ch)
        assert residual > 1e-6
        # The witness is a genuine ordered pair of distinct states.
        assert i != j

    def test_reversibilization_is_reversible(self, abku2):
        ch = scenario_a_kernel(abku2, 3, 4)
        rev = reversibilization(ch)
        assert is_reversible(rev)

    def test_reversibilization_keeps_pi(self, abku2):
        ch = scenario_a_kernel(abku2, 3, 4)
        rev = reversibilization(ch)
        assert np.allclose(
            stationary_distribution(ch), stationary_distribution(rev)
        )

    def test_reversibilization_gap_positive(self, abku2):
        rev = reversibilization(scenario_a_kernel(abku2, 3, 4))
        assert spectral_gap(rev) > 0
