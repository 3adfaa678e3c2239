"""Scenario B: remove a ball from a uniform *nonempty bin*, then place (§2, §5).

One phase of the process I_B:

1. pick a nonempty bin i.u.r. (distribution ℬ(v): Pr[i] = 1/s for the s
   nonempty bins, which in normalized coordinates are exactly indices
   0..s-1) and remove one ball from it;
2. place a new ball with the scheduling rule (ABKU[d] → I_B-ABKU[d]).

Claim 5.3: τ(ε) = O(n·m²·ln ε⁻¹) for any right-oriented rule; the paper
further notes an improved O(m²·polylog) upper bound and Ω(n·m), Ω(m²)
lower bounds.  The paper stresses this removal model is *harder to
analyze* than scenario A — empirically visible in E3 as slower
coalescence.

The process is declared as a :func:`repro.engine.spec.scenario_b_spec`
and executed by the scalar engine, which reads s (the nonempty count)
off its Fact 3.2 run table, so the removal draw and both updates are
O(1) per phase.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.balls.load_vector import LoadVector
from repro.balls.rules import SchedulingRule
from repro.engine.scalar import SpecProcess
from repro.engine.spec import scenario_b_spec
from repro.utils.rng import SeedLike

__all__ = ["ScenarioBProcess"]


class ScenarioBProcess(SpecProcess):
    """Stateful simulator of I_B with an arbitrary scheduling rule.

    A thin wrapper constructing the I_B spec for the scalar engine.
    Observability: phases and RNG draws appear under ``scenario_b.*``
    and the tracked nonempty-bin count as the gauge
    ``scenario_b.nonempty_bins`` when :mod:`repro.obs` is enabled.
    """

    def __init__(
        self,
        rule: SchedulingRule,
        state: Union[LoadVector, np.ndarray, list],
        *,
        seed: SeedLike = None,
    ):
        super().__init__(scenario_b_spec(rule), state, seed=seed)

    @property
    def num_nonempty(self) -> int:
        """Current count s of nonempty bins (read off the run table)."""
        return self._runs.num_nonempty()

