"""Generalized removal distributions (§7, first paragraph).

The paper's conclusion notes the technique "can be also applied to
processes in which we remove a ball according to other probability
distributions".  This module implements that generalization: a removal
law given by a *weight function* w(load) ≥ 0, removing from
(normalized) bin i with probability w(v_i)/Σ_j w(v_j).  Special cases:

* w(ℓ) = ℓ           → scenario A (𝒜(v));
* w(ℓ) = 1[ℓ > 0]    → scenario B (ℬ(v));
* w(ℓ) = ℓ^γ, γ > 1  → *pressure removal*: biased toward full bins,
  which empirically speeds recovery (removal pressure works with the
  rule instead of against it);
* w(ℓ) = 1[ℓ = max]  → always unload a fullest bin (the greedy repair).

The weight function becomes a :class:`repro.engine.spec.WeightedRemoval`
law inside a :func:`repro.engine.spec.custom_removal_spec`, so the
process, its exact kernel (for the E15 tables), the vectorized batch
stepper, and the quantile coupling used by the shared-randomness
coalescence all key off the same declaration.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from repro.balls.load_vector import LoadVector
from repro.balls.rules import SchedulingRule
from repro.engine.scalar import SpecProcess
from repro.markov.chain import FiniteMarkovChain
from repro.utils.rng import SeedLike

__all__ = [
    "WeightFn",
    "weight_scenario_a",
    "weight_scenario_b",
    "weight_power",
    "removal_pmf_from_weights",
    "CustomRemovalProcess",
    "custom_removal_kernel",
    "coalescence_time_custom",
]

WeightFn = Callable[[int], float]


def weight_scenario_a(load: int) -> float:
    """w(ℓ) = ℓ — recovers scenario A exactly."""
    return float(load)


def weight_scenario_b(load: int) -> float:
    """w(ℓ) = 1[ℓ > 0] — recovers scenario B exactly."""
    return 1.0 if load > 0 else 0.0


def weight_power(gamma: float) -> WeightFn:
    """w(ℓ) = ℓ^γ — load-pressure removal (γ = 1 is scenario A)."""
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")

    def w(load: int) -> float:
        return float(load) ** gamma if load > 0 else 0.0

    return w


def removal_pmf_from_weights(v: np.ndarray, weight: WeightFn) -> np.ndarray:
    """Exact removal pmf over normalized indices for a weight function.

    Raises if no bin has positive weight (nothing removable).
    """
    w = np.array([weight(int(x)) for x in v], dtype=np.float64)
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    # Never remove from an empty bin regardless of the weight function.
    w[v == 0] = 0.0
    total = w.sum()
    if total <= 0:
        raise ValueError("no bin has positive removal weight")
    return w / total


def _spec(rule: SchedulingRule, weight: WeightFn):
    from repro.engine.spec import custom_removal_spec

    return custom_removal_spec(rule, weight)


class CustomRemovalProcess(SpecProcess):
    """Remove-by-weight, place-by-rule dynamic process."""

    def __init__(
        self,
        rule: SchedulingRule,
        weight: WeightFn,
        state: Union[LoadVector, np.ndarray, list],
        *,
        seed: SeedLike = None,
    ):
        super().__init__(_spec(rule, weight), state, seed=seed)
        self.weight = weight


def custom_removal_kernel(
    rule: SchedulingRule,
    weight: WeightFn,
    n: int,
    m: int,
) -> FiniteMarkovChain:
    """Exact kernel of the custom-removal process on Ω_m."""
    from repro.engine.exact import ExactEngine

    return ExactEngine.kernel(_spec(rule, weight), n, m)


def coalescence_time_custom(
    rule: SchedulingRule,
    weight: WeightFn,
    start_v,
    start_u,
    *,
    max_steps: int = 10_000_000,
    seed: SeedLike = None,
) -> int:
    """Shared-randomness coalescence under a custom removal law.

    Removal is quantile-coupled through the weight-induced CDFs (both
    chains invert at the same uniform), insertion is the Lemma 3.3
    coupling — the same grand-coupling construction as scenarios A/B,
    routed through :func:`repro.coupling.grand.coalescence_time_spec`.
    """
    from repro.coupling.grand import coalescence_time_spec

    return coalescence_time_spec(
        _spec(rule, weight), start_v, start_u, max_steps=max_steps, seed=seed
    )
