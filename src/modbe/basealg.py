# Base offline RL algorithm contract and its Fitted Q-Iteration instantiation:
# one backward pass of squared-loss regressions onto clipped Bellman targets,
# plus the matching estimation-error function and an exact-expectation oracle
# variant used for testing.
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataset import StepData
from .funcclass import FunctionClass, QFunction
from .mdp import TabularMDP, bellman_backup, check_data_distribution

OMEGA_CONSTANT = 200.0
DELTA_MAX = 1.0 / math.e


class BaseAlgError(ValueError):
    pass


def check_delta(delta: float, error: type[Exception]) -> None:
    """Raise error unless the failure probability delta lies in (0, 1/e] (NaN does not)."""
    if not 0.0 < delta <= DELTA_MAX:
        raise error(f"delta must lie in (0, 1/e], got {delta}")


@dataclass(frozen=True)
class QSequence:
    """Value approximators f_1..f_H with the implicit f_{H+1} = 0."""

    funcs: tuple

    def __post_init__(self):
        object.__setattr__(self, "funcs", tuple(self.funcs))

    @property
    def horizon(self) -> int:
        return len(self.funcs)

    def func(self, h: int) -> QFunction:
        """1-based step access."""
        return self.funcs[h - 1]

    def next_state_values(self, h: int, xs) -> np.ndarray:
        """f_{h+1}(x') = max_a f_{h+1}(x', a), zero beyond the horizon."""
        if h >= self.horizon:
            return np.zeros(len(xs))
        return self.funcs[h].max_values(xs)


@dataclass(frozen=True)
class BaseAlgorithm:
    """A pluggable base learner plus its known estimation-error function.

    fit(train_steps, fclass) must return per-step members of fclass with
    f_{h+1} depending only on data slots h+1..H; omega(n, delta, fclass) must
    be monotone in class complexity and decreasing in n.
    """

    fit: Callable[[Sequence[StepData], FunctionClass], QSequence]
    omega: Callable[[int, float, FunctionClass], float]


def fqi(train_steps: Sequence[StepData], fclass: FunctionClass) -> QSequence:
    """Single-pass backward Fitted Q-Iteration.

    Targets at step h are r + f_{h+1}(x') with the next-step values clipped by
    the class's clip bound; f_h only ever sees data slot h.
    """
    H = len(train_steps)
    if H == 0 or any(len(s) == 0 for s in train_steps):
        raise BaseAlgError("FQI requires a nonempty slot for every step")
    funcs: list[QFunction] = [None] * H
    for h in range(H, 0, -1):
        step = train_steps[h - 1]
        if h < H:
            next_vals = funcs[h].max_values(step.x_next)
        else:
            next_vals = np.zeros(len(step))
        funcs[h - 1] = fclass.erm(step.x, step.a, step.r + next_vals)
    return QSequence(tuple(funcs))


def omega_fqi(n: int, delta: float, fclass: FunctionClass, horizon: int) -> float:
    """Estimation-error function for FQI: 200 H^2 (log-cardinality + ln(16H/delta)) / n.

    For finite and abstraction classes the complexity measure is ln|F|, which
    recovers 200 H^2 ln(16 H |F| / delta) / n; linear classes substitute their
    dimension for ln|F|.
    """
    if n < 1:
        raise BaseAlgError("n must be at least 1")
    check_delta(delta, BaseAlgError)
    return OMEGA_CONSTANT * horizon ** 2 * (fclass.complexity + math.log(16.0 * horizon / delta)) / n


def make_fqi(horizon: int) -> BaseAlgorithm:
    return BaseAlgorithm(fit=fqi,
                         omega=lambda n, delta, fclass: omega_fqi(n, delta, fclass, horizon))


def fqi_oracle(mdp: TabularMDP, mu: np.ndarray, fclass: FunctionClass) -> QSequence:
    """Infinite-data FQI: replaces empirical means with exact expectations.

    At each step the population squared loss over mu_h decomposes into the
    weighted distance to T*_h f_{h+1} plus an f-independent variance term, so
    the minimizer is the class's weighted projection of the exact backup.
    """
    mu = check_data_distribution(mdp, mu)
    H = mdp.horizon
    funcs: list[QFunction] = [None] * H
    next_table = None
    for h in range(H, 0, -1):
        target = bellman_backup(mdp, h, next_table)
        funcs[h - 1] = fclass.population_erm(mu[h - 1], target)
        next_table = funcs[h - 1].clipped
    return QSequence(tuple(funcs))


def fitted_q_discounted(data: StepData, fclass: FunctionClass) -> QFunction:
    """FQI on one flat transition list at horizon H = 1: the class's
    regression onto the rewards."""
    if len(data) == 0:
        raise BaseAlgError("empty dataset")
    return fclass.erm(data.x, data.a, data.r)


def make_discounted() -> BaseAlgorithm:
    """The one-step (H = 1) base learner on the single slot of a flat dataset;
    omega is FQI's at horizon 1."""
    def fit(train_steps, fclass):
        return QSequence((fitted_q_discounted(train_steps[0], fclass),))
    return BaseAlgorithm(fit=fit, omega=lambda n, delta, fclass: omega_fqi(n, delta, fclass, 1))
