# Model selection over a nested class sequence via a one-sided generalization
# test on shared regression targets: train/validation split, per-(k, k', h)
# retraining, tolerance schedule (theoretical constants or the practical
# complexity/n rule), and full trace recording. One elimination loop serves
# modbe at any horizon and modbe_discounted, its H = 1 form on a flat
# transition list that the contextual-bandit sweep runs.
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .basealg import BaseAlgorithm, QSequence, check_delta, make_discounted
from .dataset import DataSplit, OfflineDataset, StepData, split_dataset
from .funcclass import FunctionClass, NestedSequence, QFunction

ZETA_CONSTANT = 96.0
ALPHA_CONSTANT = 200.0
SCHEDULES = ("theoretical", "practical")    # the two Tol modes of ToleranceSchedule


class SelectionError(ValueError):
    pass


def zeta(horizon: int, num_classes: int, delta: float, n_valid: int) -> float:
    """Validation-side concentration width: 96 H^2 ln(16 M^2 H / delta) / n_valid."""
    check_delta(delta, SelectionError)
    if n_valid < 1:
        raise SelectionError("n_valid must be at least 1")
    return ZETA_CONSTANT * horizon ** 2 * \
        math.log(16.0 * num_classes ** 2 * horizon / delta) / n_valid


@dataclass(frozen=True)
class ToleranceSchedule:
    """Tol(k, k') accessor in either theoretical or practical mode.

    theoretical: Tol = 2 alpha(k') + 2 zeta + omega_{n_train, delta/4M}(F_k)
    with alpha(k') = max(omega_{n_train, delta/4M}(F_k'),
                         200 H^2 ln(8 M^2 H |F_k'| / delta) / n_train).
    practical:   Tol = complexity(F_k') / n.
    """

    mode: str
    classes: NestedSequence
    horizon: int
    delta: float
    n_train: int
    n_valid: int
    n_total: int
    omega: Callable[[int, float, FunctionClass], float] | None = None
    zeta_value: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.mode not in SCHEDULES:
            raise SelectionError(f"unknown schedule mode {self.mode!r}")
        if self.mode == "theoretical":
            if self.omega is None:
                raise SelectionError("theoretical schedule requires the base algorithm's omega")
            z = zeta(self.horizon, len(self.classes), self.delta, self.n_valid)
            object.__setattr__(self, "zeta_value", z)

    def _omega_at(self, k: int) -> float:
        return self.omega(self.n_train, self.delta / (4 * len(self.classes)), self.classes[k])

    def alpha(self, k_prime: int) -> float:
        m = len(self.classes)
        explicit = ALPHA_CONSTANT * self.horizon ** 2 * (
            self.classes[k_prime].complexity
            + math.log(8.0 * m ** 2 * self.horizon / self.delta)) / self.n_train
        return max(self._omega_at(k_prime), explicit)

    def tol(self, k: int, k_prime: int) -> float:
        if self.mode == "practical":
            return self.classes[k_prime].complexity / self.n_total
        return 2.0 * self.alpha(k_prime) + 2.0 * self.zeta_value + self._omega_at(k)


def validation_loss(f: QFunction, step: StepData, next_values: np.ndarray) -> float:
    """Mean squared residual of f against r + f_{h+1}(x') on a validation slot."""
    if len(step) == 0:
        raise SelectionError("empty validation slot")
    d = f.values(step.x, step.a) - step.r - next_values
    return float(np.add.reduce(d * d) / len(d))     # np.mean(d ** 2), bit for bit


def validation_losses(fseq: QSequence, valid_steps: Sequence[StepData]) -> list[float]:
    """validation_loss of each f_h of fseq on its step's validation slot."""
    return [validation_loss(fseq.func(h), step, fseq.next_state_values(h, step.x_next))
            for h, step in enumerate(valid_steps, start=1)]


def generalization_test(loss_g: float, loss_f: float, tol: float) -> bool:
    """True (reject the current class) iff loss_g < loss_f - tol, strictly."""
    return loss_g < loss_f - tol


@dataclass(frozen=True)
class TraceEvent:
    k: int
    k_prime: int
    h: int
    loss_g: float
    loss_f: float
    tol: float
    reject: bool

    def to_line(self) -> str:
        outcome = "reject" if self.reject else "keep"
        return (f"event {self.k} {self.k_prime} {self.h} "
                f"{self.loss_g!r} {self.loss_f!r} {self.tol!r} {outcome}")


@dataclass
class SelectionTrace:
    """Full audit record of one selection run."""

    k_hat: int
    fits: dict              # class index -> base fit on split.train, for every class tried
    split: DataSplit
    events: list
    seed: int
    mode: str

    @property
    def qseq(self) -> QSequence:
        return self.fits[self.k_hat]

    @property
    def valid_losses(self) -> dict[int, list[float]]:
        """Class index -> validation_losses of its fit, for every class tested
        against a larger one: the loss_f of its events against k + 1."""
        losses: dict[int, list[float]] = {}
        for e in self.events:
            if e.k_prime == e.k + 1:
                losses.setdefault(e.k, []).append(e.loss_f)
        return losses

    @property
    def base_calls(self) -> int:
        return len(self.fits)

    @property
    def erm_calls(self) -> int:
        """One ERM of a larger class per recorded (k, k', h) test."""
        return len(self.events)

    def to_text(self) -> str:
        lines = [e.to_line() for e in self.events]
        lines += [
            f"selected_k {self.k_hat}",
            f"base_calls {self.base_calls}",
            f"erm_calls {self.erm_calls}",
            f"seed {self.seed}",
            f"schedule {self.mode}",
        ]
        return "\n".join(lines) + "\n"


def _eliminate(dataset: OfflineDataset, base: BaseAlgorithm, classes: NestedSequence,
               delta: float, schedule: str, seed: int) -> SelectionTrace:
    """The split, schedule and elimination loop of modbe and its one-step form.

    For the current k: fit the base learner on the training split, build each
    step's regression targets r + f^k_{h+1}(x') and the validation loss of f^k
    once, then regress every larger class k' onto those targets and test every
    (k', h). Any failing (k', h) rejects k for k + 1; all H steps of a
    (k, k') pair are recorded even after the first failure.
    """
    check_delta(delta, SelectionError)
    split = split_dataset(dataset, seed)
    sched = ToleranceSchedule(schedule, classes, dataset.horizon, delta,
                              split.train.n, split.valid.n, dataset.n, base.omega)
    M = len(classes)
    events: list[TraceEvent] = []
    fits: dict[int, QSequence] = {}
    for k in range(1, M + 1):
        fseq = fits[k] = base.fit(split.train.steps, classes[k])
        if k == M:          # no larger class to test against
            break
        tests = []          # per step: (train slot, targets, valid slot, next values, loss_f)
        for h, (train_step, valid_step) in enumerate(zip(split.train.steps, split.valid.steps), 1):
            targets = train_step.r + fseq.next_state_values(h, train_step.x_next)
            next_valid = fseq.next_state_values(h, valid_step.x_next)
            loss_f = validation_loss(fseq.func(h), valid_step, next_valid)
            tests.append((train_step, targets, valid_step, next_valid, loss_f))
        rejected = False
        for k_prime in range(k + 1, M + 1):
            tol = sched.tol(k, k_prime)
            for h, (train_step, targets, valid_step, next_valid, loss_f) in enumerate(tests, 1):
                g_h = classes[k_prime].erm(train_step.x, train_step.a, targets)
                loss_g = validation_loss(g_h, valid_step, next_valid)
                rej = generalization_test(loss_g, loss_f, tol)
                events.append(TraceEvent(k, k_prime, h, loss_g, loss_f, tol, rej))
                rejected = rejected or rej
            if rejected:
                break
        if not rejected:
            break
    return SelectionTrace(k, fits, split, events, seed, sched.mode)


def modbe(dataset: OfflineDataset, base: BaseAlgorithm, classes: NestedSequence,
          delta: float, schedule: str = "theoretical", seed: int = 0) -> SelectionTrace:
    """Select a class index and its fitted sequence from nested classes.

    Starting from k = 1, runs the base algorithm on the training split, then
    retrains every larger class k' on the same per-step regression targets and
    rejects k (incrementing by one) as soon as some (k', h) beats the base
    functions' validation loss by more than Tol(k, k'). All H comparisons for
    a (k, k') pair are recorded even after the first failure.
    """
    return _eliminate(dataset, base, classes, delta, schedule, seed)


def modbe_discounted(data: StepData, classes: NestedSequence, delta: float = 0.1,
                     schedule: str = "practical", seed: int = 0) -> SelectionTrace:
    """modbe at horizon H = 1 on a flat transition list, the contextual-bandit
    case: the base learner is make_discounted(), every class regresses onto
    the rewards, and the schedule's horizon is 1."""
    return _eliminate(OfflineDataset((data,)), make_discounted(), classes, delta, schedule, seed)
