# Nested function classes over state-action pairs: pointwise evaluation,
# squared-loss ERM, and complexity measures. Three variants: an explicit
# finite list of tables, a state-abstraction (block) class, and a linear
# class over a feature map with ridge-regularized least squares.
from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .mdp import Policy, greedy_policy_from_tables
from .textfile import float_line, numbers, read_lines, write_lines

ABSTRACTION_QUANTUM = 1.0 / 16.0   # declared value grid for complexity accounting
ENUMERATION_CAP = 200_000          # largest member set backed up for Approx / xi
RIDGE_SCALE = 1e-6                 # lambda = scale * n


class FunctionClassError(ValueError):
    pass


class QFunction:
    """An evaluable (state, action) -> value map.

    Evaluation is deterministic. A TableQ with a clip_high clips its outputs
    to [0, clip_high]; a LinearQ never clips.
    """

    def values(self, xs, as_) -> np.ndarray:
        """f(x, a) for each pair."""
        raise NotImplementedError

    def max_values(self, xs) -> np.ndarray:
        """f(x) = max_a f(x, a) for each state."""
        raise NotImplementedError


@dataclass(frozen=True)
class TableQ(QFunction):
    """An (S, A) table; `clipped` (not a field) is the read-only clipped table."""
    table: np.ndarray                 # (S, A)
    clip_high: float | None = None

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        # clipping is element-wise, so gathering from it equals clipping a gather
        clipped = t if self.clip_high is None else t.clip(0.0, self.clip_high)
        clipped.setflags(write=False)
        object.__setattr__(self, "clipped", clipped)

    @functools.cached_property
    def _row_max(self) -> np.ndarray:     # built on first use: most fits never read it
        return self.clipped.max(axis=1)

    def values(self, xs, as_):
        return self.clipped[np.asarray(xs, dtype=int), np.asarray(as_, dtype=int)]

    def max_values(self, xs):
        return self._row_max[np.asarray(xs, dtype=int)]


@dataclass(frozen=True)
class LinearQ(QFunction):
    weights: np.ndarray               # (d,): reads the first d feature coordinates
    feature_fn: Callable              # (xs, as_) -> (n, D) ambient features
    num_actions: int

    def values(self, xs, as_):
        phi = self.feature_fn(xs, as_)[:, : len(self.weights)]
        return phi @ self.weights

    def max_values(self, xs):
        xs = np.asarray(xs)
        cols = [self.values(xs, np.full(len(xs), a, dtype=int)) for a in range(self.num_actions)]
        return np.max(np.column_stack(cols), axis=1)


class FunctionClass:
    """One member of a nested sequence: evaluation domain, ERM, and complexity."""

    variant: str
    complexity: float
    shape: tuple[int, int] | None = None      # (S, A) of a tabular class's tables

    def check_nested_in(self, larger: FunctionClass) -> None:
        """Raise FunctionClassError unless this class is a subset of `larger`."""
        raise NotImplementedError

    def extreme_members(self, bound: float) -> Iterator[np.ndarray] | None:
        """Clipped member tables with values in [0, bound] whose backups attain
        Approx and xi, one at a time, or None."""
        return None

    def erm(self, xs, as_, ys) -> QFunction:
        """Member minimizing the empirical squared loss of its clipped values;
        ties break to the lowest member index."""
        raise NotImplementedError

    def population_erm(self, weights: np.ndarray, target: np.ndarray) -> QFunction:
        """Minimizer of the weights-weighted squared distance to an (S, A) target."""
        raise NotImplementedError

    def _check_samples(self, xs, ys):
        if len(xs) == 0:
            raise FunctionClassError("ERM requires a nonempty sample list")
        if len(xs) != len(ys):
            raise FunctionClassError("sample/target length mismatch")


@dataclass(frozen=True)
class FiniteClass(FunctionClass):
    """Explicit members; `members` (not a field) holds them as TableQs, clipped once."""
    tables: tuple                     # member (S, A) tables, index order fixed
    clip_high: float | None = None
    variant: str = field(default="finite", init=False)

    def __post_init__(self):
        tabs = tuple(np.asarray(t, dtype=float) for t in self.tables)
        if not tabs:
            raise FunctionClassError("finite class must be nonempty")
        shape = tabs[0].shape
        if any(t.shape != shape for t in tabs):
            raise FunctionClassError("all member tables must share one shape")
        if not any(np.all(t == 0.0) for t in tabs):
            raise FunctionClassError("finite class must contain the zero function")
        for t in tabs:
            t.setflags(write=False)
        object.__setattr__(self, "tables", tabs)
        object.__setattr__(self, "members", tuple(TableQ(t, self.clip_high) for t in tabs))
        object.__setattr__(self, "shape", shape)

    @property
    def complexity(self) -> float:
        return math.log(len(self.tables))

    def check_nested_in(self, larger):
        for t in self.tables:
            if not any(t.shape == u.shape and np.array_equal(t, u) for u in larger.tables):
                raise FunctionClassError("finite classes are not nested (missing member)")

    def extreme_members(self, bound):
        # every member in [0, bound], whatever ENUMERATION_CAP; the zero member always is
        return (m.clipped for m in self.members if 0 <= m.clipped.min() <= m.clipped.max() <= bound)

    def erm(self, xs, as_, ys):
        self._check_samples(xs, ys)
        ys = np.asarray(ys, dtype=float)
        losses = [float(np.mean((m.values(xs, as_) - ys) ** 2)) for m in self.members]
        return self.members[int(np.argmin(losses))]

    def population_erm(self, weights, target):
        losses = [float((weights * (m.clipped - target) ** 2).sum()) for m in self.members]
        return self.members[int(np.argmin(losses))]


@dataclass(frozen=True)
class AbstractionClass(FunctionClass):
    """All tables constant on blocks of a state partition.

    ERM is the exact per-(block, action) mean of the targets; the fit's
    TableQ clips it to [0, clip_high]. `complexity` counts 1 / ABSTRACTION_QUANTUM
    = 16 values per (block, action) cell (B * A * ln 16).
    """

    blocks: np.ndarray                # (S,) state -> block id in [0, B)
    num_actions: int = 1
    clip_high: float | None = None
    variant: str = field(default="abstraction", init=False)

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=int)
        if b.min() != 0 or b.max() + 1 != len(np.unique(b)):
            raise FunctionClassError("block ids must be contiguous from 0")
        b.setflags(write=False)
        object.__setattr__(self, "blocks", b)
        object.__setattr__(self, "num_blocks", int(b.max()) + 1)     # B, not a field
        object.__setattr__(self, "shape", (len(b), self.num_actions))

    @property
    def complexity(self) -> float:
        return self.num_blocks * self.num_actions * math.log(1.0 / ABSTRACTION_QUANTUM)

    def check_nested_in(self, larger):
        if self.shape != larger.shape:
            raise FunctionClassError("abstraction classes must share one (S, A) shape")
        # the larger class's partition must refine this one
        for blk in range(larger.num_blocks):
            coarse = np.unique(self.blocks[larger.blocks == blk])
            if len(coarse) > 1:
                raise FunctionClassError("abstraction partitions do not refine in order")

    def extreme_members(self, bound):
        """The 2**B tables equal on each block to 0 or to high = min(bound, clip),
        every action alike (one zero table at high 0); None beyond ENUMERATION_CAP.
        A backup is affine in a member's block maxima in [0, high]**B, and the inner
        class (same variant) projects onto a convex set, so the squared distance is
        convex in those maxima and peaks at one of these vertices."""
        if 2 ** self.num_blocks > ENUMERATION_CAP:
            return None
        high = bound if self.clip_high is None else min(bound, self.clip_high)
        return (np.repeat(np.array(v)[self.blocks, None], self.num_actions, axis=1)
                for v in itertools.product(sorted({0.0, high}), repeat=self.num_blocks))

    def _block_means(self, cell, values, weights=None) -> TableQ:
        """The mean of values, weighted if weights are given, on each (block, action)
        cell = block * A + action (0 on a cell of no weight), spread over the states."""
        B, A = self.num_blocks, self.num_actions
        sums = np.bincount(cell, weights=values, minlength=B * A)
        counts = np.bincount(cell, weights=weights, minlength=B * A)
        means = np.divide(sums, counts, out=np.zeros(B * A), where=counts > 0)
        return TableQ(means.reshape(B, A)[self.blocks], self.clip_high)

    def erm(self, xs, as_, ys):
        self._check_samples(xs, ys)
        xs, as_ = np.asarray(xs, dtype=int), np.asarray(as_, dtype=int)
        return self._block_means(self.blocks[xs] * self.num_actions + as_, ys)

    def population_erm(self, weights, target):
        """erm's block mean over the (S, A) grid, each cell weighted by weights."""
        A = self.num_actions
        cell = (self.blocks[:, None] * A + np.arange(A)).ravel()
        return self._block_means(cell, np.ravel(weights * target), np.ravel(weights))


@dataclass(frozen=True)
class LinearClass(FunctionClass):
    """Linear predictors over the first `dim` coordinates of a feature map.

    ERM is ridge regression with lambda = RIDGE_SCALE * n.
    """

    feature_fn: Callable              # (xs, as_) -> (n, D) with D >= dim
    dim: int = 1
    num_actions: int = 1
    variant: str = field(default="linear", init=False)

    @property
    def complexity(self) -> float:
        return float(self.dim)

    def check_nested_in(self, larger):
        if self.feature_fn is not larger.feature_fn:
            raise FunctionClassError("linear classes must share one feature map")
        if self.dim > larger.dim:
            raise FunctionClassError("linear feature prefixes must be non-decreasing")

    def erm(self, xs, as_, ys):
        self._check_samples(xs, ys)
        ys = np.asarray(ys, dtype=float)
        phi = self.feature_fn(xs, as_)[:, : self.dim]
        lam = RIDGE_SCALE * len(ys)
        gram = phi.T @ phi + lam * np.eye(self.dim)
        w = np.linalg.solve(gram, phi.T @ ys)
        return LinearQ(w, self.feature_fn, self.num_actions)


def greedy_policy(q_funcs: Sequence[TableQ]) -> Policy:
    """Deterministic argmax policy of per-step clipped tables; ties -> lowest action."""
    return greedy_policy_from_tables(np.stack([f.clipped for f in q_funcs]))


@dataclass(frozen=True)
class NestedSequence:
    """Ordered classes F_1 subset ... subset F_M with non-decreasing complexity."""

    classes: tuple

    def __post_init__(self):
        cls = tuple(self.classes)
        if not cls:
            raise FunctionClassError("nested sequence must be nonempty")
        variants = {c.variant for c in cls}
        if len(variants) > 1:
            raise FunctionClassError("nested sequence must use a single class variant")
        comp = [c.complexity for c in cls]
        if any(b < a for a, b in zip(comp, comp[1:])):
            raise FunctionClassError("complexity must be non-decreasing along the sequence")
        for small, large in zip(cls, cls[1:]):
            small.check_nested_in(large)
        object.__setattr__(self, "classes", cls)

    def __len__(self):
        return len(self.classes)

    def __getitem__(self, k: int) -> FunctionClass:
        """1-based class access, matching the selection loop's indexing."""
        if not 1 <= k <= len(self.classes):
            raise IndexError(f"class index {k} outside [1, {len(self.classes)}]")
        return self.classes[k - 1]


# ---------------------------------------------------------------------------
# Plain-text description of a nested sequence. Schema (one class per stanza):
#   classes M
#   class finite S A members m      followed by m lines of S*A table values
#   class abstraction S A blocks B  followed by one line of S block ids
#                                   that uses each id in [0, B)
# Every count (M, S, A, m, B) is a positive integer, table values are
# finite, and an abstraction class has S*A <= MAX_TABLE_CELLS. The file
# ends after its M classes and is read by textfile.read_lines. clip_high is
# supplied by the loader.


def save_sequence(seq: NestedSequence, path: str) -> None:
    lines = [f"classes {len(seq)}\n"]
    for c in seq.classes:
        if c.variant == "finite":
            S, A = c.tables[0].shape
            lines.append(f"class finite {S} {A} members {len(c.tables)}\n")
            lines.extend(float_line(t.reshape(-1)) for t in c.tables)
        elif c.variant == "abstraction":
            lines += [f"class abstraction {len(c.blocks)} {c.num_actions} blocks {c.num_blocks}\n",
                      " ".join(str(int(b)) for b in c.blocks) + "\n"]
        else:
            raise FunctionClassError(f"a {c.variant} class has no file form")
    write_lines(path, lines)


MAX_TABLE_CELLS = 10 ** 7   # abstraction ERM and greedy policies build dense S*A tables
_COUNT = r"([1-9][0-9]*)"
_HEADER = re.compile(rf"classes {_COUNT}")
_FINITE = re.compile(rf"class finite {_COUNT} {_COUNT} members {_COUNT}")
_ABSTRACTION = re.compile(rf"class abstraction {_COUNT} {_COUNT} blocks {_COUNT}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def load_sequence(path: str, clip_high: float | None = None) -> NestedSequence:
    rows = [(lineno, " ".join(text.split())) for lineno, text in read_lines(path)[1]]
    header = _HEADER.fullmatch(rows[0][1]) if rows else None
    if header is None:
        raise FunctionClassError(f"{path}:{rows[0][0] if rows else 1}: "
                                 "expected 'classes M' header")
    m = int(header.group(1))
    classes: list[FunctionClass] = []
    i = 1
    for _ in range(m):
        if i >= len(rows):
            raise FunctionClassError(f"{path}:{rows[-1][0]}: file ends here, expected {m} classes")
        lineno, text = rows[i]
        if stanza := _FINITE.fullmatch(text):
            S, A, nm = (int(g) for g in stanza.groups())
            tabs = [np.reshape(numbers(path, rows, i + 1 + j, _finite_float, S * A,
                                       "table values", FunctionClassError), (S, A))
                    for j in range(nm)]
            classes.append(FiniteClass(tuple(tabs), clip_high))
            i += 1 + nm
        elif stanza := _ABSTRACTION.fullmatch(text):
            S, A, B = (int(g) for g in stanza.groups())
            if S * A > MAX_TABLE_CELLS:     # no data line bounds A
                raise FunctionClassError(f"{path}:{lineno}: S*A = {S * A} exceeds "
                                         f"{MAX_TABLE_CELLS} table cells")
            ids = numbers(path, rows, i + 1, int, S, "block ids", FunctionClassError)
            if len(set(ids)) != B or not all(0 <= b < B for b in ids):
                raise FunctionClassError(f"{path}:{rows[i + 1][0]}: block ids must lie in "
                                         f"[0, {B}) and use each of them")
            classes.append(AbstractionClass(np.array(ids), A, clip_high))
            i += 2
        else:
            raise FunctionClassError(
                f"{path}:{lineno}: expected 'class finite S A members m' "
                "or 'class abstraction S A blocks B'")
    if i < len(rows):
        raise FunctionClassError(f"{path}:{rows[i][0]}: expected end of file after {m} classes")
    return NestedSequence(tuple(classes))
