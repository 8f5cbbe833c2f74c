# Offline dataset generation (i.i.d. per timestep), the deterministic 80/20
# train/validation split, and CSV persistence. All randomness flows through
# counter-based Philox streams keyed by (seed, stream, h) so per-step draws
# are independent of execution order and of the other steps.
from __future__ import annotations

import math
import os
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .mdp import Policy, TabularMDP, check_data_distribution, concentrability, occupancy
from .textfile import read_lines

_STREAM_GENERATE = 0
_STREAM_SPLIT = 1

MIN_SAMPLES = 5    # smallest n with a nonempty validation slot
MAX_SAMPLES = 10 ** 7   # largest n per step accepted from a flag or a config
MAX_INDEX = np.iinfo(np.int64).max   # largest state or action index an array holds

_HEADER = "h,x,a,r,x_next"
# file suffixes that np.loadtxt would decompress
_COMPRESSED = (".bz2", ".gz", ".lzma", ".xz")
_ROW_DTYPE = np.dtype([("h", np.int64), ("x", np.int64), ("a", np.int64),
                       ("r", np.float64), ("x_next", np.int64)])


class DatasetError(ValueError):
    pass


def _rng(seed: int, stream: int, h: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream, h))))


@dataclass(frozen=True)
class StepData:
    """Transitions observed at one step index: parallel arrays of equal length."""

    x: np.ndarray
    a: np.ndarray
    r: np.ndarray
    x_next: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=int)
        a = np.asarray(self.a, dtype=int)
        r = np.asarray(self.r, dtype=float)
        xn = np.asarray(self.x_next, dtype=int)
        if not (len(x) == len(a) == len(r) == len(xn)):
            raise DatasetError("step arrays must have equal length")
        for name, arr in (("x", x), ("a", a), ("r", r), ("x_next", xn)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self):
        return len(self.x)

    def take(self, idx: np.ndarray) -> "StepData":
        return StepData(self.x[idx], self.a[idx], self.r[idx], self.x_next[idx])


@dataclass(frozen=True)
class OfflineDataset:
    """Per-step transition slots, n samples each, plus generation metadata."""

    steps: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise DatasetError("dataset must contain at least one step slot")
        n = len(steps[0])
        if any(len(s) != n for s in steps):
            raise DatasetError("every step slot must contain the same number of transitions")
        object.__setattr__(self, "steps", steps)

    @property
    def horizon(self) -> int:
        return len(self.steps)

    @property
    def n(self) -> int:
        return len(self.steps[0])


@dataclass(frozen=True)
class DataSplit:
    train: OfflineDataset
    valid: OfflineDataset


def generate_from_mu(mdp: TabularMDP, mu: np.ndarray, n: int, seed: int) -> OfflineDataset:
    """n i.i.d. draws per step: (x, a) ~ mu_h, r = r(x, a), x' ~ P_h(.|x, a)."""
    mu = check_data_distribution(mdp, mu)
    if n < 1:
        raise DatasetError("n must be at least 1")
    S, A = mdp.num_states, mdp.num_actions
    steps = []
    for h in range(mdp.horizon):
        rng = _rng(seed, _STREAM_GENERATE, h)
        flat = rng.choice(S * A, size=n, p=mu[h].reshape(-1))
        xs, as_ = np.divmod(flat, A)
        rs = mdp.rewards[xs, as_]
        # x' is the number of CDF entries at or below u. Rows are non-negative,
        # so each CDF is non-decreasing, and counting only its first S - 1
        # columns caps x' at S - 1 when rounding leaves the last entry below u.
        cdf_columns = np.cumsum(mdp.transitions[h], axis=2).reshape(S * A, S).T
        u = rng.random(n)
        xn = np.zeros(n, dtype=np.int64)
        for column in cdf_columns[: S - 1]:
            xn += column[flat] <= u
        steps.append(StepData(xs, as_, rs, xn))
    return OfflineDataset(tuple(steps), {"seed": seed, "generator": "mu", "n": n})


def generate_from_behavior(mdp: TabularMDP, behavior: Policy, n: int,
                           seed: int) -> tuple[OfflineDataset, np.ndarray]:
    """Dataset whose mu_h is the exact occupancy of the behavior policy.

    Returns the dataset together with the induced mu so the caller can compute
    concentrability; a +inf coefficient is recorded in the metadata when the
    behavior policy leaves some reachable pair uncovered.
    """
    mu = occupancy(mdp, behavior)
    ds = generate_from_mu(mdp, mu, n, seed)
    conc = concentrability(mdp, mu)
    meta = dict(ds.meta)
    meta.update({"generator": "behavior", "concentrability": conc})
    return OfflineDataset(ds.steps, meta), mu


def split_dataset(dataset: OfflineDataset, seed: int) -> DataSplit:
    """Per-step random permutation; first ceil(0.8 n) samples train, rest validation."""
    n = dataset.n
    if n < MIN_SAMPLES:
        raise DatasetError(f"n = {n} < {MIN_SAMPLES}: validation slot would be empty")
    n_train = math.ceil(0.8 * n)
    train_steps, valid_steps = [], []
    for h, step in enumerate(dataset.steps):
        perm = _rng(seed, _STREAM_SPLIT, h).permutation(n)
        train_steps.append(step.take(perm[:n_train]))
        valid_steps.append(step.take(perm[n_train:]))
    return DataSplit(OfflineDataset(tuple(train_steps), dict(dataset.meta)),
                     OfflineDataset(tuple(valid_steps), dict(dataset.meta)))


def _step_text(h: int, step: StepData) -> str:
    """One step's CSV rows. Each distinct (x, a, r, x_next) row is formatted
    once; r is keyed on its bit pattern, so 0.0 and -0.0 stay distinct rows."""
    distinct, codes = np.unique(step.x, return_inverse=True)
    for col in (step.a, step.r.view(np.int64), step.x_next):
        values, inverse = np.unique(col, return_inverse=True)
        # codes and inverse are below n, so the chained key is below n**2
        distinct, codes = np.unique(codes * len(values) + inverse, return_inverse=True)
    first = np.empty(len(distinct), dtype=np.intp)    # one row index per code
    first[codes] = np.arange(len(step))
    # Python ints and float reprs print the same bytes as the numpy scalars
    table = np.array([f"{h},{x},{a},{r!r},{xn}\n" for x, a, r, xn in zip(
        step.x[first].tolist(), step.a[first].tolist(), step.r[first].tolist(),
        step.x_next[first].tolist())], dtype=object)
    return "".join(table[codes].tolist())


def save_dataset_csv(dataset: OfflineDataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {k}={v}\n" for k, v in sorted(dataset.meta.items()))
        fh.write(_HEADER + "\n")
        for h, step in enumerate(dataset.steps, start=1):
            fh.write(_step_text(h, step))


def _read_meta(line: str, meta: dict) -> None:
    if "=" in line:
        k, v = line[1:].split("=", 1)
        meta[k.strip()] = v.strip()


def load_dataset_csv(path: str) -> OfflineDataset:
    dataset = _load_table(path)
    return dataset if dataset is not None else _load_rows(path)


def _load_table(path: str) -> OfflineDataset | None:
    """Parse the rows in numpy, or return None for any file that is not a
    regular, valid one; `_load_rows` then accepts it or names the bad line."""
    # numpy opens the path again: only a regular file reads the same twice, and
    # numpy would decompress a file with one of these suffixes
    if not os.path.isfile(path) or os.path.splitext(path)[1] in _COMPRESSED:
        return None
    meta: dict = {}
    header = None
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for skip, line in enumerate(fh):
                text = line.strip()
                if header is None and text.startswith("#"):
                    _read_meta(text, meta)
                elif header is None:
                    header = text or None
                elif text:
                    break
            else:
                return None     # no header or no row: numpy would warn on an empty body
        if header != _HEADER:
            return None
        # numpy's C reader reads the file in the same universal-newline UTF-8
        # text mode, so it skips the `skip` lines before the first row, and with
        # them any byte-order mark the scan above dropped; an absolute path is
        # never taken for a URL. comments=None: a '#' line after the header
        # fails the parse; the structured dtype rejects rows of any other width
        # (usecols would drop extra fields); the indices never pass through
        # float64.
        table = np.loadtxt(os.path.abspath(path), delimiter=",", dtype=_ROW_DTYPE,
                           comments=None, skiprows=skip, ndmin=1, encoding="utf-8")
    except (ValueError, OverflowError):
        return None
    h, r = table["h"], table["r"]
    # h.max() is bounded before bincount allocates h.max() + 1 counters
    if h.min() < 1 or h.max() > len(h):
        return None
    if min(table[name].min() for name in ("x", "a", "x_next")) < 0:
        return None
    if not np.all((r >= 0.0) & (r <= 1.0)):
        return None
    counts = np.bincount(h)[1:]
    if np.any(counts != counts[0]):
        return None
    order = np.argsort(h, kind="stable")    # file order kept within a step
    columns = [table[name][order] for name in ("x", "a", "r", "x_next")]
    n = int(counts[0])
    return OfflineDataset(tuple(StepData(*(col[i:i + n] for col in columns))
                                for i in range(0, len(h), n)), meta)


def _load_rows(path: str) -> OfflineDataset:
    comments, lines = read_lines(path)
    meta: dict = {}
    for line in comments:
        _read_meta(line, meta)
    if lines and lines[0][1] != _HEADER:
        raise DatasetError(f"{path}:{lines[0][0]}: expected header 'h,x,a,r,x_next'")
    rows: dict[int, list] = defaultdict(list)
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            raise DatasetError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
        try:
            h = int(parts[0])
            rec = (int(parts[1]), int(parts[2]), float(parts[3]), int(parts[4]))
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: malformed row: {exc}") from exc
        if h < 1:
            raise DatasetError(f"{path}:{lineno}: step index {h} out of range")
        if not (0 <= rec[0] <= MAX_INDEX and 0 <= rec[1] <= MAX_INDEX
                and 0 <= rec[3] <= MAX_INDEX):
            raise DatasetError(f"{path}:{lineno}: x, a and x_next must lie in "
                               f"[0, {MAX_INDEX}]")
        if not 0.0 <= rec[2] <= 1.0:
            raise DatasetError(f"{path}:{lineno}: reward {rec[2]} outside [0, 1]")
        rows[h].append(rec)
    if not rows:
        raise DatasetError(f"{path}: no transition rows found")
    H = max(rows)
    if len(rows) != H:      # the step indices are distinct and >= 1, so this means 1..H
        raise DatasetError(f"{path}: missing step slots, found {sorted(rows)}")
    counts = {h: len(v) for h, v in rows.items()}
    if len(set(counts.values())) != 1:
        raise DatasetError(f"{path}: unequal slot sizes {counts}")
    steps = []
    for h in range(1, H + 1):
        steps.append(StepData(np.array([t[0] for t in rows[h]]),
                              np.array([t[1] for t in rows[h]]),
                              np.array([t[2] for t in rows[h]]),
                              np.array([t[3] for t in rows[h]])))
    return OfflineDataset(tuple(steps), meta)
