# Offline dataset generation (i.i.d. per timestep), the deterministic 80/20
# train/validation split, and CSV persistence. All randomness in modbe flows
# through the counter-based Philox streams of stream(*key); keys (seed, 0, h)
# and (seed, 1, h) generate and split step h independently of the other steps.
from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .mdp import Policy, TabularMDP, check_data_distribution, concentrability, occupancy
from .textfile import open_text, split_lines, text_lines, write_lines

_STREAM_GENERATE = 0
_STREAM_SPLIT = 1

MIN_SAMPLES = 5    # smallest n with a nonempty validation slot
MAX_SAMPLES = 10 ** 7   # largest n per step accepted from a flag or a config
MAX_INDEX = np.iinfo(np.int64).max   # largest state or action index an array holds

_HEADER = "h,x,a,r,x_next"
_ROW_DTYPE = np.dtype([("h", np.int64), ("x", np.int64), ("a", np.int64),
                       ("r", np.float64), ("x_next", np.int64)])
# split_lines' comment rule, a line whose first non-blank character is '#', with its "\n"
_COMMENT_LINE = re.compile(r"\n([^\S\n]*#.*)")


class DatasetError(ValueError):
    pass


def stream(*key: int) -> np.random.Generator:
    """The seeded random stream of key, a tuple of non-negative integers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


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


@dataclass(frozen=True)
class OfflineDataset:
    """Per-step transition slots, n samples each, plus generation metadata."""

    steps: tuple
    meta: dict = field(default_factory=dict)
    arrays: SlotArrays | None = field(default=None, repr=False, compare=False)

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


def _columns(horizon: int, n: int) -> tuple:
    """Unfilled (horizon, n) x, a, r and x_next arrays, in StepData's dtypes."""
    return tuple(np.empty((horizon, n), dtype) for dtype in (int, int, float, int))


class SlotArrays:
    """The column arrays of a tabular dataset of up to `horizon` steps of up to
    `capacity` transitions each (`data`) and of its train/validation split
    (`split`), to be filled again by every dataset of a sweep: generate_from_mu
    (out=) writes row h of `data` for step h, and split_dataset gathers row h
    of `split` from it. Each fill overwrites the last."""

    def __init__(self, horizon: int, capacity: int):
        self.data = _columns(horizon, capacity)
        self.split = _columns(horizon, capacity)


def generate_from_mu(mdp: TabularMDP, mu: np.ndarray, n: int, seed: int,
                     out: SlotArrays | None = None) -> OfflineDataset:
    """n i.i.d. draws per step: (x, a) ~ mu_h, r = r(x, a), x' ~ P_h(.|x, a).

    The steps are written into out's data rows, and the dataset carries out,
    so that split_dataset fills out's split rows; without out, into fresh
    arrays of n transitions, and the dataset carries none."""
    mu = check_data_distribution(mdp, mu)
    if n < 1:
        raise DatasetError("n must be at least 1")
    S, A, H = mdp.num_states, mdp.num_actions, mdp.horizon
    columns = _columns(H, n) if out is None else out.data
    if columns[0].shape[0] < H or columns[0].shape[1] < n:
        raise DatasetError(f"{H} steps of {n} transitions exceed slot arrays of shape "
                           f"{columns[0].shape}")
    steps = []
    for h in range(H):
        rng = stream(seed, _STREAM_GENERATE, h)
        # (x, a) as Generator.choice(S * A, n, p=mu_h) draws it, bit for bit:
        # choice takes one uniform u per draw and returns the number of entries
        # of the normalised CDF at or below u. Those entries are a prefix of
        # the CDF, so read as an (S, A) table they are the rows before x and
        # the first a entries of row x: x counts the row ends cdf[s, A - 1]
        # (s < S - 1) at or below u, and a counts cdf[x, a'] (a' < A - 1).
        # This costs O(n (S + A)) per step.
        cdf = mu[h].reshape(-1).cumsum()
        cdf /= cdf[-1]
        cdf = cdf.reshape(S, A)
        u = rng.random(n)
        xs, as_, rs, xn = (column[h, :n] for column in columns)
        xs[:] = as_[:] = xn[:] = 0      # the counts; reused rows hold an earlier dataset
        for end in cdf[: S - 1, A - 1]:
            xs += end <= u
        for column in cdf[:, : A - 1].T:
            as_ += column[xs] <= u
        flat = xs * A + as_
        np.take(mdp.rewards.reshape(-1), flat, out=rs, mode="clip")     # "raise" would buffer
        # x' is the number of CDF entries at or below u. Rows are non-negative,
        # so each CDF is non-decreasing, and counting only its first S - 1
        # columns caps x' at S - 1 when rounding leaves the last entry below u.
        cdf_columns = np.cumsum(mdp.transitions[h], axis=2).reshape(S * A, S).T
        u = rng.random(n)
        for column in cdf_columns[: S - 1]:
            xn += column[flat] <= u
        steps.append(StepData(xs, as_, rs, xn))
    return OfflineDataset(tuple(steps), {"seed": seed, "generator": "mu", "n": n}, out)


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
    """Per-step random permutation; first ceil(0.8 n) samples train, rest validation.

    Each column is gathered once by the permutation, into the split rows of
    the dataset's slot arrays or, when it carries none, of fresh ones; train
    and validation are the two slices of that gather."""
    n = dataset.n
    if n < MIN_SAMPLES:
        raise DatasetError(f"n = {n} < {MIN_SAMPLES}: validation slot would be empty")
    n_train = math.ceil(0.8 * n)
    columns = _columns(dataset.horizon, n) if dataset.arrays is None else dataset.arrays.split
    train_steps, valid_steps = [], []
    for h, step in enumerate(dataset.steps):
        perm = stream(seed, _STREAM_SPLIT, h).permutation(n)
        rows = [np.take(values, perm, out=column[h, :n], mode="clip")  # "raise" would buffer
                for values, column in zip((step.x, step.a, step.r, step.x_next), columns)]
        train_steps.append(StepData(*(row[:n_train] for row in rows)))
        valid_steps.append(StepData(*(row[n_train:n] for row in rows)))
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
    write_lines(path, (f"# {k}={v}\n" for k, v in sorted(dataset.meta.items())), [_HEADER + "\n"],
                (_step_text(h, step) for h, step in enumerate(dataset.steps, start=1)))


def _meta(comments: list[str]) -> dict:
    pairs = (line[1:].split("=", 1) for line in comments if "=" in line)
    return {k.strip(): v.strip() for k, v in pairs}


def load_dataset_csv(path: str) -> OfflineDataset:
    """The dataset in the CSV file at path, opened once. numpy parses the rows
    from memory; only if that parse or a row check fails does the per-line
    pass `_load_rows` run, to accept the rows or name the first bad line."""
    with open_text(path) as fh:
        comments, head = split_lines(fh, stop=1)    # the metadata and the header
        body = fh.read()
    if head and head[0][1] == _HEADER:
        # comment lines after the header are metadata too; numpy parses the rest
        parts = _COMMENT_LINE.split("\n" + body) if "#" in body else [body]
        steps = _table_steps("".join(parts[::2]))
        if steps is not None:
            return OfflineDataset(steps, _meta(comments + [c.strip() for c in parts[1::2]]))
    more, rows = split_lines(text_lines(body), start=head[0][0] + 1 if head else 1)
    return _load_rows(path, comments + more, head + rows)


def _table_steps(body: str) -> tuple | None:
    """The steps of body's rows, or None if numpy cannot parse one or one breaks a rule."""
    if not (body := body.lstrip()):     # numpy fails on a line of blanks, warns on no rows
        return None
    try:
        # comments=None: a '#' left in a row fails; the structured dtype rejects a row of
        # any other width (usecols drops fields), and no index passes through float64
        table = np.loadtxt(text_lines(body), delimiter=",", dtype=_ROW_DTYPE, comments=None,
                           ndmin=1)
    except (ValueError, OverflowError):
        return None
    h, r = table["h"], table["r"]
    # h.max() is bounded before bincount allocates h.max() + 1 counters; a nan r fails
    if (h.min() < 1 or h.max() > len(h) or min(table[k].min() for k in ("x", "a", "x_next")) < 0
            or not (r.min() >= 0.0 and r.max() <= 1.0)):
        return None
    counts = np.bincount(h)[1:]
    if np.any(counts != counts[0]):
        return None
    if np.any(h[1:] < h[:-1]):      # interleaved steps: sort them, keeping file order within one
        table = table[np.argsort(h, kind="stable")]
    n = int(counts[0])
    return tuple(StepData(*(table[k][i:i + n] for k in ("x", "a", "r", "x_next")))
                 for i in range(0, len(table), n))


def _load_rows(path: str, comments: list[str], lines: list[tuple[int, str]]) -> OfflineDataset:
    """The per-line pass over split_lines' split of the file at path."""
    if lines and lines[0][1] != _HEADER:
        raise DatasetError(f"{path}:{lines[0][0]}: expected header 'h,x,a,r,x_next'")
    rows: dict[int, list] = defaultdict(list)
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            raise DatasetError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
        try:
            h, x, a, r, xn = (read(v) for read, v in zip((int, int, int, float, int), parts))
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: malformed row: {exc}") from exc
        if h < 1:
            raise DatasetError(f"{path}:{lineno}: step index {h} out of range")
        if not all(0 <= v <= MAX_INDEX for v in (x, a, xn)):
            raise DatasetError(f"{path}:{lineno}: x, a and x_next must lie in [0, {MAX_INDEX}]")
        if not 0.0 <= r <= 1.0:
            raise DatasetError(f"{path}:{lineno}: reward {r} outside [0, 1]")
        rows[h].append((x, a, r, xn))
    if not rows:
        raise DatasetError(f"{path}: no transition rows found")
    H = max(rows)
    if len(rows) != H:      # the step indices are distinct and >= 1, so this means 1..H
        raise DatasetError(f"{path}: missing step slots, found {sorted(rows)}")
    counts = {h: len(v) for h, v in rows.items()}
    if len(set(counts.values())) != 1:
        raise DatasetError(f"{path}: unequal slot sizes {counts}")
    return OfflineDataset(tuple(StepData(*map(np.array, zip(*rows[h]))) for h in range(1, H + 1)),
                          _meta(comments))
