# Ground-truth diagnostics (completeness errors, concentrability, regret),
# hold-out and hindsight-oracle baselines, and the two benchmark experiment
# families: a stochastic-chain tabular study with nested state abstractions
# and a linear contextual-bandit study with truncated feature classes.
from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from dataclasses import MISSING, dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .basealg import BaseAlgorithm, QSequence, check_delta, make_fqi
from .dataset import (MAX_SAMPLES, MIN_SAMPLES, OfflineDataset, SlotArrays, StepData,
                      generate_from_mu, split_dataset, stream)
from .funcclass import AbstractionClass, FunctionClass, LinearClass, NestedSequence, greedy_policy
from .mdp import TabularMDP, concentrability, regret
from .selection import SCHEDULES, SelectionTrace, modbe, modbe_discounted, validation_losses
from .textfile import read_lines, write_lines

COMPLETE_ATOL = 1e-12       # largest Approx(F_k) that counts F_k as complete


class EvalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Completeness diagnostics


def _backup_chunk(mdp: TabularMDP, h: int, maxima: np.ndarray) -> np.ndarray:
    """bellman_backup at step h of each row of a C-ordered (m, S) stack, bit for bit."""
    return mdp.rewards + (mdp.transitions[h - 1] @ maxima[:, None, :, None])[..., 0]


def _completeness_errors(inners: Sequence[FunctionClass], outer: FunctionClass,
                         mdp: TabularMDP, mu: np.ndarray) -> list:
    """Per inner class, max over h and outer's extreme members f' in [0, H - h], the
    range of FQI's f_{h+1} (f_{H+1} = 0), of min over its f of ||f - T*_h f'||^2_mu;
    each chunk of f' is backed up once for all inner classes. All None if outer has none."""
    worst = [0.0] * len(inners)
    for h in range(1, mdp.horizon + 1):
        chunks = outer.extreme_members(mdp.horizon - h)
        if chunks is None:
            return [None] * len(inners)
        for maxima in chunks:
            backups, w = _backup_chunk(mdp, h, maxima), mu[h - 1]
            worst = [float(np.max((w * (c.population_erm(w, backups) - backups) ** 2)
                                  .sum(axis=(1, 2)), initial=x)) for x, c in zip(worst, inners)]
    return worst


@dataclass
class DiagnosticReport:
    approx: list            # per-class Approx(F_k), None = not computable
    xi: list                # per-class xi_k, None = not computable
    k_star: int | None      # smallest complete class, when determinable
    conc: float             # C(mu), possibly +inf
    complexities: list

    def to_text(self) -> str:
        lines = [f"concentrability {self.conc!r}",
                 f"k_star {self.k_star if self.k_star is not None else 'unknown'}"]
        for i, (a, x, c) in enumerate(zip(self.approx, self.xi, self.complexities), start=1):
            a_s = "not-computable" if a is None else repr(a)
            x_s = "not-computable" if x is None else repr(x)
            lines.append(f"class {i} complexity {c!r} approx {a_s} xi {x_s}")
        return "\n".join(lines) + "\n"


def diagnose(classes: NestedSequence, mdp: TabularMDP, mu: np.ndarray) -> DiagnosticReport:
    """Approx(F_k) backs up F_k's own members, xi_k F_M's; Approx(F_M) is xi_M."""
    xi = _completeness_errors(classes.classes, classes.classes[-1], mdp, mu)
    approx = [_completeness_errors([c], c, mdp, mu)[0] for c in classes.classes[:-1]] + xi[-1:]
    k_star = next((k for k, a in enumerate(approx, start=1)
                   if a is not None and a <= COMPLETE_ATOL), None)
    return DiagnosticReport(approx, xi, k_star, concentrability(mdp, mu),
                            [c.complexity for c in classes.classes])


# ---------------------------------------------------------------------------
# Baseline selectors


def holdout_select(losses: Sequence[Sequence[float]]):
    """Pick the class with the smallest summed per-step validation loss, given
    one list of losses per class in class order (validation_losses of its
    fit); ties break to the smallest k. Returns (k, per-class scores)."""
    # a left-to-right sum: sum() compensates its rounding on Python >= 3.12
    scores = [functools.reduce(operator.add, per_step, 0.0) for per_step in losses]
    return int(np.argmin(scores)) + 1, scores


def oracle_select(regrets: Sequence[float]):
    """Hindsight-best baseline: the class with the smallest true regret, which
    needs the ground truth, given one regret per class in class order (that
    of its fit); ties break to the smallest k. Returns (k, per-class regrets)."""
    return int(np.argmin(regrets)) + 1, regrets


# ---------------------------------------------------------------------------
# Benchmark instances


def chain_mdp() -> TabularMDP:
    """Stochastic chain of 4 states over 4 steps: action 1 moves right (with
    slip 0.2), action 0 stays/falls back; only the last state pays full reward."""
    S, A, H, slip = 4, 2, 4, 0.2
    P = np.zeros((H, S, A, S))
    for x in range(S):
        left = max(x - 1, 0)
        right = min(x + 1, S - 1)
        P[:, x, 0, left] += 1.0 - slip
        P[:, x, 0, x] += slip
        P[:, x, 1, right] += 1.0 - slip
        P[:, x, 1, x] += slip
    r = np.zeros((S, A))
    r[S - 1, :] = 1.0
    r[0, 0] = 0.1          # distractor reward so coarse classes cost something
    rho = np.zeros(S)
    rho[0] = 1.0
    return TabularMDP(P, r, rho)


def chain_classes() -> NestedSequence:
    """Nested abstractions of chain_mdp's states, clipped to its horizon:
    single block, halves, then full tabular (complete)."""
    mdp = chain_mdp()
    S = mdp.num_states
    halves = (np.arange(S) >= S // 2).astype(int)
    return NestedSequence(tuple(AbstractionClass(b, mdp.num_actions, clip_high=float(mdp.horizon))
                                for b in (np.zeros(S, dtype=int), halves, np.arange(S))))


def uniform_mu(mdp: TabularMDP) -> np.ndarray:
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    return np.full((H, S, A), 1.0 / (S * A))


def chain_instance():
    """The chain MDP, its nested abstractions and the uniform data distribution."""
    mdp = chain_mdp()
    return mdp, chain_classes(), uniform_mu(mdp)


def holdout_bias_instance():
    """Instance realizing the double-sampling bias of hold-out selection.

    A start state branches uniformly into a low-reward and a high-reward
    state, so the complete tabular class pays a large target-variance penalty
    on the validation Bellman proxy, while the constant class's true Bellman
    error is small because most of the data distribution sits on states a
    constant fits exactly. Hold-out therefore prefers the constant class (the
    one with the higher true Bellman error).
    """
    S, A, H = 5, 1, 2
    START, LOW, HIGH, PAD0, PAD1 = range(S)
    P = np.zeros((H, S, A, S))
    P[:, START, 0, LOW] = 0.5
    P[:, START, 0, HIGH] = 0.5
    for x in (LOW, HIGH, PAD0, PAD1):
        P[:, x, 0, x] = 1.0
    r = np.zeros((S, A))
    r[START, 0] = 0.5
    r[LOW, 0] = 0.0
    r[HIGH, 0] = 1.0
    r[PAD0, 0] = 0.5
    r[PAD1, 0] = 0.5
    rho = np.zeros(S)
    rho[START] = 1.0
    mdp = TabularMDP(P, r, rho)

    mu = np.zeros((H, S, A))
    mu[0, START, 0] = 1.0
    mu[1, LOW, 0] = 0.05
    mu[1, HIGH, 0] = 0.05
    mu[1, PAD0, 0] = 0.45
    mu[1, PAD1, 0] = 0.45

    constant = AbstractionClass(np.zeros(S, dtype=int), A, clip_high=float(H))
    tabular = AbstractionClass(np.arange(S), A, clip_high=float(H))
    return mdp, NestedSequence((constant, tabular)), mu


# ---------------------------------------------------------------------------
# Contextual-bandit instance (linear, truncated-feature nested classes)


CB_DIMS = (15, 20, 25, 28, 29, 30, 50, 75, 100, 200)
CB_MAX_CONTEXTS = 100_000   # largest feature draw: 1.6 GB of float64


class CBInstance:
    """Linear contextual bandit, a fixed specification: per-round, per-action
    Gaussian features of ambient dimension 200 whose reward weight vector is
    supported on the first 30 coordinates.

    With a capacity, every draw fills the front of one buffer of that many
    contexts, so a run's draws reuse the same pages; without one, each draw
    is a fresh array."""

    ambient_dim = 200
    active_dim = 30
    num_actions = 10
    class_dims = CB_DIMS
    noise_std = 0.5
    instance_seed = 7

    def __init__(self, capacity: int = 0):
        shape = (capacity, self.num_actions, self.ambient_dim)
        self.buffer = np.empty(shape) if capacity else None
        rng = stream(self.instance_seed, 99)
        # equal magnitude on every active coordinate so each truncation short
        # of the active dimension carries a detectable loss gap
        theta = np.zeros(self.ambient_dim)
        signs = np.where(np.arange(self.active_dim) % 2 == 0, 1.0, -1.0)
        theta[: self.active_dim] = signs / math.sqrt(self.active_dim)
        # per-(action, coordinate) feature scales; distinct covariances per action
        scales = 0.5 + rng.random((self.num_actions, self.ambient_dim))
        theta.setflags(write=False)
        scales.setflags(write=False)
        self.theta, self.scales = theta, scales

    def sample_features(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """(n, num_actions, ambient_dim) independent Gaussian features. With a
        buffer, the result is a view of its first n contexts that the next
        draw overwrites; the values are those of a fresh draw."""
        if self.buffer is None:
            z = rng.standard_normal((n, self.num_actions, self.ambient_dim))
        elif n > len(self.buffer):
            raise EvalError(f"{n} contexts exceed the feature buffer of {len(self.buffer)}")
        else:
            z = rng.standard_normal(out=self.buffer[:n])
        z *= self.scales
        return z

    def mean_rewards(self, features: np.ndarray) -> np.ndarray:
        return features @ self.theta

    def classes(self, features: np.ndarray) -> NestedSequence:
        """Nested linear classes over row/action indices into a feature tensor."""
        def feature_fn(xs, as_):
            return features[np.asarray(xs, dtype=int), np.asarray(as_, dtype=int)]
        return NestedSequence(tuple(
            LinearClass(feature_fn, d, self.num_actions) for d in self.class_dims))


# ---------------------------------------------------------------------------
# Experiment configuration and runners


TABULAR_INSTANCES = {"chain": chain_instance, "holdout_bias": holdout_bias_instance}


@dataclass
class ExperimentConfig:
    instance: str
    n_list: list
    seeds: list
    methods: list
    schedule: str = "practical"
    delta: float = 0.1
    output: str = "results.csv"

    def __post_init__(self):
        if not (self.n_list and self.seeds):
            raise EvalError(f"{'seeds' if self.n_list else 'n_list'} must not be empty")
        if any(not MIN_SAMPLES <= n <= MAX_SAMPLES for n in self.n_list):
            raise EvalError(f"all n values must lie in [{MIN_SAMPLES}, {MAX_SAMPLES}]")
        if len(set(self.n_list)) != len(self.n_list):
            raise EvalError("n values must be distinct")
        if len(set(self.seeds)) != len(self.seeds) or any(s < 0 for s in self.seeds):
            raise EvalError("seeds must be distinct and non-negative")
        if self.schedule not in SCHEDULES:
            raise EvalError(f"schedule must be practical or theoretical, got {self.schedule!r}")
        check_delta(self.delta, EvalError)
        largest = max(self.n_list)
        if self.instance == "cb" and largest > CB_MAX_CONTEXTS:
            per = CBInstance.num_actions * CBInstance.ambient_dim * 8   # float64 bytes a context
            raise EvalError(f"cb n = {largest} needs a {largest * per}-byte feature buffer; "
                            f"at most {CB_MAX_CONTEXTS} contexts ({CB_MAX_CONTEXTS * per} bytes)")
        classes = CB_DIMS if self.instance == "cb" else _tabular_instance(self.instance)[1]
        self.methods = _expand_methods(self.methods, len(classes))  # CB_DIMS: one entry a class


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


CONFIG_KEYS = tuple(field.name for field in fields(ExperimentConfig))
_CONFIG_VALUE = {"n_list": _int_list, "seeds": _int_list, "delta": float,
                 "methods": lambda text: [t.strip() for t in text.split(",")]}   # others: str


def parse_config(path: str) -> ExperimentConfig:
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in read_lines(path)[1]:
        if "=" not in line:
            raise EvalError(f"{path}:{lineno}: expected 'key = value'")
        k, v = (t.strip() for t in line.split("=", 1))
        if k in values:
            raise EvalError(f"{path}:{lineno}: config key {k!r} repeats line {first_line[k]}")
        values[k], first_line[k] = v, lineno
    unknown = sorted(set(values) - set(CONFIG_KEYS))
    if unknown:
        raise EvalError(f"{path}: unknown config key(s) {', '.join(map(repr, unknown))}; "
                        f"accepted: {', '.join(CONFIG_KEYS)}")
    given = {}          # a key the file leaves out takes the field's default
    for field in fields(ExperimentConfig):
        key = field.name
        if key not in values:
            if field.default is MISSING:
                raise EvalError(f"{path}: missing config key {key!r}")
            continue
        try:
            given[key] = _CONFIG_VALUE.get(key, str)(values[key])
        except ValueError as exc:
            raise EvalError(f"{path}: config key {key!r}: {exc}") from exc
    return ExperimentConfig(**given)


@functools.cache
def _tabular_instance(name: str):
    """(mdp, classes, mu) of a tabular instance, built once per process and
    shared by every cell; mu is read-only like the MDP and classes."""
    if name not in TABULAR_INSTANCES:
        raise EvalError(f"unknown instance family {name!r}")
    mdp, classes, mu = TABULAR_INSTANCES[name]()
    mu.setflags(write=False)
    return mdp, classes, mu


def _expand_methods(methods: Sequence[str], num_classes: int) -> list[str]:
    """Expand 'fixed' into fixed-1..fixed-M, write each fixed-K index in plain
    digits and reject an unknown or repeated method."""
    out = []
    for m in methods:
        if m == "fixed":
            out.extend(f"fixed-{k}" for k in range(1, num_classes + 1))
        elif m.startswith("fixed-"):
            idx = m[len("fixed-"):]
            if not (idx.isdecimal() and 1 <= int(idx) <= num_classes):
                raise EvalError(f"method {m!r}: class index outside [1, {num_classes}]")
            out.append(f"fixed-{int(idx)}")
        elif m in ("modbe", "holdout", "oracle"):
            out.append(m)
        else:
            raise EvalError(f"unknown method {m!r}")
    if not out:
        raise EvalError("no methods given")
    repeated = sorted({m for m in out if out.count(m) > 1})
    if repeated:
        raise EvalError(f"method(s) given twice: {', '.join(repeated)}")
    return out


def _method_rows(seed: int, methods: Sequence[str], dataset: OfflineDataset,
                 base: BaseAlgorithm, classes: NestedSequence,
                 select: Callable[[], SelectionTrace]) -> list[tuple]:
    """One row (dataset.n, seed, method, k, fits, runtime_ms) per expanded method, for
    _scored to fill in: fits maps each class a row reads (every class when
    oracle runs, whose k stays None) to its QSequence. ModBE (select()) runs
    first when requested; the baselines reuse its split and fits, and base fits
    only the other classes a pick reads: every class for holdout and oracle.
    Holdout also reuses the validation losses of the classes ModBE tested.
    runtime_ms times a method's own choice (all of select() for modbe).
    """
    if "modbe" in methods:
        t0 = time.perf_counter()
        trace = select()
        modbe_ms = (time.perf_counter() - t0) * 1000.0
        split, fits, tested = trace.split, dict(trace.fits), trace.valid_losses
    else:
        split, fits, tested = split_dataset(dataset, seed), {}, {}
    every = range(1, len(classes) + 1)
    compare = "holdout" in methods or "oracle" in methods
    for k in every:
        if k not in fits and (compare or f"fixed-{k}" in methods):
            fits[k] = base.fit(split.train.steps, classes[k])
    rows = []
    for method in methods:
        t0 = time.perf_counter()
        if method == "modbe":
            k = trace.k_hat
        elif method == "holdout":
            k, _ = holdout_select([tested[j] if j in tested
                                   else validation_losses(fits[j], split.valid.steps)
                                   for j in every])
        elif method == "oracle":
            k = None
        else:
            k = int(method.split("-")[1])
        ms = modbe_ms if method == "modbe" else (time.perf_counter() - t0) * 1000.0
        rows.append((method, k, ms))
    read = every if "oracle" in methods else sorted({k for _, k, _ in rows})
    kept = {k: fits[k] for k in read}
    return [(dataset.n, seed, method, k, kept, ms) for method, k, ms in rows]


def _scored(rows: list[tuple], regrets: dict[int, float]) -> list[tuple]:
    """A cell's _method_rows with regrets (class index -> regret) and oracle's k filled in."""
    scored = []
    for n, seed, method, k, _fits, ms in rows:
        k = k or oracle_select([regrets[j] for j in sorted(regrets)])[0]
        scored.append((n, seed, method, k, regrets[k], ms))
    return scored


def tabular_regrets(mdp: TabularMDP, memo: dict, fits: Sequence[QSequence]) -> list[float]:
    """Regret on mdp of each fit's greedy policy. A fit's regret depends only
    on its greedy action table, so memo maps each table scored so far (as
    bytes) to its regret; the cells of one run_seeds call share it."""
    scores = []
    for fseq in fits:
        # the argmax greedy_policy takes; ties break to the lowest action in both
        key = np.stack([f.clipped for f in fseq.funcs]).argmax(axis=2).tobytes()
        if key not in memo:
            memo[key] = regret(mdp, greedy_policy(fseq.funcs))
        scores.append(memo[key])
    return scores


def run_rl_cell(n: int, seed: int, cfg: ExperimentConfig, instance: tuple,
                arrays: SlotArrays) -> list[tuple]:
    """One (n, seed) cell of a tabular instance (mdp, classes, mu); its rows keep
    their fits. On the one-action holdout_bias instance only the picked k matters.
    The cell's dataset and split fill arrays, which the next cell given the same
    arrays overwrites; the fits hold only tables."""
    mdp, classes, mu = instance
    base = make_fqi()
    dataset = generate_from_mu(mdp, mu, n, seed, out=arrays)
    return _method_rows(seed, cfg.methods, dataset, base, classes,
                        lambda: modbe(dataset, base, classes, cfg.delta, cfg.schedule, seed))


CB_EVAL_CONTEXTS = 10_000
CB_EVAL_CHUNK = 1_000       # contexts drawn and scored at a time


def _score_chunk(instance: CBInstance, rng: np.random.Generator,
                 stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Draw one chunk of contexts. Return its best mean rewards and, for each
    row of stacked, the mean rewards of the actions that row picks. The
    chunk is a view that the next draw overwrites (a fresh array, released
    on return, when the instance has no buffer)."""
    feats = instance.sample_features(CB_EVAL_CHUNK, rng)
    means = instance.mean_rewards(feats)
    scores = stacked @ feats.reshape(-1, instance.ambient_dim).T
    actions = scores.reshape(len(stacked), CB_EVAL_CHUNK, instance.num_actions).argmax(axis=2)
    return means.max(axis=1), means[np.arange(CB_EVAL_CHUNK), actions]


def cb_policy_regrets(instance: CBInstance, seed: int, weights: Sequence) -> list[float]:
    """Policy regret of each fit's weights (a vector as long as its class's dim)
    on a seed's evaluation set, drawn CB_EVAL_CHUNK contexts at a time from
    the stream (seed, 1) for any n.

    One product per chunk scores every fit: the weights sit zero-padded in
    the rows of one (len(weights), ambient_dim) matrix. Its scores may differ
    from the per-fit products feats[:, :, :len(w)] @ w in the last bits, but
    the chosen actions, and so the regrets, are theirs."""
    rng = stream(seed, 1)
    stacked = np.zeros((len(weights), instance.ambient_dim))
    for row, w in zip(stacked, weights):
        row[:len(w)] = w
    best, picked = zip(*(_score_chunk(instance, rng, stacked)
                         for _ in range(CB_EVAL_CONTEXTS // CB_EVAL_CHUNK)))
    best_mean = np.concatenate(best).mean()
    # one contiguous row per fit: each mean sums as over the whole set at once
    return [float(best_mean - row.mean()) for row in np.concatenate(picked, axis=1)]


def run_cb_cell(n: int, seed: int, cfg: ExperimentConfig, instance: CBInstance) -> list[tuple]:
    """One (n, seed) cell of the contextual bandit; its rows keep their fits. A
    kept fit's features live in the run's buffer, which the next draw overwrites;
    after that draw only the scorer reads the fit, and only its weights."""
    rng = stream(seed, 0, n)
    feats = instance.sample_features(n, rng)
    means = instance.mean_rewards(feats)
    actions = rng.integers(0, instance.num_actions, size=n)
    rewards = means[np.arange(n), actions] + instance.noise_std * rng.standard_normal(n)
    data = StepData(np.arange(n), actions, rewards, np.zeros(n, dtype=int))
    classes = instance.classes(feats)
    return _method_rows(seed, cfg.methods, OfflineDataset((data,)), make_fqi(), classes,
                        lambda: modbe_discounted(data, classes, cfg.delta, cfg.schedule, seed))


def run_seeds(seeds: Sequence[int], cfg: ExperimentConfig) -> list[tuple]:
    """Every n of each seed, seed by seed, on one run state built for the call:
    the CB's feature buffer, which every draw fills, or the tabular slot arrays,
    which every cell fills, and the regret memo (see tabular_regrets). A seed's
    cells fit first; then one call of the family's scorer fills in every fit they
    kept, the CB's in one pass over the seed's evaluation set."""
    if cfg.instance == "cb":
        instance = CBInstance(max(max(cfg.n_list), CB_EVAL_CHUNK))
        cell, score = run_cb_cell, lambda seed, fits: cb_policy_regrets(
            instance, seed, [f.func(1).weights for f in fits])
    else:
        instance, memo = _tabular_instance(cfg.instance), {}
        cell = functools.partial(run_rl_cell,
                                 arrays=SlotArrays(instance[0].horizon, max(cfg.n_list)))
        score = lambda _seed, fits: tabular_regrets(instance[0], memo, fits)
    rows = []
    for seed in seeds:
        cells = [cell(n, seed, cfg, instance) for n in cfg.n_list]
        regrets = iter(score(seed, [f for c in cells for f in c[0][4].values()]))
        rows += [row for c in cells for row in _scored(c, {k: next(regrets) for k in c[0][4]})]
    return rows


def run_experiment(cfg: ExperimentConfig, jobs: int = 1,
                   record_runtime: bool = True) -> list[tuple]:
    """Run every (n, seed) cell; output rows sorted deterministically.

    The config is checked again first, as if built anew, so a field set
    after construction cannot reach a cell unchecked. The seeds are dealt
    into one interleaved group per worker, at most one worker per seed, and
    each group is one run_seeds call: in this process for one worker, one
    pool task each for more. Seeds are independent, so results are
    identical for any job count (runtimes excepted, which is why
    record_runtime exists).
    """
    cfg = replace(cfg)
    workers = min(jobs, len(cfg.seeds))
    groups = [cfg.seeds[i::workers] for i in range(workers)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_seeds, groups, itertools.repeat(cfg)))
    else:
        chunks = [run_seeds(cfg.seeds, cfg)]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    if not record_runtime:
        rows = [(n, s, m, k, reg, "") for (n, s, m, k, reg, _) in rows]
    return rows


def write_results_csv(rows: Sequence[tuple], path: str) -> None:
    lines = (f"{n},{seed},{method},{k},{reg!r},{'' if ms == '' else format(ms, '.0f')}\n"
             for n, seed, method, k, reg, ms in rows)
    write_lines(path, ["n,seed,method,selected_k,regret,runtime_ms\n"], lines)


def summarize(rows: Sequence[tuple]) -> str:
    """Per-(n, method) mean regret with standard error, as a plain-text table."""
    groups: dict[tuple, list] = {}
    for n, _seed, method, _k, reg, _ms in rows:
        groups.setdefault((n, method), []).append(reg)
    lines = [f"{'n':>8} {'method':<12} {'mean_regret':>12} {'stderr':>10} {'runs':>5}"]
    for (n, method), vals in sorted(groups.items()):
        arr = np.asarray(vals, dtype=float)
        se = arr.std(ddof=1) / math.sqrt(len(arr)) if len(arr) > 1 else 0.0
        lines.append(f"{n:>8} {method:<12} {arr.mean():>12.5f} {se:>10.5f} {len(arr):>5}")
    return "\n".join(lines) + "\n"
