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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .basealg import DELTA_MAX, BaseAlgorithm, QSequence, make_discounted, make_fqi
from .dataset import (MAX_SAMPLES, MIN_SAMPLES, OfflineDataset, StepData, generate_from_mu,
                      split_dataset)
from .funcclass import (ABSTRACTION_QUANTUM, AbstractionClass, FunctionClass, LinearClass,
                        NestedSequence, greedy_policy)
from .mdp import TabularMDP, bellman_backup, concentrability, regret
from .selection import SelectionTrace, modbe, modbe_discounted, validation_losses
from .textfile import read_lines

ENUMERATION_CAP = 200_000   # largest member set enumerated for Approx / xi
COMPLETE_ATOL = 1e-12       # largest Approx(F_k) that counts F_k as complete


class EvalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Completeness diagnostics


def _enumerate_members(fclass: FunctionClass):
    """Clipped member tables of an enumerable class, or None when not enumerable."""
    if fclass.variant == "finite":
        return [m.clipped for m in fclass.members]
    if fclass.variant == "abstraction":
        high = fclass.clip_high if fclass.clip_high is not None else 1.0
        grid = np.arange(0.0, high + ABSTRACTION_QUANTUM / 2, ABSTRACTION_QUANTUM)
        cells = fclass.num_blocks * fclass.num_actions
        if len(grid) ** cells > ENUMERATION_CAP:
            return None
        members = []
        for combo in itertools.product(grid, repeat=cells):
            vals = np.array(combo).reshape(fclass.num_blocks, fclass.num_actions)
            members.append(vals[fclass.blocks])
        return members
    return None


def _projection_error(fclass: FunctionClass, target: np.ndarray, weights: np.ndarray) -> float:
    """min_{f in class} ||f - target||^2_weights over clipped values, exactly."""
    table = fclass.population_erm(weights, target).clipped
    return float((weights * (table - target) ** 2).sum())


def _completeness_error(inner: FunctionClass, outer: FunctionClass,
                        mdp: TabularMDP, mu: np.ndarray) -> float | None:
    """max over h and outer members f' of min over inner f of ||f - T*_h f'||^2_mu;
    None when outer is not enumerable, which covers every linear sequence."""
    members = _enumerate_members(outer)
    if members is None:
        return None
    worst = 0.0
    for h in range(1, mdp.horizon + 1):
        for table in members:
            backup = bellman_backup(mdp, h, table)
            worst = max(worst, _projection_error(inner, backup, mu[h - 1]))
    return worst


def approx_error(fclass: FunctionClass, mdp: TabularMDP, mu: np.ndarray) -> float | None:
    """Completeness error Approx(F); None when the class is not enumerable."""
    return _completeness_error(fclass, fclass, mdp, mu)


def global_xi(classes: NestedSequence, k: int, mdp: TabularMDP,
              mu: np.ndarray) -> float | None:
    """Global completeness error xi_k: backups taken over F_M, projected onto F_k."""
    return _completeness_error(classes[k], classes[len(classes)], mdp, mu)


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
    approx = [approx_error(classes[k], mdp, mu) for k in range(1, len(classes) + 1)]
    xi = [global_xi(classes, k, mdp, mu) for k in range(1, len(classes) + 1)]
    k_star = next((k for k, a in enumerate(approx, start=1)
                   if a is not None and a <= COMPLETE_ATOL), None)
    return DiagnosticReport(approx, xi, k_star, concentrability(mdp, mu),
                            [classes[k].complexity for k in range(1, len(classes) + 1)])


# ---------------------------------------------------------------------------
# Baseline selectors


def holdout_select(valid_steps: Sequence[StepData], fseqs: Sequence[QSequence]):
    """Pick the fitted sequence with the smallest summed per-step validation
    loss; ties break to the smallest k. Returns (k, per-class scores)."""
    # a left-to-right sum: sum() compensates its rounding on Python >= 3.12
    scores = [functools.reduce(operator.add, validation_losses(fseq, valid_steps), 0.0)
              for fseq in fseqs]
    return int(np.argmin(scores)) + 1, scores


def oracle_select(regret_of: Callable[[QSequence], float], fseqs: Sequence[QSequence]):
    """Hindsight-best baseline: the fitted sequence with the smallest true
    regret, as scored by regret_of, which needs the ground truth. Returns
    (k, per-class regrets)."""
    regrets = [regret_of(fseq) for fseq in fseqs]
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


def chain_classes(num_states: int = 4, horizon: int = 4) -> NestedSequence:
    """Nested abstractions: single block, halves, then full tabular (complete)."""
    S = num_states
    coarse = np.zeros(S, dtype=int)
    mid = (np.arange(S) >= S // 2).astype(int)
    full = np.arange(S)
    return NestedSequence(tuple(
        AbstractionClass(b, 2, clip_high=float(horizon)) for b in (coarse, mid, full)))


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


class CBInstance:
    """Linear contextual bandit, a fixed specification: per-round, per-action
    Gaussian features of ambient dimension 200 whose reward weight vector is
    supported on the first 30 coordinates."""

    ambient_dim = 200
    active_dim = 30
    num_actions = 10
    class_dims = CB_DIMS
    noise_std = 0.5
    instance_seed = 7

    def __init__(self):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence((self.instance_seed, 99))))
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
        """(n, num_actions, ambient_dim) independent Gaussian features."""
        z = rng.standard_normal((n, self.num_actions, self.ambient_dim))
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
CONFIG_KEYS = ("instance", "n_list", "seeds", "methods", "schedule", "delta", "output")


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
        if any(not MIN_SAMPLES <= n <= MAX_SAMPLES for n in self.n_list):
            raise EvalError(f"all n values must lie in [{MIN_SAMPLES}, {MAX_SAMPLES}]")
        if len(set(self.n_list)) != len(self.n_list):
            raise EvalError("n values must be distinct")
        if len(set(self.seeds)) != len(self.seeds) or any(s < 0 for s in self.seeds):
            raise EvalError("seeds must be distinct and non-negative")
        if self.schedule not in ("practical", "theoretical"):
            raise EvalError(f"schedule must be practical or theoretical, got {self.schedule!r}")
        if not 0.0 < self.delta <= DELTA_MAX:     # NaN fails the comparison too
            raise EvalError(f"delta must lie in (0, 1/e], got {self.delta}")


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

    def number(key, convert, default=None):
        text = values[key] if default is None else values.get(key, default)
        try:
            return convert(text)
        except ValueError as exc:
            raise EvalError(f"{path}: config key {key!r}: {exc}") from exc

    def int_list(text):
        return [int(t) for t in text.split(",")]

    try:
        return ExperimentConfig(
            instance=values["instance"],
            n_list=number("n_list", int_list),
            seeds=number("seeds", int_list),
            methods=[t.strip() for t in values["methods"].split(",")],
            schedule=values.get("schedule", "practical"),
            delta=number("delta", float, "0.1"),
            output=values.get("output", "results.csv"),
        )
    except KeyError as exc:
        raise EvalError(f"{path}: missing config key {exc}") from exc


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


def _method_rows(n: int, seed: int, methods: Sequence[str], dataset: OfflineDataset,
                 base: BaseAlgorithm, classes: NestedSequence,
                 select: Callable[[], SelectionTrace],
                 keep: Callable[[QSequence], object] = lambda fseq: fseq) -> list[tuple]:
    """One row (n, seed, method, k, fits, runtime_ms) per expanded method, for
    _scored to fill in: fits maps each class a row reads (every class when
    oracle runs, whose k stays None) to keep(its fit). ModBE (select()) runs
    first when requested; the baselines reuse its split and fits, and base fits
    only the other classes a pick reads: every class for holdout and oracle.
    runtime_ms times a method's own choice (all of select() for modbe).
    """
    if "modbe" in methods:
        t0 = time.perf_counter()
        trace = select()
        modbe_ms = (time.perf_counter() - t0) * 1000.0
        split, fits = trace.split, dict(trace.fits)
    else:
        split, fits = split_dataset(dataset, seed), {}
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
            k, _ = holdout_select(split.valid.steps, [fits[j] for j in every])
        elif method == "oracle":
            k = None
        else:
            k = int(method.split("-")[1])
        ms = modbe_ms if method == "modbe" else (time.perf_counter() - t0) * 1000.0
        rows.append((n, seed, method, k, ms))
    read = every if "oracle" in methods else sorted({row[3] for row in rows})
    kept = {k: keep(fits[k]) for k in read}
    return [(n, seed, method, k, kept, ms) for n, seed, method, k, ms in rows]


def _scored(rows: list[tuple], regrets: dict[int, float]) -> list[tuple]:
    """A cell's _method_rows with regrets (class index -> regret) and oracle's k filled in."""
    scored = []
    for n, seed, method, k, _fits, ms in rows:
        k = k or oracle_select(regrets.get, sorted(regrets))[0]
        scored.append((n, seed, method, k, regrets[k], ms))
    return scored


def run_rl_cell(n: int, seed: int, methods: Sequence[str], schedule: str,
                delta: float, instance: str = "chain") -> list[tuple]:
    """All requested methods on one (n, seed) cell of a tabular instance.

    On the one-action holdout_bias instance regret is uninformative: the
    selected class index is the quantity of interest.
    """
    mdp, classes, mu = _tabular_instance(instance)
    methods = _expand_methods(methods, len(classes))
    base = make_fqi(mdp.horizon)
    dataset = generate_from_mu(mdp, mu, n, seed)
    rows = _method_rows(n, seed, methods, dataset, base, classes,
                        lambda: modbe(dataset, base, classes, delta, schedule, seed))
    return _scored(rows, {k: regret(mdp, greedy_policy(fseq.funcs))
                          for k, fseq in rows[0][4].items()})


CB_EVAL_CONTEXTS = 10_000
CB_EVAL_CHUNK = 1_000       # contexts drawn and scored at a time


def _score_chunk(instance: CBInstance, rng: np.random.Generator,
                 stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Draw one chunk of contexts. Return its best mean rewards and, for each
    row of stacked, the mean rewards of the actions that row picks. The
    chunk is released on return, before the next one is drawn."""
    feats = instance.sample_features(CB_EVAL_CHUNK, rng)
    means = instance.mean_rewards(feats)
    scores = stacked @ feats.reshape(-1, instance.ambient_dim).T
    actions = scores.reshape(len(stacked), CB_EVAL_CHUNK, instance.num_actions).argmax(axis=2)
    return means.max(axis=1), means[np.arange(CB_EVAL_CHUNK), actions]


def cb_policy_regrets(instance: CBInstance, seed: int, fits: Sequence[tuple]) -> list[float]:
    """Policy regret of each (dim, weights) in fits on a seed's evaluation set,
    drawn CB_EVAL_CHUNK contexts at a time from the stream (seed, 1) for any n.

    One product per chunk scores every fit: the weights sit zero-padded in
    the rows of one (len(fits), ambient_dim) matrix. Its scores may differ
    from the per-fit products feats[:, :, :dim] @ weights in the last bits,
    but the chosen actions, and so the regrets, are theirs."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 1))))
    stacked = np.zeros((len(fits), instance.ambient_dim))
    for row, (dim, weights) in zip(stacked, fits):
        row[:dim] = weights
    best, picked = zip(*(_score_chunk(instance, rng, stacked)
                         for _ in range(CB_EVAL_CONTEXTS // CB_EVAL_CHUNK)))
    best_mean = np.concatenate(best).mean()
    # one contiguous row per fit: each mean sums as over the whole set at once
    return [float(best_mean - row.mean()) for row in np.concatenate(picked, axis=1)]


def run_cb_cell(n: int, seed: int, methods: Sequence[str], instance: CBInstance,
                delta: float, schedule: str) -> list[tuple]:
    """One (n, seed) cell of the contextual bandit; its rows keep (dim, weights) fits."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0, n))))
    feats = instance.sample_features(n, rng)
    means = instance.mean_rewards(feats)
    actions = rng.integers(0, instance.num_actions, size=n)
    rewards = means[np.arange(n), actions] + instance.noise_std * rng.standard_normal(n)
    data = StepData(np.arange(n), actions, rewards, np.zeros(n, dtype=int))
    classes = instance.classes(feats)
    methods = _expand_methods(methods, len(classes))
    return _method_rows(n, seed, methods, OfflineDataset((data,)), make_discounted(), classes,
                        lambda: modbe_discounted(data, classes, delta, schedule, seed),
                        lambda fseq: (fseq.func(1).dim, fseq.func(1).weights))


def run_seed(seed: int, cfg: ExperimentConfig) -> list[tuple]:
    """Every n of one seed. A CB seed's cells all fit first, then one pass
    over its evaluation set scores every fit they kept."""
    if cfg.instance != "cb":
        return [row for n in cfg.n_list for row in
                run_rl_cell(n, seed, cfg.methods, cfg.schedule, cfg.delta, cfg.instance)]
    instance = CBInstance()
    cells = [run_cb_cell(n, seed, cfg.methods, instance, cfg.delta, cfg.schedule)
             for n in cfg.n_list]
    regrets = iter(cb_policy_regrets(instance, seed, [f for c in cells for f in c[0][4].values()]))
    return [row for c in cells for row in _scored(c, {k: next(regrets) for k in c[0][4]})]


def run_experiment(cfg: ExperimentConfig, jobs: int = 1,
                   record_runtime: bool = True) -> list[tuple]:
    """Run every (n, seed) cell; output rows sorted deterministically.

    The seed is the unit of work: one task runs all of a seed's n values, so
    the pool gets at most one worker per seed, and one seed runs in this
    process. Seeds are independent and may execute in parallel; results are
    identical for any job count (runtimes excepted, which is why
    record_runtime exists).
    """
    # reject an unknown instance or method before any cell runs
    num_classes = len(CB_DIMS) if cfg.instance == "cb" else len(_tabular_instance(cfg.instance)[1])
    _expand_methods(cfg.methods, num_classes)
    workers = min(jobs, len(cfg.seeds))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_seed, cfg.seeds, itertools.repeat(cfg)))
    else:
        chunks = [run_seed(seed, cfg) for seed in cfg.seeds]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    if not record_runtime:
        rows = [(n, s, m, k, reg, "") for (n, s, m, k, reg, _) in rows]
    return rows


def write_results_csv(rows: Sequence[tuple], path: str) -> None:
    lines = ["n,seed,method,selected_k,regret,runtime_ms"]
    for n, seed, method, k, reg, ms in rows:
        ms_s = "" if ms == "" else f"{ms:.0f}"
        lines.append(f"{n},{seed},{method},{k},{reg!r},{ms_s}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
