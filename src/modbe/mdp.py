# Finite-horizon tabular MDP: exact dynamic-programming oracles for optimal
# values, policy evaluation, occupancy measures, concentrability, and the
# squared-Bellman-error regret bound.
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .textfile import float_line, numbers, read_lines, write_lines

PROB_ATOL = 1e-12          # input validation tolerance on probability rows


class MDPError(ValueError):
    """Raised for structurally invalid MDPs, policies, or distributions."""


def _check_prob_rows(arr: np.ndarray, name: str) -> None:
    if np.any(arr < 0):
        raise MDPError(f"{name} has negative entries")
    with np.errstate(over="ignore"):       # a row of huge entries sums to inf and fails
        dev = np.abs(arr.sum(axis=-1) - 1.0).max(initial=0.0)
    if not dev <= PROB_ATOL:    # NaN fails too; an array with no rows passes
        raise MDPError(f"{name} rows do not sum to 1 (max dev {dev:.3e})")


@dataclass(frozen=True)
class TabularMDP:
    """Exact finite-horizon MDP with per-step transitions and deterministic rewards.

    transitions: (H, S, A, S) with transitions[h, x, a] a distribution over next states.
    rewards:     (S, A) in [0, 1], time-independent.
    initial_dist:(S,) distribution over initial states.
    """

    transitions: np.ndarray
    rewards: np.ndarray
    initial_dist: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.transitions, dtype=float)
        r = np.asarray(self.rewards, dtype=float)
        rho = np.asarray(self.initial_dist, dtype=float)
        if P.ndim != 4 or P.shape[1] != P.shape[3]:
            raise MDPError(f"transitions must have shape (H, S, A, S), got {P.shape}")
        H, S, A, _ = P.shape
        if r.shape != (S, A):
            raise MDPError(f"rewards must have shape ({S}, {A}), got {r.shape}")
        if rho.shape != (S,):
            raise MDPError(f"initial_dist must have shape ({S},), got {rho.shape}")
        _check_prob_rows(P, "transition table")
        _check_prob_rows(rho[None, :], "initial distribution")
        if not np.all((r >= 0.0) & (r <= 1.0)):   # NaN fails both
            raise MDPError("rewards must lie in [0, 1]")
        for name, arr in (("transitions", P), ("rewards", r), ("initial_dist", rho)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_states(self) -> int:
        return self.transitions.shape[1]

    @property
    def num_actions(self) -> int:
        return self.transitions.shape[2]

    @property
    def horizon(self) -> int:
        return self.transitions.shape[0]

    @functools.cached_property
    def optimal_value(self) -> float:
        """v(pi*) of a greedy optimal policy, computed on first use and kept."""
        return policy_value(self, greedy_policy_from_tables(optimal_q(self)))


@dataclass(frozen=True)
class Policy:
    """Per-step per-state action distributions, shape (H, S, A)."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 3:
            raise MDPError(f"policy must have shape (H, S, A), got {p.shape}")
        _check_prob_rows(p, "policy")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def deterministic(cls, actions: np.ndarray, num_actions: int) -> "Policy":
        """Point-mass policy from an (H, S) integer action table."""
        return cls(np.eye(num_actions)[np.asarray(actions, dtype=int)])

    @classmethod
    def uniform(cls, horizon: int, num_states: int, num_actions: int) -> "Policy":
        return cls(np.full((horizon, num_states, num_actions), 1.0 / num_actions))


def check_data_distribution(mdp: TabularMDP, mu: np.ndarray) -> np.ndarray:
    """Validate a per-step (H, S, A) data distribution over state-action pairs."""
    mu = np.asarray(mu, dtype=float)
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    if mu.shape != (H, S, A):
        raise MDPError(f"data distribution must have shape ({H}, {S}, {A}), got {mu.shape}")
    flat = mu.reshape(H, S * A)
    _check_prob_rows(flat, "data distribution")
    return mu


def bellman_backup(mdp: TabularMDP, h: int, q_next: np.ndarray | None) -> np.ndarray:
    """Optimal Bellman backup at step h (1-based): r + E_{x'}[max_a' q_next(x', a')].

    q_next may be None at h = H (the zero function beyond the horizon).
    """
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    if not 1 <= h <= H:
        raise MDPError(f"step index {h} outside [1, {H}]")
    if q_next is None:
        q_next = np.zeros((S, A))
    q_next = np.asarray(q_next, dtype=float)
    if q_next.shape != (S, A):
        raise MDPError(f"q_next must have shape ({S}, {A}), got {q_next.shape}")
    v_next = q_next.max(axis=1)
    return mdp.rewards + mdp.transitions[h - 1] @ v_next


def optimal_q(mdp: TabularMDP) -> np.ndarray:
    """Backward induction: Q*_h tables stacked into shape (H, S, A)."""
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    q = np.zeros((H, S, A))
    q_next = None
    for h in range(H, 0, -1):
        q[h - 1] = bellman_backup(mdp, h, q_next)
        q_next = q[h - 1]
    return q


def greedy_policy_from_tables(q: np.ndarray) -> Policy:
    """Greedy deterministic policy from (H, S, A) tables; ties break to the lowest action."""
    q = np.asarray(q, dtype=float)
    return Policy.deterministic(q.argmax(axis=2), q.shape[2])


def policy_value(mdp: TabularMDP, policy: Policy) -> float:
    """Exact v(pi) = E_{x ~ rho}[V^pi_1(x)] via backward DP."""
    H, S, _ = mdp.horizon, mdp.num_states, mdp.num_actions
    if policy.probs.shape[:2] != (H, S):
        raise MDPError("policy dimensions do not match the MDP")
    v = np.zeros(S)
    for h in range(H, 0, -1):
        q = mdp.rewards + mdp.transitions[h - 1] @ v
        v = (policy.probs[h - 1] * q).sum(axis=1)
    return float(mdp.initial_dist @ v)


def regret(mdp: TabularMDP, policy: Policy) -> float:
    return mdp.optimal_value - policy_value(mdp, policy)


def occupancy(mdp: TabularMDP, policy: Policy) -> np.ndarray:
    """Per-step state-action occupancy P^pi_h(x, a), shape (H, S, A)."""
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    if policy.probs.shape != (H, S, A):
        raise MDPError("policy dimensions do not match the MDP")
    occ = np.zeros((H, S, A))
    state_dist = mdp.initial_dist.copy()
    for h in range(H):
        occ[h] = state_dist[:, None] * policy.probs[h]
        state_dist = np.einsum("xa,xay->y", occ[h], mdp.transitions[h])
    return occ


def max_reach(mdp: TabularMDP) -> np.ndarray:
    """maxreach[h, x] = max over policies of P^pi_{h+1}(x) (0-based h).

    Backward DP per target step: M_t[xbar, x] is the best probability of
    occupying x at the target step starting from xbar at step t.
    """
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    out = np.zeros((H, S))
    for h in range(H):
        m = np.eye(S)
        for t in range(h - 1, -1, -1):
            prod = mdp.transitions[t].reshape(S * A, S) @ m
            m = prod.reshape(S, A, S).max(axis=1)
        out[h] = mdp.initial_dist @ m
    return out


def concentrability(mdp: TabularMDP, mu: np.ndarray) -> float:
    """C(mu) = sup_{h,x,a,pi} P^pi_h(x,a) / mu_h(x,a); +inf when mu misses a reachable pair."""
    mu = check_data_distribution(mdp, mu)
    reach = np.broadcast_to(max_reach(mdp)[:, :, None], mu.shape)
    reachable = reach > 0.0
    if np.any(mu[reachable] <= 0.0):
        return math.inf
    return float(np.max(reach[reachable] / mu[reachable], initial=0.0))


def squared_bellman_errors(mdp: TabularMDP, mu: np.ndarray, f_tables: np.ndarray) -> np.ndarray:
    """Per-step mu-weighted squared Bellman residuals ||f_h - T*_h f_{h+1}||^2_{mu_h}."""
    mu = check_data_distribution(mdp, mu)
    f = np.asarray(f_tables, dtype=float)
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    if f.shape != (H, S, A):
        raise MDPError(f"f-sequence must have shape ({H}, {S}, {A}), got {f.shape}")
    errs = np.zeros(H)
    for h in range(H, 0, -1):
        backup = bellman_backup(mdp, h, f[h] if h < H else None)
        errs[h - 1] = float((mu[h - 1] * (f[h - 1] - backup) ** 2).sum())
    return errs


def perf_diff_bound(mdp: TabularMDP, mu: np.ndarray, f_tables: np.ndarray) -> float:
    """Regret bound 2 sqrt(C(mu) * sum_h ||f_h - T*_h f_{h+1}||^2_{mu_h}) for greedy(f)."""
    c = concentrability(mdp, mu)
    if math.isinf(c):
        return math.inf
    return 2.0 * math.sqrt(c * squared_bellman_errors(mdp, mu, f_tables).sum())


# ---------------------------------------------------------------------------
# Plain-text persistence. Format:
#   line 1: S A H
#   line 2: rho (S values)
#   then for each h in 1..H, S*A lines: the distribution P_h(. | x, a),
#   ordered x-major then a; then S lines of A reward values.
# Floats are written by textfile.float_line: a save/load round trip is value-exact.


def save_mdp(mdp: TabularMDP, path: str) -> None:
    S = mdp.num_states
    rows = [mdp.initial_dist, *mdp.transitions.reshape(-1, S), *mdp.rewards]
    write_lines(path, [f"{S} {mdp.num_actions} {mdp.horizon}\n"], map(float_line, rows))


def load_mdp(path: str) -> TabularMDP:
    _, rows = read_lines(path)
    try:
        S, A, H = (int(t) for t in rows[0][1].split())
    except (ValueError, IndexError) as exc:
        raise MDPError(f"{path}:{rows[0][0] if rows else 1}: "
                       "malformed header, expected 'S A H'") from exc
    if min(S, A, H) < 1:
        raise MDPError(f"{path}:{rows[0][0]}: S, A and H must be at least 1")
    need = 1 + 1 + H * S * A + S
    if len(rows) != need:
        raise MDPError(f"{path}: expected {need} data lines, found {len(rows)}")
    rho = numbers(path, rows, 1, float, S, "initial probabilities", MDPError)
    P = [numbers(path, rows, i, float, S, "probabilities", MDPError)
         for i in range(2, 2 + H * S * A)]
    r = [numbers(path, rows, i, float, A, "rewards", MDPError) for i in range(2 + H * S * A, need)]
    return TabularMDP(np.reshape(P, (H, S, A, S)), r, rho)
