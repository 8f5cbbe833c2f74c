# Shared test fixtures and independent oracles: random MDP generation,
# exhaustive policy enumeration, brute-force max-reach, grid-enumerated
# completeness errors, and Monte-Carlo rollout simulation. These deliberately avoid the library's DP code paths
# so they can serve as ground truth for it.
import itertools

import numpy as np
import pytest

from modbe import FiniteClass, NestedSequence, Policy, QFunction, TabularMDP
from modbe.funcclass import ABSTRACTION_QUANTUM, ENUMERATION_CAP, FunctionClassError
from modbe.mdp import bellman_backup


def random_mdp(rng: np.random.Generator, S: int, A: int, H: int) -> TabularMDP:
    P = rng.dirichlet(np.ones(S), size=(H, S, A))
    r = rng.random((S, A))
    rho = rng.dirichlet(np.ones(S))
    return TabularMDP(P, r, rho)


def random_full_support_mu(rng: np.random.Generator, S: int, A: int, H: int) -> np.ndarray:
    # Dirichlet with a floor keeps every pair's mass strictly positive
    mu = rng.dirichlet(np.ones(S * A), size=H) + 1e-4
    mu /= mu.sum(axis=1, keepdims=True)
    return mu.reshape(H, S, A)


def enumerate_action_tables(A: int, H: int, S: int) -> np.ndarray:
    """All A**(H*S) deterministic action tables, shape (count, H, S)."""
    count = A ** (H * S)
    idx = np.arange(count)
    digits = np.zeros((count, H, S), dtype=int)
    for pos in range(H * S):
        digits[:, pos // S, pos % S] = idx % A
        idx = idx // A
    return digits


def brute_policy_values(mdp: TabularMDP) -> np.ndarray:
    """v(pi) of every deterministic policy, vectorized over policies."""
    S, A, H = mdp.num_states, mdp.num_actions, mdp.horizon
    digits = enumerate_action_tables(A, H, S)
    v = np.zeros((digits.shape[0], S))
    for h in range(H, 0, -1):
        q = np.einsum("xay,ny->nxa", mdp.transitions[h - 1], v) + mdp.rewards[None]
        v = np.take_along_axis(q, digits[:, h - 1, :, None], axis=2)[:, :, 0]
    return v @ mdp.initial_dist


def brute_optimal_value(mdp: TabularMDP) -> float:
    """max over all deterministic policies of v(pi)."""
    return float(brute_policy_values(mdp).max())


def brute_worst_value(mdp: TabularMDP) -> float:
    """min over all deterministic policies of v(pi)."""
    return float(brute_policy_values(mdp).min())


def brute_max_reach(mdp: TabularMDP) -> np.ndarray:
    """max over deterministic policies of P^pi_{h+1}(x), by exhaustive enumeration.

    Uses the same backward matrix-product kernel as the library's DP
    (batched np.matmul computes each 2-D slice identically), so the per-column
    maxima agree with the DP bit-for-bit: every float op involved is monotone
    in the (nonnegative) operands and evaluated in a fixed order.
    """
    S, A, H = mdp.num_states, mdp.num_actions, mdp.horizon
    out = np.zeros((H, S))
    eye = np.eye(S)
    flat = [mdp.transitions[t].reshape(S * A, S) for t in range(H)]
    for h in range(H):
        digits = enumerate_action_tables(A, h, S)
        m = np.broadcast_to(eye, (digits.shape[0], S, S)).copy()
        for t in range(h - 1, -1, -1):
            prod = np.matmul(flat[t], m)                       # (count, S*A, S)
            rows = np.arange(S)[None, :] * A + digits[:, t, :]
            m = np.take_along_axis(prod, rows[:, :, None], axis=1)
        out[h] = np.matmul(mdp.initial_dist, m).max(axis=0)
    return out


def grid_members(fclass, bound: float) -> list | None:
    """Every table of an abstraction class whose (block, action) cells take values
    on the ABSTRACTION_QUANTUM grid over [0, high], high = min(bound, clip):
    16 * high + 1 values per cell; None beyond ENUMERATION_CAP tables."""
    high = bound if fclass.clip_high is None else min(bound, fclass.clip_high)
    grid = np.arange(0.0, high + ABSTRACTION_QUANTUM / 2, ABSTRACTION_QUANTUM)
    B, A = fclass.num_blocks, fclass.num_actions
    if len(grid) ** (B * A) > ENUMERATION_CAP:
        return None
    return [np.array(combo).reshape(B, A)[fclass.blocks]
            for combo in itertools.product(grid, repeat=B * A)]


def grid_completeness_error(inner, outer, mdp: TabularMDP, mu: np.ndarray) -> float | None:
    """max over h and the grid members f' of outer in [0, H - h] of min over inner f
    of ||f - T*_h f'||^2_mu, by enumeration; None when a grid is too large. Each
    f' is backed up alone by bellman_backup and projected by inner.population_erm."""
    H = mdp.horizon
    members = [grid_members(outer, H - h) for h in range(1, H + 1)]
    if any(m is None for m in members):
        return None
    worst = 0.0
    for h in range(1, H + 1):
        for table in members[h - 1]:
            backup = bellman_backup(mdp, h, table)
            fit = inner.population_erm(mu[h - 1], backup[None])[0]
            worst = max(worst, float((mu[h - 1] * (fit - backup) ** 2).sum()))
    return worst


def rollout_values(mdp: TabularMDP, policy: Policy, n_rollouts: int,
                   rng: np.random.Generator):
    """Monte-Carlo returns plus per-step empirical (x, a) visit frequencies."""
    S, A, H = mdp.num_states, mdp.num_actions, mdp.horizon
    x = rng.choice(S, size=n_rollouts, p=mdp.initial_dist)
    total = np.zeros(n_rollouts)
    freq = np.zeros((H, S, A))
    for h in range(H):
        pa = policy.probs[h][x]
        u = rng.random(n_rollouts)
        a = np.minimum((np.cumsum(pa, axis=1) <= u[:, None]).sum(axis=1), A - 1)
        np.add.at(freq[h], (x, a), 1.0)
        total += mdp.rewards[x, a]
        pn = mdp.transitions[h][x, a]
        u = rng.random(n_rollouts)
        x = np.minimum((np.cumsum(pn, axis=1) <= u[:, None]).sum(axis=1), S - 1)
    return total, freq / n_rollouts


# (S, A, H) shapes whose deterministic-policy count A**(S*H) stays enumerable,
# covering each of the bounds S=5, A=3, H=4 somewhere in the pool
ENUMERABLE_SHAPES = [
    (S, A, H)
    for S in range(1, 6) for A in range(1, 4) for H in range(1, 5)
    if A ** (S * H) <= 65536
]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def reference_one_hot(actions, num_actions: int) -> np.ndarray:
    """(H, S, A) point-mass probabilities of an (H, S) action table, by the
    meshgrid scatter that Policy.deterministic used before its np.eye gather."""
    actions = np.asarray(actions, dtype=int)
    H, S = actions.shape
    p = np.zeros((H, S, num_actions))
    hh, ss = np.meshgrid(np.arange(H), np.arange(S), indexing="ij")
    p[hh, ss, actions] = 1.0
    return p


def empirical_sq_loss(f: QFunction, xs, as_, ys) -> float:
    """Mean squared residual of f against targets, f evaluated in clipped mode."""
    if len(xs) == 0:
        raise FunctionClassError("empirical loss requires a nonempty sample list")
    ys = np.asarray(ys, dtype=float)
    return float(np.mean((f.values(xs, as_) - ys) ** 2))


def _self_loop_instance(r: np.ndarray, u: np.ndarray, mu: np.ndarray):
    """S = A = H = 2 MDP with self-loop transitions and rewards r, plus M = 3
    nested finite classes F_1 = {0, u}, F_2 = F_1 + {T u}, F_3 = F_2 + {w, T w}.

    Self-loops make the optimal backup T f = r + max_a f(x, .) on every
    action, so the backups stay in closed form.
    """
    S, A, H = 2, 2, 2
    P = np.zeros((H, S, A, S))
    for x in range(S):
        P[:, x, :, x] = 1.0
    mdp = TabularMDP(P, r, np.full(S, 1.0 / S))

    def backup_of(t):
        return r + np.repeat(t.max(axis=1, keepdims=True), A, axis=1)

    zero = np.zeros((S, A))
    w = np.array([[0.2, 0.5], [0.9, 0.1]])
    f1 = FiniteClass((zero, u), clip_high=float(H))
    f2 = FiniteClass((zero, u, backup_of(u)), clip_high=float(H))
    f3 = FiniteClass((zero, u, backup_of(u), w, backup_of(w)), clip_high=float(H))
    return mdp, NestedSequence((f1, f2, f3)), mu


def never_overshoot_instance():
    """F_2 complete, F_1 not, and every reward 0: the per-state action max is
    idempotent, so closing a finite set under it stays finite; every
    validation loss is 0.0, so no test can reject."""
    u = np.array([[0.0, 0.7], [0.3, 0.0]])
    return _self_loop_instance(np.zeros((2, 2)), u, np.full((2, 2, 2), 0.25))


def rejecting_instance():
    """F_2 complete, F_1 = {0, r} not, with r = 1 on state 0 and 0 on state 1.
    mu puts 0.8 of each step on state 0, which widens the gap between class
    1's and class 2's validation losses, so a test can reject class 1."""
    r = np.array([[1.0, 1.0], [0.0, 0.0]])
    return _self_loop_instance(r, r, np.tile([[0.4, 0.4], [0.1, 0.1]], (2, 1, 1)))
