import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modbe import (Policy, TabularMDP, bellman_backup, concentrability,
                   greedy_policy_from_tables, load_mdp, max_reach, occupancy, optimal_q,
                   perf_diff_bound, policy_value, regret, save_mdp, squared_bellman_errors)
from modbe.mdp import MDPError, check_data_distribution

from conftest import (brute_max_reach, brute_optimal_value, brute_worst_value,
                      random_full_support_mu, random_mdp, reference_one_hot, rollout_values)


def one_state_mdp(rewards, H):
    S = 1
    A = len(rewards)
    P = np.ones((H, S, A, S))
    return TabularMDP(P, np.asarray(rewards, dtype=float).reshape(1, A), np.ones(1))


def det_chain_mdp():
    # x1 --a1--> x2 (both actions move right from x1; x2 absorbing), H=2
    P = np.zeros((2, 2, 1, 2))
    P[:, 0, 0, 1] = 1.0
    P[:, 1, 0, 1] = 1.0
    r = np.array([[0.0], [1.0]])
    return TabularMDP(P, r, np.array([1.0, 0.0]))


class TestValidation:
    def test_rejects_bad_transition_rows(self):
        P = np.ones((1, 1, 1, 1)) * 0.5
        with pytest.raises(MDPError):
            TabularMDP(P, np.zeros((1, 1)), np.ones(1))

    def test_rejects_negative_probability(self):
        P = np.zeros((1, 2, 1, 2))
        P[0, :, 0] = [[1.5, -0.5], [0.0, 1.0]]
        with pytest.raises(MDPError):
            TabularMDP(P, np.zeros((2, 1)), np.array([1.0, 0.0]))

    def test_rejects_reward_out_of_range(self):
        for reward in (1.5, -0.5, np.nan):
            with pytest.raises(MDPError):
                one_state_mdp([reward], 1)

    def test_rejects_bad_policy(self):
        with pytest.raises(MDPError):
            Policy(np.full((1, 1, 2), 0.7))

    def test_tolerates_1e13_probability_slack(self):
        P = np.ones((1, 1, 1, 1)) + 1e-13
        m = TabularMDP(P, np.zeros((1, 1)), np.ones(1) - 1e-13)
        assert m.horizon == 1

    @pytest.mark.parametrize("row", [[0.5, np.nan], [0.5, np.inf], [0.5, 0.5 + 1e-9]],
                             ids=["nan", "inf", "off-by-1e-9"])
    def test_bad_row_sum_message(self, row):
        # the message np.allclose's check gave: the max deviation of any row sum
        p = np.full((2, 3, 2), 0.5)
        p[1, 2] = row
        dev = np.abs(p.sum(axis=-1) - 1).max()
        with pytest.raises(MDPError) as info:
            Policy(p)
        assert str(info.value) == f"policy rows do not sum to 1 (max dev {dev:.3e})"

    def test_no_rows_accepted(self):
        assert Policy(np.zeros((0, 3, 2))).probs.shape == (0, 3, 2)

    def test_check_data_distribution_shape(self):
        mdp = one_state_mdp([0.5], 2)
        with pytest.raises(MDPError):
            check_data_distribution(mdp, np.ones((1, 1, 1)))


class TestBellmanBackup:
    def test_terminal_backup_equals_reward(self):
        mdp = one_state_mdp([1.0, 0.0], 1)
        out = bellman_backup(mdp, 1, None)
        assert np.array_equal(out, np.array([[1.0, 0.0]]))

    def test_hand_backward_induction_chain(self):
        mdp = det_chain_mdp()
        q2 = bellman_backup(mdp, 2, None)
        q1 = bellman_backup(mdp, 1, q2)
        assert q1[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_constant_propagates_through_deterministic_transitions(self):
        mdp = det_chain_mdp()
        c = 0.375
        out = bellman_backup(mdp, 1, np.full((2, 1), c))
        assert np.allclose(out, mdp.rewards + c, atol=1e-12)

    def test_rejects_bad_step_and_shape(self):
        mdp = det_chain_mdp()
        with pytest.raises(MDPError):
            bellman_backup(mdp, 3, None)
        with pytest.raises(MDPError):
            bellman_backup(mdp, 1, np.zeros((3, 1)))


class TestOptimalQ:
    def test_constant_reward_geometric_sum(self):
        mdp = one_state_mdp([0.5], 3)
        q = optimal_q(mdp)
        for h in range(1, 4):
            assert q[h - 1, 0, 0] == pytest.approx(0.5 * (3 - h + 1), abs=1e-12)

    def test_h1_is_reward(self, rng):
        mdp = random_mdp(rng, 3, 2, 1)
        assert np.array_equal(optimal_q(mdp)[0], mdp.rewards)

    def test_matches_exhaustive_policy_enumeration(self, rng):
        for _ in range(20):
            mdp = random_mdp(rng, 3, 2, 3)
            v_dp = policy_value(mdp, greedy_policy_from_tables(optimal_q(mdp)))
            assert v_dp == pytest.approx(brute_optimal_value(mdp), abs=1e-9)


class TestPolicyValue:
    def test_greedy_optimal(self, rng):
        mdp = random_mdp(rng, 4, 2, 3)
        pol = greedy_policy_from_tables(optimal_q(mdp))
        assert policy_value(mdp, pol) == pytest.approx(brute_optimal_value(mdp), abs=1e-9)

    def test_uniform_two_action(self):
        mdp = one_state_mdp([1.0, 0.0], 1)
        pol = Policy.uniform(1, 1, 2)
        assert policy_value(mdp, pol) == pytest.approx(0.5, abs=1e-12)

    def test_monte_carlo_agreement(self, rng):
        mdp = random_mdp(rng, 3, 2, 3)
        pol = Policy.uniform(3, 3, 2)
        returns, _ = rollout_values(mdp, pol, 100_000, rng)
        se = returns.std(ddof=1) / math.sqrt(len(returns))
        assert abs(policy_value(mdp, pol) - returns.mean()) <= 3 * se + 1e-9


class TestRegret:
    def test_optimal_policy_zero(self, rng):
        mdp = random_mdp(rng, 4, 3, 2)
        pol = greedy_policy_from_tables(optimal_q(mdp))
        assert regret(mdp, pol) == pytest.approx(0.0, abs=1e-10)

    def test_worst_policy_matches_enumeration(self, rng):
        mdp = random_mdp(rng, 3, 2, 3)
        max_regret = brute_optimal_value(mdp) - brute_worst_value(mdp)
        worst = None
        from conftest import enumerate_action_tables
        for acts in enumerate_action_tables(2, 3, 3):
            r = regret(mdp, Policy.deterministic(acts, 2))
            worst = r if worst is None else max(worst, r)
        assert worst == pytest.approx(max_regret, abs=1e-9)

    def test_bounded_by_horizon(self, rng):
        mdp = random_mdp(rng, 4, 2, 4)
        assert 0.0 <= regret(mdp, Policy.uniform(4, 4, 2)) <= 4.0 + 1e-10

    def test_cached_optimal_value_equals_fresh_dp(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            mdp = random_mdp(rng, 3, 2, 3)
            fresh = policy_value(mdp, greedy_policy_from_tables(optimal_q(mdp)))
            assert "optimal_value" not in vars(mdp)
            # the first regret call fills the cache, the later ones read it
            for pol in (Policy.uniform(3, 3, 2),
                        Policy.deterministic(rng.integers(0, 2, (3, 3)), 2),
                        greedy_policy_from_tables(optimal_q(mdp))):
                assert regret(mdp, pol) == fresh - policy_value(mdp, pol)
                assert vars(mdp)["optimal_value"] == fresh

    def test_optimal_value_cached_per_mdp(self, rng):
        a = random_mdp(rng, 3, 2, 2)
        same = TabularMDP(a.transitions, a.rewards, a.initial_dist)
        other = TabularMDP(a.transitions, 1.0 - a.rewards, a.initial_dist)
        assert a.optimal_value == same.optimal_value
        assert other.optimal_value != a.optimal_value
        for mdp in (a, same, other):
            assert mdp.optimal_value == policy_value(
                mdp, greedy_policy_from_tables(optimal_q(mdp)))


class TestOccupancy:
    def test_first_step_definition(self, rng):
        mdp = random_mdp(rng, 3, 2, 2)
        pol = Policy.uniform(2, 3, 2)
        occ = occupancy(mdp, pol)
        assert np.allclose(occ[0], mdp.initial_dist[:, None] * pol.probs[0], atol=1e-12)

    def test_point_mass_on_deterministic_chain(self):
        mdp = det_chain_mdp()
        pol = Policy.deterministic(np.zeros((2, 2), dtype=int), 1)
        occ = occupancy(mdp, pol)
        assert occ[0, 0, 0] == 1.0 and occ[1, 1, 0] == 1.0

    def test_sums_to_one_each_step(self, rng):
        mdp = random_mdp(rng, 4, 3, 3)
        occ = occupancy(mdp, Policy.uniform(3, 4, 3))
        assert np.allclose(occ.reshape(3, -1).sum(axis=1), 1.0, atol=1e-10)

    def test_monte_carlo_frequencies(self, rng):
        mdp = random_mdp(rng, 3, 2, 3)
        pol = Policy.uniform(3, 3, 2)
        occ = occupancy(mdp, pol)
        n = 100_000
        _, freq = rollout_values(mdp, pol, n, rng)
        se = np.sqrt(np.maximum(occ * (1 - occ), 1e-12) / n)
        assert np.all(np.abs(freq - occ) <= 3 * se + 1e-3)


class TestConcentrability:
    def test_point_mass_rho_uniform_mu(self):
        # S=2, A=2, H=1, rho on x1, uniform mu -> maxreach(x1)=1 over mass 1/4
        P = np.full((1, 2, 2, 2), 0.5)
        mdp = TabularMDP(P, np.zeros((2, 2)), np.array([1.0, 0.0]))
        mu = np.full((1, 2, 2), 0.25)
        c = concentrability(mdp, mu)
        assert type(c) is float and c == pytest.approx(4.0, abs=1e-12)

    def test_brute_force_exact_equality(self, rng):
        for _ in range(10):
            mdp = random_mdp(rng, 4, 2, 3)
            assert np.array_equal(max_reach(mdp), brute_max_reach(mdp))
            mu = random_full_support_mu(rng, 4, 2, 3)
            reach = brute_max_reach(mdp)
            brute_c = max(reach[h, x] / mu[h, x, a]
                          for h in range(3) for x in range(4) for a in range(2)
                          if reach[h, x] > 0.0)
            assert concentrability(mdp, mu) == brute_c

    def test_infinite_sentinel_on_missing_support(self):
        mdp = det_chain_mdp()
        mu = np.zeros((2, 2, 1))
        mu[:, 0, 0] = 1.0   # no mass on x2 at h=2, but x2 is reachable
        c = concentrability(mdp, mu)
        assert type(c) is float and math.isinf(c)

    def test_behavior_policy_support_ratio(self):
        # deterministic MDP, deterministic pi: mu = its occupancy. The sup
        # policy coincides with pi on pi's support here, so the ratio is 1.
        mdp = det_chain_mdp()
        pol = Policy.deterministic(np.zeros((2, 2), dtype=int), 1)
        mu = occupancy(mdp, pol)
        mu = np.maximum(mu, 1e-12)
        mu /= mu.reshape(2, -1).sum(axis=1)[:, None, None]
        assert concentrability(mdp, mu) == pytest.approx(1.0, rel=1e-6)


class TestPerfDiffBound:
    def test_zero_at_qstar(self, rng):
        mdp = random_mdp(rng, 3, 2, 3)
        mu = random_full_support_mu(rng, 3, 2, 3)
        q = optimal_q(mdp)
        assert perf_diff_bound(mdp, mu, q) == pytest.approx(0.0, abs=1e-9)
        assert regret(mdp, greedy_policy_from_tables(q)) == pytest.approx(0.0, abs=1e-10)

    def test_lemma_holds_on_random_triples(self, rng):
        for _ in range(30):
            mdp = random_mdp(rng, 3, 2, 3)
            mu = random_full_support_mu(rng, 3, 2, 3)
            f = rng.random((3, 3, 2)) * 3
            bound = perf_diff_bound(mdp, mu, f)
            assert regret(mdp, greedy_policy_from_tables(f)) <= bound + 1e-12

    def test_zero_function_all_one_rewards(self, rng):
        P = np.ones((2, 1, 2, 1))
        mdp = TabularMDP(P, np.ones((1, 2)), np.ones(1))
        mu = np.full((2, 1, 2), 0.5)
        f = np.zeros((2, 1, 2))
        bound = perf_diff_bound(mdp, mu, f)
        assert bound >= regret(mdp, greedy_policy_from_tables(f))

    def test_infinite_concentrability_gives_infinite_bound(self):
        mdp = det_chain_mdp()
        mu = np.zeros((2, 2, 1))
        mu[:, 0, 0] = 1.0
        assert math.isinf(perf_diff_bound(mdp, mu, np.zeros((2, 2, 1))))


class TestSquaredBellmanErrors:
    def test_zero_residuals_at_qstar(self, rng):
        mdp = random_mdp(rng, 3, 2, 2)
        mu = random_full_support_mu(rng, 3, 2, 2)
        assert np.allclose(squared_bellman_errors(mdp, mu, optimal_q(mdp)), 0.0, atol=1e-18)

    def test_hand_computed_single_state(self):
        mdp = one_state_mdp([0.5], 1)
        mu = np.ones((1, 1, 1))
        f = np.full((1, 1, 1), 0.9)
        errs = squared_bellman_errors(mdp, mu, f)
        assert errs[0] == pytest.approx(0.16, abs=1e-12)


class TestGreedyPolicy:
    @pytest.mark.parametrize("seed", range(6))
    def test_deterministic_equals_meshgrid_one_hot(self, seed):
        rng = np.random.default_rng(seed)
        H, S = (int(v) for v in rng.integers(1, 5, 2))
        for A in (1, 2, 5):
            actions = rng.integers(0, A, (H, S))
            pol = Policy.deterministic(actions, A)
            assert pol.probs.dtype == np.float64
            assert np.array_equal(pol.probs, reference_one_hot(actions, A))
            assert not pol.probs.flags.writeable

    def test_tie_breaks_to_lowest_action(self):
        q = np.zeros((1, 2, 3))
        pol = greedy_policy_from_tables(q)
        assert np.array_equal(pol.probs[0].argmax(axis=1), [0, 0])

    @given(scale=st.floats(min_value=0.1, max_value=100.0),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, scale, seed):
        q = np.random.default_rng(seed).random((2, 3, 2))
        a = greedy_policy_from_tables(q)
        b = greedy_policy_from_tables(q * scale)
        assert np.array_equal(a.probs, b.probs)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_per_state_constant_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.random((2, 3, 2))
        shift = rng.random((2, 3, 1))
        a = greedy_policy_from_tables(q)
        b = greedy_policy_from_tables(q + shift)
        assert np.array_equal(a.probs, b.probs)


class TestPersistence:
    def test_round_trip_value_exact(self, rng, tmp_path):
        mdp = random_mdp(rng, 4, 3, 3)
        path = str(tmp_path / "mdp.txt")
        save_mdp(mdp, path)
        loaded = load_mdp(path)
        assert np.array_equal(loaded.transitions, mdp.transitions)
        assert np.array_equal(loaded.rewards, mdp.rewards)
        assert np.array_equal(loaded.initial_dist, mdp.initial_dist)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 x 1\n")
        with pytest.raises(MDPError):
            load_mdp(str(path))
        path.write_text("# my mdp\n2 x 1\n")   # the error names the header's own line
        with pytest.raises(MDPError, match=r"bad\.txt:2: "):
            load_mdp(str(path))

    @pytest.mark.parametrize("line, tokens", [
        (1, "2 2 -1"), (2, "0.5 zap"), (4, "0.5 0.5 0.5"), (11, "nope 0.1")])
    def test_bad_value_names_its_line(self, rng, tmp_path, line, tokens):
        path = tmp_path / "bad.txt"
        save_mdp(random_mdp(rng, 2, 2, 2), str(path))
        lines = path.read_text().splitlines()
        lines[line - 1] = tokens
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MDPError, match=rf"bad\.txt:{line}: "):
            load_mdp(str(path))

    def test_truncated_file_rejected(self, rng, tmp_path):
        mdp = random_mdp(rng, 2, 2, 2)
        path = tmp_path / "trunc.txt"
        save_mdp(mdp, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(MDPError):
            load_mdp(str(path))
