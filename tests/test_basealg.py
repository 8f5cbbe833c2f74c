import math

import numpy as np
import pytest

from modbe import (AbstractionClass, FiniteClass, LinearClass, TabularMDP, fitted_q_discounted,
                   fqi, fqi_oracle, generate_from_mu, make_fqi, omega_fqi,
                   optimal_q)
from modbe import basealg
from modbe.basealg import DELTA_MAX, BaseAlgError, BaseAlgorithm
from modbe.dataset import StepData
from modbe.evaluation import chain_classes, chain_mdp, uniform_mu

from conftest import random_mdp


def const_mdp(r=0.5, H=2):
    P = np.ones((H, 1, 1, 1))
    return TabularMDP(P, np.full((1, 1), r), np.ones(1))


def tabular_class(S, A, clip):
    return AbstractionClass(np.arange(S), A, clip_high=clip)


class TestFQI:
    def test_deterministic_single_state_chain(self):
        # r = 0.5 every step: f_2 = 0.5, f_1 = 1.0 exactly
        mdp = const_mdp()
        mu = np.ones((2, 1, 1))
        ds = generate_from_mu(mdp, mu, 8, seed=0)
        fseq = fqi(ds.steps, tabular_class(1, 1, clip=2.0))
        assert fseq.func(2).values([0], [0])[0] == pytest.approx(0.5, abs=1e-12)
        assert fseq.func(1).values([0], [0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_singleton_zero_class(self, rng):
        mdp = random_mdp(rng, 2, 2, 2)
        ds = generate_from_mu(mdp, np.full((2, 2, 2), 0.25), 20, seed=1)
        cls = FiniteClass((np.zeros((2, 2)),), clip_high=2.0)
        fseq = fqi(ds.steps, cls)
        for h in (1, 2):
            assert np.all(fseq.func(h).values([0, 1], [0, 1]) == 0.0)

    def test_slot_permutation_independence(self, rng):
        # Permuting data in slot h must not change f_{h'} for h' > h
        mdp = random_mdp(rng, 3, 2, 3)
        ds = generate_from_mu(mdp, np.full((3, 3, 2), 1 / 6), 60, seed=2)
        cls = tabular_class(3, 2, clip=3.0)
        ref = fqi(ds.steps, cls)
        perm = rng.permutation(60)
        first = ds.steps[0]
        shuffled = (StepData(first.x[perm], first.a[perm], first.r[perm], first.x_next[perm]),)
        shuffled += ds.steps[1:]
        out = fqi(shuffled, cls)
        xs, as_ = np.divmod(np.arange(6), 2)
        for h in (2, 3):
            assert np.array_equal(out.func(h).values(xs, as_), ref.func(h).values(xs, as_))

    def test_linear_class_beyond_one_step(self, rng):
        # phi(x, a) = (1, x, a, x a): at step 2 action 1 pays x - 2, so the
        # greedy action switches from 0 to 1 across the states
        def features(xs, as_):
            xs, as_ = np.asarray(xs, dtype=float), np.asarray(as_, dtype=float)
            return np.column_stack([np.ones(len(xs)), xs, as_, xs * as_])

        cls = LinearClass(features, dim=4, num_actions=2)
        n = 200
        steps = []
        for _ in range(2):
            x, a = rng.integers(0, 5, n), rng.integers(0, 2, n)
            r = np.where(a == 1, x - 2.0, 0.0) + rng.normal(0.0, 0.1, n)
            steps.append(StepData(x, a, r, rng.integers(0, 5, n)))
        fseq = fqi(steps, cls)
        f2 = fseq.func(2)
        assert np.array_equal(f2.weights, cls.erm(steps[1].x, steps[1].a, steps[1].r).weights)

        xs = np.arange(5)
        per_action = np.column_stack([features(xs, np.full(5, a)) @ f2.weights for a in (0, 1)])
        assert set(per_action.argmax(axis=1)) == {0, 1}
        assert np.array_equal(f2.max_values(xs), per_action.max(axis=1))

        x_next = steps[0].x_next
        targets = steps[0].r + per_action.max(axis=1)[x_next]
        want = cls.erm(steps[0].x, steps[0].a, targets)
        assert np.array_equal(fseq.func(1).weights, want.weights)

    def test_empty_slot_rejected(self):
        with pytest.raises(BaseAlgError):
            fqi([], tabular_class(1, 1, clip=1.0))

    def test_consistency_on_chain(self):
        mdp = chain_mdp()
        cls = chain_classes()[3]                       # full tabular partition
        qstar = optimal_q(mdp)
        mu = uniform_mu(mdp)
        xs, as_ = np.divmod(np.arange(8), 2)
        errs = []
        for seed in range(5):
            ds = generate_from_mu(mdp, mu, 20_000, seed=seed)
            fseq = fqi(ds.steps, cls)
            err = max(np.abs(fseq.func(h).values(xs, as_) - qstar[h - 1].reshape(-1)).max()
                      for h in range(1, 5))
            errs.append(err)
        assert np.mean(errs) < 0.05


class TestFQIOracle:
    def test_complete_tabular_class_returns_qstar(self, rng):
        mdp = random_mdp(rng, 3, 2, 3)
        mu = np.full((3, 3, 2), 1 / 6)
        fseq = fqi_oracle(mdp, mu, tabular_class(3, 2, clip=3.0))
        qstar = optimal_q(mdp)
        xs, as_ = np.divmod(np.arange(6), 2)
        for h in range(1, 4):
            assert np.allclose(fseq.func(h).values(xs, as_),
                               qstar[h - 1].reshape(-1), atol=1e-9)

    def test_constant_class_weighted_mean(self, rng):
        mdp = random_mdp(rng, 3, 2, 1)
        mu = rng.dirichlet(np.ones(6)).reshape(1, 3, 2)
        cls = AbstractionClass(np.zeros(3, dtype=int), 2, clip_high=1.0)
        fseq = fqi_oracle(mdp, mu, cls)
        # H=1: target is r, best per-action constant is the mu-weighted mean
        want = (mu[0] * mdp.rewards).sum(axis=0) / mu[0].sum(axis=0)
        got = fseq.func(1).values([0, 0], [0, 1])
        assert np.allclose(got, np.minimum(want, 1.0), atol=1e-12)

    def test_population_minimizer_among_members(self, rng):
        mdp = random_mdp(rng, 2, 2, 1)
        mu = np.full((1, 2, 2), 0.25)
        tables = (np.zeros((2, 2)),) + tuple(rng.random((2, 2)) for _ in range(5))
        cls = FiniteClass(tables, clip_high=1.0)
        fseq = fqi_oracle(mdp, mu, cls)
        chosen = fseq.func(1)
        target = mdp.rewards
        xs, as_ = np.divmod(np.arange(4), 2)
        loss_of = lambda t: ((mu[0].reshape(-1)) * (t.reshape(-1) - target.reshape(-1)) ** 2).sum()
        chosen_loss = loss_of(chosen.values(xs, as_).reshape(2, 2))
        assert all(chosen_loss <= loss_of(t) + 1e-15 for t in tables)


class TestOmega:
    def test_paper_value(self):
        cls = FiniteClass(tuple(np.full((1, 1), float(i)) for i in range(8)))
        assert omega_fqi(1000, 0.1, cls, 2) == pytest.approx(6.27821, rel=1e-5)

    def test_doubling_n_halves(self):
        cls = FiniteClass(tuple(np.full((1, 1), float(i)) for i in range(4)))
        assert omega_fqi(500, 0.2, cls, 3) == pytest.approx(2 * omega_fqi(1000, 0.2, cls, 3))

    def test_monotone_in_cardinality(self):
        small = FiniteClass(tuple(np.full((1, 1), float(i)) for i in range(2)))
        big = FiniteClass(tuple(np.full((1, 1), float(i)) for i in range(16)))
        assert omega_fqi(100, 0.1, small, 2) < omega_fqi(100, 0.1, big, 2)

    def test_delta_range_enforced(self):
        cls = FiniteClass((np.zeros((1, 1)),))
        with pytest.raises(BaseAlgError):
            omega_fqi(100, DELTA_MAX + 0.01, cls, 1)
        with pytest.raises(BaseAlgError):
            omega_fqi(100, 0.0, cls, 1)

    def test_make_fqi_takes_no_horizon(self):
        # omega takes the data's horizon from ToleranceSchedule, so make_fqi binds none
        assert make_fqi() == BaseAlgorithm(fit=fqi, omega=omega_fqi)
        with pytest.raises(TypeError):
            make_fqi(4)


class TestDiscounted:
    def test_gamma_zero_is_reward_regression(self, rng):
        data = StepData(rng.integers(0, 3, 50), rng.integers(0, 2, 50),
                        rng.random(50), rng.integers(0, 3, 50))
        cls = tabular_class(3, 2, clip=None)
        f = fitted_q_discounted(data, cls)
        g = cls.erm(data.x, data.a, data.r)
        xs, as_ = np.divmod(np.arange(6), 2)
        assert np.array_equal(f.values(xs, as_), g.values(xs, as_))

    def test_singleton_zero_class(self, rng):
        data = StepData([0, 1], [0, 0], [0.3, 0.7], [1, 0])
        cls = FiniteClass((np.zeros((2, 1)),))
        f = fitted_q_discounted(data, cls)
        assert np.all(f.values([0, 1], [0, 0]) == 0.0)

    def test_fqi_fits_its_last_step_with_fitted_q_discounted(self, monkeypatch):
        # one call per fit, on the last slot: f_H is the regression onto its rewards
        mdp, classes = chain_mdp(), chain_classes()
        steps = generate_from_mu(mdp, uniform_mu(mdp), 400, seed=0).steps
        calls = []

        def recording(data, fclass):
            calls.append((data, fclass))
            return fitted_q_discounted(data, fclass)
        monkeypatch.setattr(basealg, "fitted_q_discounted", recording)
        xs, as_ = np.divmod(np.arange(8), 2)
        for k in (1, 2, 3):
            f = fqi(steps, classes[k]).func(4)
            assert calls[-1][0] is steps[3] and calls[-1][1] is classes[k]
            assert np.array_equal(f.values(xs, as_), classes[k].erm(
                steps[3].x, steps[3].a, steps[3].r).values(xs, as_))
        assert len(calls) == 3
        # make_fqi()'s omega at H = 1: 200 (complexity + ln(16 / delta)) / n
        cls = tabular_class(3, 2, clip=None)
        assert make_fqi().omega(40, 0.01, cls, 1) == \
            200.0 * (cls.complexity + math.log(16.0 / 0.01)) / 40


class TestEmpiricalConvergence:
    def test_mean_sup_error_decreases_in_n(self):
        mdp = chain_mdp()
        cls = chain_classes()[3]
        mu = uniform_mu(mdp)
        qstar = optimal_q(mdp)
        xs, as_ = np.divmod(np.arange(8), 2)

        def mean_err(n):
            errs = []
            for seed in range(20):
                fseq = fqi(generate_from_mu(mdp, mu, n, seed=seed).steps, cls)
                errs.append(max(
                    np.abs(fseq.func(h).values(xs, as_) - qstar[h - 1].reshape(-1)).max()
                    for h in range(1, 5)))
            return float(np.mean(errs))

        e100, e1000, e10000 = mean_err(100), mean_err(1000), mean_err(10_000)
        assert e10000 < e1000 < e100
