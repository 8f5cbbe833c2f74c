import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modbe import (AbstractionClass, FiniteClass, NestedSequence, TabularMDP,
                   generate_from_mu, make_discounted, make_fqi, modbe, modbe_discounted, zeta)
from modbe.basealg import fqi
from modbe.dataset import OfflineDataset, StepData, split_dataset
from modbe.funcclass import TableQ
from modbe.selection import (SelectionError, ToleranceSchedule, generalization_test,
                             validation_loss)
from modbe.evaluation import CBInstance, chain_classes, chain_mdp, uniform_mu

from conftest import random_full_support_mu, random_mdp


def cb_data(n, seed):
    """A one-step contextual-bandit dataset and its nested linear classes."""
    inst = CBInstance()
    rng = np.random.default_rng(seed)
    feats = inst.sample_features(n, rng)
    actions = rng.integers(0, inst.num_actions, n)
    rewards = inst.mean_rewards(feats)[np.arange(n), actions] + 0.5 * rng.standard_normal(n)
    data = StepData(np.arange(n), actions, rewards, np.zeros(n, dtype=int))
    return data, inst.classes(feats)


def finite_classes_for_schedule():
    # |F_1| = 4, |F_2| = 16, nested, zero function included
    tabs = [np.zeros((2, 2))] + [np.full((2, 2), 0.1 * i) for i in range(1, 16)]
    return NestedSequence((FiniteClass(tuple(tabs[:4]), clip_high=2.0),
                           FiniteClass(tuple(tabs), clip_high=2.0)))


def theoretical_schedule(n=1000):
    classes = finite_classes_for_schedule()
    n_train, n_valid = math.ceil(0.8 * n), n - math.ceil(0.8 * n)
    base = make_fqi(2)
    return ToleranceSchedule("theoretical", classes, 2, 0.25,
                             n_train, n_valid, n, base.omega)


class TestFormulas:
    def test_zeta_paper_value(self):
        assert zeta(2, 2, 0.25, 100) == pytest.approx(23.9552, rel=1e-5)

    def test_zeta_halves_with_n(self):
        assert zeta(3, 4, 0.1, 200) == pytest.approx(zeta(3, 4, 0.1, 100) / 2)

    def test_zeta_monotone_in_m(self):
        assert zeta(2, 3, 0.1, 100) > zeta(2, 2, 0.1, 100)

    def test_zeta_delta_range(self):
        with pytest.raises(SelectionError):
            zeta(2, 2, 0.5, 100)

    def test_alpha_paper_value(self):
        sched = theoretical_schedule()
        assert sched.alpha(2) == pytest.approx(9.70406, rel=1e-5)

    def test_alpha_dominates_omega(self):
        sched = theoretical_schedule()
        for k in (1, 2):
            assert sched.alpha(k) >= sched._omega_at(k)

    def test_alpha_monotone_along_sequence(self):
        sched = theoretical_schedule()
        assert sched.alpha(1) <= sched.alpha(2)

    def test_tol_theoretical_composition(self):
        sched = theoretical_schedule()
        want = 2 * sched.alpha(2) + 2 * sched.zeta_value + sched._omega_at(1)
        assert sched.tol(1, 2) == pytest.approx(want)

    def test_tol_practical_rule(self):
        classes = finite_classes_for_schedule()
        sched = ToleranceSchedule("practical", classes, 2, 0.25, 800, 200, 1000)
        assert sched.tol(1, 2) == pytest.approx(math.log(16) / 1000)

    def test_unknown_mode_rejected(self):
        with pytest.raises(SelectionError):
            ToleranceSchedule("magic", finite_classes_for_schedule(),
                              2, 0.25, 800, 200, 1000)


class TestGeneralizationTest:
    def test_reject_case(self):
        assert generalization_test(0.5, 0.9, 0.3) is True

    def test_keep_case(self):
        assert generalization_test(0.5, 0.7, 0.3) is False

    def test_boundary_is_keep(self):
        assert generalization_test(0.4, 0.7, 0.3) is False

    def test_exact_tie_is_keep(self):
        # 0.75 - 0.5 is exactly 0.25 in binary, so loss_g sits on the boundary
        assert 0.75 - 0.5 == 0.25
        assert generalization_test(0.25, 0.75, 0.5) is False


class TestLossPieces:
    def test_validation_loss_zero_on_exact_fit(self):
        step = StepData([0, 1], [0, 0], [0.5, 0.5], [0, 1])
        f = TableQ(np.full((2, 1), 0.5))
        assert validation_loss(f, step, np.zeros(2)) == 0.0

    def test_validation_loss_range(self, rng):
        step = StepData(rng.integers(0, 2, 30), np.zeros(30, dtype=int),
                        rng.random(30), rng.integers(0, 2, 30))
        f = TableQ(rng.random((2, 1)) * 2, clip_high=2.0)
        loss = validation_loss(f, step, rng.random(30) * 2)
        assert 0.0 <= loss <= 9.0

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 1001])
    def test_validation_loss_is_mean_of_squares_bit_for_bit(self, rng, n):
        step = StepData(rng.integers(0, 3, n), rng.integers(0, 2, n),
                        rng.random(n), rng.integers(0, 3, n))
        f = TableQ(rng.random((3, 2)) * 3 - 0.5, clip_high=2.0)
        next_values = rng.random(n) * 2
        d = f.values(step.x, step.a) - step.r - next_values
        assert validation_loss(f, step, next_values) == float(np.mean(d ** 2))

    def test_empty_slot_rejected(self):
        f = TableQ(np.zeros((1, 1)))
        step = StepData([], [], [], [])
        with pytest.raises(SelectionError):
            validation_loss(f, step, np.zeros(0))

    def test_regress_matches_fqi_on_same_slot(self, rng):
        mdp = random_mdp(rng, 3, 2, 2)
        ds = generate_from_mu(mdp, np.full((2, 3, 2), 1 / 6), 40, seed=0)
        cls = AbstractionClass(np.arange(3), 2, clip_high=2.0)
        fseq = fqi(ds.steps, cls)
        step = ds.steps[0]
        g = cls.erm(step.x, step.a, step.r + fseq.next_state_values(1, step.x_next))
        xs, as_ = np.divmod(np.arange(6), 2)
        assert np.array_equal(g.values(xs, as_), fseq.func(1).values(xs, as_))

    def test_double_sampling_identity(self, rng):
        # E[validation loss] = ||f - T* f_next||^2_mu + E_mu[Var(f_next(x'))]
        mdp = random_mdp(rng, 2, 2, 1)
        mu = np.full((1, 2, 2), 0.25)
        f = TableQ(rng.random((2, 2)))
        f_next = rng.random(2)                       # next-state value function
        P = mdp.transitions[0]
        backup = mdp.rewards + P @ f_next
        exact = (mu[0] * (f.table - backup) ** 2).sum()
        var = (P * (f_next[None, None, :] - (P @ f_next)[:, :, None]) ** 2).sum(axis=2)
        exact += (mu[0] * var).sum()
        trials = 400
        losses = np.zeros(trials)
        for t in range(trials):
            ds = generate_from_mu(mdp, mu, 50, seed=t)
            step = ds.steps[0]
            losses[t] = validation_loss(f, step, f_next[step.x_next])
        se = losses.std(ddof=1) / math.sqrt(trials)
        assert abs(losses.mean() - exact) <= 3 * se


def zero_tol_base():
    return make_fqi(2)


class TestModbeLoop:
    def test_m1_short_circuits(self, rng):
        mdp = random_mdp(rng, 2, 2, 2)
        ds = generate_from_mu(mdp, np.full((2, 2, 2), 0.25), 50, seed=0)
        classes = NestedSequence((AbstractionClass(np.arange(2), 2, clip_high=2.0),))
        trace = modbe(ds, make_fqi(2), classes, delta=0.1)
        assert trace.k_hat == 1 and trace.events == [] and trace.base_calls == 1

    def test_huge_tol_keeps_k1(self):
        mdp = chain_mdp()
        ds = generate_from_mu(mdp, uniform_mu(mdp), 200, seed=1)
        # theoretical tolerances at this scale exceed the loss range entirely
        trace = modbe(ds, make_fqi(4), chain_classes(), delta=0.1, schedule="theoretical")
        assert trace.k_hat == 1
        assert not any(e.reject for e in trace.events)

    def test_zero_tol_moves_off_zero_class(self):
        # F_1 = {0} only, F_2 complete tabular, strictly positive rewards:
        # with Tol ~ 0 (practical, tiny complexity / huge n) k moves to 2
        mdp = chain_mdp()
        hits = 0
        classes = NestedSequence((
            AbstractionClass(np.zeros(4, dtype=int), 2, clip_high=4.0),
            AbstractionClass(np.arange(4), 2, clip_high=4.0)))
        for seed in range(20):
            ds = generate_from_mu(mdp, uniform_mu(mdp), 10_000, seed=seed)
            trace = modbe(ds, make_fqi(4), classes, delta=0.1, schedule="practical",
                          seed=seed)
            hits += trace.k_hat == 2
        assert hits >= 18

    def test_k_increments_by_one(self):
        mdp = chain_mdp()
        ds = generate_from_mu(mdp, uniform_mu(mdp), 5000, seed=3)
        trace = modbe(ds, make_fqi(4), chain_classes(), delta=0.1,
                      schedule="practical", seed=3)
        ks = [e.k for e in trace.events]
        assert all(b - a in (0, 1) for a, b in zip(ks, ks[1:]))

    def test_all_h_recorded_per_pair(self):
        mdp = chain_mdp()
        ds = generate_from_mu(mdp, uniform_mu(mdp), 1000, seed=4)
        trace = modbe(ds, make_fqi(4), chain_classes(), delta=0.1,
                      schedule="practical", seed=4)
        seen = {}
        for e in trace.events:
            seen.setdefault((e.k, e.k_prime), []).append(e.h)
        for hs in seen.values():
            assert hs == [1, 2, 3, 4]

    def test_budget_bounds(self):
        mdp = chain_mdp()
        M, H = 3, 4
        for seed in range(10):
            ds = generate_from_mu(mdp, uniform_mu(mdp), 500, seed=seed)
            for sched in ("practical", "theoretical"):
                trace = modbe(ds, make_fqi(H), chain_classes(), delta=0.1,
                              schedule=sched, seed=seed)
                assert trace.erm_calls == len(trace.events) <= H * M * M
                assert trace.base_calls <= trace.k_hat + 1 <= M + 1

    def test_trace_replay_byte_identical(self):
        mdp = chain_mdp()
        ds = generate_from_mu(mdp, uniform_mu(mdp), 800, seed=6)
        a = modbe(ds, make_fqi(4), chain_classes(), 0.1, "practical", seed=6)
        b = modbe(ds, make_fqi(4), chain_classes(), 0.1, "practical", seed=6)
        assert a.to_text() == b.to_text()

    def test_zero_reward_rejection_rate(self):
        # zero-reward MDP, complete final class: losses are pure target
        # variance; the theoretical test should essentially never reject
        base_mdp = chain_mdp()
        mdp = TabularMDP(base_mdp.transitions, np.zeros((4, 2)), base_mdp.initial_dist)
        rejections = 0
        for seed in range(50):
            ds = generate_from_mu(mdp, uniform_mu(mdp), 100, seed=seed)
            trace = modbe(ds, make_fqi(4), chain_classes(), delta=0.1,
                          schedule="theoretical", seed=seed)
            rejections += any(e.reject for e in trace.events)
        assert rejections <= 5

    def test_delta_validated(self):
        mdp = chain_mdp()
        ds = generate_from_mu(mdp, uniform_mu(mdp), 100, seed=0)
        with pytest.raises(SelectionError):
            modbe(ds, make_fqi(4), chain_classes(), delta=0.9)


class TestModbeDiscounted:
    def test_identical_classes_never_reject(self, rng):
        data = StepData(rng.integers(0, 3, 100), rng.integers(0, 2, 100),
                        rng.random(100), rng.integers(0, 3, 100))
        cls = AbstractionClass(np.arange(3), 2)
        classes = NestedSequence((cls, AbstractionClass(np.arange(3), 2)))
        trace = modbe_discounted(data, classes, schedule="practical")
        assert trace.k_hat == 1
        assert not any(e.reject for e in trace.events)

    def test_gamma_zero_reward_regression_selection(self, rng):
        # F_1 is blind to the state, F_2 sees it; rewards depend on the state
        hits = 0
        for seed in range(10):
            g = np.random.default_rng(seed)
            xs = g.integers(0, 2, 2000)
            rewards = 0.8 * xs + 0.1
            data = StepData(xs, np.zeros(2000, dtype=int), rewards,
                            np.zeros(2000, dtype=int))
            classes = NestedSequence((
                AbstractionClass(np.zeros(2, dtype=int), 1, clip_high=1.0),
                AbstractionClass(np.arange(2), 1, clip_high=1.0)))
            trace = modbe_discounted(data, classes, schedule="practical", seed=seed)
            hits += trace.k_hat == 2
        assert hits >= 8

    @staticmethod
    def assert_matches_modbe(data, classes, seed):
        """modbe_discounted is modbe with make_fqi(1) on the one-step dataset:
        same trace text (erm_calls included) and same fitted values."""
        a = modbe(OfflineDataset((data,)), make_fqi(1), classes, 0.1, "practical", seed)
        b = modbe_discounted(data, classes, 0.1, "practical", seed)
        assert b.to_text() == a.to_text()
        assert list(b.fits) == list(a.fits)
        for k, fseq in b.fits.items():
            for step in (b.split.train.steps[0], b.split.valid.steps[0]):
                assert np.array_equal(fseq.func(1).values(step.x, step.a),
                                      a.fits[k].func(1).values(step.x, step.a))
        return sum(e.reject for e in a.events)

    def test_gamma_zero_matches_modbe_at_horizon_one(self):
        classes = NestedSequence(tuple(AbstractionClass(c.blocks, 2, clip_high=1.0)
                                       for c in chain_classes().classes))     # clipped to H = 1
        rejections = 0
        for seed in range(20):
            mdp = random_mdp(np.random.default_rng(seed), 4, 2, 1)
            ds = generate_from_mu(mdp, uniform_mu(mdp), 300, seed=seed)
            rejections += self.assert_matches_modbe(ds.steps[0], classes, seed)
        assert rejections > 0              # the reject path is exercised too
        for n, seed in ((200, 0), (2000, 1)):
            self.assert_matches_modbe(*cb_data(n, seed), seed)

    @pytest.mark.parametrize("schedule", ["practical", "theoretical"])
    def test_delta_validated(self, schedule):
        data = StepData([0], [0], [0.5], [0])
        classes = NestedSequence((AbstractionClass(np.zeros(1, dtype=int), 1),))
        with pytest.raises(SelectionError, match="delta"):
            modbe_discounted(data, classes, delta=0.9, schedule=schedule)


class TestSharedFits:
    """The sweep runners hand trace.split and trace.fits to the baselines,
    which is valid only while a refit on that split gives the same values."""

    @staticmethod
    def assert_refits_identical(trace, base, classes):
        assert trace.qseq is trace.fits[trace.k_hat]
        assert trace.base_calls == len(trace.fits)
        assert list(trace.fits) == list(range(1, trace.k_hat + 1))
        for k, fseq in trace.fits.items():
            again = base.fit(trace.split.train.steps, classes[k])
            for h in range(1, fseq.horizon + 1):
                for step in (trace.split.train.steps[h - 1], trace.split.valid.steps[h - 1]):
                    assert np.array_equal(fseq.func(h).values(step.x, step.a),
                                          again.func(h).values(step.x, step.a))

    @pytest.mark.parametrize("n, seed", [(100, 0), (1000, 1), (10_000, 2)])
    def test_chain_fits_match_refits(self, n, seed):
        mdp, classes = chain_mdp(), chain_classes()
        ds = generate_from_mu(mdp, uniform_mu(mdp), n, seed)
        trace = modbe(ds, make_fqi(mdp.horizon), classes, 0.1, "practical", seed)
        self.assert_refits_identical(trace, make_fqi(mdp.horizon), classes)

    @pytest.mark.parametrize("n, seed", [(200, 0), (2000, 1)])
    def test_cb_fits_match_refits(self, n, seed):
        data, classes = cb_data(n, seed)
        trace = modbe_discounted(data, classes, 0.1, "practical", seed)
        assert trace.k_hat > 1
        self.assert_refits_identical(trace, make_discounted(), classes)


class TestTraceSerialization:
    def test_event_lines_and_summary(self):
        mdp = chain_mdp()
        ds = generate_from_mu(mdp, uniform_mu(mdp), 300, seed=8)
        trace = modbe(ds, make_fqi(4), chain_classes(), 0.1, "practical", seed=8)
        text = trace.to_text()
        lines = text.strip().splitlines()
        assert lines[-5].startswith("selected_k ")
        assert lines[-4] == f"base_calls {trace.base_calls}"
        assert sum(1 for ln in lines if ln.startswith("event ")) == len(trace.events)


def paper_modbe(dataset, base, classes, delta, schedule, seed):
    """ModBE's successive elimination written out from the paper. It shares
    only split_dataset, ToleranceSchedule, the base fit and erm with modbe.
    Returns k_hat and the (k, k', h, loss_g, loss_f, tol, reject) tests."""
    split = split_dataset(dataset, seed)
    train, valid = split.train.steps, split.valid.steps
    sched = ToleranceSchedule(schedule, classes, dataset.horizon, delta,
                              split.train.n, split.valid.n, dataset.n, base.omega)
    H, M, tests = dataset.horizon, len(classes), []
    for k in range(1, M + 1):
        f = base.fit(train, classes[k])

        def next_value(h, step):        # f^k_{h+1}(x') = max_a f^k_{h+1}(x', a); 0 beyond H
            return f.func(h + 1).max_values(step.x_next) if h < H else np.zeros(len(step))

        def loss(g, h):                 # validation loss of g against r + f^k_{h+1}(x')
            v = valid[h - 1]
            return float(np.mean((g.values(v.x, v.a) - v.r - next_value(h, v)) ** 2))

        rejected = False
        for k_prime in range(k + 1, M + 1):
            tol = sched.tol(k, k_prime)
            for h, t in enumerate(train, start=1):
                g = classes[k_prime].erm(t.x, t.a, t.r + next_value(h, t))
                loss_g, loss_f = loss(g, h), loss(f.func(h), h)
                tests.append((k, k_prime, h, loss_g, loss_f, tol, loss_g < loss_f - tol))
                rejected = rejected or tests[-1][-1]
            if rejected:
                break
        if not rejected:
            return k, tests


def trace_tests(trace):
    return trace.k_hat, [(e.k, e.k_prime, e.h, e.loss_g, e.loss_f, e.tol, e.reject)
                         for e in trace.events]


class TestPaperTranscription:
    """modbe and modbe_discounted against paper_modbe, floats compared with ==."""

    def test_random_abstraction_chains(self):
        rng = np.random.default_rng(2022)
        rejections = 0
        for case in range(400):
            S, A, H = (int(v) for v in rng.integers((2, 1, 1), (7, 4, 5)))
            blocks = [np.zeros(S, dtype=int)]
            for _ in range(rng.integers(1, 4)):     # each class refines the one before
                blocks.append(np.unique(2 * blocks[-1] + rng.integers(0, 2, S),
                                        return_inverse=True)[1])
            classes = NestedSequence(tuple(AbstractionClass(b, A, clip_high=float(H))
                                           for b in blocks))
            data = generate_from_mu(random_mdp(rng, S, A, H), random_full_support_mu(rng, S, A, H),
                                    int(rng.integers(5, 400)), case)
            for schedule in ("practical", "theoretical"):
                trace = modbe(data, make_fqi(H), classes, 0.1, schedule, case)
                assert trace_tests(trace) == paper_modbe(data, make_fqi(H), classes, 0.1,
                                                         schedule, case)
                rejections += sum(e.reject for e in trace.events)
        assert rejections > 0               # the reject path is exercised too

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), cb=st.booleans(),
           schedule=st.sampled_from(["practical", "theoretical"]))
    def test_finite_classes_and_one_step_cb(self, seed, cb, schedule):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 200))
        if cb:
            data, classes = cb_data(n, seed)
            trace = modbe_discounted(data, classes, 0.1, schedule, seed)
            dataset, base = OfflineDataset((data,)), make_discounted()
        else:
            S, A, H = (int(v) for v in rng.integers((2, 1, 1), (7, 4, 5)))
            tables = [np.zeros((S, A))] + [rng.uniform(0.0, H + 1.0, (S, A)) for _ in range(8)]
            sizes = np.sort(rng.choice(np.arange(1, 10), rng.integers(2, 5), replace=False))
            classes = NestedSequence(tuple(FiniteClass(tuple(tables[:m]), clip_high=float(H))
                                           for m in sizes))
            dataset = generate_from_mu(random_mdp(rng, S, A, H),
                                       random_full_support_mu(rng, S, A, H), n, seed)
            base = make_fqi(H)
            trace = modbe(dataset, base, classes, 0.1, schedule, seed)
        assert trace_tests(trace) == paper_modbe(dataset, base, classes, 0.1, schedule, seed)
