import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from modbe import (AbstractionClass, FiniteClass, NestedSequence, TabularMDP,
                   generate_from_mu, greedy_policy, make_fqi, modbe, regret, split_dataset)
from modbe import basealg, evaluation, selection
from modbe.basealg import fqi
from modbe.dataset import MAX_SAMPLES, stream
from modbe.basealg import fqi_oracle
from modbe.mdp import squared_bellman_errors
from modbe.selection import validation_losses
from modbe.evaluation import (CB_DIMS, CB_EVAL_CHUNK, CB_EVAL_CONTEXTS, CB_MAX_CONTEXTS,
                              CBInstance, EvalError,
                              ExperimentConfig, cb_policy_regrets,
                              chain_classes, chain_mdp, diagnose,
                              holdout_bias_instance, holdout_select, oracle_select,
                              parse_config,
                              run_experiment, run_seed, summarize,
                              uniform_mu, write_results_csv)

from conftest import (grid_completeness_error, never_overshoot_instance, random_full_support_mu,
                      random_mdp)


def one_cell(n, seed, methods, instance="chain"):
    """The scored rows of one (n, seed) cell: run_seed on a one-cell config."""
    return run_seed(seed, ExperimentConfig(instance, [n], [seed], methods))


def in_process_pool(monkeypatch) -> list:
    """Make run_experiment's process pool map in this process; returns the
    list that records each pool's max_workers."""
    import concurrent.futures
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return started


def approx_of(cls, mdp, mu):
    """Approx(F) of a lone class: diagnose on its one-class sequence."""
    return diagnose(NestedSequence((cls,)), mdp, mu).approx[0]


def one_state_two_action(r1=1.0, r2=0.0, H=1):
    P = np.ones((H, 1, 2, 1))
    return TabularMDP(P, np.array([[r1, r2]]), np.ones(1))


class TestApproxError:
    def test_complete_tabular_class_zero(self, rng):
        # zero rewards keep every backup under the clip bound, so the full
        # partition represents T*f exactly for all members
        P = np.stack([np.stack([np.eye(2)] * 1, axis=1)] * 2)
        mdp = TabularMDP(P, np.zeros((2, 1)), np.array([1.0, 0.0]))
        mu = np.full((2, 2, 1), 0.5)
        cls = AbstractionClass(np.arange(2), 1, clip_high=1.0)
        assert approx_of(cls, mdp, mu) == pytest.approx(0.0, abs=1e-18)

    def test_singleton_zero_on_zero_reward_mdp(self):
        P = np.ones((2, 1, 1, 1))
        mdp = TabularMDP(P, np.zeros((1, 1)), np.ones(1))
        mu = np.ones((2, 1, 1))
        cls = FiniteClass((np.zeros((1, 1)),), clip_high=2.0)
        assert approx_of(cls, mdp, mu) == 0.0

    def test_hand_enumerated_two_member_class(self):
        # 1 state, 1 action, H=2, r=0.75; members {0, 1}. Step 2 backs up only
        # f_3 = 0: T*(0) = 0.75, 0.0625 from the member 1. Step 1 backs up both
        # members, since each lies in [0, H - 1]: the worst is the 1-function,
        # T*(1) = 0.75 + 1 = 1.75, whose best fit 1 is (1 - 1.75)^2 = 0.5625 away
        P = np.ones((2, 1, 1, 1))
        mdp = TabularMDP(P, np.full((1, 1), 0.75), np.ones(1))
        mu = np.ones((2, 1, 1))
        cls = FiniteClass((np.zeros((1, 1)), np.ones((1, 1))), clip_high=1.0)
        assert approx_of(cls, mdp, mu) == pytest.approx(0.5625, abs=1e-12)

    def test_backups_range_over_the_remaining_horizon(self):
        # 1 state, 1 action, H=2, r=0.5; members {0, 0.5, 1, 1.5}. Step 2 backs
        # up f_3 = 0 alone and step 1 the members in [0, 1]; each backup r + f'
        # is a member, so the class is complete. The member 1.5 lies above both
        # ranges: its backup 2 would be 0.25 from the class
        P = np.ones((2, 1, 1, 1))
        mdp = TabularMDP(P, np.full((1, 1), 0.5), np.ones(1))
        cls = FiniteClass(tuple(np.full((1, 1), v) for v in (0.0, 0.5, 1.0, 1.5)))
        report = diagnose(NestedSequence((cls,)), mdp, uniform_mu(mdp))
        assert report.approx == report.xi == [0.0] and report.k_star == 1

    def test_finite_members_backed_up_clipped(self):
        # 1 state, 1 action, H=2, r=0.75, clip 1: members {0, 9} and {0, 1}
        # evaluate alike, so they back up alike. Clipped to 1, the member 9
        # lies in step 1's range [0, 1], and T*(1) = 1.75 is 0.5625 from the
        # member 1; out of range, it would leave step 2's T*(0) = 0.75, 0.0625
        P = np.ones((2, 1, 1, 1))
        mdp = TabularMDP(P, np.full((1, 1), 0.75), np.ones(1))
        for top in (9.0, 1.0):
            cls = FiniteClass((np.zeros((1, 1)), np.full((1, 1), top)), clip_high=1.0)
            assert approx_of(cls, mdp, uniform_mu(mdp)) == 0.5625

    def test_finite_projection_on_clipped_values(self):
        # the 7.5 member evaluates to the clip bound 2, which is the target
        cls = FiniteClass((np.zeros((1, 1)), np.full((1, 1), 7.5)), clip_high=2.0)
        target = np.full((1, 1), 2.0)
        assert evaluation._projection_error(cls, target, np.ones((1, 1))) == 0.0

    def test_vertices_equal_the_grid_reference(self, rng):
        # the 2**B extreme members give the grid's Approx and xi on random
        # classes small enough to enumerate, clipped or not, with a coarse inner
        shapes = [(clip, A, B) for clip in (None, 1.0, 2.0) for A, B in ((1, 2), (2, 1))]
        for clip, A, B in 4 * shapes + [(4.0, 1, 1), (4.0, 1, 2)]:
            S, H = B + int(rng.integers(0, 3)), int(rng.integers(1, 4))
            outer_blocks = rng.permutation(np.arange(S) % B)
            coarse = rng.permutation(np.arange(B) % int(rng.integers(1, B + 1)))
            inner = AbstractionClass(coarse[outer_blocks], A, clip)
            outer = AbstractionClass(outer_blocks, A, clip)
            mdp, mu = random_mdp(rng, S, A, H), random_full_support_mu(rng, S, A, H)
            report = diagnose(NestedSequence((inner, outer)), mdp, mu)
            for got, (small, large) in ((report.approx[0], (inner, inner)),
                                        (report.approx[1], (outer, outer)),
                                        (report.xi[0], (inner, outer)),
                                        (report.xi[1], (outer, outer))):
                assert abs(got - grid_completeness_error(small, large, mdp, mu)) <= 1e-15

    def test_linear_not_computable(self):
        inst = CBInstance()
        feats = inst.sample_features(4, np.random.default_rng(0))
        cls = inst.classes(feats)[1]
        mdp = one_state_two_action()
        assert approx_of(cls, mdp, np.full((1, 1, 2), 0.5)) is None


class TestGlobalXi:
    def test_xi_at_m_equals_approx(self):
        # Approx(F_M) is read from xi_M; it must equal F_M's Approx on its own
        mdp, classes, mu = never_overshoot_instance()
        report = diagnose(classes, mdp, mu)
        assert report.approx[-1] == report.xi[-1] == approx_of(classes[len(classes)], mdp, mu)
        assert report.xi[0] != report.xi[-1]

    def test_xi_dominates_approx_and_decreases(self):
        mdp, classes, mu = never_overshoot_instance()
        report = diagnose(classes, mdp, mu)
        xis, approxes = report.xi, report.approx
        assert len(xis) == len(approxes) == len(classes)
        assert all(x >= a - 1e-15 for x, a in zip(xis, approxes))
        assert all(a >= b - 1e-15 for a, b in zip(xis, xis[1:]))

    def test_complete_class_with_positive_xi(self):
        # F_2 on the never-overshoot instance is complete (Approx = 0) but the
        # F_3 member w backs up outside F_2, so xi_2 > 0
        mdp, classes, mu = never_overshoot_instance()
        report = diagnose(classes, mdp, mu)
        assert report.approx[1] == pytest.approx(0.0, abs=1e-15)
        assert report.xi[1] > 1e-4

    def test_each_member_backed_up_once(self, monkeypatch):
        # one backup per h of each member of every F_k, k < M, for Approx, and
        # of each member of F_M for all of xi, each once: 2**B_k at every step
        # but H, whose one member is f_{H+1} = 0, so sum_k (2**B_k * (H - 1) + 1)
        calls = []
        real = evaluation.bellman_backup
        monkeypatch.setattr(evaluation, "bellman_backup",
                            lambda *args: calls.append(args[1]) or real(*args))
        mdp, classes = chain_mdp(), chain_classes()
        diagnose(classes, mdp, uniform_mu(mdp))
        H, blocks = mdp.horizon, [classes[k].num_blocks for k in (1, 2, 3)]
        assert blocks == [1, 2, 4]
        assert len(calls) == sum(2 ** b * (H - 1) + 1 for b in blocks) == 69
        assert calls.count(H) == len(blocks)


class TestDiagnose:
    def test_report_fields(self):
        mdp, classes, mu = never_overshoot_instance()
        report = diagnose(classes, mdp, mu)
        assert report.k_star == 2              # F_1 misses T*u, F_2 is closed
        assert math.isfinite(report.conc)
        text = report.to_text()
        assert "concentrability" in text and "class 3" in text

    def test_chain_diagnosis(self):
        # step h backs up each class's 2**B extreme members in [0, H - h], and
        # step H the zero table alone: every backup r + f' lies in [0, H - h + 1]
        # within the clip bound 4, so the full tabular class 3 is complete
        mdp = chain_mdp()
        report = diagnose(chain_classes(), mdp, uniform_mu(mdp))
        assert report.conc == pytest.approx(8.0)
        assert report.approx == [0.18218750000000003, 1.145625, 0.0]
        assert report.xi == [2.4396875000000002, 1.145625, 0.0]
        assert report.k_star == 3


class TestBaselines:
    def test_holdout_single_class(self, rng):
        mdp = random_mdp(rng, 2, 2, 2)
        ds = generate_from_mu(mdp, np.full((2, 2, 2), 0.25), 50, seed=0)
        classes = NestedSequence((AbstractionClass(np.arange(2), 2, clip_high=2.0),))
        split = split_dataset(ds, 0)
        k, scores = holdout_select([validation_losses(fqi(split.train.steps, classes[1]),
                                                      split.valid.steps)])
        assert k == 1 and len(scores) == 1

    def test_holdout_tie_breaks_to_smallest(self, rng):
        mdp = random_mdp(rng, 2, 2, 2)
        ds = generate_from_mu(mdp, np.full((2, 2, 2), 0.25), 50, seed=1)
        cls = AbstractionClass(np.arange(2), 2, clip_high=2.0)
        classes = NestedSequence((cls, AbstractionClass(np.arange(2), 2, clip_high=2.0)))
        split = split_dataset(ds, 0)
        k, scores = holdout_select([validation_losses(fqi(split.train.steps, classes[k]),
                                                      split.valid.steps) for k in (1, 2)])
        assert k == 1 and scores[0] == scores[1]

    def test_oracle_picks_min_regret(self):
        mdp = chain_mdp()
        ds = generate_from_mu(mdp, uniform_mu(mdp), 2000, seed=2)
        split, classes = split_dataset(ds, 0), chain_classes()
        k, regrets = oracle_select([regret(mdp, greedy_policy(fqi(split.train.steps,
                                                                 classes[k]).funcs))
                                    for k in (1, 2, 3)])
        assert regrets[k - 1] == min(regrets)

    def test_holdout_bias_instance_margins(self):
        # the constant class has the larger true Bellman error yet wins
        # hold-out in expectation (double-sampling variance penalty); the
        # tabular class is complete, and its population fit has no error
        mdp, classes, mu = holdout_bias_instance()
        report = diagnose(classes, mdp, mu)
        assert report.approx == report.xi == [0.025, 0.0]
        assert report.k_star == 2
        errs = []
        for k in (1, 2):
            seq = fqi_oracle(mdp, mu, classes[k])
            xs = np.arange(mdp.num_states)
            zeros = np.zeros(mdp.num_states, dtype=int)
            tables = np.stack(
                [seq.func(h).values(xs, zeros)[:, None] for h in range(1, mdp.horizon + 1)]
            )
            errs.append(squared_bellman_errors(mdp, mu, tables).sum())
        assert errs[0] > 0.01
        assert errs[1] == pytest.approx(0.0, abs=1e-15)


class TestCBInstance:
    def test_theta_support(self):
        inst = CBInstance()
        assert np.all(inst.theta[30:] == 0.0)
        assert np.all(inst.theta[:30] != 0.0)

    def test_noiseless_identifiability(self):
        inst = CBInstance()
        rng = np.random.default_rng(0)
        n = 200                                 # >= 2 * active_dim
        feats = inst.sample_features(n, rng)
        means = inst.mean_rewards(feats)
        actions = rng.integers(0, 10, n)
        classes = inst.classes(feats)
        k30 = inst.class_dims.index(30) + 1
        f = classes[k30].erm(np.arange(n), actions, means[np.arange(n), actions])
        assert np.abs(f.weights - inst.theta[:30]).max() < 1e-4

    def test_fixed_15_regret_floor(self):
        # missing active features: regret cannot vanish no matter the n
        rows = run_seed(0, ExperimentConfig("cb", [5000], [0], ["fixed-1"]))
        assert rows[0][4] > 0.1

    def test_class_dims_match_spec_family(self):
        assert CBInstance().class_dims == (15, 20, 25, 28, 29, 30, 50, 75, 100, 200)


def eval_rng(seed):
    return stream(seed, 1)


class TestCBEvaluationStream:
    def test_chunked_draw_matches_one_draw(self):
        inst = CBInstance()
        whole = inst.sample_features(CB_EVAL_CONTEXTS, eval_rng(3))
        whole_means = inst.mean_rewards(whole)
        rng = eval_rng(3)
        for start in range(0, CB_EVAL_CONTEXTS, CB_EVAL_CHUNK):
            chunk = inst.sample_features(CB_EVAL_CHUNK, rng)
            assert np.array_equal(chunk, whole[start:start + CB_EVAL_CHUNK])
            assert np.array_equal(inst.mean_rewards(chunk),
                                  whole_means[start:start + CB_EVAL_CHUNK])

    def test_streamed_regrets_match_whole_set(self):
        inst = CBInstance()
        draw = np.random.default_rng(5)
        fits = [w for d in (15, 30, 200)
                for w in (inst.theta[:d].copy(), draw.standard_normal(d))]
        feats = inst.sample_features(CB_EVAL_CONTEXTS, eval_rng(2))
        means = inst.mean_rewards(feats)
        best_mean = means.max(axis=1).mean()
        expected = []
        for w in fits:
            chosen = means[np.arange(CB_EVAL_CONTEXTS),
                           (feats[:, :, :len(w)] @ w).argmax(axis=1)]
            expected.append(float(best_mean - chosen.mean()))
        del feats, means
        assert cb_policy_regrets(inst, 2, fits) == expected
        assert expected[2] < 1e-12 < expected[0]    # the true weights lose nothing at d = 30

    def test_one_seed_peak_memory(self):
        # the whole 10 000-context set alone is 160 MB; one chunk is 16 MB
        cfg = ExperimentConfig("cb", [200], [0], ["oracle"])
        tracemalloc.start()
        try:
            rows = run_experiment(cfg, record_runtime=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 1
        assert peak < 64 * 2 ** 20

    @staticmethod
    def per_fit_regrets(inst, seed, fits):
        """The definition: each fit's own product over the whole set."""
        feats = inst.sample_features(CB_EVAL_CONTEXTS, eval_rng(seed))
        means = inst.mean_rewards(feats)
        best_mean = means.max(axis=1).mean()
        contexts = np.arange(CB_EVAL_CONTEXTS)
        return [float(best_mean
                      - means[contexts, (feats[:, :, :len(w)] @ w).argmax(axis=1)].mean())
                for w in fits]

    @pytest.mark.parametrize("case", ["every-dim", "single", "identical-pair", "all-zero"])
    def test_stacked_scoring_matches_per_fit_products(self, case):
        inst = CBInstance()
        draw = np.random.default_rng(11)
        fits = {
            "every-dim": [draw.standard_normal(d) for d in CB_DIMS],
            "single": [draw.standard_normal(28)],
            "identical-pair": [draw.standard_normal(29)] * 2,
            "all-zero": [np.zeros(200), np.zeros(15)],
        }[case]
        expected = self.per_fit_regrets(inst, 4, fits)
        assert cb_policy_regrets(inst, 4, fits) == expected
        if case == "all-zero":
            # every action ties, so both paths pick action 0
            feats = inst.sample_features(CB_EVAL_CONTEXTS, eval_rng(4))
            means = inst.mean_rewards(feats)
            assert expected[0] == expected[1] == float(means.max(axis=1).mean()
                                                       - means[:, 0].mean())

    def test_one_chunk_live_at_a_time(self):
        # the next chunk is drawn only after the last one is released
        inst = CBInstance()
        fits = [np.ones(d) for d in (15, 30, 200)]
        chunk_bytes = CB_EVAL_CHUNK * inst.num_actions * inst.ambient_dim * 8
        tracemalloc.start()
        try:
            cb_policy_regrets(inst, 0, fits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * chunk_bytes


class TestCBFeatureBuffer:
    """A seed's CBInstance draws every feature tensor into one buffer; the
    values are those of a fresh draw."""

    @pytest.mark.parametrize("capacity, n", [
        (5000, 5), (5000, 200), (5000, 999), (5000, CB_EVAL_CHUNK), (5000, 5000),
        (CB_EVAL_CHUNK, CB_EVAL_CHUNK)])
    def test_buffered_draw_equals_fresh_draw(self, capacity, n):
        inst = CBInstance(capacity)
        inst.buffer.fill(np.nan)
        fresh = CBInstance().sample_features(n, eval_rng(n))
        feats = inst.sample_features(n, eval_rng(n))
        assert feats.shape == fresh.shape
        assert feats.tobytes() == fresh.tobytes()
        assert np.shares_memory(feats, inst.buffer)

    def test_consecutive_draws_continue_the_stream(self):
        inst = CBInstance(2000)
        fresh_rng, rng = eval_rng(9), eval_rng(9)
        for n in (2000, 300, CB_EVAL_CHUNK, 1500):
            fresh = CBInstance().sample_features(n, fresh_rng)
            assert inst.sample_features(n, rng).tobytes() == fresh.tobytes()

    def test_draw_beyond_capacity_rejected(self):
        inst = CBInstance(CB_EVAL_CHUNK)
        with pytest.raises(EvalError, match="1001 contexts exceed the feature buffer of 1000"):
            inst.sample_features(CB_EVAL_CHUNK + 1, eval_rng(0))

    @staticmethod
    def _instance_class(fill):
        """CBInstance whose buffer starts filled with fill, or has no buffer for None."""
        class Instance(CBInstance):
            def __init__(self, capacity=0):
                super().__init__(capacity if fill is not None else 0)
                if fill is not None:
                    self.buffer.fill(fill)
        return Instance

    def test_run_seed_ignores_stale_buffer_contents(self, monkeypatch):
        # a larger n first leaves stale contexts beyond every later draw
        cfg = ExperimentConfig("cb", [1500, 200, 500], [0],
                               ["modbe", "holdout", "oracle", "fixed-1", "fixed-6"])
        monkeypatch.setattr(evaluation, "CBInstance", self._instance_class(None))
        fresh = run_seed(0, cfg)
        monkeypatch.setattr(evaluation, "CBInstance", self._instance_class(np.nan))
        assert [r[:5] for r in run_seed(0, cfg)] == [r[:5] for r in fresh]

    def test_every_draw_of_a_seed_shares_one_buffer(self, monkeypatch):
        draws = []
        sample = CBInstance.sample_features

        def recording(inst, n, rng):
            feats = sample(inst, n, rng)
            draws.append((inst, n, feats))
            return feats
        monkeypatch.setattr(CBInstance, "sample_features", recording)
        run_seed(0, ExperimentConfig("cb", [200, 2000], [0], ["fixed-1"]))
        assert [n for _inst, n, _feats in draws] == [200, 2000] + [CB_EVAL_CHUNK] * 10
        assert len({id(inst) for inst, _n, _feats in draws}) == 1
        buffer = draws[0][0].buffer
        assert len(buffer) == 2000
        assert all(np.shares_memory(feats, buffer) for _inst, _n, feats in draws)

    def test_buffered_scoring_allocates_far_less_than_one_chunk(self):
        # counterpart of test_one_chunk_live_at_a_time: the chunks reuse the buffer
        inst = CBInstance(CB_EVAL_CHUNK)
        fits = [np.ones(d) for d in (15, 30, 200)]
        chunk_bytes = CB_EVAL_CHUNK * inst.num_actions * inst.ambient_dim * 8
        tracemalloc.start()
        try:
            regrets = cb_policy_regrets(inst, 0, fits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * chunk_bytes
        assert regrets == cb_policy_regrets(CBInstance(), 0, fits)


class TestFitAndScoreOnlyWhatRowsRead:
    """A cell fits every class only for holdout or oracle, and scores every
    class only for oracle; other methods read one class each."""

    @staticmethod
    def _counted(monkeypatch, module, name, counts, key, size=lambda *args: 1):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key] += size(*args)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    @pytest.mark.parametrize("methods, fits, scores", [
        (["modbe"], "k_hat", 1), (["holdout"], 3, 1), (["fixed-1"], 1, 1),
        (["modbe", "oracle"], 3, 3)])
    def test_tabular_cell(self, monkeypatch, methods, fits, scores):
        counts = {"fits": 0, "scores": 0}
        self._counted(monkeypatch, basealg, "fqi", counts, "fits")
        self._counted(monkeypatch, evaluation, "regret", counts, "scores")
        rows = one_cell(1000, 1, methods)
        assert counts == {"fits": rows[0][3] if fits == "k_hat" else fits, "scores": scores}

    @pytest.mark.parametrize("methods, fits, scores", [
        (["modbe"], "k_hat", 1), (["holdout"], 10, 1), (["fixed-1"], 1, 1),
        (["modbe", "oracle"], 10, 10)])
    def test_cb_cell(self, monkeypatch, methods, fits, scores):
        counts = {"fits": 0, "scores": 0}
        self._counted(monkeypatch, basealg, "fitted_q_discounted", counts, "fits")
        self._counted(monkeypatch, evaluation, "cb_policy_regrets", counts, "scores",
                      lambda _inst, _seed, kept: len(kept))
        rows = run_seed(0, ExperimentConfig("cb", [500], [0], methods))
        assert counts == {"fits": rows[0][3] if fits == "k_hat" else fits, "scores": scores}

    def test_cb_fits_go_through_fqi(self, monkeypatch):
        # each base fit, ModBE's and the baselines', is make_fqi()'s
        counts = {"fqi": 0, "fitted_q_discounted": 0}
        self._counted(monkeypatch, basealg, "fqi", counts, "fqi")
        self._counted(monkeypatch, basealg, "fitted_q_discounted", counts,
                      "fitted_q_discounted")
        run_seed(0, ExperimentConfig("cb", [500], [0], ["modbe", "holdout", "oracle"]))
        assert counts["fqi"] == counts["fitted_q_discounted"] == len(CB_DIMS)

    def test_rows_do_not_depend_on_the_other_methods(self):
        methods = ["modbe", "holdout", "oracle", "fixed-1", "fixed-3"]
        both = one_cell(1000, 1, methods)
        alone = [row for m in methods for row in one_cell(1000, 1, [m])]
        assert [r[:5] for r in alone] == [r[:5] for r in both]
        cfg = ExperimentConfig("cb", [200], [0], ["modbe", "holdout", "oracle", "fixed-1",
                                                 "fixed-6"])
        both = run_seed(0, cfg)
        alone = [row for m in cfg.methods for row in one_cell(200, 0, [m], "cb")]
        assert [r[:5] for r in alone] == [r[:5] for r in both]


class TestComputeOnce:
    """A sweep scores each distinct greedy policy once, and hold-out reads the
    validation losses ModBE already computed."""

    CHAIN_CFG = Path(__file__).resolve().parent.parent / "configs" / "chain.cfg"

    @staticmethod
    def _spy(monkeypatch, module, name, calls):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    @staticmethod
    def _per_fit_rows(cfg):
        """The chain sweep's rows with every fit scored on its own, and the
        greedy policy of each fit as bytes."""
        mdp, classes, mu = evaluation._tabular_instance(cfg.instance)
        base = make_fqi()
        rows, policies = [], []
        for seed in cfg.seeds:
            for n in cfg.n_list:
                dataset = generate_from_mu(mdp, mu, n, seed)
                cell = evaluation._method_rows(
                    seed, cfg.methods, dataset, base, classes,
                    lambda: modbe(dataset, base, classes, cfg.delta, cfg.schedule, seed))
                greedy = {k: greedy_policy(fseq.funcs) for k, fseq in cell[0][4].items()}
                policies += [pol.probs.tobytes() for pol in greedy.values()]
                rows += evaluation._scored(cell, {k: regret(mdp, pol)
                                                  for k, pol in greedy.items()})
        rows.sort(key=lambda r: (r[0], r[1], r[2]))
        return [(n, s, m, k, reg) for n, s, m, k, reg, _ in rows], policies

    def test_chain_sweep_scores_each_greedy_table_once(self, monkeypatch):
        cfg = parse_config(str(self.CHAIN_CFG))
        expected, policies = self._per_fit_rows(cfg)
        distinct = set(policies)
        assert len(distinct) < len(policies)
        calls = {"greedy_policy": 0, "regret": 0}
        self._spy(monkeypatch, evaluation, "greedy_policy", calls)
        self._spy(monkeypatch, evaluation, "regret", calls)
        rows = run_experiment(cfg, jobs=1, record_runtime=False)
        assert calls == {"greedy_policy": len(distinct), "regret": len(distinct)}
        assert [r[:5] for r in rows] == expected

    def test_chain_sweep_expands_methods_at_construction_and_recheck(self, monkeypatch):
        calls = {"_expand_methods": 0}
        self._spy(monkeypatch, evaluation, "_expand_methods", calls)
        cfg = parse_config(str(self.CHAIN_CFG))
        run_experiment(cfg, jobs=1, record_runtime=False)
        assert calls == {"_expand_methods": 2}

    def test_config_holds_the_expanded_methods(self):
        cfg = ExperimentConfig("chain", [100], [0], ["modbe", "fixed", "oracle"])
        assert cfg.methods == ["modbe", "fixed-1", "fixed-2", "fixed-3", "oracle"]
        assert ExperimentConfig("chain", [100], [0], ["fixed-03"]).methods == ["fixed-3"]
        cb = ExperimentConfig("cb", [200], [0], ["holdout", "fixed"])
        assert cb.methods == ["holdout", *(f"fixed-{k}" for k in range(1, len(CB_DIMS) + 1))]

    def test_back_to_back_sweeps_each_score(self, monkeypatch):
        calls = {"greedy_policy": 0, "regret": 0}
        self._spy(monkeypatch, evaluation, "greedy_policy", calls)
        self._spy(monkeypatch, evaluation, "regret", calls)
        cfg = ExperimentConfig("chain", [100, 1000], [0, 1], ["modbe", "oracle"])
        first = run_experiment(cfg, record_runtime=False)
        once = dict(calls)
        assert once["regret"] > 0 and once["greedy_policy"] > 0
        assert run_experiment(cfg, record_runtime=False) == first
        assert calls == {name: 2 * count for name, count in once.items()}

    def test_direct_cell_calls_each_score(self, monkeypatch):
        # a run_seed call without a memo starts an empty one
        calls = {"regret": 0}
        self._spy(monkeypatch, evaluation, "regret", calls)
        one_cell(1000, 1, ["fixed-3"])
        one_cell(1000, 1, ["fixed-3"])
        assert calls == {"regret": 2}

    @pytest.mark.parametrize("seed", range(20))
    def test_trace_losses_are_validation_losses_chain(self, seed):
        mdp, classes, mu = evaluation._tabular_instance("chain")
        for n in (100, 1000):
            trace = modbe(generate_from_mu(mdp, mu, n, seed), make_fqi(), classes,
                          0.1, "practical", seed)
            losses = trace.valid_losses
            assert set(losses) == {e.k for e in trace.events}
            for k, per_step in losses.items():
                assert per_step == validation_losses(trace.fits[k], trace.split.valid.steps)

    def test_trace_losses_are_validation_losses_cb(self, monkeypatch):
        traces = []

        def kept(*args, **kwargs):
            traces.append(selection.modbe_discounted(*args, **kwargs))
            return traces[-1]
        monkeypatch.setattr(evaluation, "modbe_discounted", kept)
        cfg = ExperimentConfig("cb", [500], [0], ["modbe"])
        evaluation.run_cb_cell(500, 0, cfg, CBInstance())
        (trace,) = traces
        losses = trace.valid_losses
        assert set(losses) == {e.k for e in trace.events} and len(losses) > 1
        for k, per_step in losses.items():
            assert per_step == validation_losses(trace.fits[k], trace.split.valid.steps)

    @pytest.mark.parametrize("n, seed, tested", [(100, 0, 2), (100, 1, 1), (1000, 1, 2),
                                                 (10000, 2, 2)])
    def test_holdout_computes_only_untested_losses(self, monkeypatch, n, seed, tested):
        traces, calls = [], {"validation_losses": 0}

        def kept(*args, **kwargs):
            traces.append(selection.modbe(*args, **kwargs))
            return traces[-1]
        monkeypatch.setattr(evaluation, "modbe", kept)
        self._spy(monkeypatch, evaluation, "validation_losses", calls)
        rows = one_cell(n, seed, ["modbe", "holdout"])
        (trace,) = traces
        assert len(trace.valid_losses) == tested
        assert calls["validation_losses"] == 3 - tested
        assert rows[1][:5] == one_cell(n, seed, ["holdout"])[0][:5]


class TestExperimentPlumbing:
    def test_tabular_instance_built_once_and_read_only(self):
        for name in ("chain", "holdout_bias"):
            first = evaluation._tabular_instance(name)
            assert all(a is b for a, b in zip(first, evaluation._tabular_instance(name),
                                               strict=True))
            mdp, _classes, mu = first
            with pytest.raises(ValueError):
                mu[0, 0, 0] = 0.5
            with pytest.raises(ValueError):
                mdp.transitions[0, 0, 0, 0] = 0.5

    def test_parse_config_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("instance = chain\nn_list = 100, 200\nseeds = 0,1,2\n"
                        "methods = modbe, fixed\nschedule = practical\n"
                        "output = out.csv\n# comment\n")
        cfg = parse_config(str(path))
        assert cfg.instance == "chain" and cfg.n_list == [100, 200]
        assert cfg.seeds == [0, 1, 2] and cfg.schedule == "practical"

    def test_config_validation(self):
        with pytest.raises(EvalError):
            ExperimentConfig("chain", [3], [0], ["modbe"])
        with pytest.raises(EvalError):
            ExperimentConfig("chain", [100], [0, 0], ["modbe"])
        with pytest.raises(EvalError):
            ExperimentConfig("chain", [100], [0, -1], ["modbe"])
        with pytest.raises(EvalError, match="n values must be distinct"):
            ExperimentConfig("chain", [100, 200, 100], [0, 1], ["modbe"])
        for n in (MAX_SAMPLES + 1, 99999999999999999999):
            with pytest.raises(EvalError, match="n values must lie in"):
                ExperimentConfig("chain", [100, n], [0], ["modbe"])
        for instance in ("cb", "chain"):
            with pytest.raises(EvalError, match="^n_list must not be empty$"):
                ExperimentConfig(instance, [], [0], ["modbe"])
        with pytest.raises(EvalError, match="^seeds must not be empty$"):
            ExperimentConfig("chain", [100], [], ["modbe"])

    def test_cb_n_capped_by_feature_buffer(self):
        ExperimentConfig("cb", [200, CB_MAX_CONTEXTS], [0], ["modbe"])
        ExperimentConfig("chain", [CB_MAX_CONTEXTS + 1], [0], ["modbe"])
        with pytest.raises(EvalError, match="cb n = 10000000 needs a 160000000000-byte feature "
                                            r"buffer; at most 100000 contexts \(1600000000 bytes\)"):
            ExperimentConfig("cb", [200, 10_000_000], [0], ["modbe"])

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("instance = chain\nn_list = 100\nseeds = 0, 1, 2\n# note\n"
                        "methods = modbe\nseeds = 5\n")
        with pytest.raises(EvalError, match=r"exp.cfg:6: config key 'seeds' repeats line 3"):
            parse_config(str(path))

    @pytest.mark.parametrize("methods, name", [
        (["holdout", "holdout"], "holdout"), (["fixed", "fixed-2"], "fixed-2"),
        (["fixed-2", "fixed-02"], "fixed-2"), (["oracle", "modbe", "fixed", "oracle"], "oracle")])
    def test_repeated_method_rejected_before_any_cell(self, monkeypatch, methods, name):
        def no_cell(*_args, **_kwargs):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(evaluation, "run_rl_cell", no_cell)
        with pytest.raises(EvalError, match=f"method\\(s\\) given twice: {name}$"):
            run_experiment(ExperimentConfig("chain", [100], [0], methods))

    def test_fixed_index_written_in_plain_digits(self):
        rows = one_cell(100, 0, ["fixed-03", "fixed-\u0661"])
        assert [r[2:4] for r in rows] == [("fixed-3", 3), ("fixed-1", 1)]
        with pytest.raises(EvalError, match="class index outside"):
            one_cell(100, 0, ["fixed-\u00b2"])

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("instance = chain\n")
        with pytest.raises(EvalError):
            parse_config(str(path))

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("instance = chain\nn_list = 100\nseeds = 0\nmethods = modbe\n"
                        "gamma = 0.5\nshedule = theoretical\n")
        with pytest.raises(EvalError, match="'gamma', 'shedule'"):
            parse_config(str(path))

    @pytest.mark.parametrize("instance, method", [
        ("chain", "magic"), ("chain", "fixed-0"), ("chain", "fixed-4"),
        ("holdout_bias", "fixed-3"), ("cb", "fixed-11")])
    def test_bad_method_rejected_before_any_cell(self, monkeypatch, instance, method):
        def no_cell(*_args, **_kwargs):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(evaluation, "run_rl_cell", no_cell)
        monkeypatch.setattr(evaluation, "run_cb_cell", no_cell)
        with pytest.raises(EvalError):
            run_experiment(ExperimentConfig(instance, [100], [0], ["modbe", method]))

    def test_jobs_do_not_change_results(self):
        cfg = ExperimentConfig("chain", [100], [0, 1, 2, 3], ["modbe", "fixed"],
                               schedule="practical")
        a = run_experiment(cfg, jobs=1, record_runtime=False)
        b = run_experiment(cfg, jobs=4, record_runtime=False)
        assert a == b

    def test_cb_jobs_do_not_change_results(self):
        cfg = ExperimentConfig("cb", [200, 500], [0, 1], ["modbe", "oracle", "fixed-1"])
        a = run_experiment(cfg, jobs=1, record_runtime=False)
        b = run_experiment(cfg, jobs=2, record_runtime=False)
        assert a == b

    @pytest.mark.parametrize("seeds, jobs, workers", [
        ([0, 1], 4, 2), ([0, 1, 2], 2, 2), ([0], 4, None), ([0, 1], 1, None)])
    def test_pool_capped_at_seed_count(self, monkeypatch, seeds, jobs, workers):
        started = in_process_pool(monkeypatch)
        cfg = ExperimentConfig("chain", [100], seeds, ["modbe"])
        rows = run_experiment(cfg, jobs=jobs, record_runtime=False)
        assert started == ([] if workers is None else [workers])
        assert rows == run_experiment(cfg, jobs=1, record_runtime=False)

    @pytest.mark.parametrize("jobs, allocations", [(1, 1), (2, 3)])
    def test_one_set_of_slot_arrays_per_run_or_task(self, monkeypatch, jobs, allocations):
        # at jobs 2 each seed's task runs in this process, so the spy sees it
        in_process_pool(monkeypatch)
        shapes = []

        class Spy(evaluation.SlotArrays):
            def __init__(self, horizon, capacity):
                shapes.append((horizon, capacity))
                super().__init__(horizon, capacity)
        monkeypatch.setattr(evaluation, "SlotArrays", Spy)
        cfg = ExperimentConfig("chain", [100, 1000, 200], [0, 1, 2], ["modbe", "oracle"])
        rows = run_experiment(cfg, jobs=jobs, record_runtime=False)
        assert shapes == [(4, 1000)] * allocations
        assert rows == sorted(r for seed in cfg.seeds for n in cfg.n_list
                              for r in run_experiment(ExperimentConfig("chain", [n], [seed],
                                                                       cfg.methods),
                                                      record_runtime=False))

    @pytest.mark.parametrize("n_list", [[10_000, 100, 1000], [100, 1000, 10_000]])
    def test_cells_sharing_slot_arrays_give_the_rows_of_fresh_ones(self, n_list):
        methods = ["modbe", "holdout", "oracle", "fixed"]
        arrays = evaluation.SlotArrays(4, 10_000)
        for column in arrays.data + arrays.split:
            column.fill(np.nan if column.dtype.kind == "f" else 3)
        cfg = ExperimentConfig("chain", n_list, [5], methods)
        rows = run_seed(5, cfg, {}, arrays)
        fresh = [row for n in n_list for row in one_cell(n, 5, methods)]
        assert [r[:5] for r in rows] == [r[:5] for r in fresh]

    def test_cb_eval_set_drawn_once_per_seed(self, monkeypatch):
        seeds = []

        def counting(instance, seed, fits):
            seeds.append(seed)
            return cb_policy_regrets(instance, seed, fits)
        monkeypatch.setattr(evaluation, "cb_policy_regrets", counting)
        cfg = ExperimentConfig("cb", [200, 500], [0, 1], ["fixed-1"])
        rows = run_experiment(cfg, jobs=1, record_runtime=False)
        assert seeds == [0, 1]
        assert len(rows) == 4

    def test_rows_sorted_and_regret_in_range(self):
        cfg = ExperimentConfig("chain", [100, 200], [1, 0], ["modbe"],
                               schedule="practical")
        rows = run_experiment(cfg, record_runtime=False)
        keys = [(r[0], r[1], r[2]) for r in rows]
        assert keys == sorted(keys)
        assert all(0.0 <= r[4] <= 4.0 for r in rows)

    def test_csv_format(self, tmp_path):
        cfg = ExperimentConfig("chain", [100], [0], ["modbe"], schedule="practical")
        rows = run_experiment(cfg, record_runtime=False)
        path = str(tmp_path / "r.csv")
        write_results_csv(rows, path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "n,seed,method,selected_k,regret,runtime_ms"
        assert lines[1].endswith(",")           # empty runtime field

    def test_summarize_shape(self):
        rows = [(100, 0, "modbe", 1, 0.5, 1.0), (100, 1, "modbe", 2, 0.7, 1.0)]
        text = summarize(rows)
        assert "modbe" in text and "0.60000" in text

    def test_rl_cell_methods(self):
        rows = one_cell(100, 0, ["modbe", "holdout", "oracle", "fixed"])
        methods = [r[2] for r in rows]
        assert methods == ["modbe", "holdout", "oracle", "fixed-1", "fixed-2", "fixed-3"]

    def test_rl_cell_splits_fits_and_scores_once(self, monkeypatch):
        # the baselines reuse ModBE's split and fits, and every row reads its
        # regret from one score per class
        calls = {"split": 0, "regret": 0}
        fitted = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def counted_fqi(train_steps, fclass):
            fitted.append(fclass)
            return fqi(train_steps, fclass)

        monkeypatch.setattr(selection, "split_dataset", counted("split", selection.split_dataset))
        monkeypatch.setattr(evaluation, "split_dataset", counted("split", evaluation.split_dataset))
        monkeypatch.setattr(evaluation, "regret", counted("regret", evaluation.regret))
        monkeypatch.setattr(basealg, "fqi", counted_fqi)
        rows = one_cell(100, 0, ["modbe", "holdout", "oracle", "fixed"])
        assert len(rows) == 6
        assert calls == {"split": 1, "regret": 3}
        assert len(fitted) == len({id(c) for c in fitted}) == 3

    def test_empty_method_list_rejected(self):
        with pytest.raises(EvalError, match="no methods"):
            one_cell(100, 0, [])

    @staticmethod
    def _no_cell(monkeypatch):
        def no_cell(*_args, **_kwargs):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(evaluation, "run_rl_cell", no_cell)

    def test_unknown_instance_rejected(self, monkeypatch):
        self._no_cell(monkeypatch)
        cfg = ExperimentConfig("chain", [100], [0], ["modbe"])
        cfg.instance = "mystery"
        with pytest.raises(EvalError, match="^unknown instance family 'mystery'$"):
            run_experiment(cfg)

    def test_method_set_after_construction_rejected_before_any_cell(self, monkeypatch):
        self._no_cell(monkeypatch)
        cfg = ExperimentConfig("chain", [100], [0], ["modbe"])
        cfg.methods = ["bogus"]
        with pytest.raises(EvalError, match="^unknown method 'bogus'$"):
            run_experiment(cfg)


class TestNeverOvershootInstance:
    def test_f2_complete_f1_not(self):
        mdp, classes, mu = never_overshoot_instance()
        approx = diagnose(classes, mdp, mu).approx
        assert approx[0] > 1e-4
        assert approx[1] == pytest.approx(0.0, abs=1e-15)

    def test_theoretical_schedule_keeps_low_k(self):
        mdp, classes, mu = never_overshoot_instance()
        hits = 0
        for seed in range(10):
            ds = generate_from_mu(mdp, mu, 1000, seed=seed)
            trace = modbe(ds, make_fqi(), classes, delta=0.1,
                          schedule="theoretical", seed=seed)
            hits += trace.k_hat <= 2
        assert hits >= 9
