import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modbe import (AbstractionClass, FiniteClass, LinearClass, NestedSequence,
                   greedy_policy, load_sequence, save_sequence)
from modbe.funcclass import ABSTRACTION_QUANTUM, ENUMERATION_CAP, FunctionClassError, TableQ

from conftest import empirical_sq_loss, reference_one_hot


def simple_finite(clip=None):
    zero = np.zeros((2, 2))
    one = np.ones((2, 2))
    return FiniteClass((zero, one), clip_high=clip)


def ident_features(dim):
    def fn(xs, as_):
        n = len(np.asarray(xs))
        out = np.ones((n, dim))
        for j in range(1, dim):
            out[:, j] = (np.asarray(xs) + 1.0) ** j
        return out
    return fn


class TestEvaluation:
    def test_table_member_returns_stored_entry(self):
        t = np.array([[0.1, 0.2], [0.3, 0.4]])
        f = TableQ(t)
        assert f.values([1], [0])[0] == 0.3

    def test_linear_dot_product_before_clipping(self):
        # linear classes carry no clip bound: values are the plain dot product
        from modbe.funcclass import LinearQ
        f = LinearQ(np.array([1.0, -2.0]), ident_features(2), 1)
        assert f.values([1, 2], [0, 0]).tolist() == [1.0 - 2.0 * 2.0, 1.0 - 2.0 * 3.0]
        f = LinearQ(np.array([1.0, 2.0]), ident_features(2), 1)
        assert f.values([1], [0])[0] == 5.0   # above any [0, H] bound

    def test_table_values_equal_clipped_raw_values(self):
        # entries below 0, above clip_high, NaN, -0.0 and infinities
        t = np.array([[-1.0, 0.5, 3.0], [np.nan, -0.0, 2.0], [0.0, np.inf, -np.inf]])
        xs = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 1, 0])
        as_ = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 1, 2])
        for clip_high in (None, 2.0, 0.25):
            f = TableQ(t, clip_high)
            raw = f.table[xs, as_]
            assert np.array_equal(raw, t[xs, as_], equal_nan=True)
            assert np.array_equal(np.signbit(raw), np.signbit(t[xs, as_]))
            want = raw if clip_high is None else np.clip(raw, 0.0, clip_high)
            got = f.values(xs, as_)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            clipped = t if clip_high is None else np.clip(t, 0.0, clip_high)
            want_max = clipped.max(axis=1)[xs]
            got_max = f.max_values(xs)
            assert np.array_equal(got_max, want_max, equal_nan=True)
            assert np.array_equal(np.signbit(got_max), np.signbit(want_max))
            assert np.array_equal(f.table, t, equal_nan=True)   # the stored table stays unclipped
            # the clipped table is the values over the full grid, read-only
            xs_grid, as_grid = np.divmod(np.arange(t.size), t.shape[1])
            grid_values = f.values(xs_grid, as_grid).reshape(t.shape)
            assert np.array_equal(f.clipped, grid_values, equal_nan=True)
            assert np.array_equal(np.signbit(f.clipped), np.signbit(grid_values))
            assert not f.clipped.flags.writeable

    @pytest.mark.parametrize("clip_high", [None, 1.0])
    def test_row_maxima_on_first_use(self, rng, clip_high):
        f = TableQ(rng.random((5, 3)) * 2 - 0.25, clip_high)
        assert "_row_max" not in vars(f)        # a fit that never asks for them builds none
        xs = rng.integers(0, 5, 40)
        assert np.array_equal(f.max_values(xs), f.clipped.max(axis=1)[xs])
        cached = f._row_max
        assert np.array_equal(f.max_values(xs[::-1]), f.clipped.max(axis=1)[xs[::-1]])
        assert f._row_max is cached

    def test_clipping_bounds(self):
        cls = FiniteClass((np.zeros((1, 1)), np.full((1, 1), 9.0)), clip_high=2.0)
        f = cls.erm([0, 0], [0, 0], [9.0, 9.0])
        assert f.values([0], [0])[0] == 2.0
        assert f.table[[0], [0]][0] == 9.0


class TestERM:
    def test_finite_all_targets_one(self):
        cls = simple_finite()
        f = cls.erm([0, 1], [0, 1], [1.0, 1.0])
        assert np.array_equal(f.table, np.ones((2, 2)))
        assert empirical_sq_loss(f, [0, 1], [0, 1], [1.0, 1.0]) == 0.0

    def test_finite_tie_breaks_to_lowest_index(self):
        # both members at distance 1 from the targets -> first member wins
        cls = FiniteClass((np.zeros((1, 1)), np.full((1, 1), 2.0)))
        f = cls.erm([0], [0], [1.0])
        assert np.array_equal(f.table, np.zeros((1, 1)))

    def test_finite_ranks_clipped_values(self):
        # 7.5 evaluates to the clip bound 2, which fits targets of 2 exactly
        cls = FiniteClass((np.zeros((1, 1)), np.full((1, 1), 7.5)), clip_high=2.0)
        f = cls.erm([0, 0], [0, 0], [2.0, 2.0])
        assert f.values([0], [0])[0] == 2.0
        g = cls.population_erm(np.ones((1, 1)), np.full((1, 1), 2.0))
        assert np.array_equal(g.table, np.full((1, 1), 7.5))

    def test_linear_constant_feature_mean(self):
        # d=1, phi == 1: ridge with tiny lambda -> near the sample mean 3
        cls = LinearClass(ident_features(1), dim=1, num_actions=1)
        f = cls.erm([0, 0], [0, 0], [2.0, 4.0])
        assert f.weights[0] == pytest.approx(3.0, abs=1e-4)

    def test_linear_ridge_is_lambda_1e6_n(self, rng):
        # the normal equations with lambda = 1e-6 * n, written out: pins RIDGE_SCALE
        feats = rng.standard_normal((4, 2, 6))

        def feature_fn(xs, as_):
            return feats[np.asarray(xs), np.asarray(as_)]

        n = 30
        xs, as_, ys = rng.integers(0, 4, n), rng.integers(0, 2, n), rng.random(n)
        X = feature_fn(xs, as_)[:, :5]
        want = np.linalg.solve(X.T @ X + 1e-6 * n * np.eye(5), X.T @ ys)
        f = LinearClass(feature_fn, dim=5, num_actions=2).erm(xs, as_, ys)
        assert np.array_equal(f.weights, want)

    def test_abstraction_single_block_mean(self):
        cls = AbstractionClass(np.zeros(3, dtype=int), num_actions=1)
        f = cls.erm([0, 1, 2], [0, 0, 0], [0.0, 1.0, 2.0])
        assert f.table[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_abstraction_clip_applies(self):
        cls = AbstractionClass(np.zeros(2, dtype=int), num_actions=1, clip_high=1.0)
        f = cls.erm([0, 1], [0, 0], [3.0, 5.0])
        assert f.values([0, 1], [0, 0]).tolist() == [1.0, 1.0]
        assert f.clipped.tolist() == [[1.0], [1.0]]
        assert f.table.tolist() == [[4.0], [4.0]]   # the stored table is the unclipped mean
        g = cls.population_erm(np.full((2, 1), 0.5), np.array([[3.0], [5.0]]))
        assert g.clipped.tolist() == [[1.0], [1.0]] and g.table.tolist() == [[4.0], [4.0]]

    def test_empty_samples_rejected(self):
        with pytest.raises(FunctionClassError):
            simple_finite().erm([], [], [])
        with pytest.raises(FunctionClassError):
            empirical_sq_loss(TableQ(np.zeros((2, 2))), [], [], [])

    def test_finite_minimality_exhaustive(self, rng):
        tables = [np.zeros((3, 2))] + [rng.random((3, 2)) for _ in range(6)]
        cls = FiniteClass(tuple(tables))
        xs = rng.integers(0, 3, 40)
        as_ = rng.integers(0, 2, 40)
        ys = rng.random(40)
        f = cls.erm(xs, as_, ys)
        best = empirical_sq_loss(f, xs, as_, ys)
        for t in tables:
            assert best <= empirical_sq_loss(TableQ(t), xs, as_, ys) + 1e-15

    @pytest.mark.parametrize("seed", range(8))
    def test_finite_pick_matches_clip_per_call_ranking(self, seed):
        # the ranking before members were built once: clip every table on
        # every call. Values from a small set make ties and out-of-range
        # members common; ties go to the lowest index.
        rng = np.random.default_rng(seed)
        S, A = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        levels = np.array([-1.5, -0.0, 0.0, 0.5, 1.0, 2.0, 3.5])
        tables = [np.zeros((S, A))] + [rng.choice(levels, (S, A)) for _ in range(6)]
        tables.append(tables[int(rng.integers(1, 7))].copy())   # a duplicate member
        for clip_high in (None, 1.0, 2.0):
            cls = FiniteClass(tuple(tables), clip_high)
            clipped = [t if clip_high is None else np.clip(t, 0.0, clip_high) for t in tables]
            xs = rng.integers(0, S, 12)
            as_ = rng.integers(0, A, 12)
            ys = rng.choice(levels, 12)
            best = int(np.argmin([float(np.mean((c[xs, as_] - ys) ** 2)) for c in clipped]))
            f = cls.erm(list(xs), list(as_), list(ys))
            assert f is cls.members[best]
            assert np.array_equal(f.table, tables[best]) and f.clip_high == clip_high
            weights = rng.random((S, A))
            target = rng.choice(levels, (S, A))
            best = int(np.argmin([float((weights * (c - target) ** 2).sum()) for c in clipped]))
            g = cls.population_erm(weights, target)
            assert g is cls.members[best]
            assert np.array_equal(g.table, tables[best]) and g.clip_high == clip_high

    def test_linear_minimality_against_perturbations(self, rng):
        cls = LinearClass(ident_features(4), dim=4, num_actions=1)
        xs = rng.integers(0, 5, 200)
        as_ = np.zeros(200, dtype=int)
        ys = rng.random(200)
        f = cls.erm(xs, as_, ys)
        phi = ident_features(4)(xs, as_)
        base = float(np.mean((phi @ f.weights - ys) ** 2))
        for _ in range(1000):
            w = f.weights + rng.normal(0, 1e-3, 4)
            assert base <= float(np.mean((phi @ w - ys) ** 2)) + 1e-12

    def test_abstraction_matches_quantized_grid_search(self, rng):
        # exact per-block mean beats every grid table at quantum resolution
        cls = AbstractionClass(np.array([0, 0, 1]), num_actions=1, clip_high=1.0)
        xs = rng.integers(0, 3, 30)
        as_ = np.zeros(30, dtype=int)
        ys = rng.random(30)
        f = cls.erm(xs, as_, ys)
        best = empirical_sq_loss(f, xs, as_, ys)
        grid = np.arange(0.0, 1.0 + ABSTRACTION_QUANTUM / 2, ABSTRACTION_QUANTUM)
        for v0, v1 in itertools.product(grid, repeat=2):
            g = TableQ(np.array([v0, v0, v1]).reshape(3, 1))
            assert best <= empirical_sq_loss(g, xs, as_, ys) + 1e-15

    def test_population_erm_weighted_mean(self):
        cls = AbstractionClass(np.zeros(2, dtype=int), num_actions=1)
        weights = np.array([[0.25], [0.75]])
        target = np.array([[0.0], [1.0]])
        f = cls.population_erm(weights, target)
        assert f.table[0, 0] == pytest.approx(0.75, abs=1e-12)
        # random partitions, A <= 4, clips and blocks of zero weight, against the
        # per-(block, action) weighted mean written with loops, summed in state order
        rng = np.random.default_rng(0)
        for _ in range(200):
            S, A = int(rng.integers(1, 13)), int(rng.integers(1, 5))
            B = int(rng.integers(1, S + 1))
            blocks = rng.permutation(np.concatenate([np.arange(B), rng.integers(0, B, S - B)]))
            weights = rng.random((S, A))
            weights[rng.random(B)[blocks] < 0.4] = 0.0
            target = rng.uniform(-1.0, 5.0, (S, A))
            want = np.zeros((S, A))
            for b in range(B):
                for a in range(A):
                    w = s = 0.0
                    for x in np.flatnonzero(blocks == b):
                        w += weights[x, a]
                        s += weights[x, a] * target[x, a]
                    want[blocks == b, a] = s / w if w > 0 else 0.0
            clip_high = [None, 1.0, 2.0, 4.0][int(rng.integers(4))]
            f = AbstractionClass(blocks, A, clip_high=clip_high).population_erm(weights, target)
            assert np.array_equal(f.table, want) and f.clip_high == clip_high


class TestTabularShape:
    def test_shape_per_variant(self):
        assert FiniteClass((np.zeros((3, 2)),)).shape == (3, 2)
        assert AbstractionClass(np.array([0, 0, 1]), num_actions=2).shape == (3, 2)
        assert LinearClass(ident_features(1), dim=1).shape is None


class TestExtremeMembers:
    def test_members_per_variant(self):
        # one table per vertex of [0, min(bound, clip)]**B, constant over each
        # block's actions; one zero table at bound 0
        assert [t.tolist() for t in AbstractionClass(np.zeros(2, dtype=int)).extreme_members(2.5)] \
            == [[[0.0], [0.0]], [[2.5], [2.5]]]
        blocks = np.array([0, 0, 1])
        tables = list(AbstractionClass(blocks, 2, clip_high=4.0).extreme_members(4.0))
        assert len(tables) == 4 and {t.shape for t in tables} == {(3, 2)}
        assert sorted(tuple(t[[0, 2], 0]) for t in tables) == [
            (0.0, 0.0), (0.0, 4.0), (4.0, 0.0), (4.0, 4.0)]
        assert all(np.array_equal(t, np.repeat(t[[0, 0, 2], :1], 2, axis=1)) for t in tables)
        assert {t.max() for t in AbstractionClass(blocks, 2, clip_high=1.0).extreme_members(3.0)} \
            == {0.0, 1.0}
        assert [t.tolist() for t in AbstractionClass(blocks, 2, clip_high=4.0).extreme_members(0.0)] \
            == [np.zeros((3, 2)).tolist()]
        # a finite class lists every clipped member in [0, bound], whatever ENUMERATION_CAP
        finite = FiniteClass((np.zeros((1, 1)), np.full((1, 1), 9.0), np.full((1, 1), 3.0),
                              np.full((1, 1), -1.0)), clip_high=2.0)
        assert [t.item() for t in finite.extreme_members(2.0)] == [0.0, 2.0, 2.0, 0.0]
        assert [t.item() for t in finite.extreme_members(1.5)] == [0.0, 0.0]
        unclipped = FiniteClass((np.zeros((1, 1)), np.full((1, 1), -1.0), np.full((1, 1), 2.0)))
        assert [t.item() for t in unclipped.extreme_members(2.0)] == [0.0, 2.0]
        assert [t.item() for t in unclipped.extreme_members(1.0)] == [0.0]
        assert LinearClass(ident_features(1), dim=1).extreme_members(1.0) is None

    def test_two_to_the_b_members_up_to_the_cap(self):
        cls = AbstractionClass(np.array([2, 0, 1, 1, 2]), 2, clip_high=3.0)
        tables = list(cls.extreme_members(3.0))
        assert len(tables) == 2 ** 3
        assert len({t.tobytes() for t in tables}) == 8
        assert all(set(np.unique(t)) <= {0.0, 3.0} for t in tables)
        # B = 18: 2**18 exceeds ENUMERATION_CAP, and no 576 kB table is built,
        # whatever the bound
        big = AbstractionClass(np.arange(18).repeat(1000), 4, clip_high=4.0)
        assert 2 ** 17 <= ENUMERATION_CAP < 2 ** 18
        tracemalloc.start()
        try:
            assert big.extreme_members(4.0) is None
            assert big.extreme_members(0.0) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18_000 * 4 * 8 // 8

    def test_members_stream_one_at_a_time(self):
        # B = 17: the first of 2**17 tables comes back before the others are built
        cls = AbstractionClass(np.arange(1088) % 17, 1, clip_high=4.0)
        tracemalloc.start()
        try:
            first = next(cls.extreme_members(4.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.shape == (1088, 1) and not first.any()
        assert peak < 4 * first.nbytes


class TestComplexity:
    def test_finite_log_cardinality(self):
        assert simple_finite().complexity == pytest.approx(math.log(2))

    def test_abstraction_quantized_bridge(self):
        cls = AbstractionClass(np.array([0, 1, 1, 2]), num_actions=2)
        assert cls.complexity == pytest.approx(3 * 2 * math.log(16))

    def test_linear_dimension(self):
        cls = LinearClass(ident_features(5), dim=5, num_actions=1)
        assert cls.complexity == 5.0


class TestNestedSequence:
    def test_one_based_indexing(self):
        seq = NestedSequence((simple_finite(),))
        assert seq[1] is seq.classes[0]
        with pytest.raises(IndexError):
            seq[0]
        with pytest.raises(IndexError):
            seq[2]

    def test_missing_member_rejected(self):
        small = FiniteClass((np.zeros((1, 1)), np.ones((1, 1))))
        big = FiniteClass((np.zeros((1, 1)), np.full((1, 1), 2.0)))
        with pytest.raises(FunctionClassError, match="missing member"):
            NestedSequence((small, big))

    def test_partition_refinement_required(self):
        coarse = AbstractionClass(np.array([0, 0, 1]), num_actions=1)
        fine = AbstractionClass(np.array([0, 1, 2]), num_actions=1)
        NestedSequence((coarse, fine))   # valid refinement
        bad = AbstractionClass(np.array([0, 1, 1]), num_actions=1)
        with pytest.raises(FunctionClassError):
            NestedSequence((fine, bad))

    def test_equal_block_counts_must_refine(self):
        # equal block counts pass the complexity order, so only the refinement check sees them
        left = AbstractionClass(np.array([0, 0, 1]), num_actions=1)
        right = AbstractionClass(np.array([0, 1, 1]), num_actions=1)
        with pytest.raises(FunctionClassError, match="do not refine"):
            NestedSequence((left, right))

    def test_single_variant_required(self):
        finite = FiniteClass((np.zeros((3, 1)),))
        abstraction = AbstractionClass(np.array([0, 0, 1]), num_actions=1)
        for pair in ((finite, abstraction), (abstraction, finite)):
            with pytest.raises(FunctionClassError, match="single class variant"):
                NestedSequence(pair)

    @pytest.mark.parametrize("blocks, num_actions", [(np.zeros(3, dtype=int), 2),
                                                     (np.zeros(4, dtype=int), 1)])
    def test_abstraction_shapes_must_match(self, blocks, num_actions):
        coarse = AbstractionClass(blocks, num_actions)
        fine = AbstractionClass(np.arange(4), 2)
        with pytest.raises(FunctionClassError, match="share one"):
            NestedSequence((coarse, fine))

    def test_linear_prefix_monotone(self):
        fn = ident_features(3)
        a = LinearClass(fn, dim=2, num_actions=1)
        b = LinearClass(fn, dim=3, num_actions=1)
        NestedSequence((a, b))
        # complexity is dim, so the complexity order rejects a shrinking prefix first
        with pytest.raises(FunctionClassError, match="complexity must be non-decreasing"):
            NestedSequence((b, a))

    def test_linear_prefix_rule_direct(self):
        # NestedSequence never reaches this rule (see above), so call it directly
        fn = ident_features(5)
        with pytest.raises(FunctionClassError,
                           match="linear feature prefixes must be non-decreasing"):
            LinearClass(fn, 5, 1).check_nested_in(LinearClass(fn, 3, 1))
        LinearClass(fn, 3, 1).check_nested_in(LinearClass(fn, 5, 1))

    def test_linear_feature_map_shared(self):
        a = LinearClass(ident_features(3), dim=2, num_actions=1)
        b = LinearClass(ident_features(3), dim=3, num_actions=1)
        with pytest.raises(FunctionClassError, match="share one feature map"):
            NestedSequence((a, b))

    def test_finite_zero_function_required(self):
        with pytest.raises(FunctionClassError):
            FiniteClass((np.ones((1, 1)),))

    def test_nested_erm_monotonicity(self, rng):
        zero = np.zeros((2, 2))
        small_tabs = (zero, rng.random((2, 2)))
        big_tabs = small_tabs + tuple(rng.random((2, 2)) for _ in range(3))
        seq = NestedSequence((FiniteClass(small_tabs), FiniteClass(big_tabs)))
        xs = rng.integers(0, 2, 50)
        as_ = rng.integers(0, 2, 50)
        ys = rng.random(50)
        small_loss = empirical_sq_loss(seq[1].erm(xs, as_, ys), xs, as_, ys)
        big_loss = empirical_sq_loss(seq[2].erm(xs, as_, ys), xs, as_, ys)
        assert big_loss <= small_loss + 1e-9


class TestGreedyPolicy:
    def test_tie_breaks_to_first_action(self):
        f = TableQ(np.zeros((2, 3)))
        pol = greedy_policy([f])
        assert np.array_equal(pol.probs[0, :, 0], [1.0, 1.0])

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.random((3, 2))
        a = greedy_policy([TableQ(t)])
        b = greedy_policy([TableQ(t * 7.25)])
        assert np.array_equal(a.probs, b.probs)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_grid_gather_reference(self, seed):
        # the formula greedy_policy replaced: gather each function's clipped
        # values over the S x A grid, take the argmax, one-hot it
        def reference_probs(q_funcs, S, A):
            xs_grid, as_grid = np.divmod(np.arange(S * A), A)
            tables = np.zeros((len(q_funcs), S, A))
            for h, f in enumerate(q_funcs):
                raw = f.table[xs_grid, as_grid]
                clipped = raw if f.clip_high is None else np.clip(raw, 0.0, f.clip_high)
                tables[h] = clipped.reshape(S, A)
            return reference_one_hot(tables.argmax(axis=2), A)

        rng = np.random.default_rng(seed)
        H, S, A = (int(v) for v in rng.integers(1, 5, 3))
        for clip_high in (None, 0.5, 2.0):
            tables = rng.normal(1.0, 2.0, (H, S, A))
            tables[rng.random((H, S, A)) < 0.1] = np.nan
            tables[rng.random((H, S, A)) < 0.2] = clip_high or 0.0   # ties at the bound
            q_funcs = [TableQ(t, clip_high) for t in tables]
            pol = greedy_policy(q_funcs)
            assert np.array_equal(pol.probs, reference_probs(q_funcs, S, A))


class TestLossAccumulation:
    def test_compensated_summation_agreement(self, rng):
        f = TableQ(rng.random((4, 2)))
        xs = rng.integers(0, 4, 5000)
        as_ = rng.integers(0, 2, 5000)
        ys = rng.random(5000)
        loss = empirical_sq_loss(f, xs, as_, ys)
        residuals = (f.values(xs, as_) - ys) ** 2
        assert loss == pytest.approx(math.fsum(residuals) / len(ys), abs=1e-12)

    def test_single_sample(self):
        f = TableQ(np.ones((1, 1)))
        assert empirical_sq_loss(f, [0], [0], [3.0]) == pytest.approx(4.0)


class TestPersistence:
    def test_finite_round_trip(self, rng, tmp_path):
        zero = np.zeros((2, 2))
        seq = NestedSequence((FiniteClass((zero, rng.random((2, 2)))),))
        path = str(tmp_path / "seq.txt")
        save_sequence(seq, path)
        loaded = load_sequence(path, clip_high=2.0)
        assert len(loaded) == 1
        assert all(np.array_equal(a, b)
                   for a, b in zip(loaded[1].tables, seq[1].tables))

    def test_abstraction_round_trip(self, tmp_path):
        seq = NestedSequence((
            AbstractionClass(np.array([0, 0, 1]), num_actions=2),
            AbstractionClass(np.array([0, 1, 2]), num_actions=2)))
        path = str(tmp_path / "seq.txt")
        save_sequence(seq, path)
        loaded = load_sequence(path, clip_high=3.0)
        assert np.array_equal(loaded[2].blocks, [0, 1, 2])
        assert loaded[1].clip_high == 3.0

    def test_linear_requires_bound_features(self, tmp_path):
        # a feature map is bound in code, so a linear class has no file form
        path = tmp_path / "seq.txt"
        path.write_text("classes 1\nclass linear dim 3\n")
        with pytest.raises(FunctionClassError, match=r"seq\.txt:2: .*class abstraction"):
            load_sequence(str(path))
        seq = NestedSequence((LinearClass(ident_features(3), dim=3, num_actions=1),))
        out = tmp_path / "linear.txt"
        with pytest.raises(FunctionClassError):
            save_sequence(seq, str(out))
        assert not out.exists()

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("klasses 1\n")
        with pytest.raises(FunctionClassError):
            load_sequence(str(path))

    @pytest.mark.parametrize("text, line", [
        ("classes 1\nclass finite 2 2\n", 2),
        ("classes 1\nclass abstraction 4 2 blocks 1\n", 2),
        ("classes abc\n", 1),
        ("# comment\nclasses 1\nclass finite 1 2 members 1\n0 zap\n", 4),
        ("classes 1\nclass abstraction 3 1 blocks 2\n0 1\n", 3),
        ("classes 2\nclass linear dim 0\n", 2),
        ("classes 1\nclass abstraction 4 2 blocks 1\n0 0 1 1\n", 3),
        ("classes 1\nclass abstraction 4 2 blocks 2\n0 0 0 0\n", 3),
        ("classes 1\nclass abstraction 4 2 blocks 1\n0 99999999999999999999 0 0\n", 3),
        ("classes 1\nclass abstraction 4 99999999999999999999 blocks 1\n0 0 0 0\n", 2),
        ("classes 1\nclass finite 1 1 members 2\n0\nnan\n", 4)])
    def test_garbled_stanza_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(FunctionClassError, match=rf"bad\.txt:{line}: "):
            load_sequence(str(path))

    @pytest.mark.parametrize("text, line", [
        ("classes 1\nclass abstraction 4 2 blocks 1\n0 0 0 0\n"
         "class abstraction 4 2 blocks 2\n0 0 1 1\n", 4),
        ("classes 1\nclass finite 1 1 members 1\n0\n# note\n1\n", 5)],
        ids=["second-stanza", "second-table-line"])
    def test_data_after_the_last_class_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(FunctionClassError,
                           match=rf"bad\.txt:{line}: expected end of file after 1 classes"):
            load_sequence(str(path))

    def test_blank_and_comment_lines_may_follow_the_last_class(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("classes 1\nclass abstraction 4 2 blocks 1\n0 0 0 0\n\n# end\n")
        assert len(load_sequence(str(path))) == 1
