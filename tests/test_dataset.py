import builtins
import collections
import contextlib
import math
import os
import subprocess
import sys
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modbe import (Policy, TabularMDP, dataset, evaluation, generate_from_behavior,
                   generate_from_mu, load_dataset_csv, occupancy, save_dataset_csv, split_dataset)
from modbe.dataset import MAX_INDEX, MIN_SAMPLES, DatasetError, OfflineDataset, StepData
from modbe.textfile import read_lines

from conftest import random_mdp
from test_fuzz import NUMBERS, variants

COLUMNS = ("x", "a", "r", "x_next")
# spellings that only Python's int()/float() accept, or that both parsers read alike
CSV_TOKENS = NUMBERS + ["1_0", "\uff11", "+1", "-0", " 2 ", "007", "0.25", "-0.0", "1e-400",
                       "0 # note", "#", "1\u2028", "\x85"]


def point_mass_mu(H, S, A, x, a):
    mu = np.zeros((H, S, A))
    mu[:, x, a] = 1.0
    return mu


class TestGeneration:
    def test_point_mass_deterministic_mdp_identical_rows(self, rng):
        from test_mdp import det_chain_mdp
        mdp = det_chain_mdp()
        mu = point_mass_mu(2, 2, 1, 0, 0)
        ds = generate_from_mu(mdp, mu, 50, seed=3)
        for step in ds.steps:
            assert np.all(step.x == 0) and np.all(step.a == 0)
            assert np.all(step.x_next == 1) and np.all(step.r == 0.0)

    def test_empirical_frequencies_match_mu(self, rng):
        mdp = random_mdp(rng, 3, 2, 2)
        mu = rng.dirichlet(np.ones(6), size=2).reshape(2, 3, 2)
        ds = generate_from_mu(mdp, mu, 100_000, seed=11)
        for h, step in enumerate(ds.steps):
            freq = np.zeros((3, 2))
            np.add.at(freq, (step.x, step.a), 1.0)
            assert np.abs(freq / len(step) - mu[h]).max() < 0.01

    def test_next_state_frequencies_match_transitions(self, rng):
        mdp = random_mdp(rng, 3, 2, 1)
        mu = point_mass_mu(1, 3, 2, 1, 0)
        ds = generate_from_mu(mdp, mu, 100_000, seed=5)
        counts = np.bincount(ds.steps[0].x_next, minlength=3) / 100_000
        assert np.abs(counts - mdp.transitions[0, 1, 0]).max() < 0.01

    def test_same_seed_identical(self, rng):
        mdp = random_mdp(rng, 3, 2, 2)
        mu = np.full((2, 3, 2), 1.0 / 6.0)
        a = generate_from_mu(mdp, mu, 100, seed=7)
        b = generate_from_mu(mdp, mu, 100, seed=7)
        for sa, sb in zip(a.steps, b.steps):
            assert np.array_equal(sa.x, sb.x) and np.array_equal(sa.x_next, sb.x_next)

    def test_per_step_stream_independence(self, rng):
        # draws at slot h do not depend on how many later slots exist
        short = random_mdp(rng, 3, 2, 1)
        long = type(short)(np.repeat(short.transitions, 3, axis=0),
                           short.rewards, short.initial_dist)
        mu1 = np.full((1, 3, 2), 1.0 / 6.0)
        mu3 = np.full((3, 3, 2), 1.0 / 6.0)
        a = generate_from_mu(short, mu1, 200, seed=9)
        b = generate_from_mu(long, mu3, 200, seed=9)
        assert np.array_equal(a.steps[0].x, b.steps[0].x)
        assert np.array_equal(a.steps[0].a, b.steps[0].a)

    def test_behavior_mu_matches_occupancy(self, rng):
        mdp = random_mdp(rng, 3, 2, 3)
        pol = Policy.uniform(3, 3, 2)
        _ds, mu = generate_from_behavior(mdp, pol, 10, seed=0)
        assert np.array_equal(mu, occupancy(mdp, pol))

    def test_behavior_metadata_concentrability(self, rng):
        from test_mdp import det_chain_mdp
        mdp = det_chain_mdp()
        pol = Policy.deterministic(np.zeros((2, 2), dtype=int), 1)
        ds, _mu = generate_from_behavior(mdp, pol, 10, seed=0)
        assert "concentrability" in ds.meta
        assert math.isfinite(ds.meta["concentrability"])


def reference_generate_from_mu(mdp, mu, n, seed) -> list:
    """The sampler's first formula, per step (x, a, r, x_next): gather each
    draw's transition row, take its cumsum, count the entries at or below u
    and cap the count at S - 1."""
    S, A = mdp.num_states, mdp.num_actions
    steps = []
    for h in range(mdp.horizon):
        rng = dataset.stream(seed, dataset._STREAM_GENERATE, h)
        flat = rng.choice(S * A, size=n, p=mu[h].reshape(-1))
        xs, as_ = np.divmod(flat, A)
        cdf = np.cumsum(mdp.transitions[h][xs, as_], axis=1)
        u = rng.random(n)
        xn = np.minimum((cdf <= u[:, None]).sum(axis=1), S - 1)
        steps.append((xs, as_, mdp.rewards[xs, as_], xn))
    return steps


def edge_mdps() -> list:
    """A one-state MDP, and a ten-state MDP whose rows put zero mass on some
    next states (first, middle and last) or sum to 0.9999999999999999."""
    rng = np.random.default_rng(0)
    one_state = TabularMDP(np.ones((2, 1, 3, 1)), rng.random((1, 3)), np.ones(1))
    S, A, H = 10, 2, 3
    P = rng.dirichlet(np.ones(S), size=(H, S, A))
    P[:, :, 1, ::3] = 0.0
    P[:, :, 1] /= P[:, :, 1].sum(axis=-1, keepdims=True)
    P[:, 0, 0] = 0.1                   # cumsum ends at 0.9999999999999999
    P[:, 1, 0] = np.eye(S)[S - 1]
    P[:, 2, 0] = np.eye(S)[0]
    assert np.cumsum(P[0, 0, 0])[-1] == 0.9999999999999999
    ten_state = TabularMDP(P, rng.random((S, A)), np.full(S, 1.0 / S))
    return [one_state, ten_state]


class TestSamplerReference:
    """generate_from_mu draws every column bit for bit as the reference formula."""

    @staticmethod
    def assert_matches_reference(mdp, mu, n, seed):
        ds = generate_from_mu(mdp, mu, n, seed)
        for step, want in zip(ds.steps, reference_generate_from_mu(mdp, mu, n, seed),
                              strict=True):
            for got, ref in zip((step.x, step.a, step.r, step.x_next), want, strict=True):
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("rng_seed", [12345, 3])     # the seeds these tests draw MDPs from
    @pytest.mark.parametrize("S,A,H", [(3, 2, 1), (3, 2, 2), (3, 2, 3), (2, 2, 1), (2, 2, 2),
                                       (1, 1, 2), (1, 3, 2), (7, 1, 2), (50, 2, 2), (20, 20, 2)])
    def test_random_mdps(self, rng_seed, S, A, H):
        rng = np.random.default_rng(rng_seed)
        mdp = random_mdp(rng, S, A, H)
        for mu in (np.full((H, S, A), 1.0 / (S * A)),
                   rng.dirichlet(np.ones(S * A), size=H).reshape(H, S, A)):
            for n, seed in ((1, 0), (7, 5), (2000, rng_seed)):
                self.assert_matches_reference(mdp, mu, n, seed)

    @pytest.mark.parametrize("index", [0, 1])
    def test_edge_mdps(self, index):
        mdp = edge_mdps()[index]
        H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
        for n, seed in ((1, 0), (50, 1), (20_000, 2)):
            self.assert_matches_reference(mdp, np.full((H, S, A), 1.0 / (S * A)), n, seed)
        if S > 1:   # every draw from the rows that put all their mass on one state
            mu = np.zeros((H, S, A))
            mu[:, :3, 0] = 1.0 / 3.0
            self.assert_matches_reference(mdp, mu, 5000, 3)

    @pytest.mark.parametrize("zeros", ["first-state", "middle-state", "last-state", "pairs"])
    def test_zero_mass(self, zeros):
        rng = np.random.default_rng(11)
        S, A, H = 5, 3, 2
        mdp = random_mdp(rng, S, A, H)
        mu = rng.dirichlet(np.ones(S * A), size=H).reshape(H, S, A)
        if zeros == "pairs":    # the first pair, two in the middle and the last
            mu[:, [0, 2, 2, S - 1], [0, 0, 2, A - 1]] = 0.0
        else:
            mu[:, {"first-state": 0, "middle-state": S // 2, "last-state": S - 1}[zeros]] = 0.0
        mu /= mu.sum(axis=(1, 2), keepdims=True)
        for n, seed in ((1, 0), (300, 1), (20_000, 2)):
            self.assert_matches_reference(mdp, mu, n, seed)

    @pytest.mark.parametrize("total", [1.0, 1.0 - 2.0 ** -45])
    @pytest.mark.parametrize("S,A", [(1, 2), (2, 1), (2, 3), (3, 2)])
    def test_draw_on_a_cdf_entry(self, S, A, total):
        """mu puts CDF entry j exactly on the stream's first uniform: a draw
        equal to an entry counts it, and at a total below 1 only the
        normalised CDF leaves the entry above the draw."""
        seed = 4
        u0 = dataset.stream(seed, dataset._STREAM_GENERATE, 0).random()
        for j in range(S * A - 1):
            mu = np.zeros(S * A)
            mu[j], mu[-1] = u0, total - u0
            mdp = random_mdp(np.random.default_rng(j), S, A, 1)
            self.assert_matches_reference(mdp, mu.reshape(1, S, A), 20, seed)

    @pytest.mark.parametrize("name,n_list", [("chain", (100, 1000, 10_000)),
                                             ("holdout_bias", (2000,))])
    def test_benchmark_instances(self, name, n_list):
        mdp, _, mu = evaluation._tabular_instance(name)
        for n in n_list:
            for seed in range(3):
                self.assert_matches_reference(mdp, mu, n, seed)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_mu_with_zeros(self, data):
        S, A, H = (data.draw(st.integers(1, top)) for top in (8, 4, 3))
        weight = st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0]) | st.floats(1e-6, 1.0)
        weights = np.array(data.draw(st.lists(weight, min_size=H * S * A, max_size=H * S * A)))
        weights = weights.reshape(H, S * A)
        for h in range(H):      # at least one pair per step carries mass
            if weights[h].sum() == 0.0:
                weights[h, data.draw(st.integers(0, S * A - 1))] = 1.0
        mu = (weights / weights.sum(axis=1, keepdims=True)).reshape(H, S, A)
        mdp = random_mdp(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))), S, A, H)
        self.assert_matches_reference(mdp, mu, data.draw(st.integers(1, 300)),
                                      data.draw(st.integers(0, 2 ** 63 - 1)))


class TestSplit:
    @pytest.mark.parametrize("n,n_train,n_valid", [
        (10, 8, 2), (5, 4, 1), (9, 8, 1), (11, 9, 2), (100, 80, 20),
    ])
    def test_split_sizes(self, rng, n, n_train, n_valid):
        mdp = random_mdp(rng, 2, 2, 2)
        mu = np.full((2, 2, 2), 0.25)
        split = split_dataset(generate_from_mu(mdp, mu, n, seed=1), seed=1)
        assert split.train.n == n_train and split.valid.n == n_valid

    def test_minimum_n_enforced(self, rng):
        mdp = random_mdp(rng, 2, 2, 1)
        ds = generate_from_mu(mdp, np.full((1, 2, 2), 0.25), MIN_SAMPLES - 1, seed=0)
        with pytest.raises(DatasetError):
            split_dataset(ds, seed=0)

    @given(n=st.integers(min_value=5, max_value=60),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_split_is_a_partition(self, n, seed):
        step = StepData(np.arange(n), np.zeros(n, dtype=int),
                        np.zeros(n), np.zeros(n, dtype=int))
        ds = OfflineDataset((step,), {})
        split = split_dataset(ds, seed)
        merged = np.sort(np.concatenate([split.train.steps[0].x, split.valid.steps[0].x]))
        assert np.array_equal(merged, np.arange(n))
        assert split.train.n == math.ceil(0.8 * n)

    def test_split_deterministic(self, rng):
        mdp = random_mdp(rng, 3, 2, 2)
        ds = generate_from_mu(mdp, np.full((2, 3, 2), 1 / 6), 40, seed=2)
        a = split_dataset(ds, seed=5)
        b = split_dataset(ds, seed=5)
        for sa, sb in zip(a.train.steps, b.train.steps):
            assert np.array_equal(sa.x, sb.x)

    def test_splits_of_a_dataset_without_arrays_are_independent(self, rng):
        mdp = random_mdp(rng, 3, 2, 2)
        ds = generate_from_mu(mdp, np.full((2, 3, 2), 1 / 6), 40, seed=2)
        assert ds.arrays is None
        first = split_dataset(ds, seed=5)
        kept = [step.x.copy() for step in first.train.steps]
        split_dataset(ds, seed=6)
        assert all(np.array_equal(step.x, x) for step, x in zip(first.train.steps, kept))


def reference_split(ds, seed) -> list:
    """The split's first formula, per step ((train columns), (validation columns)):
    take each column at the permutation's first ceil(0.8 n) entries, then at the rest."""
    n_train = math.ceil(0.8 * ds.n)
    out = []
    for h, step in enumerate(ds.steps):
        perm = dataset.stream(seed, dataset._STREAM_SPLIT, h).permutation(ds.n)
        out.append(tuple(tuple(getattr(step, c)[idx] for c in COLUMNS)
                         for idx in (perm[:n_train], perm[n_train:])))
    return out


def assert_same_columns(got: StepData, want) -> None:
    """got's four columns equal want's bit for bit and dtype for dtype."""
    for column, ref in zip((getattr(got, c) for c in COLUMNS), want, strict=True):
        assert column.dtype == ref.dtype
        assert column.tobytes() == ref.tobytes()


class TestSlotArrays:
    """A sweep's datasets and splits fill one SlotArrays; each equals a fresh
    call's, whatever an earlier dataset left in the arrays."""

    @staticmethod
    def stale_arrays(horizon, capacity):
        arrays = dataset.SlotArrays(horizon, capacity)
        for column in arrays.data + arrays.split:
            column.fill(np.nan if column.dtype.kind == "f" else 7)
        return arrays

    @pytest.mark.parametrize("name", ["chain", "holdout_bias", "random"])
    def test_reused_arrays_give_the_fresh_draw(self, name):
        if name == "random":
            mdp = random_mdp(np.random.default_rng(5), 6, 3, 3)
            mu = np.random.default_rng(6).dirichlet(np.ones(18), size=3).reshape(3, 6, 3)
        else:
            mdp, _, mu = evaluation._tabular_instance(name)
        arrays = self.stale_arrays(mdp.horizon + 1, 3000)
        for n, seed in ((3000, 4), (1000, 1), (7, 2), (1, 0), (2999, 4)):  # a larger n first
            ds = generate_from_mu(mdp, mu, n, seed, out=arrays)
            assert ds.arrays is arrays
            fresh = generate_from_mu(mdp, mu, n, seed)
            for step, fresh_step, want in zip(ds.steps, fresh.steps,
                                              reference_generate_from_mu(mdp, mu, n, seed),
                                              strict=True):
                assert np.shares_memory(step.x, arrays.data[0])
                assert_same_columns(step, [getattr(fresh_step, c) for c in COLUMNS])
                assert_same_columns(step, want)

    @pytest.mark.parametrize("n_list", [(2000, 50, 999, 5), (5, 999, 2000)])
    def test_split_of_an_array_backed_dataset_equals_the_fresh_split(self, n_list):
        mdp, _, mu = evaluation._tabular_instance("chain")
        arrays = self.stale_arrays(mdp.horizon, max(n_list))
        for n in n_list:
            for seed in (0, 3):
                ds = generate_from_mu(mdp, mu, n, seed, out=arrays)
                split = split_dataset(ds, seed)
                fresh = split_dataset(generate_from_mu(mdp, mu, n, seed), seed)
                for h, (train, valid) in enumerate(reference_split(ds, seed)):
                    for got, fresh_slot, want in ((split.train, fresh.train, train),
                                                  (split.valid, fresh.valid, valid)):
                        step = got.steps[h]
                        assert np.shares_memory(step.x, arrays.split[0])
                        assert_same_columns(step, want)
                        assert_same_columns(fresh_slot.steps[h], want)

    @pytest.mark.parametrize("horizon, capacity", [(3, 100), (4, 99)])
    def test_arrays_too_small_rejected(self, horizon, capacity):
        mdp, _, mu = evaluation._tabular_instance("chain")
        with pytest.raises(DatasetError, match=r"^4 steps of 100 transitions exceed slot arrays "
                                               rf"of shape \({horizon}, {capacity}\)$"):
            generate_from_mu(mdp, mu, 100, 0, out=dataset.SlotArrays(horizon, capacity))


class TestStructures:
    def test_unequal_slots_rejected(self):
        s1 = StepData([0], [0], [0.0], [0])
        s2 = StepData([0, 1], [0, 0], [0.0, 0.0], [0, 0])
        with pytest.raises(DatasetError):
            OfflineDataset((s1, s2), {})

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(DatasetError):
            StepData([0, 1], [0], [0.0], [0])


def assert_same_steps(a: OfflineDataset, b: OfflineDataset) -> None:
    """Equal horizon and, per step, equal column bytes (so -0.0 != 0.0) and dtypes."""
    assert a.horizon == b.horizon
    for sa, sb in zip(a.steps, b.steps):
        for name in COLUMNS:
            ca, cb = getattr(sa, name), getattr(sb, name)
            assert ca.dtype == cb.dtype and ca.shape == cb.shape
            assert ca.tobytes() == cb.tobytes()


def write_csv(path, body: str) -> str:
    path.write_text(body)
    return str(path)


def per_row_csv(ds: OfflineDataset) -> bytes:
    """The writer's bytes by the per-row formula: one f-string per row."""
    lines = [f"# {k}={v}" for k, v in sorted(ds.meta.items())] + ["h,x,a,r,x_next"]
    for h, step in enumerate(ds.steps, start=1):
        for i in range(len(step)):
            lines.append(f"{h},{step.x[i]},{step.a[i]},{float(step.r[i])!r},{step.x_next[i]}")
    return ("\n".join(lines) + "\n").encode()


def rows_dataset(*steps) -> OfflineDataset:
    """A dataset from per-step lists of (x, a, r, x_next) rows."""
    return OfflineDataset(tuple(StepData(*map(list, zip(*rows))) for rows in steps), {"seed": 0})


INDICES = st.sampled_from([0, 1, 3, 2 ** 53 + 1, MAX_INDEX]) | st.integers(0, MAX_INDEX)
# signed zeros, the smallest subnormal, a subnormal, the smallest normal
REWARDS = st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308, 0.1, 1.0]) \
    | st.floats(0.0, 1.0)
ROWS = st.tuples(INDICES, INDICES, REWARDS, INDICES)


def row_key(row):
    x, a, r, xn = row
    return x, a, math.copysign(1.0, r), r, xn     # 0.0 and -0.0 are different rows


@st.composite
def step_rows(draw, n: int) -> list:
    """n rows: all distinct, or drawn with repeats from a pool of rows in which
    a zero-reward row may also appear with the other sign of zero."""
    if draw(st.booleans()):
        return draw(st.lists(ROWS, min_size=n, max_size=n, unique_by=row_key))
    pool = draw(st.lists(ROWS, min_size=1, max_size=n))
    if draw(st.booleans()):
        pool += [(x, a, -r, xn) for x, a, r, xn in pool if r == 0.0]
    return [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=n,
                                           max_size=n))]


class TestPersistence:
    def test_round_trip(self, rng, tmp_path):
        mdp = random_mdp(rng, 3, 2, 2)      # rewards are full-precision random floats
        ds = generate_from_mu(mdp, np.full((2, 3, 2), 1 / 6), 25, seed=4)
        path, again = str(tmp_path / "data.csv"), str(tmp_path / "again.csv")
        save_dataset_csv(ds, path)
        loaded = load_dataset_csv(path)
        assert loaded.horizon == 2 and loaded.n == 25
        assert_same_steps(loaded, ds)
        save_dataset_csv(loaded, again)
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "data.csv").read_bytes()

    @pytest.mark.parametrize("H", [1, 3])
    def test_save_matches_per_row_format(self, rng, tmp_path, H):
        ds = generate_from_mu(random_mdp(rng, 3, 2, H), np.full((H, 3, 2), 1 / 6), 30, seed=H)
        save_dataset_csv(ds, str(tmp_path / "data.csv"))
        assert (tmp_path / "data.csv").read_bytes() == per_row_csv(ds)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_save_matches_per_row_formula_on_any_rows(self, tmp_path_factory, data):
        H, n = data.draw(st.sampled_from([1, 3])), data.draw(st.integers(1, 30))
        ds = rows_dataset(*(data.draw(step_rows(n)) for _ in range(H)))
        path = tmp_path_factory.getbasetemp() / "rows.csv"
        save_dataset_csv(ds, str(path))
        assert path.read_bytes() == per_row_csv(ds)

    @pytest.mark.parametrize("steps", [
        [[(0, 1, 0.5, 2), (3, 0, 0.25, 1)] * 10],
        [[(i, i % 2, i / 40, 39 - i) for i in range(30)]],
        [[(1, 0, 0.5, 0)], [(2, 1, 0.0, 3)], [(0, 0, 1.0, 1)]],
        [[(0, 0, 5e-324, 0), (0, 0, 2.5e-310, 0), (0, 0, 0.0, 0)] * 4] * 3,
        [[(2 ** 53 + 1, MAX_INDEX, 0.5, 2 ** 53), (2 ** 53, MAX_INDEX, 0.5, 2 ** 53 + 1)] * 3],
    ], ids=["few-distinct", "all-distinct", "one-row-steps", "subnormal", "huge-indices"])
    def test_save_matches_per_row_formula_cases(self, tmp_path, steps):
        ds = rows_dataset(*steps)
        save_dataset_csv(ds, str(tmp_path / "data.csv"))
        assert (tmp_path / "data.csv").read_bytes() == per_row_csv(ds)

    def test_negative_zero_reward_is_its_own_row(self, tmp_path):
        # repeated rows that differ only in the sign of a zero reward
        ds = rows_dataset([(0, 1, 0.0, 2), (0, 1, -0.0, 2)] * 3)
        save_dataset_csv(ds, str(tmp_path / "data.csv"))
        assert (tmp_path / "data.csv").read_text().splitlines()[2:] == [
            "1,0,1,0.0,2", "1,0,1,-0.0,2"] * 3

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("h,x,a,r,x_next\n1,0,0,0.5,0\n1,0,zero,0.5,0\n")
        with pytest.raises(DatasetError, match="3"):
            load_dataset_csv(str(path))

    def test_reward_range_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("h,x,a,r,x_next\n1,0,0,1.5,0\n")
        with pytest.raises(DatasetError, match="reward"):
            load_dataset_csv(str(path))

    def test_missing_slot_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("h,x,a,r,x_next\n1,0,0,0.5,0\n3,0,0,0.5,0\n")
        with pytest.raises(DatasetError, match="missing"):
            load_dataset_csv(str(path))

    @pytest.mark.parametrize("row", ["1,-1,0,0.5,0", "1,0,-2,0.5,0", "1,0,0,0.5,-1",
                                     f"1,{2 ** 63},0,0.5,0"])
    def test_index_outside_range_names_its_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"h,x,a,r,x_next\n1,0,0,0.5,0\n{row}\n")
        with pytest.raises(DatasetError, match=r"bad\.csv:3: x, a and x_next must lie in"):
            load_dataset_csv(str(path))

    def test_huge_step_index_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"h,x,a,r,x_next\n1,0,0,0.5,0\n{10 ** 18},0,0,0.5,0\n")
        with pytest.raises(DatasetError, match="missing"):
            load_dataset_csv(str(path))

    def test_metadata_round_trip(self, rng, tmp_path):
        mdp = random_mdp(rng, 2, 2, 1)
        ds = generate_from_mu(mdp, np.full((1, 2, 2), 0.25), 10, seed=6)
        path = str(tmp_path / "data.csv")
        save_dataset_csv(ds, path)
        loaded = load_dataset_csv(path)
        assert loaded.meta["seed"] == "6"


@contextlib.contextmanager
def per_line_spy():
    """The calls of the per-line pass `_load_rows` made inside the block; the
    pass itself still runs."""
    calls, real = [], dataset._load_rows

    def spy(*args):
        calls.append(args)
        return real(*args)

    dataset._load_rows = spy
    try:
        yield calls
    finally:
        dataset._load_rows = real


def per_line(path: str) -> OfflineDataset:
    """The per-line pass over read_lines' split of the file at path."""
    return dataset._load_rows(path, *read_lines(path))


def same_outcome(path: str) -> bool:
    """load_dataset_csv gives the same dataset as the per-line pass, or raises
    the same message from that pass. Returns whether the loader ran the pass."""
    with per_line_spy() as calls:
        try:
            loaded = load_dataset_csv(path)
        except DatasetError as exc:
            assert calls        # every error comes from the per-line pass
            with pytest.raises(DatasetError) as expected:
                per_line(path)
            assert str(exc) == str(expected.value)
            return True
    expected = per_line(path)
    assert loaded.meta == expected.meta
    assert_same_steps(loaded, expected)
    return bool(calls)


@pytest.fixture
def opens(monkeypatch):
    """How often each path is opened through open() while the test runs."""
    counts, real = collections.Counter(), builtins.open

    def counting(file, *args, **kwargs):
        counts[file] += 1
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    return counts


class TestFastLoad:
    """`load_dataset_csv` parses the rows in numpy (`_table_steps`) and runs
    the per-line pass (`_load_rows`) only for the rows numpy declines."""

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        ds = generate_from_mu(random_mdp(np.random.default_rng(3), 3, 2, 2),
                              np.full((2, 3, 2), 1 / 6), 5, seed=8)
        path = tmp_path_factory.mktemp("valid") / "data.csv"
        save_dataset_csv(ds, str(path))
        return path.read_text()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_fast_path_agrees_with_per_line_parser(self, tmp_path_factory, valid, data):
        text = data.draw(variants(valid, ",", CSV_TOKENS))
        same_outcome(write_csv(tmp_path_factory.getbasetemp() / "fast.csv", text))

    @pytest.mark.parametrize("body,error", [
        ("1,0,0,0.5,0,1\n", r"data\.csv:3: expected 5 fields, got 6"),
        ("1,0,0,0.5\n", r"data\.csv:3: expected 5 fields, got 4"),
        (f"{10 ** 18},0,0,0.5,0\n", "missing step slots"),
        (f"1,{2 ** 63},0,0.5,0\n", r"data\.csv:3: x, a and x_next must lie in"),
        ("0,0,0,0.5,0\n", r"data\.csv:3: step index 0 out of range"),
        ("1,0,0,nan,0\n", r"data\.csv:3: reward nan outside \[0, 1\]"),
        ("1,0,0,-0.5,0\n", r"data\.csv:3: reward -0.5 outside \[0, 1\]"),
        ("2,0,0,0.5,0\n2,1,0,0.5,0\n", r"data\.csv: unequal slot sizes \{1: 1, 2: 2\}"),
    ], ids=["six-fields", "four-fields", "huge-step", "index-2**63", "step-0", "nan-reward",
            "negative-reward", "unequal-slots"])
    def test_declined_file_raises_the_per_line_error(self, tmp_path, body, error):
        path = write_csv(tmp_path / "data.csv", "h,x,a,r,x_next\n1,0,0,0.5,0\n" + body)
        assert same_outcome(path)
        with pytest.raises(DatasetError, match=error):
            load_dataset_csv(path)

    @pytest.mark.parametrize("body,x", [("1,1_0,0,0.5,0\n", [0, 10]),
                                        ("1,\uff11,0,0.5,0\n", [0, 1])],
                             ids=["underscore-digit", "full-width-digit"])
    def test_declined_file_accepted_by_per_line_parser(self, tmp_path, body, x):
        # spellings only Python's int() reads
        path = write_csv(tmp_path / "data.csv", "h,x,a,r,x_next\n1,0,0,0.5,0\n" + body)
        assert same_outcome(path)
        assert load_dataset_csv(path).steps[0].x.tolist() == x

    @pytest.mark.parametrize("text,meta", [
        ("h,x,a,r,x_next\n# late=1\n" + "1,0,1,0.5,2\n1,4,0,0.25,1\n", {"late": "1"}),
        ("# seed=1\nh,x,a,r,x_next\n1,0,1,0.5,2\n  # seed=2\n1,4,0,0.25,1\n# end\n",
         {"seed": "2"}),
        ("h,x,a,r,x_next\n1,0,1,0.5,2\n#\n1,4,0,0.25,1\n# last=x", {"last": "x"}),
    ], ids=["after-header", "indented-between-rows", "bare-and-unterminated"])
    def test_comment_lines_after_header(self, tmp_path, opens, text, meta):
        path = write_csv(tmp_path / "data.csv", text)
        opens.clear()
        with per_line_spy() as calls:
            loaded = load_dataset_csv(path)
        assert opens[path] == 1 and not calls
        assert loaded.meta == meta and loaded.steps[0].x.tolist() == [0, 4]
        assert not same_outcome(path)

    @pytest.mark.parametrize("row", ["1,4,0,0.25,1 # note", "1,4,0,0.25,1#", "1,4,0 #,0.25,1"])
    def test_trailing_comment_is_a_bad_row(self, tmp_path, row):
        path = write_csv(tmp_path / "data.csv", f"h,x,a,r,x_next\n# k=v\n1,0,1,0.5,2\n{row}\n")
        assert same_outcome(path)
        with pytest.raises(DatasetError, match=r"data\.csv:4: malformed row"):
            load_dataset_csv(path)

    @pytest.mark.parametrize("text", ["", "# seed=1\n", "# seed=1\nh,x,a,r,x_next\n",
                                      "h,x,a,r,x_next\n\n"],
                             ids=["empty", "comment-only", "header-only", "header-blank-lines"])
    def test_no_rows(self, tmp_path, recwarn, text):
        path = write_csv(tmp_path / "data.csv", text)
        assert same_outcome(path)
        assert not recwarn.list     # numpy's empty-input warning is never raised
        with pytest.raises(DatasetError, match="no transition rows"):
            load_dataset_csv(path)

    @pytest.mark.parametrize("newline,fast", [("\r\n", True), ("\n\n", True), ("\n \n", False)],
                             ids=["crlf", "blank-lines", "whitespace-lines"])
    def test_line_endings_and_blank_lines(self, tmp_path, newline, fast):
        text = "# seed=1\nh,x,a,r,x_next\n1,0,1,0.5,2\n1,3,0,0.25,1\n"
        (tmp_path / "data.csv").write_bytes(text.replace("\n", newline).encode())
        path = str(tmp_path / "data.csv")
        assert same_outcome(path) != fast
        loaded = load_dataset_csv(path)
        assert loaded.meta == {"seed": "1"}
        assert loaded.steps[0].x.tolist() == [0, 3]

    def test_interleaved_steps_keep_file_order(self, tmp_path):
        # x numbers the rows in file order, so each step's x must come out increasing
        hs = np.random.default_rng(0).permutation(np.repeat([1, 2, 3], 40)).tolist()
        path = write_csv(tmp_path / "data.csv", "h,x,a,r,x_next\n" + "".join(
            f"{h},{i},0,0.5,0\n" for i, h in enumerate(hs)))
        assert not same_outcome(path)
        for h, step in enumerate(load_dataset_csv(path).steps, start=1):
            assert step.x.tolist() == [i for i, g in enumerate(hs) if g == h]


ROWS_TEXT = "h,x,a,r,x_next\n1,0,1,0.5,2\n1,3,0,0.25,1\n2,1,1,0.75,0\n2,2,0,0.0,3\n"


class TestPathRead:
    """The loader opens its file once, as text, and never hands the path to
    numpy; these files must read as the per-line pass reads them."""

    @pytest.mark.parametrize("text,fast", [
        ("# seed=1\n" + ROWS_TEXT.replace("\n", "\r"), True),
        ("# seed=1\n" + ROWS_TEXT.rstrip("\n"), True),
        ("\n# seed=1\n\n \n" + ROWS_TEXT.replace("x_next\n", "x_next\n\n\t\n", 1), True),
        # U+2028 and U+0085 end a line for str.splitlines but not for a file
        ("# note=\u00e9\u20ac\U0001f600\u2028\x85 end\n# seed=1\n" + ROWS_TEXT, True),
        ("\ufeff# seed=1\n" + ROWS_TEXT, True),
        ("\ufeff" + ROWS_TEXT, True),
    ], ids=["cr-only", "no-final-newline", "blank-lines-around-header", "non-ascii-meta",
            "bom-before-meta", "bom-before-header"])
    def test_hazard_reads_as_per_line_parser(self, tmp_path, text, fast):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert same_outcome(str(path)) != fast

    @pytest.mark.parametrize("text", ["# seed=1\n" + ROWS_TEXT, ROWS_TEXT],
                             ids=["before-meta", "before-header"])
    def test_byte_order_mark_is_ignored(self, tmp_path, text):
        # some editors save a UTF-8 CSV with a byte-order mark
        plain = write_csv(tmp_path / "plain.csv", text)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        expected = load_dataset_csv(plain)
        for loaded in (load_dataset_csv(str(marked)), per_line(str(marked))):
            assert loaded.meta == expected.meta
            assert_same_steps(loaded, expected)

    def test_utf8_in_an_ascii_locale(self, tmp_path):
        # the C locale without UTF-8 mode makes open() default to ASCII
        src = os.path.dirname(os.path.dirname(dataset.__file__))
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=src)
        code = (
            "import sys\n"
            "from modbe import dataset as d\n"
            "ds = d.OfflineDataset((d.StepData([0, 1], [1, 0], [0.5, 0.25], [1, 0]),),"
            " {'note': '\\u00e9'})\n"
            "d.save_dataset_csv(ds, sys.argv[1])\n"
            "def per_line(*args):\n"
            "    raise AssertionError('the per-line pass ran')\n"
            "d._load_rows = per_line\n"
            "assert d.load_dataset_csv(sys.argv[1]).meta == {'note': '\\u00e9'}\n")
        path = tmp_path / "data.csv"
        subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True)
        assert path.read_bytes().startswith("# note=\u00e9\n".encode("utf-8"))

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_is_read_as_text(self, tmp_path, opens, suffix):
        # np.loadtxt would decompress a path with this suffix; the file is plain text
        path = write_csv(tmp_path / f"data.csv{suffix}", "# seed=1\n" + ROWS_TEXT)
        opens.clear()
        with per_line_spy() as calls:
            assert load_dataset_csv(path).steps[1].x.tolist() == [1, 2]
        assert opens[path] == 1 and not calls

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_once(self, opens):
        # a pipe, as from `--data <(zcat data.csv.gz)`, gives its bytes to one open only
        read_end, write_end = os.pipe()
        os.write(write_end, ("# seed=1\n" + ROWS_TEXT).encode())
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
        try:
            with per_line_spy() as calls:
                assert load_dataset_csv(path).steps[1].x.tolist() == [1, 2]
        finally:
            os.close(read_end)
        assert opens[path] == 1 and not calls

    def test_url_like_path_is_read_from_disk(self, tmp_path, monkeypatch):
        def no_network(*args, **kwargs):
            raise AssertionError("the loader opened a URL")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        write_csv(tmp_path / "http:" / "host" / "data.csv", "# seed=1\n" + ROWS_TEXT)
        monkeypatch.chdir(tmp_path)
        assert not same_outcome("http://host/data.csv")
