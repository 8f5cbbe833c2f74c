# Acceptance gate: nine end-to-end checks covering oracle exactness, the
# regret bound, learner consistency, selection behavior, benchmark shape,
# formula fidelity, and budget/determinism. Each test prints one summary
# line so a full run reads as a scoreboard.
import math
from pathlib import Path

import numpy as np
import pytest

from modbe import (AbstractionClass, FiniteClass, LinearClass, NestedSequence,
                   generate_from_mu, make_fqi, modbe)
from modbe.basealg import fqi, fqi_oracle, omega_fqi
from modbe.evaluation import (ExperimentConfig, chain_classes, chain_mdp, run_experiment,
                              run_seed, uniform_mu, write_results_csv)
from modbe.mdp import (concentrability, greedy_policy_from_tables, max_reach,
                       optimal_q, perf_diff_bound, policy_value, regret)
from modbe.selection import ToleranceSchedule, zeta

from conftest import (ENUMERABLE_SHAPES, brute_max_reach, brute_optimal_value,
                      never_overshoot_instance, random_full_support_mu, random_mdp)


def report(capsys, num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num} ({name}): {verdict}"
    if detail:
        line += f" -- {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_dp_oracle_exactness(capsys):
    rng = np.random.default_rng(20260826)
    worst_value_gap = 0.0
    reach_mismatches = 0
    conc_mismatches = 0
    for i in range(200):
        S, A, H = ENUMERABLE_SHAPES[i % len(ENUMERABLE_SHAPES)]
        mdp = random_mdp(rng, S, A, H)
        v_dp = policy_value(mdp, greedy_policy_from_tables(optimal_q(mdp)))
        worst_value_gap = max(worst_value_gap, abs(v_dp - brute_optimal_value(mdp)))
        reach = brute_max_reach(mdp)
        if not np.array_equal(max_reach(mdp), reach):
            reach_mismatches += 1
        mu = random_full_support_mu(rng, S, A, H)
        brute_conc = float((reach[reach > 0.0][:, None]
                            / mu.reshape(H, S, A)[reach > 0.0]).max())
        if concentrability(mdp, mu) != brute_conc:
            conc_mismatches += 1
    ok = worst_value_gap <= 1e-9 and reach_mismatches == 0 and conc_mismatches == 0
    report(capsys, 1, "DP-oracle exactness", ok,
           f"max value gap {worst_value_gap:.2e}, reach mismatches "
           f"{reach_mismatches}/200, concentrability mismatches {conc_mismatches}/200")


def test_criterion_2_perf_diff_bound(capsys):
    rng = np.random.default_rng(77)
    violations = 0
    for i in range(100):
        S, A, H = ENUMERABLE_SHAPES[i % len(ENUMERABLE_SHAPES)]
        mdp = random_mdp(rng, S, A, H)
        mu = random_full_support_mu(rng, S, A, H)
        f = rng.random((H, S, A)) * H
        reg = regret(mdp, greedy_policy_from_tables(f))
        if reg > perf_diff_bound(mdp, mu, f) + 1e-12:
            violations += 1
    report(capsys, 2, "performance-difference bound", violations == 0,
           f"{violations}/100 violations")


def test_criterion_3_fqi_consistency(capsys):
    mdp = chain_mdp()
    mu = uniform_mu(mdp)
    full = chain_classes()[3]
    q_star = optimal_q(mdp)
    S, A, H = mdp.num_states, mdp.num_actions, mdp.horizon
    xs, as_ = np.divmod(np.arange(S * A), A)

    def sup_error(n, seed):
        data = generate_from_mu(mdp, mu, n, seed)
        fseq = fqi(data.steps, full)
        return max(np.abs(fseq.func(h).values(xs, as_).reshape(S, A)
                          - q_star[h - 1]).max() for h in range(1, H + 1))

    err_small = float(np.mean([sup_error(100, s) for s in range(20)]))
    err_large = float(np.mean([sup_error(10_000, s) for s in range(20)]))
    oracle_seq = fqi_oracle(mdp, mu, full)
    oracle_gap = max(np.abs(oracle_seq.func(h).values(xs, as_).reshape(S, A)
                            - q_star[h - 1]).max() for h in range(1, H + 1))
    ok = err_large < 0.05 * H and err_large < err_small and oracle_gap <= 1e-9
    report(capsys, 3, "FQI consistency", ok,
           f"mean sup error {err_large:.4f} at n=1e4 vs {err_small:.4f} at n=1e2, "
           f"oracle gap {oracle_gap:.2e}")


def test_criterion_4_never_overshoot(capsys):
    mdp, classes, mu = never_overshoot_instance()
    base = make_fqi()
    hits = sum(
        modbe(generate_from_mu(mdp, mu, 1000, seed), base, classes,
              0.1, "theoretical", seed).k_hat <= 2
        for seed in range(50))
    report(capsys, 4, "never-overshoot", hits >= 48, f"k_hat <= 2 in {hits}/50 runs")


def test_criterion_5_oracle_inequality(capsys):
    H = chain_mdp().horizon
    details = []
    ok = True
    for n in (100, 1000, 10_000):
        regrets: dict[str, list] = {}
        for seed in range(20):
            cfg = ExperimentConfig("chain", [n], [seed], ["modbe", "fixed"])
            for _n, _s, method, _k, reg, _ms in run_seed(seed, cfg):
                regrets.setdefault(method, []).append(reg)
        modbe_mean = float(np.mean(regrets["modbe"]))
        best_fixed = min(float(np.mean(v)) for m, v in regrets.items()
                         if m.startswith("fixed-"))
        ok = ok and modbe_mean <= 1.5 * best_fixed + 0.05 * H
        details.append(f"n={n}: modbe {modbe_mean:.4f} vs best fixed {best_fixed:.4f}")
    report(capsys, 5, "empirical oracle inequality", ok, "; ".join(details))


def test_criterion_6_cb_replication(capsys):
    n_list = (200, 500, 1000, 2000, 5000)
    means: dict[str, dict] = {"modbe": {}, "oracle": {}, "fixed-1": {}}
    # seed-major, so each seed's evaluation set is drawn once for all n
    cells: dict[tuple, list] = {(m, n): [] for m in means for n in n_list}
    for seed in range(10):
        cfg = ExperimentConfig("cb", list(n_list), [seed], ["modbe", "oracle", "fixed-1"],
                               delta=0.1)
        for n, _s, method, _k, reg, _ms in run_seed(seed, cfg):
            cells[method, n].append(reg)
    for m in means:
        for n in n_list:
            means[m][n] = float(np.mean(cells[m, n]))
    curve = [means["modbe"][n] for n in n_list]
    monotone = all(b <= a for a, b in zip(curve, curve[1:]))
    near_oracle = means["modbe"][5000] <= 2.0 * means["oracle"][5000]
    beats_fixed = means["fixed-1"][5000] >= 1.5 * means["modbe"][5000]
    ok = monotone and near_oracle and beats_fixed
    report(capsys, 6, "contextual-bandit shape", ok,
           f"modbe curve {['%.4f' % v for v in curve]}, oracle at n=5000 "
           f"{means['oracle'][5000]:.4f}, fixed-1 at n=5000 {means['fixed-1'][5000]:.4f}")


def test_criterion_7_holdout_failure_mode(capsys):
    holdout_picks_biased = 0
    modbe_picks_biased = 0
    for seed in range(20):
        cfg = ExperimentConfig("holdout_bias", [2000], [seed], ["modbe", "holdout"])
        for _n, _s, method, k, _reg, _ms in run_seed(seed, cfg):
            if method == "holdout" and k == 1:
                holdout_picks_biased += 1
            if method == "modbe" and k == 1:
                modbe_picks_biased += 1
    ok = holdout_picks_biased >= 14 and modbe_picks_biased <= 6
    report(capsys, 7, "hold-out failure mode", ok,
           f"hold-out picked the high-error class {holdout_picks_biased}/20, "
           f"modbe {modbe_picks_biased}/20")


def test_criterion_8_formula_fidelity(capsys):
    def finite(m):
        return FiniteClass(tuple(np.full((1, 1), 0.1 * i) for i in range(m)))

    dummy30 = lambda xs, as_: np.ones((len(np.asarray(xs)), 30))
    inv_e = 1.0 / math.e

    fin_seq = NestedSequence((finite(4), finite(16)))
    fin_sched = ToleranceSchedule("theoretical", fin_seq, 2, 0.25,
                                  800, 200, make_fqi().omega)
    lin_seq = NestedSequence(tuple(
        LinearClass(dummy30, d, 1) for d in (5, 10, 15, 20, 21, 22, 23, 24, 25, 30)))
    lin_sched = ToleranceSchedule("theoretical", lin_seq, 1, 0.1,
                                  1600, 400, make_fqi().omega)
    lin_prac = ToleranceSchedule("practical", lin_seq, 1, 0.1, 1600, 400)
    abs_seq = NestedSequence((AbstractionClass(np.zeros(8, dtype=int), 2),
                              AbstractionClass(np.arange(8), 2)))
    abs_prac = ToleranceSchedule("practical", abs_seq, 2, 0.1, 800, 200)
    fin5_seq = NestedSequence((finite(1), finite(5)))
    fin5_prac = ToleranceSchedule("practical", fin5_seq, 2, 0.1, 400, 100)

    cases = [
        ("omega n=1e3 H=2 |F|=8", omega_fqi(1000, 0.1, finite(8), 2), 6.27821002998),
        ("omega n=1e2 H=1 |F|=2", omega_fqi(100, 0.25, finite(2), 1), 9.70406052784),
        ("omega n=2e3 H=4 |F|=1024", omega_fqi(2000, inv_e, finite(1024), 4), 19.3445678223),
        ("omega linear d=7", omega_fqi(500, 0.05, LinearClass(dummy30, 7, 1), 3), 49.9209598241),
        ("omega abstraction B=4 A=2",
         omega_fqi(10_000, 0.1, AbstractionClass(np.arange(4), 2), 2), 2.2359224619),
        ("omega n=1 singleton", omega_fqi(1, inv_e, finite(1), 1), 754.517744448),
        ("omega n=2e3 H=2 |F|=8", omega_fqi(2000, 0.1, finite(8), 2), 3.13910501499),
        ("omega n=300 H=2 |F|=64", omega_fqi(300, 0.2, finite(64), 2), 24.6241517296),
        ("zeta H=2 M=2", zeta(2, 2, 0.25, 100), 23.9551665602),
        ("zeta H=1 M=1", zeta(1, 1, inv_e, 1), 362.168517335),
        ("zeta H=4 M=10", zeta(4, 10, 0.1, 50_000), 0.339967130491),
        ("zeta H=3 M=5", zeta(3, 5, 0.01, 123), 82.1519790797),
        ("zeta H=2 M=3", zeta(2, 3, 0.2, 400), 6.98150245687),
        ("alpha finite", fin_sched.alpha(2), 9.70406052784),
        ("alpha linear", lin_sched.alpha(10), 4.87339960258),
        ("tol finite theoretical", fin_sched.tol(1, 2), 51.6810537825),
        ("tol linear theoretical", lin_sched.tol(4, 10), 17.9888709844),
        ("tol linear practical", lin_prac.tol(1, 10), 0.015),
        ("tol abstraction practical", abs_prac.tol(1, 2), 0.0443614195558),
        ("tol finite practical", fin5_prac.tol(1, 2), 0.00321887582487),
    ]
    assert len(cases) == 20
    bad = [name for name, got, want in cases
           if not got == pytest.approx(want, rel=1e-6)]
    report(capsys, 8, "formula fidelity", not bad,
           f"20 hand-evaluated cases, mismatches: {bad or 'none'}")


def test_criterion_9_budget_and_determinism(capsys):
    budget_ok = True
    trace_ok = True
    runs = [(chain_mdp(), chain_classes(), "practical"),
            never_overshoot_instance()[:2] + ("theoretical",)]
    for mdp, classes, schedule in runs:
        mu = uniform_mu(mdp)
        base = make_fqi()
        H, M = mdp.horizon, len(classes)
        for seed in range(5):
            data = generate_from_mu(mdp, mu, 400, seed)
            t1 = modbe(data, base, classes, 0.1, schedule, seed)
            t2 = modbe(data, base, classes, 0.1, schedule, seed)
            budget_ok = budget_ok and t1.base_calls <= t1.k_hat + 1
            budget_ok = budget_ok and t1.erm_calls <= H * M * M
            trace_ok = trace_ok and t1.to_text() == t2.to_text()

    cfg = ExperimentConfig(instance="chain", n_list=[60], seeds=[0, 1, 2],
                           methods=["modbe", "holdout"], schedule="practical")
    rows_1 = run_experiment(cfg, jobs=1, record_runtime=False)
    rows_8 = run_experiment(cfg, jobs=8, record_runtime=False)
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        write_results_csv(rows_1, f"{tmp}/a.csv")
        write_results_csv(rows_8, f"{tmp}/b.csv")
        csv_ok = Path(f"{tmp}/a.csv").read_bytes() == Path(f"{tmp}/b.csv").read_bytes()
    ok = budget_ok and trace_ok and csv_ok
    report(capsys, 9, "budget and determinism", ok,
           f"budgets {'ok' if budget_ok else 'violated'}, traces "
           f"{'identical' if trace_ok else 'diverged'}, CSV jobs 1 vs 8 "
           f"{'identical' if csv_ok else 'diverged'}")
