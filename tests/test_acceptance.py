"""Acceptance gate: ten end-to-end criteria, one test (and one printed
PASS/FAIL line) per criterion. Run with -rA or -s to see the lines for
passing tests; pytest -v also reports one line per criterion."""

import math
import time

import numpy as np
from scipy.stats import spearmanr

from statebandits import (
    BOUNDED_UNIT,
    Environment,
    EnvironmentSpec,
    PsiFamily,
    SweepConfig,
    default_stages,
    dollars,
    estimate_bai,
    estimate_pseudoregret,
    gaps,
    make_state_sequence,
    metrics,
    optimism_play,
    psi,
    psi_star,
    psi_star_inv,
    run_baseline,
    run_pipeline,
    sr_compare,
    substream,
    synth_population,
    thm1_bound,
    tightness_sweep,
)
from statebandits.cli import main

from _oracles import (
    bisect_increasing,
    classical_ucb_regret_bound,
    classical_ucb_run,
    exact_uniform_eba,
    numeric_sup_conjugate,
)

SEED = 20260819


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_identification_bounds_hold_on_random_environments():
    config = SweepConfig(num_envs=200, runs_per_env=1000, master_seed=SEED)
    t0 = time.perf_counter()
    records, _, failures = tightness_sweep(config, workers=1)
    elapsed = time.perf_counter() - t0
    assert not failures and len(records) == 200
    rates = {
        "thm2.1": np.mean([r.e <= min(r.b21, 1.0) + 3.0 * r.e_se for r in records]),
        "thm2.2": np.mean([r.e_hat <= min(r.b22, 1.0) + 3.0 * r.e_hat_se for r in records]),
        "thm3.1": np.mean([r.r <= min(r.b31, 1.0) + 3.0 * r.r_se for r in records]),
        "thm3.2": np.mean([r.r_hat <= min(r.b32, 1.0) + 3.0 * r.r_hat_se for r in records]),
    }
    ok = all(v >= 0.99 for v in rates.values()) and elapsed <= 600.0
    detail = ", ".join(f"{k} holds {v:.1%}" for k, v in rates.items())
    report(1, ok, f"{detail}; {elapsed:.1f}s of 600s allowed")


def test_criterion_02_elimination_bounds_hold_for_both_schedules():
    config = SweepConfig(num_envs=200, runs_per_env=1000, master_seed=SEED + 1)
    records, _, failures = sr_compare(config, workers=1)
    assert not failures and len(records) == 200
    rates = {
        "thm4.1 uniform": np.mean(
            [r.e_hat_uniform <= min(r.b41_uniform, 1.0) + 3.0 * r.e_hat_se_uniform
             for r in records]),
        "thm4.1 reference": np.mean(
            [r.e_hat_reference <= min(r.b41_reference, 1.0) + 3.0 * r.e_hat_se_reference
             for r in records]),
        "thm4.2 uniform": np.mean(
            [r.e_uniform <= min(r.b42_uniform, 1.0) + 3.0 * r.e_se_uniform
             for r in records]),
        "thm4.2 reference": np.mean(
            [r.e_reference <= min(r.b42_reference, 1.0) + 3.0 * r.e_se_reference
             for r in records]),
    }
    ok = all(v >= 0.99 for v in rates.values())
    report(2, ok, ", ".join(f"{k} holds {v:.1%}" for k, v in rates.items()))


def test_criterion_03_reference_schedule_errs_more():
    config = SweepConfig(num_envs=1000, master_seed=SEED + 2)
    records, summary, failures = sr_compare(config, workers=1)
    assert not failures and len(records) == 1000
    mean_u = summary["mean_e_hat_uniform"]
    mean_r = summary["mean_e_hat_reference"]
    p = summary["sign_test"]["p_value"]
    ok = mean_r >= mean_u and p < 0.05
    report(3, ok, f"mean error uniform {mean_u:.4f} vs reference {mean_r:.4f}, "
                  f"one-sided sign test p={p:.2e}")


def test_criterion_04_pseudoregret_bound_holds_on_fixed_environment():
    m = np.array([[0.9, 0.85], [0.7, 0.6], [0.5, 0.3]])
    spec = EnvironmentSpec(
        K=3, S=2, mu=(0.875, 0.65, 0.4), sigma2=0.05,
        state_sequence=make_state_sequence(2, 10_000, "iid_uniform", seed=11), seed=11,
    )
    env = Environment(spec=spec, m=m)
    delta = gaps(env).delta_m
    assert np.all(delta[delta > 0] >= 0.1) and np.all((delta > 0).sum(axis=0) == 2)
    curve = estimate_pseudoregret(env, 3.0, (100, 1000, 10_000), 1000)
    ok = bool(np.all(curve.mean <= curve.bound + 3.0 * curve.se))
    pairs = ", ".join(
        f"n={c}: {m_:.1f} <= {b:.1f}"
        for c, m_, b in zip(curve.checkpoints, curve.mean, curve.bound)
    )
    report(4, ok, pairs)


def test_criterion_05_single_state_matches_classical_ucb():
    bad_runs, bad_bounds = 0, 0
    for trial in range(100):
        K = 2 + trial % 3
        m_vec = 0.1 + 0.8 * substream(SEED, trial, "cls-m").random(K)
        spec = EnvironmentSpec(K=K, S=1, mu=tuple(m_vec), sigma2=0.05,
                               state_sequence=(0,) * 500, seed=trial)
        env = Environment(spec=spec, m=m_vec.reshape(K, 1))
        play = optimism_play(env, 3.0, [substream(SEED, trial, "cls-r")], 500)
        chosen = [int(choice[0]) for _, _, choice, _ in play]
        reference = classical_ucb_run(m_vec, 500, 3.0, substream(SEED, trial, "cls-r").random(500))
        if list(chosen) != list(reference):
            bad_runs += 1
        ours = thm1_bound(env, 3.0, 500).raw_value
        classical = classical_ucb_regret_bound(m_vec, 3.0, 500)
        if abs(ours - classical) > 1e-12 * max(1.0, abs(classical)):
            bad_bounds += 1
    ok = bad_runs == 0 and bad_bounds == 0
    report(5, ok, f"100 trials of n=500: {bad_runs} decision mismatches, "
                  f"{bad_bounds} bound mismatches")


def test_criterion_06_transforms_match_numeric_oracles():
    worst = 0.0
    for family, eps_hi, lam_hi in ((BOUNDED_UNIT, 1.0, 32.0),
                                   (PsiFamily(0.2), 2.0, 64.0)):
        for eps in np.linspace(0.0, eps_hi, 100):
            numeric = numeric_sup_conjugate(lambda lam: psi(family, lam), float(eps), lam_hi)
            worst = max(worst, abs(psi_star(family, float(eps)) - numeric))
        x_hi = float(psi_star(family, eps_hi))
        for x in np.linspace(0.0, x_hi, 100):
            numeric = bisect_increasing(lambda e: float(psi_star(family, e)), float(x),
                                        hi=eps_hi)
            worst = max(worst, abs(float(psi_star_inv(family, float(x))) - numeric))
    ok = worst <= 1e-6
    report(6, ok, f"worst transform deviation {worst:.2e} (allowed 1e-6)")


def test_criterion_07_enumeration_agrees_with_monte_carlo():
    runs = 4000
    good = 0
    for case in range(100):
        rng = substream(SEED, case, "enum-case")
        K = int(rng.integers(2, 4))
        S = int(rng.integers(1, 3))
        n = int(rng.integers(K * S, 13))
        m = 0.15 + 0.7 * rng.random((K, S))
        spec = EnvironmentSpec(K=K, S=S, mu=tuple(m.mean(axis=1)), sigma2=0.05,
                               state_sequence=make_state_sequence(S, n, "round_robin"),
                               seed=case)
        env = Environment(spec=spec, m=m)
        exact = exact_uniform_eba(env, n)["e_hat"]
        est = estimate_bai(env, "uniform_eba", runs, n)
        se = math.sqrt(exact * (1.0 - exact) / runs)
        if abs(est.e_hat - exact) <= 4.0 * se + 1e-12:
            good += 1
    ok = good >= 99
    report(7, ok, f"{good}/100 small instances within 4 SE of exact error")


def test_criterion_08_pipeline_beats_single_expert_subsample():
    mab, sub = [], []
    for s in range(100):
        run_seed = int(substream(SEED, s, "triage-seed").integers(0, 2**62))
        pop = synth_population(242, 42, seed=run_seed)
        result = run_pipeline(pop, default_stages(242), seed=run_seed)
        base = run_baseline("1Expert-Sub", pop, seed=run_seed)
        mab.append(metrics(result, pop).pop_sensitivity)
        sub.append(metrics(base, pop).pop_sensitivity)
    margin = float(np.mean(mab) - np.mean(sub))
    four = run_baseline("4Experts", synth_population(242, 42, seed=0))
    cost_exact = four.spend_milli == 5_178_800 and dollars(four.spend_milli) == 5178.80
    ok = margin >= 0.2 and cost_exact
    report(8, ok, f"mean population sensitivity {np.mean(mab):.3f} vs "
                  f"{np.mean(sub):.3f} (margin {margin:.3f}, need 0.2); "
                  f"4Experts cost ${dollars(four.spend_milli):.2f}")


def test_criterion_09_sensitivity_grows_with_final_cohort_size():
    k3_grid = (5, 10, 25, 30, 40, 44, 50, 100)
    means = []
    for k3 in k3_grid:
        stages = default_stages(242, k=(200, 100, k3))
        vals = []
        for s in range(100):
            run_seed = int(substream(SEED, s, "k3-grid").integers(0, 2**62))
            pop = synth_population(242, 42, seed=run_seed)
            result = run_pipeline(pop, stages, seed=run_seed)
            vals.append(metrics(result, pop).pop_sensitivity)
        means.append(float(np.mean(vals)))
    rho = float(spearmanr(k3_grid, means).statistic)
    ok = rho >= 0.9
    report(9, ok, f"Spearman rho {rho:.3f} over k3 grid {k3_grid}; "
                  f"means {[round(v, 3) for v in means]}")


def test_criterion_10_outputs_are_worker_count_invariant(tmp_path):
    cfgs = {
        "tightness": "num_envs = 6\nruns_per_env = 50\nk_max = 4\ns_max = 3\n",
        "sr-compare": "num_envs = 6\nruns_per_env = 50\nk_max = 4\ns_max = 3\n",
        "regret": "K = 2\nmu = 0.7,0.4\ncheckpoints = 100\nruns = 30\n",
        "triage": ("n = 60\nn_severe = 12\nk = 30,15,8\nnum_seeds = 2\n"
                   "baselines = 4Experts,1Expert,NLP-Full\n"),
        "verify": None,
    }
    mismatches = []
    for command, cfg_text in cfgs.items():
        argv = [command]
        if cfg_text is not None:
            cfg = tmp_path / f"{command}.cfg"
            cfg.write_text(cfg_text)
            argv += ["--config", str(cfg)]
        outs = {}
        for workers in (1, 4):
            out = tmp_path / f"{command}-w{workers}"
            rc = main(argv + ["--seed", "123", "--out", str(out),
                              "--workers", str(workers)])
            assert rc == 0, f"{command} exited {rc}"
            outs[workers] = out
        names = sorted(p.name for p in outs[1].iterdir())
        if names != sorted(p.name for p in outs[4].iterdir()):
            mismatches.append(f"{command}: file sets differ")
            continue
        for name in names:
            if (outs[1] / name).read_bytes() != (outs[4] / name).read_bytes():
                mismatches.append(f"{command}/{name}")
    ok = not mismatches
    report(10, ok, "all five commands byte-identical at workers 1 and 4"
           if ok else f"differs: {mismatches}")
