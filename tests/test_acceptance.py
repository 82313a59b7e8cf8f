"""Acceptance criteria, one test per criterion, each printing a verdict line.

Statistical criteria use common random numbers and fixed master seeds;
tolerances are stated inline next to each assertion.
"""

import itertools
import math

import numpy as np
import pytest

from dbpdet import rng as rngmod
from dbpdet.channel import generate_instance, partition
from dbpdet.detectors import (DetectorConfig, mh_accept, mini_batch_gradient,
                              mini_nag_mcmc_detect, momentum_schedule,
                              nag_mcmc_detect)
from dbpdet.diagnostics import (GOLDEN_GAMMA, GOLDEN_TAU, GOLDEN_TV_THRESHOLD,
                                _golden_instance, build_transition_matrix,
                                detailed_balance_residual, stationary_distribution,
                                tv_distance)
from dbpdet.experiments import (LMMSE, MINI_NAG_MCMC, ML, DetectorSpec, SystemSpec,
                                measured_cu_bits, run_complexity_report,
                                run_convergence, run_paired_trials)
from dbpdet.fabric import (Fabric, MessageLedger, Topology, centralized_transfer,
                           predicted_bandwidth)
from dbpdet.modem import build_constellation

C16 = build_constellation(16)


def _verdict(n, name, ok, detail):
    print(f"\nACCEPTANCE {n:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_mini_batch_unbiasedness():
    inst = generate_instance(16, 4, C16, 10.0, 101)
    fabric = Fabric(partition(inst.H, inst.y, 4))
    rng = np.random.default_rng(0)
    p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    dense = -(inst.H.conj().T @ (inst.y - inst.H @ p))
    worst = 0.0
    for m in (1, 2):
        batches = list(itertools.combinations(range(4), m))
        mean = sum(mini_batch_gradient(p, b, fabric) for b in batches) / len(batches)
        worst = max(worst, float(np.max(np.abs(mean - dense)) / np.max(np.abs(dense))))
    ok = worst < 1e-12
    assert _verdict(1, "mini-batch unbiasedness", ok, f"max rel err {worst:.2e} < 1e-12")


def test_criterion_02_gradient_matches_finite_differences():
    eps = 1e-6
    worst = 0.0
    for seed in range(20):
        inst = generate_instance(12, 4, C16, 10.0, 102, seed)
        fabric = Fabric(partition(inst.H, inst.y, 4))
        rng = np.random.default_rng(seed)
        p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        g = fabric.gradient_sum(p, range(4))
        f = lambda v: 0.5 * np.sum(np.abs(inst.y - inst.H @ v) ** 2)
        fd = np.empty(4, dtype=np.complex128)
        for u in range(4):
            e = np.zeros(4, complex)
            e[u] = eps
            fd[u] = ((f(p + e) - f(p - e)) / (2 * eps)
                     + 1j * (f(p + 1j * e) - f(p - 1j * e)) / (2 * eps))
        worst = max(worst, float(np.max(np.abs(fd - g)) / np.max(np.abs(g))))
    ok = worst < 1e-5
    assert _verdict(2, "conjugate gradient vs central differences", ok,
                    f"max rel err {worst:.2e} < 1e-5 at eps={eps}")


def test_criterion_03_bandwidth_ledger_equals_closed_form():
    rng = np.random.default_rng(103)
    mismatches = 0
    for k in range(50):
        n_clusters = int(rng.choice([1, 2, 4, 8]))
        n_users = int(rng.integers(1, 9))
        block = int(rng.integers(1, 5))
        n_ant = n_clusters * block
        while n_ant < n_users:
            block += 1
            n_ant = n_clusters * block
        divisors = [m for m in (1, 2, 4, 8) if n_clusters % m == 0 and m <= n_clusters]
        point = {
            "B": n_ant, "U": n_users, "C": n_clusters,
            "m": int(rng.choice(divisors)),
            "S": int(rng.integers(1, 6)), "Ng": int(rng.integers(1, 6)),
            "omega": int(rng.choice([8, 12, 16, 24])),
            "M": int(rng.choice([4, 16, 64, 256])),
        }
        star = predicted_bandwidth("mini_star", n_users=point["U"],
                                   n_clusters=point["C"], batch_size=point["m"],
                                   sampling_iterations=point["S"],
                                   nag_iterations=point["Ng"],
                                   real_bits=point["omega"], mod_order=point["M"])
        chain = predicted_bandwidth("mini_chain", n_users=point["U"],
                                    sampling_iterations=point["S"],
                                    nag_iterations=point["Ng"],
                                    real_bits=point["omega"], mod_order=point["M"])
        if measured_cu_bits(point, "star", seed=k) != star:
            mismatches += 1
        if measured_cu_bits(point, "daisy_chain", seed=k) != chain:
            mismatches += 1

    # worked values; the star/chain constants correspond to the parameter
    # tuple (U=8, C=8, m=2, S=4, Ng=16, omega=16, M=16), the centralized
    # one to B=128, U=8, omega=16
    worked = {"B": 128, "U": 8, "C": 8, "m": 2, "S": 4, "Ng": 16, "omega": 16, "M": 16}
    cen = predicted_bandwidth("centralized", n_ant=128, n_users=8, real_bits=16)
    star_w = predicted_bandwidth("mini_star", n_users=8, n_clusters=8, batch_size=2,
                                 sampling_iterations=4, nag_iterations=16,
                                 real_bits=16, mod_order=16)
    chain_w = predicted_bandwidth("mini_chain", n_users=8, sampling_iterations=4,
                                  nag_iterations=16, real_bits=16, mod_order=16)
    ledger = MessageLedger(16, 4)
    centralized_transfer(ledger, 128, 8)
    worked_ok = (cen, star_w, chain_w) == (36_864, 68_480, 33_136)
    worked_ok &= ledger.bits() == cen
    worked_ok &= measured_cu_bits(worked, "star", seed=0) == star_w
    worked_ok &= measured_cu_bits(worked, "daisy_chain", seed=0) == chain_w

    ok = mismatches == 0 and worked_ok
    assert _verdict(3, "ledger equals closed-form bandwidth", ok,
                    f"{mismatches} mismatches in 100 randomized runs; worked values "
                    f"{cen}/{star_w}/{chain_w}")


def test_criterion_04_full_batch_equals_centralized():
    system = SystemSpec(32, 8, 8, 16)
    config = DetectorConfig(sampling_iterations=4, batch_size=8, seed=104)
    mismatches = 0
    for trial in range(1000):
        inst = generate_instance(32, 8, C16, 8.0, 104, trial)
        fabric = Fabric(partition(inst.H, inst.y, 8), Topology("star", 8))
        mini = mini_nag_mcmc_detect(inst, config, fabric, C16, trial=trial)
        cen = nag_mcmc_detect(inst, config, C16, clusters=8, trial=trial)
        if not np.array_equal(mini.x_hat, cen.x_hat):
            mismatches += 1
    ok = mismatches == 0
    assert _verdict(4, "m=C sampler is bit-identical to centralized", ok,
                    f"{mismatches}/1000 trials differ")


def _snr_at_ber(snrs, bers, target):
    logs = np.log10(bers)
    lt = math.log10(target)
    for i in range(len(snrs) - 1):
        if bers[i] >= target >= bers[i + 1] and bers[i] > bers[i + 1]:
            frac = (logs[i] - lt) / (logs[i] - logs[i + 1])
            return snrs[i] + frac * (snrs[i + 1] - snrs[i])
    raise AssertionError(f"BER {target} not bracketed by the sweep")


def test_criterion_05_near_ml_at_desk_scale():
    system = SystemSpec(16, 4, 4, 16)
    detectors = {
        "mini": DetectorSpec(MINI_NAG_MCMC, DetectorConfig(
            sampling_iterations=16, batch_size=2, seed=105)),
        "lmmse": DetectorSpec(LMMSE),
        "ml": DetectorSpec(ML),
    }
    snrs = [8.0, 10.0, 11.0, 12.0, 13.0]
    n_trials = 4000
    bits = n_trials * system.bits_per_vector
    ber = {name: [] for name in detectors}
    paired_fail = []
    for snr in snrs:
        res = run_paired_trials(system, detectors, snr, n_trials, seed=105, workers=2)
        for name in detectors:
            ber[name].append(res[name].sum() / bits)
        lmmse_ber = res["lmmse"].sum() / bits
        if 1e-3 <= lmmse_ber <= 1e-1:
            diff = (res["mini"] - res["lmmse"]) / system.bits_per_vector
            mean = diff.mean()
            se = diff.std(ddof=1) / math.sqrt(n_trials)
            if not mean + 2 * se < 0.0:
                paired_fail.append(snr)

    gap = _snr_at_ber(snrs, ber["mini"], 1e-3) - _snr_at_ber(snrs, ber["ml"], 1e-3)
    ok = gap <= 0.5 and not paired_fail
    assert _verdict(5, "near-ML at desk scale", ok,
                    f"SNR gap to ML at BER 1e-3: {gap:.3f} dB (<= 0.5); "
                    f"paired mini<LMMSE failures: {paired_fail or 'none'}")


def _gap_and_2se(diff):
    """Mean of per-trial paired differences and twice its standard error."""
    return float(diff.mean()), float(2 * diff.std(ddof=1) / math.sqrt(len(diff)))


def _reaches_full_batch(diff):
    """Criterion 6, clause (a): the paired half- minus full-batch bit-error
    gap at the configured chain length is within 2 standard errors."""
    gap, se2 = _gap_and_2se(diff)
    return abs(gap) <= se2, gap, se2


def test_criterion_06_convergence_ordering():
    # The (C/m)-scaled mini-batch gradient is unbiased but has positive
    # variance for m < C, so the half-batch chain may trail the full-batch
    # one over the first sampling iterations; the criterion is that it
    # reaches full-batch performance at the configured chain length and
    # that its lag only closes on the way there.
    system = SystemSpec(32, 8, 8, 16)
    base = DetectorConfig(sampling_iterations=12, seed=106)
    s_grid = list(range(2, 13))
    n_trials = 3000
    _, errors = run_convergence(system, base, m_grid=[1, 4, 8], s_grid=s_grid,
                                snr_db=5.0, n_trials=n_trials, seed=106, workers=2)
    bits = n_trials * system.bits_per_vector
    ber = errors.sum(axis=0) / bits  # (m, s)

    ordering_ok = all(ber[0, s_grid.index(s)] >= ber[1, s_grid.index(s)]
                      for s in (2, 4))
    diff = errors[:, 1, :] - errors[:, 2, :]  # m=4 minus m=8, (trials, s)
    gaps = [_gap_and_2se(diff[:, si]) for si in range(len(s_grid))]
    final_ok, final_gap, final_se2 = _reaches_full_batch(
        diff[:, s_grid.index(base.sampling_iterations)])
    growing = []
    for si in range(len(s_grid) - 1):
        growth, se2 = _gap_and_2se(diff[:, si + 1] - diff[:, si])
        if growth > se2:
            growing.append((s_grid[si], s_grid[si + 1], round(growth, 4), round(se2, 4)))

    ok = ordering_ok and final_ok and not growing
    detail = (f"BER(m=1)>=BER(m=4) at S in {{2,4}}: {ordering_ok}; "
              f"m=4 vs m=8 gap at S={base.sampling_iterations}: "
              f"{final_gap:+.4f} (|gap| <= 2se {final_se2:.4f}); "
              f"gap steps growing by > 2se: {growing or 'none'}; "
              f"gap at S=2 (information only): {gaps[0][0]:+.4f} bits/trial")
    per_s = ", ".join(f"S={s}: {g:+.4f} (2se {se2:.4f})"
                      for s, (g, se2) in zip(s_grid, gaps))
    assert _verdict(6, "convergence ordering vs batch size", ok, detail), (
        f"m=4 minus m=8 bit errors per trial: {per_s}")


class _FixedBatch:
    """Biased batch selection: always units 0..m-1, never a random subset."""

    def choice(self, n_units, size, replace):
        return np.arange(size)


def test_criterion_06_clause_rejects_biased_batch(monkeypatch):
    # A sampler whose mini-batch is always the same m units follows a biased
    # gradient; criterion 6's convergence clause must reject it, or the
    # clause could not fail.
    real_stream = rngmod.stream
    monkeypatch.setattr(rngmod, "stream", lambda seed, domain, *key: (
        _FixedBatch() if domain == rngmod.BATCH else real_stream(seed, domain, *key)))
    system = SystemSpec(32, 8, 8, 16)
    base = DetectorConfig(sampling_iterations=12, seed=106)
    n_trials = 3 * 64
    _, errors = run_convergence(system, base, m_grid=[4, 8], s_grid=[12], snr_db=5.0,
                                n_trials=n_trials, seed=106, workers=1)
    ok, gap, se2 = _reaches_full_batch(errors[:, 0, 0] - errors[:, 1, 0])
    assert not ok, f"fixed-batch gap {gap:+.4f} within 2se {se2:.4f}"


def test_criterion_07_momentum_schedule():
    rho = momentum_schedule(3)
    ok = rho[0] == 0.0 and abs(rho[1] - 0.28172) < 1e-4 and abs(rho[2] - 0.43412) < 1e-4
    assert _verdict(7, "momentum schedule constants", ok,
                    f"rho1={rho[0]}, rho2={rho[1]:.6f}, rho3={rho[2]:.6f}")


def test_criterion_08_chain_diagnostics():
    inst, clustered, const = _golden_instance()  # U=1, 4-QAM, SNR 10 dB
    diag = build_transition_matrix(clustered, const, gamma=GOLDEN_GAMMA, tau=GOLDEN_TAU)
    row_err = float(np.abs(diag.transition.sum(axis=1) - 1.0).max())
    min_entry = float(diag.transition.min())
    tv = tv_distance(stationary_distribution(diag.transition), diag.pi)
    db = detailed_balance_residual(diag.transition_exact, diag.pi)
    ok = (row_err <= 1e-10 and min_entry > 0.0 and tv < GOLDEN_TV_THRESHOLD
          and db < 1e-10)
    assert _verdict(8, "chain diagnostics on the golden instance", ok,
                    f"rows {row_err:.1e}<=1e-10, min entry {min_entry:.1e}>0, "
                    f"TV {tv:.4f}<{GOLDEN_TV_THRESHOLD}, exact-MH balance {db:.1e}<1e-10")


def test_criterion_09_complexity_scaling():
    system = SystemSpec(32, 8, 8, 16)
    config = DetectorConfig(sampling_iterations=8, batch_size=2, seed=109)
    _, fits = run_complexity_report(system, config, seed=109)
    r2_bc = fits["du_vs_block_rows"]["r2"]
    r2_s = fits["du_vs_sampling_iterations"]["r2"]
    r2_ng = fits["du_vs_nag_iterations"]["r2"]
    cu_constant = fits["cu_vs_antennas"]["constant"]
    ok = r2_bc > 0.999 and r2_s > 0.999 and r2_ng > 0.999 and cu_constant
    assert _verdict(9, "multiplication counts scale per the cost model", ok,
                    f"R2(Bc)={r2_bc:.6f}, R2(S)={r2_s:.6f}, R2(Ng)={r2_ng:.6f}, "
                    f"CU independent of B: {cu_constant}")


def test_criterion_10_acceptance_statistics():
    rng = np.random.default_rng(110)
    n = 100_000
    hits = 0
    for _ in range(n):
        accepted, alpha = mh_accept(1.5, 1.0, rng)
        hits += accepted
        assert alpha == pytest.approx(math.exp(-1.0), abs=1e-15)
    p = math.exp(-1.0)
    sigma = math.sqrt(p * (1 - p) / n)
    dev = abs(hits / n - p)
    ok = dev <= 3 * sigma
    assert _verdict(10, "forced-gap acceptance frequency", ok,
                    f"|{hits / n:.5f} - e^-1| = {dev:.5f} <= 3 sigma = {3 * sigma:.5f}")
