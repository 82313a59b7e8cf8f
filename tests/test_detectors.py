"""Detector components and end-to-end sampler behavior."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbpdet.channel import MimoInstance, generate_instance, generate_rayleigh, partition
from dbpdet.detectors import (DetectorConfig, learning_rate, lmmse_detect,
                              lmmse_estimate, mh_accept, mini_batch_gradient,
                              mini_nag_mcmc_detect, ml_brute_force, momentum_schedule,
                              nag_mcmc_detect, nag_stage, propose_candidate, trace_csv)
from dbpdet.errors import (CapacityError, ConfigError, DegenerateChannelError,
                           NumericInputError)
from dbpdet.fabric import Fabric, MessageLedger, Topology
from dbpdet.modem import build_constellation, qam_map, symbol_indices

C16 = build_constellation(16)
C4 = build_constellation(4)


def _noise_free(n_ant, n_users, const, seed):
    rng = np.random.default_rng(seed)
    H = generate_rayleigh(n_ant, n_users, rng)
    x_true = const.points[rng.integers(0, const.order, n_users)]
    return MimoInstance(H=H, x_true=x_true, n=np.zeros(n_ant, complex),
                        y=H @ x_true, sigma2=0.0, snr_linear=math.inf)


def test_momentum_schedule_values():
    rho = momentum_schedule(5)
    assert rho[0] == 0.0
    assert rho[1] == pytest.approx(0.2817535251, abs=1e-9)
    assert rho[2] == pytest.approx(0.4340427828, abs=1e-9)
    assert np.all(np.diff(rho) > 0) and np.all(rho < 1.0)
    with pytest.raises(ConfigError):
        momentum_schedule(0)


def test_learning_rate_identity_channel():
    clustered = partition(np.eye(2, dtype=complex), np.zeros(2, complex), 1)
    assert learning_rate(clustered, "exact_gram_fnorm") == pytest.approx(1 / np.sqrt(2))
    assert learning_rate(clustered, "diag_approx") == pytest.approx(1 / np.sqrt(2))


def test_learning_rate_diag_never_smaller_than_exact():
    for seed in range(5):
        H = generate_rayleigh(8, 4, np.random.default_rng(seed))
        clustered = partition(H, np.zeros(8, complex), 4)
        exact = learning_rate(clustered, "exact_gram_fnorm")
        diag = learning_rate(clustered, "diag_approx")
        assert diag >= exact


def test_learning_rate_degenerate():
    clustered = partition(np.zeros((4, 2), complex), np.zeros(4, complex), 2)
    with pytest.raises(DegenerateChannelError):
        learning_rate(clustered, "diag_approx")


def test_mini_batch_gradient_scaling():
    inst = generate_instance(8, 4, C16, 10.0, 0)
    clustered = partition(inst.H, inst.y, 2)
    fabric = Fabric(clustered)
    rng = np.random.default_rng(1)
    p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    full = mini_batch_gradient(p, range(2), fabric, 2)
    dense = -(inst.H.conj().T @ (inst.y - inst.H @ p))
    assert np.max(np.abs(full - dense)) < 1e-12
    single = mini_batch_gradient(p, [1], fabric, 1)
    g1 = fabric.local_gradient(1, p)
    assert np.allclose(single, 2.0 * g1, atol=0)
    with pytest.raises(ConfigError):
        mini_batch_gradient(p, [], fabric, 1)


def test_mini_batch_unbiasedness_enumerated():
    inst = generate_instance(16, 4, C16, 10.0, 3)
    fabric = Fabric(partition(inst.H, inst.y, 4))
    rng = np.random.default_rng(2)
    p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    dense = -(inst.H.conj().T @ (inst.y - inst.H @ p))
    for m in (1, 2):
        batches = list(itertools.combinations(range(4), m))
        mean = sum(mini_batch_gradient(p, b, fabric, m) for b in batches) / len(batches)
        assert np.max(np.abs(mean - dense)) / np.max(np.abs(dense)) < 1e-12


def test_nag_stage_stationary_and_single_step():
    inst = _noise_free(8, 2, C16, 4)
    fabric = Fabric(partition(inst.H, inst.y, 2))
    config = DetectorConfig(sampling_iterations=1, nag_iterations=4, batch_size=2, seed=0)
    tau = learning_rate(fabric.clustered)
    z = nag_stage(inst.x_true, config, fabric, tau, rng_batch=None)
    assert np.max(np.abs(z - inst.x_true)) < 1e-14  # gradients vanish at the optimum

    inst2 = generate_instance(8, 2, C16, 10.0, 5)
    fabric2 = Fabric(partition(inst2.H, inst2.y, 2))
    cfg1 = DetectorConfig(sampling_iterations=1, nag_iterations=1, batch_size=2, seed=0)
    x0 = C16.points[np.array([0, 5])]
    z1 = nag_stage(x0, cfg1, fabric2, tau, rng_batch=None)
    dense = -(inst2.H.conj().T @ (inst2.y - inst2.H @ x0))
    assert np.allclose(z1, x0 - tau * dense, atol=1e-14)  # rho_1 = 0


def test_full_batch_descent_never_increases_objective():
    # exact-mode learning rate keeps full-batch accelerated descent stable
    for seed in range(4):
        inst = generate_instance(32, 4, C16, 12.0, seed)
        fabric = Fabric(partition(inst.H, inst.y, 4))
        tau = learning_rate(fabric.clustered, "exact_gram_fnorm")
        x0 = C16.points[np.random.default_rng(seed).integers(0, 16, 4)]
        f = lambda v: 0.5 * np.sum(np.abs(inst.y - inst.H @ v) ** 2)
        f0 = f(x0)
        for k in range(1, 5):
            cfg = DetectorConfig(sampling_iterations=1, nag_iterations=k, batch_size=4, seed=0)
            zk = nag_stage(x0, cfg, fabric, tau, rng_batch=None)
            assert f(zk) <= f0 + 1e-6


def test_propose_candidate_properties():
    rng = np.random.default_rng(0)
    z = C16.points[rng.integers(0, 16, 6)]
    cand = propose_candidate(z, 1e-9, C16, np.random.default_rng(1))
    assert np.array_equal(cand, z)  # vanishing step from an on-lattice point
    draws = np.random.default_rng(2)
    gamma = 0.05
    w = np.array([propose_candidate(np.zeros(1, complex) + 100.0, gamma, C16, draws)
                  for _ in range(3)])  # output stays on the lattice even far away
    assert np.all(np.isin(w.reshape(-1), C16.points))


def test_walk_variance_matches_step():
    rng = np.random.default_rng(3)
    n = 200_000
    w = math.sqrt(0.5) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    d = 0.05 * w
    assert abs(np.mean(np.abs(d) ** 2) / 0.05 ** 2 - 1.0) < 0.02


def test_mh_accept_rules():
    rng = np.random.default_rng(0)
    accepted, alpha = mh_accept(1.0, 1.0, rng)
    assert alpha == 1.0 and accepted
    _, alpha = mh_accept(1.5, 1.0, rng)
    assert alpha == pytest.approx(math.exp(-1.0), abs=1e-15)
    _, alpha = mh_accept(0.2, 1.0, rng)
    assert alpha == 1.0
    with pytest.raises(NumericInputError):
        mh_accept(math.nan, 1.0, rng)


def test_mh_acceptance_frequency_quick():
    rng = np.random.default_rng(7)
    n = 20_000
    hits = sum(mh_accept(1.5, 1.0, rng)[0] for _ in range(n))
    p = math.exp(-1.0)
    assert abs(hits / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def _run(inst, config, n_clusters, const=C16, trial=0, ledger=None, x0=None):
    topo = Topology(config.topology, n_clusters)
    fabric = Fabric(partition(inst.H, inst.y, n_clusters), topo, ledger=ledger)
    return mini_nag_mcmc_detect(inst, config, fabric, const, trial=trial, x0=x0)


def test_detect_noise_free_from_truth():
    inst = _noise_free(16, 4, C16, 8)
    config = DetectorConfig(sampling_iterations=6, batch_size=2, seed=3)
    res = _run(inst, config, 4, x0=inst.x_true)
    assert np.array_equal(res.x_hat, inst.x_true)
    assert res.f_hat == 0.0
    assert all(r.f_cand >= 0.0 for r in res.records)


def test_detect_zero_sampling_iterations_returns_x0():
    inst = generate_instance(16, 4, C16, 10.0, 9)
    config = DetectorConfig(sampling_iterations=0, batch_size=2, seed=3)
    res = _run(inst, config, 4)
    assert len(res.records) == 1
    assert np.array_equal(res.x_hat, res.records[0].x)


def test_detect_trace_consistency():
    inst = generate_instance(16, 4, C16, 9.0, 10)
    config = DetectorConfig(sampling_iterations=10, batch_size=2, seed=4)
    res = _run(inst, config, 4)
    for rec in res.records:
        dense = 0.5 * np.sum(np.abs(inst.y - inst.H @ rec.x) ** 2)
        assert abs(rec.f - dense) <= 1e-9 * max(dense, 1.0)
        assert 0.0 <= rec.alpha <= 1.0
        if rec.t and not rec.accepted:
            assert rec.f == rec.f_prev
    fs = [r.f for r in res.records]
    assert res.f_hat == min(fs)
    first = fs.index(min(fs))
    assert np.array_equal(res.x_hat, res.records[first].x)
    assert min(fs) == res.records[-1].f_best


def test_detect_deterministic():
    inst = generate_instance(16, 4, C16, 9.0, 11)
    config = DetectorConfig(sampling_iterations=8, batch_size=2, seed=5)
    a = _run(inst, config, 4, ledger=MessageLedger(16, 4))
    b = _run(inst, config, 4, ledger=MessageLedger(16, 4))
    assert np.array_equal(a.x_hat, b.x_hat)
    assert [r.f for r in a.records] == [r.f for r in b.records]
    assert a.ledger.to_csv() == b.ledger.to_csv()


def test_star_chain_bit_identical():
    for trial in range(10):
        inst = generate_instance(16, 4, C16, 8.0, 12, trial)
        star = DetectorConfig(sampling_iterations=5, batch_size=2, seed=6, topology="star")
        chain = DetectorConfig(sampling_iterations=5, batch_size=2, seed=6,
                               topology="daisy_chain")
        ra = _run(inst, star, 4, trial=trial)
        rb = _run(inst, chain, 4, trial=trial)
        assert np.array_equal(ra.x_hat, rb.x_hat)
        assert [r.f for r in ra.records] == [r.f for r in rb.records]


def test_full_batch_equals_centralized():
    for trial in range(20):
        inst = generate_instance(16, 4, C16, 8.0, 13, trial)
        config = DetectorConfig(sampling_iterations=5, batch_size=4, seed=7)
        mini = _run(inst, config, 4, trial=trial)
        cen = nag_mcmc_detect(inst, config, C16, clusters=4, trial=trial)
        assert np.array_equal(mini.x_hat, cen.x_hat)
        assert [r.f for r in mini.records] == [r.f for r in cen.records]


def test_parallel_samplers():
    inst = generate_instance(16, 4, C16, 9.0, 14)
    config = DetectorConfig(sampling_iterations=4, batch_size=2, seed=8, samplers=3)
    res = _run(inst, config, 4)
    assert len(res.records) == 1 + 3 * 4
    assert {r.sampler for r in res.records} == {0, 1, 2}
    assert res.f_hat == min(r.f for r in res.records)
    res2 = _run(inst, config, 4)
    assert np.array_equal(res.x_hat, res2.x_hat)


def test_batch_size_must_divide_clusters():
    inst = generate_instance(16, 4, C16, 9.0, 15)
    config = DetectorConfig(sampling_iterations=2, batch_size=3, seed=0)
    with pytest.raises(ConfigError):
        _run(inst, config, 4)


def test_config_validation():
    with pytest.raises(ConfigError):
        DetectorConfig(sampling_iterations=-1)
    with pytest.raises(ConfigError):
        DetectorConfig(sampling_iterations=1, nag_iterations=0)
    with pytest.raises(ConfigError):
        DetectorConfig(sampling_iterations=1, walk_step=0.0)
    with pytest.raises(ConfigError):
        DetectorConfig(sampling_iterations=1, lr_mode="nope")
    with pytest.raises(ConfigError):
        DetectorConfig(sampling_iterations=1, topology="ring")


def test_lmmse_examples():
    H = np.eye(3, dtype=complex)
    y = np.array([0.9 + 0.9j, -0.1 - 0.9j, 0.2 + 0.1j])
    inst = MimoInstance(H=H, x_true=qam_map(y, C16), n=np.zeros(3, complex), y=y,
                        sigma2=0.0, snr_linear=math.inf)
    assert np.array_equal(lmmse_detect(inst, C16), qam_map(y, C16))
    nf = _noise_free(4, 4, C16, 16)  # square invertible, zero-forcing limit
    assert np.array_equal(lmmse_detect(nf, C16), nf.x_true)


def test_lmmse_matches_pinv_oracle():
    for seed in range(5):
        inst = generate_instance(16, 4, C16, 10.0, 17, seed)
        est = lmmse_estimate(inst)
        H = inst.H
        oracle = np.linalg.pinv(H.conj().T @ H + inst.sigma2 * np.eye(4)) @ (H.conj().T @ inst.y)
        assert np.max(np.abs(est - oracle)) < 1e-8


def test_ml_single_user_example():
    H = np.array([[1.0 + 0j]])
    y = np.array([0.6 + 0.4j])
    inst = MimoInstance(H=H, x_true=np.array([(1 + 1j) / np.sqrt(2)]),
                        n=y - np.array([(1 + 1j) / np.sqrt(2)]), y=y,
                        sigma2=0.1, snr_linear=10.0)
    assert ml_brute_force(inst, C4)[0] == (1 + 1j) / np.sqrt(2)


def test_ml_noise_free_and_direct_metric():
    inst = _noise_free(8, 3, C4, 18)
    assert np.array_equal(ml_brute_force(inst, C4), inst.x_true)
    for seed in range(5):
        noisy = generate_instance(8, 3, C4, 8.0, 19, seed)
        best = ml_brute_force(noisy, C4)
        f_best = 0.5 * np.sum(np.abs(noisy.y - noisy.H @ best) ** 2)
        # exhaustive check against the direct metric
        direct_min = min(0.5 * np.sum(np.abs(noisy.y - noisy.H @ C4.points[list(idx)]) ** 2)
                         for idx in itertools.product(range(4), repeat=3))
        assert f_best == pytest.approx(direct_min, rel=1e-12)


def test_ml_never_worse_than_sampler():
    for trial in range(5):
        inst = generate_instance(16, 4, C16, 9.0, 20, trial)
        config = DetectorConfig(sampling_iterations=8, batch_size=2, seed=9)
        res = _run(inst, config, 4, trial=trial)
        ml = ml_brute_force(inst, C16)
        f_ml = 0.5 * np.sum(np.abs(inst.y - inst.H @ ml) ** 2)
        assert f_ml <= res.f_hat + 1e-12


def test_ml_capacity_cap():
    inst = generate_instance(16, 6, C16, 9.0, 21)
    with pytest.raises(CapacityError):
        ml_brute_force(inst, C16, cap=2 ** 20)


def test_ml_cap_raises_before_allocating():
    inst = generate_instance(64, 12, C16, 9.0, 21)  # 16^12 candidates
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            ml_brute_force(inst, C16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # H^H alone would take 12 KiB, the Gram 2.3 KiB, a half-lattice far more
    assert peak < 2048


def _lattice_index_rows(order, n_users):
    """Symbol indices of every lattice vector, lexicographic order."""
    return np.indices((order,) * n_users).reshape(n_users, -1).T


def _dense_ml(inst, const):
    """Reference: score every lattice vector with one dense einsum."""
    cand = const.points[_lattice_index_rows(const.order, inst.n_users)]
    gram = inst.H.conj().T @ inst.H
    v = inst.H.conj().T @ inst.y
    quad = np.einsum("nu,nu->n", cand.conj(), cand @ gram.T).real
    lin = (cand @ v.conj()).real
    return cand[int(np.argmin(quad - 2.0 * lin))].copy()


def _lex_index(x, const):
    digits = symbol_indices(x, const)
    return int(sum(int(d) * const.order ** (x.size - 1 - u) for u, d in enumerate(digits)))


@settings(max_examples=60, deadline=None)
@given(n_users=st.integers(1, 5), order=st.sampled_from([4, 16]),
       seed=st.integers(0, 2 ** 31 - 1), snr_db=st.floats(-5.0, 30.0))
def test_ml_split_matches_dense_reference(n_users, order, seed, snr_db):
    const = build_constellation(order)
    inst = generate_instance(n_users + 2, n_users, const, snr_db, seed)
    got = ml_brute_force(inst, const)
    assert _lex_index(got, const) == _lex_index(_dense_ml(inst, const), const)


def _exact_ties(H_int, const):
    """Every lattice index minimizing ||H x||^2 (y = 0), in exact integer arithmetic."""
    levels = np.rint(const.points * const.normalizer).astype(np.complex128)
    x = levels[_lattice_index_rows(const.order, H_int.shape[1])]
    xr, xi = x.real.astype(np.int64), x.imag.astype(np.int64)
    hr, hi = H_int.real.astype(np.int64), H_int.imag.astype(np.int64)
    rr = xr @ hr.T - xi @ hi.T
    ri = xr @ hi.T + xi @ hr.T
    score = (rr * rr + ri * ri).sum(axis=1)
    return np.flatnonzero(score == score.min())


def _zero_y_instance(H):
    n_ant, n_users = H.shape
    return MimoInstance(H=H, x_true=np.zeros(n_users, complex), n=np.zeros(n_ant, complex),
                        y=np.zeros(n_ant, complex), sigma2=0.0, snr_linear=math.inf)


@pytest.mark.parametrize("order", [4, 16])
@pytest.mark.parametrize("columns", [
    [[1, 2, 1j], [1, 2, 1j]],                  # repeated column, U = 2
    [[1 + 1j, -2], [1 + 1j, -2], [1 + 1j, -2]],  # three equal columns
    [[1, 0, 2], [1, 0, 2], [0, 3j, 1]],          # two equal columns of three
    [[2, 1], [1, -1j], [1, -1j], [2, 1]],        # U = 4, two repeated pairs
])
def test_ml_exact_ties_go_to_smallest_index(order, columns):
    const = build_constellation(order)
    H = np.array(columns, dtype=np.complex128).T
    ties = _exact_ties(H, const)
    assert ties.size > 1
    assert _lex_index(ml_brute_force(_zero_y_instance(H), const), const) == ties[0]


@settings(max_examples=40, deadline=None)
@given(n_users=st.integers(1, 4), order=st.sampled_from([4, 16]),
       entries=st.lists(st.integers(-3, 3), min_size=2 * 6 * 4, max_size=2 * 6 * 4))
def test_ml_integer_channel_ties_go_to_smallest_index(n_users, order, entries):
    if order == 16:
        n_users = min(n_users, 3)
    e = np.array(entries, dtype=float).reshape(2, 6, 4)
    H = (e[0] + 1j * e[1])[:, :n_users]
    const = build_constellation(order)
    ties = _exact_ties(H, const)  # y = 0: x, -x, jx and -jx always tie
    assert _lex_index(ml_brute_force(_zero_y_instance(H), const), const) == ties[0]


def test_trace_csv_schema():
    inst = generate_instance(16, 4, C16, 9.0, 22)
    config = DetectorConfig(sampling_iterations=3, batch_size=2, seed=10)
    res = _run(inst, config, 4)
    lines = trace_csv(res.records).strip().splitlines()
    assert lines[0] == "t,f_prev,f_cand,alpha,accepted,f_best"
    assert len(lines) == 1 + len(res.records)
    cols = lines[2].split(",")
    assert len(cols) == 6 and cols[4] in ("0", "1")
