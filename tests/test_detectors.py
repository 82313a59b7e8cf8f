"""Detector components and end-to-end sampler behavior."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbpdet import rng as rngmod
from dbpdet.channel import MimoInstance, generate_instance, generate_rayleigh, partition
from dbpdet.detectors import (DIAG_APPROX, EXACT_GRAM_FNORM, DetectionResult, DetectorConfig,
                              _chain_batches, _detect_block, learning_rate, lmmse_detect,
                              lmmse_estimate, mh_accept, mini_batch_gradient,
                              mini_nag_mcmc_detect, ml_brute_force, momentum_schedule,
                              nag_mcmc_detect, nag_stage, propose_candidate, trace_csv)
from dbpdet.errors import ConfigError, DegenerateChannelError, NumericInputError
from dbpdet.fabric import DAISY_CHAIN, STAR, Fabric, MessageLedger, Topology
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
    full = mini_batch_gradient(p, range(2), fabric)
    dense = -(inst.H.conj().T @ (inst.y - inst.H @ p))
    assert np.max(np.abs(full - dense)) < 1e-12
    single = mini_batch_gradient(p, [1], fabric)
    g1 = fabric.local_gradient(1, p)
    assert np.allclose(single, 2.0 * g1, atol=0)
    with pytest.raises(ConfigError):
        mini_batch_gradient(p, [], fabric)


def test_mini_batch_unbiasedness_enumerated():
    inst = generate_instance(16, 4, C16, 10.0, 3)
    fabric = Fabric(partition(inst.H, inst.y, 4))
    rng = np.random.default_rng(2)
    p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    dense = -(inst.H.conj().T @ (inst.y - inst.H @ p))
    for m in (1, 2):
        batches = list(itertools.combinations(range(4), m))
        mean = sum(mini_batch_gradient(p, b, fabric) for b in batches) / len(batches)
        assert np.max(np.abs(mean - dense)) / np.max(np.abs(dense)) < 1e-12


def _every_unit(config, n_units):
    """The N_g batch rows of a full-batch NAG stage."""
    return np.broadcast_to(np.arange(n_units), (config.nag_iterations, n_units))


def _stage(x, fabric, config, tau, batches):
    """nag_stage from x on one trial (T = 1) of the fabric's clustered channel."""
    H, y = fabric.clustered.H_blocks[None], fabric.clustered.y_blocks[None]
    step = np.array([[tau * (fabric.n_units / config.batch_size)]])
    return nag_stage(x[None].astype(np.complex128), H, y, H.conj().swapaxes(-1, -2), step,
                     batches[None], momentum_schedule(config.nag_iterations))[0]


def test_nag_stage_stationary_and_single_step():
    inst = _noise_free(8, 2, C16, 4)
    fabric = Fabric(partition(inst.H, inst.y, 2))
    config = DetectorConfig(sampling_iterations=1, nag_iterations=4, batch_size=2, seed=0)
    tau = learning_rate(fabric.clustered)
    z = _stage(inst.x_true, fabric, config, tau, _every_unit(config, 2))
    assert np.max(np.abs(z - inst.x_true)) < 1e-14  # gradients vanish at the optimum

    inst2 = generate_instance(8, 2, C16, 10.0, 5)
    fabric2 = Fabric(partition(inst2.H, inst2.y, 2))
    cfg1 = DetectorConfig(sampling_iterations=1, nag_iterations=1, batch_size=2, seed=0)
    x0 = C16.points[np.array([0, 5])]
    z1 = _stage(x0, fabric2, cfg1, tau, _every_unit(cfg1, 2))
    dense = -(inst2.H.conj().T @ (inst2.y - inst2.H @ x0))
    assert np.allclose(z1, x0 - tau * dense, atol=1e-14)  # rho_1 = 0


def test_nag_stage_full_batch_draws_no_batch(monkeypatch):
    inst = generate_instance(16, 4, C16, 9.0, 23)
    domains = []
    stream = rngmod.stream

    def recording_stream(seed, domain, *keys):
        domains.append(domain)
        return stream(seed, domain, *keys)

    monkeypatch.setattr(rngmod, "stream", recording_stream)
    config = DetectorConfig(sampling_iterations=3, nag_iterations=4, batch_size=4, samplers=2)
    assert np.array_equal(_chain_batches(config, 4, 0, 1),
                          np.broadcast_to(np.arange(4), (3, 4, 4)))
    _run(inst, config, 4)
    assert rngmod.BATCH not in domains and rngmod.WALK in domains
    domains.clear()
    _run(inst, replace(config, batch_size=2), 4)
    assert domains.count(rngmod.BATCH) == 2  # one batch stream per sampler below m = C


def test_nag_stage_aggregates_given_batch_rows():
    inst = generate_instance(16, 4, C16, 9.0, 25)
    fabric = Fabric(partition(inst.H, inst.y, 4))
    tau = learning_rate(fabric.clustered)
    config = DetectorConfig(sampling_iterations=1, nag_iterations=1, batch_size=2)
    x0 = C16.points[np.array([1, 4, 9, 14])]
    z = _stage(x0, fabric, config, tau, np.array([[1, 3]]))
    g = fabric.local_gradient(1, x0) + fabric.local_gradient(3, x0)
    assert np.allclose(z, x0 - tau * (4 / 2) * g, atol=1e-14)  # rho_1 = 0


def test_nag_stage_equals_per_unit_recurrence_bit_for_bit():
    # a record sees z only through qam_map, so its last bits are pinned here: read ungathered
    # when every unit is in the batch (m = C), gathered otherwise
    for seed, m in itertools.product(range(3), (1, 2, 4)):
        fabrics = [Fabric(partition(inst.H, inst.y, 4)) for inst in
                   (generate_instance(16, 4, C16, 9.0, seed, t) for t in range(3))]
        config = DetectorConfig(sampling_iterations=1, nag_iterations=3, batch_size=m, seed=seed)
        batches = np.array([_chain_batches(config, 4, t, 0)[0] for t in range(3)])
        step = np.array([[learning_rate(fab.clustered) * (4 / m)] for fab in fabrics])
        x0 = C16.points[np.random.default_rng(seed).integers(0, 16, (3, 4))]
        H = np.array([fab.clustered.H_blocks for fab in fabrics])
        y = np.array([fab.clustered.y_blocks for fab in fabrics])
        rho = momentum_schedule(3)
        z = nag_stage(x0, H, y, H.conj().swapaxes(-1, -2), step, batches, rho)
        for i, fab in enumerate(fabrics):
            ref, dz = x0[i], np.zeros(4, dtype=np.complex128)
            for k in range(3):
                p_k = ref + rho[k] * dz
                ref_new = p_k - step[i, 0] * fab.gradient_sum(p_k, batches[i, k])
                ref, dz = ref_new, ref_new - ref
            assert np.array_equal(z[i], ref), (seed, m, i)


def test_chain_batches_match_sequential_draws_and_prefix():
    # m = 1 draws its rows in one call and m = C draws nothing; both equal sorted choice draws
    for m in (1, 2, 8):
        config = DetectorConfig(sampling_iterations=5, nag_iterations=3, batch_size=m, seed=9)
        batches = _chain_batches(config, 8, 4, 1)
        rng_batch = rngmod.stream(9, rngmod.BATCH, 4, 1)
        drawn = [np.sort(rng_batch.choice(8, size=m, replace=False)) for _ in range(5 * 3)]
        assert np.array_equal(batches.reshape(-1, m), drawn), m
        shorter = _chain_batches(replace(config, sampling_iterations=2), 8, 4, 1)
        assert np.array_equal(shorter, batches[:2]), m
        assert _chain_batches(replace(config, sampling_iterations=0), 8, 4, 1).shape == (0, 3, m)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), trial=st.integers(0, 10 ** 6),
       sampler=st.integers(0, 3), n_units=st.integers(2, 16),
       s=st.integers(0, 6), n_g=st.integers(1, 4))
@example(seed=2 ** 64 - 1, trial=10 ** 6, sampler=3, n_units=16, s=6, n_g=4)
def test_single_unit_batches_equal_choice_draws_and_generator_state(seed, trial, sampler,
                                                                    n_units, s, n_g):
    stream, made = rngmod.stream, []

    def spy(*args):
        made.append(stream(*args))
        return made[-1]

    config = DetectorConfig(sampling_iterations=s, nag_iterations=n_g, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rngmod, "stream", spy)
        batches = _chain_batches(config, n_units, trial, sampler)
    reference = stream(seed, rngmod.BATCH, trial, sampler)
    rows = [reference.choice(n_units, size=1, replace=False) for _ in range(s * n_g)]
    assert batches.shape == (s, n_g, 1)
    assert np.array_equal(batches.reshape(-1, 1), np.array(rows).reshape(-1, 1))
    assert made[0].bit_generator.state == reference.bit_generator.state


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
            zk = _stage(x0, fabric, cfg, tau, _every_unit(cfg, 4))
            assert f(zk) <= f0 + 1e-6


def test_propose_candidate_properties():
    rng = np.random.default_rng(0)
    z = C16.points[rng.integers(0, 16, 6)]
    cand = propose_candidate(z[None], 1e-9, C16,
                             np.random.default_rng(1).standard_normal((1, 2, 6)))[0]
    assert np.array_equal(cand, z)  # vanishing step from an on-lattice point
    draws = np.random.default_rng(2)
    gamma = 0.05
    w = np.array([propose_candidate(np.zeros((1, 1), complex) + 100.0, gamma, C16,
                                    draws.standard_normal((1, 2, 1)))[0]
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
    assert np.all(res.f_cand >= 0.0)


def test_detect_zero_sampling_iterations_returns_x0():
    inst = generate_instance(16, 4, C16, 10.0, 9)
    config = DetectorConfig(sampling_iterations=0, batch_size=2, seed=3)
    res = _run(inst, config, 4)
    assert res.t.tolist() == [0]
    assert np.array_equal(res.x_hat, res.x[0])


def test_detect_trace_consistency():
    inst = generate_instance(16, 4, C16, 9.0, 10)
    config = DetectorConfig(sampling_iterations=10, batch_size=2, seed=4)
    res = _run(inst, config, 4)
    for x, f, alpha in zip(res.x, res.f, res.alpha):
        dense = 0.5 * np.sum(np.abs(inst.y - inst.H @ x) ** 2)
        assert abs(f - dense) <= 1e-9 * max(dense, 1.0)
        assert 0.0 <= alpha <= 1.0
    rejected = np.flatnonzero(~res.accepted)  # row 0 counts as accepted
    assert np.array_equal(res.f[rejected], res.f[rejected - 1])
    fs = res.f.tolist()
    assert res.f_hat == min(fs)
    first = fs.index(min(fs))
    assert np.array_equal(res.x_hat, res.x[first])
    assert float(trace_csv(res).splitlines()[-1].split(",")[5]) == min(fs)  # final f_best


@pytest.mark.parametrize("samplers,s", [(3, 4), (1, 0), (3, 0)])
def test_record_shapes_and_t_pattern(samplers, s):
    inst = generate_instance(16, 4, C16, 9.0, 14)
    config = DetectorConfig(sampling_iterations=s, batch_size=2, seed=8, samplers=samplers)
    res = _run(inst, config, 4)
    rows = 1 + samplers * s
    assert res.t.tolist() == [0] + list(range(1, s + 1)) * samplers
    assert res.x.shape == (rows, 4) and res.x.dtype == np.complex128
    for column, dtype in ((res.t, np.int64), (res.f, np.float64), (res.f_cand, np.float64),
                          (res.alpha, np.float64), (res.accepted, np.bool_)):
        assert column.shape == (rows,) and column.dtype == dtype
    assert res.accepted[0] and res.alpha[0] == 1.0 and res.f_cand[0] == res.f[0]
    assert np.array_equal(res.x_hat, res.x[res.decision()])
    assert res.decision(0) == 0


def test_decision_at_negative_s_raises():
    inst = generate_instance(16, 4, C16, 9.0, 14)
    res = _run(inst, DetectorConfig(sampling_iterations=3, batch_size=2, seed=8), 4)
    with pytest.raises(ConfigError, match="no decision at S = -1"):
        res.decision(-1)


def test_rejected_step_repeats_chain_previous_sample():
    # a wide walk from the truth: chains 1 and 2 reject at t = 1, and steps with t > 1 too
    inst = generate_instance(16, 4, C16, 9.0, 15)
    config = DetectorConfig(sampling_iterations=6, batch_size=2, walk_step=0.5, seed=9,
                            samplers=3)
    res = _run(inst, config, 4, x0=inst.x_true)
    previous = np.where(res.t <= 1, 0, np.arange(len(res.t)) - 1)  # each chain starts at row 0
    rejected = np.flatnonzero(~res.accepted)
    assert (res.t[rejected] == 1).sum() == 2 and (res.t[rejected] > 1).any()
    assert np.array_equal(res.f[rejected], res.f[previous[rejected]])
    assert np.array_equal(res.x[rejected], res.x[previous[rejected]])
    # the trace derives f_prev per chain: a rejected step's f_prev is its own f
    trace = [line.split(",") for line in trace_csv(res).splitlines()[1:]]
    assert [float(trace[r][1]) for r in rejected] == res.f[rejected].tolist()
    assert [float(row[1]) for row in trace] == res.f[previous].tolist()


def test_detect_deterministic():
    inst = generate_instance(16, 4, C16, 9.0, 11)
    config = DetectorConfig(sampling_iterations=8, batch_size=2, seed=5)
    ledger_a, ledger_b = MessageLedger(16, 4), MessageLedger(16, 4)
    a = _run(inst, config, 4, ledger=ledger_a)
    b = _run(inst, config, 4, ledger=ledger_b)
    assert np.array_equal(a.x_hat, b.x_hat)
    assert a.f.tolist() == b.f.tolist()
    assert ledger_a.bits() > 0
    assert ledger_a.to_csv() == ledger_b.to_csv()


def test_star_chain_bit_identical():
    for trial in range(10):
        inst = generate_instance(16, 4, C16, 8.0, 12, trial)
        star = DetectorConfig(sampling_iterations=5, batch_size=2, seed=6, topology="star")
        chain = DetectorConfig(sampling_iterations=5, batch_size=2, seed=6,
                               topology="daisy_chain")
        ra = _run(inst, star, 4, trial=trial)
        rb = _run(inst, chain, 4, trial=trial)
        assert np.array_equal(ra.x_hat, rb.x_hat)
        assert ra.f.tolist() == rb.f.tolist()


def test_full_batch_equals_centralized():
    for trial in range(20):
        inst = generate_instance(16, 4, C16, 8.0, 13, trial)
        config = DetectorConfig(sampling_iterations=5, batch_size=4, seed=7)
        mini = _run(inst, config, 4, trial=trial)
        cen = nag_mcmc_detect(inst, config, C16, clusters=4, trial=trial)
        assert np.array_equal(mini.x_hat, cen.x_hat)
        assert mini.f.tolist() == cen.f.tolist()


def test_parallel_samplers():
    inst = generate_instance(16, 4, C16, 9.0, 14)
    config = DetectorConfig(sampling_iterations=4, batch_size=2, seed=8, samplers=3)
    res = _run(inst, config, 4)
    assert res.t.tolist() == [0] + [1, 2, 3, 4] * 3  # chain 0, then chain 1, then chain 2
    assert res.f_hat == res.f.min()
    res2 = _run(inst, config, 4)
    assert np.array_equal(res.x_hat, res2.x_hat)


def _per_trial_detect(inst, config, fabric, const, trial, x0=None):
    """Reference sampler, one trial at a time: the per-unit ``Fabric`` kernels, each
    proposal's walk noise as two sequential ``standard_normal(U)`` draws, one ``mh_accept``
    per step, and no billing."""
    n_units, n_users = fabric.n_units, fabric.n_users
    tau = learning_rate(fabric.clustered, config.lr_mode)
    if x0 is None:
        rng_init = rngmod.stream(config.seed, rngmod.INIT_SAMPLE, trial)
        x0 = const.points[rng_init.integers(0, const.order, size=n_users)]
    f0 = fabric.objective_sum(x0)
    rho = momentum_schedule(config.nag_iterations)
    step = tau * (n_units / config.batch_size)
    rows = [(x0, f0, f0, 1.0, True)]
    for sampler in range(config.samplers):
        batches = _chain_batches(config, n_units, trial, sampler)
        rng_walk = rngmod.stream(config.seed, rngmod.WALK, trial, sampler)
        rng_mh = rngmod.stream(config.seed, rngmod.MH, trial, sampler)
        x_prev, f_prev = x0, f0
        for t in range(config.sampling_iterations):
            z, dz = x_prev.astype(np.complex128), np.zeros(n_users, dtype=np.complex128)
            for k in range(config.nag_iterations):
                p_k = z + rho[k] * dz
                z_new = p_k - step * fabric.gradient_sum(p_k, batches[t, k])
                z, dz = z_new, z_new - z
            w = math.sqrt(0.5) * (rng_walk.standard_normal(n_users)
                                  + 1j * rng_walk.standard_normal(n_users))
            cand = qam_map(z + config.walk_step * w, const)
            f_cand = fabric.objective_sum(cand)
            accepted, alpha = mh_accept(f_cand, f_prev, rng_mh)
            if accepted:
                x_prev, f_prev = cand, f_cand
            rows.append((x_prev, f_prev, f_cand, alpha, accepted))
    t = np.array([0] + [*range(1, config.sampling_iterations + 1)] * config.samplers)
    return DetectionResult(t, *map(np.array, zip(*rows)), tau=tau)


@st.composite
def _block_case(draw):
    """A config, cluster count, constellation, distinct non-contiguous trial indices, and
    whether every trial starts from its transmitted vector."""
    c = draw(st.sampled_from([1, 2, 4]))
    config = DetectorConfig(
        sampling_iterations=draw(st.integers(0, 5)), nag_iterations=draw(st.integers(1, 3)),
        batch_size=draw(st.sampled_from([m for m in (1, 2, 4) if c % m == 0])),
        walk_step=draw(st.sampled_from([0.05, 0.3])),
        lr_mode=draw(st.sampled_from([DIAG_APPROX, EXACT_GRAM_FNORM])),
        samplers=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2 ** 32)),
        topology=draw(st.sampled_from([STAR, DAISY_CHAIN])))
    trials = draw(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=5, unique=True))
    n_ant = c * draw(st.integers(1, 4))
    return (config, c, draw(st.sampled_from([C4, C16])), trials, n_ant,
            draw(st.integers(1, min(n_ant, 8))), draw(st.sampled_from([0.0, 8.0, 20.0])),
            draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(case=_block_case())
def test_block_engine_matches_per_trial_detections(case):
    # the engine is the per-trial sampler run along a leading trial axis: every array of
    # every trial's record is bit-identical, for any trial order, and so is the T = 1 run
    # that mini_nag_mcmc_detect makes
    config, c, const, trials, n_ant, n_users, snr_db, from_truth = case
    insts = [generate_instance(n_ant, n_users, const, snr_db, config.seed, t) for t in trials]
    x0 = [inst.x_true for inst in insts] if from_truth else None
    block, batches = _detect_block([partition(inst.H, inst.y, c) for inst in insts], config,
                                   const, trials, x0)
    assert batches.shape == (len(trials), config.samplers, config.sampling_iterations,
                             config.nag_iterations, config.batch_size)
    for i, (inst, trial) in enumerate(zip(insts, trials)):
        fabric = Fabric(partition(inst.H, inst.y, c), Topology(config.topology, c))
        x0_i = None if x0 is None else x0[i]
        ref = _per_trial_detect(inst, config, fabric, const, trial, x0_i)
        runs = [block[i]] + ([_run(inst, config, c, const, trial, x0=x0_i)] if i == 0 else [])
        for run in runs:
            assert np.array_equal(run.t, ref.t)
            for name in ("x", "f", "f_cand", "alpha", "accepted", "tau"):
                assert np.array_equal(getattr(run, name), getattr(ref, name)), name
        assert np.array_equal(block.x[i, block.decision(2)[i]], ref.x[ref.decision(2)])


def test_config_topology_must_match_fabric():
    inst = generate_instance(16, 4, C16, 9.0, 27)
    config = DetectorConfig(sampling_iterations=3, batch_size=2, seed=9, topology="daisy_chain")
    star = Fabric(partition(inst.H, inst.y, 4))
    with pytest.raises(ConfigError, match="daisy_chain config on a star fabric"):
        mini_nag_mcmc_detect(inst, config, star, C16)
    # the centralized detector runs a daisy-chain config on its star fabric, as star m = C
    cen = nag_mcmc_detect(inst, config, C16, clusters=4, trial=2)
    mini = _run(inst, replace(config, batch_size=4, topology="star"), 4, trial=2)
    assert np.array_equal(cen.x_hat, mini.x_hat)
    assert trace_csv(cen) == trace_csv(mini)


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
    for walk_step in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            DetectorConfig(sampling_iterations=1, walk_step=walk_step)
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


@pytest.mark.parametrize("snr_db", [-10.0, -5.0, 0.0, 4.0, 10.0, 20.0])
def test_ml_four_qam_eight_users_matches_dense_reference(snr_db):
    for seed in range(2):
        inst = generate_instance(10, 8, C4, snr_db, 23 + seed)  # 4^8 = 65,536 rows
        got = ml_brute_force(inst, C4)
        assert _lex_index(got, C4) == _lex_index(_dense_ml(inst, C4), C4)


@pytest.mark.parametrize("snr_db", [2.0, 12.0])
def test_ml_objective_lowest_at_fig4_scale(snr_db):
    def objective(inst, x):
        return 0.5 * float(np.sum(np.abs(inst.y - inst.H @ x) ** 2))

    config = DetectorConfig(sampling_iterations=16, batch_size=4, seed=24)
    for trial in range(6):
        inst = generate_instance(32, 8, C16, snr_db, 24, trial)
        others = [_run(inst, config, 8, trial=trial).x_hat,
                  nag_mcmc_detect(inst, config, C16, clusters=8, trial=trial).x_hat,
                  lmmse_detect(inst, C16)]
        f_ml = objective(inst, ml_brute_force(inst, C16))
        assert all(f_ml <= objective(inst, x) * (1.0 + 1e-12) for x in others)


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
    lines = trace_csv(res).strip().splitlines()
    assert lines[0] == "t,f_prev,f_cand,alpha,accepted,f_best"
    assert len(lines) == 1 + len(res.t)
    cols = lines[2].split(",")
    assert len(cols) == 6 and cols[4] in ("0", "1")
