"""Exhaustive chain diagnostics on tiny instances."""

import math

import numpy as np
import pytest

from dbpdet.channel import generate_instance, partition
from dbpdet.diagnostics import (build_transition_matrix, detailed_balance_residual,
                                exact_mh_acceptance, lattice_states, log_proposal_row,
                                measured_hessian_norm, proposal_probability,
                                proposal_ratio, report_json, run_diagnostic_suite,
                                stationary_distribution, tempered_posterior,
                                tv_distance)
from dbpdet.errors import CapacityError, UsageError
from dbpdet.fabric import batch_hessian
from dbpdet.modem import build_constellation

C4 = build_constellation(4)


def _tiny(n_users=1, n_clusters=2, seed=1, snr_db=10.0):
    inst = generate_instance(4, n_users, C4, snr_db, seed)
    return inst, partition(inst.H, inst.y, n_clusters)


def test_posterior_normalized_and_positive():
    _, clustered = _tiny()
    states = lattice_states(C4, 1)
    pi = tempered_posterior(clustered, states)
    assert abs(pi.sum() - 1.0) < 1e-12
    assert np.all(pi > 0)


def test_proposal_rows_normalized():
    _, clustered = _tiny(n_users=2)
    states = lattice_states(C4, 2)
    for i in (0, 5, 15):
        for batch in ((0, 1), (0,)):
            row = np.exp(log_proposal_row(clustered, states[i], batch, 0.7, 0.05, states))
            assert abs(row.sum() - 1.0) < 1e-12


def test_proposal_probability_cases():
    inst, clustered = _tiny()
    states = lattice_states(C4, 1)
    total = sum(proposal_probability(clustered, states[0], states[j], (0, 1),
                                     0.7, 0.05, C4) for j in range(4))
    assert abs(total - 1.0) < 1e-12
    off = proposal_probability(clustered, states[0], np.array([0.3 + 0.2j]),
                               (0, 1), 0.7, 0.05, C4)
    assert off == 0.0
    # with a vanishing gradient step the self-move is the single largest entry
    noise_free_y = clustered.H_blocks.reshape(4, 1) @ states[2]
    nf = partition(clustered.H_blocks.reshape(4, 1), noise_free_y, 2)
    probs = [proposal_probability(nf, states[2], states[j], (0, 1), 0.7, 0.0, C4)
             for j in range(4)]
    assert np.argmax(probs) == 2


def test_proposal_ratio_identity_and_flagging():
    _, clustered = _tiny(n_users=1)
    states = lattice_states(C4, 1)
    r = proposal_ratio(clustered, states[1], states[1], (0, 1), 0.7, 0.05, C4)
    assert r == pytest.approx(1.0, abs=1e-15)


def test_exact_vs_implemented_acceptance_bound():
    # noise-free: gradient vanishes at the true symbol
    x_true = C4.points[np.array([2])]
    rng = np.random.default_rng(5)
    H = (rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))) / np.sqrt(8)
    clustered = partition(H, (H @ x_true), 2)
    states = lattice_states(C4, 1)
    tau = 1e-5
    for j in range(4):
        a_exact, a_impl = exact_mh_acceptance(clustered, x_true, states[j], (0, 1),
                                              0.05, tau, C4)
        ratio = proposal_ratio(clustered, x_true, states[j], (0, 1), 0.05, tau, C4)
        assert 0.0 <= a_exact <= 1.0 and 0.0 <= a_impl <= 1.0
        assert abs(a_exact - a_impl) <= abs(ratio - 1.0) + 1e-12


def test_two_point_toy_hand_check():
    # single antenna, unit channel: alpha reduces to exp(|y-x|^2 - |y-x'|^2)
    H = np.array([[1.0 + 0j]])
    y = np.array([0.2 + 0.1j])
    clustered = partition(H, y, 1)
    states = lattice_states(C4, 1)
    i, j = 0, 2
    _, a_impl = exact_mh_acceptance(clustered, states[i], states[j], (0,),
                                    0.7, 0.05, C4)
    expected = min(1.0, math.exp(abs(y[0] - states[i][0]) ** 2
                                 - abs(y[0] - states[j][0]) ** 2))
    assert a_impl == pytest.approx(expected, rel=1e-12)


def test_transition_matrix_properties():
    _, clustered = _tiny()
    diag = build_transition_matrix(clustered, C4, gamma=0.7, tau=0.03)
    n = diag.states.shape[0]
    assert diag.transition.shape == (n, n)
    assert np.abs(diag.transition.sum(axis=1) - 1.0).max() < 1e-10
    assert diag.transition.min() > 0.0
    assert np.abs(diag.transition_exact.sum(axis=1) - 1.0).max() < 1e-10
    assert detailed_balance_residual(diag.transition_exact, diag.pi) < 1e-10
    assert detailed_balance_residual(diag.transition, diag.pi) >= 0.0


def test_transition_matrix_batch_average():
    _, clustered = _tiny(n_users=1)
    diag = build_transition_matrix(clustered, C4, gamma=0.7, tau=0.03, batch_size=1)
    assert np.abs(diag.transition.sum(axis=1) - 1.0).max() < 1e-10
    assert diag.transition.min() > 0.0


def test_transition_matrix_capacity():
    inst = generate_instance(8, 8, C4, 10.0, 2)
    clustered = partition(inst.H, inst.y, 2)
    with pytest.raises(CapacityError):
        build_transition_matrix(clustered, C4, gamma=0.7)


def test_stationary_and_tv():
    _, clustered = _tiny()
    diag = build_transition_matrix(clustered, C4, gamma=0.7, tau=0.03)
    stat = stationary_distribution(diag.transition)
    assert abs(stat.sum() - 1.0) < 1e-12
    assert np.abs(stat @ diag.transition - stat).max() < 1e-12
    tv = tv_distance(stat, diag.pi)
    assert 0.0 <= tv <= 1.0
    # the exact kernel's stationary distribution is the posterior itself
    stat_exact = stationary_distribution(diag.transition_exact)
    assert tv_distance(stat_exact, diag.pi) < 1e-10


def test_flat_posterior_gives_uniform_stationary():
    H = np.full((4, 1), 0.5, dtype=np.complex128)
    clustered = partition(H, np.zeros(4, complex), 2)
    diag = build_transition_matrix(clustered, C4, gamma=0.7, tau=0.03)
    assert np.abs(diag.pi - 0.25).max() < 1e-14
    stat = stationary_distribution(diag.transition)
    assert tv_distance(stat, diag.pi) < 1e-10


def test_measured_hessian_matches_oracle():
    inst = generate_instance(16, 4, build_constellation(16), 10.0, 4)
    clustered = partition(inst.H, inst.y, 4)
    measured = measured_hessian_norm(clustered, (1, 3))
    oracle = float(np.linalg.norm(batch_hessian(clustered, (1, 3)), 2))
    assert abs(measured - oracle) / oracle < 1e-8


def test_suite_passes_and_fault_detected():
    report = run_diagnostic_suite()
    assert report["passed"]
    names = {c["name"] for c in report["checks"]}
    assert "stationary_tv_distance" in names
    assert "exact_mh_detailed_balance" in names
    tampered = run_diagnostic_suite(fault="acceptance")
    assert not tampered["passed"]
    failed = {c["name"] for c in tampered["checks"] if not c["passed"]}
    assert "exact_mh_detailed_balance" in failed


def test_suite_check_selection():
    report = run_diagnostic_suite(checks=["stationary_tv_distance"])
    assert len(report["checks"]) == 1
    with pytest.raises(UsageError):
        run_diagnostic_suite(checks=[])
    with pytest.raises(UsageError):
        run_diagnostic_suite(checks=["nonexistent_check"])
    with pytest.raises(UsageError):
        run_diagnostic_suite(fault="gradient")


def test_report_json_shape():
    report = run_diagnostic_suite(checks=["hessian_bound_matches_operator_norm"])
    text = report_json(report)
    assert '"name"' in text and '"passed"' in text and text.endswith("\n")
