"""Fabric collectives, ledger accounting, topology routing, locality."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbpdet.channel import generate_instance, generate_rayleigh, partition
from dbpdet.detectors import DetectorConfig, _chain_batches, mini_nag_mcmc_detect
from dbpdet.errors import ConfigError
from dbpdet.fabric import (DOWN, REAL, SCALAR, SYMBOL, UP, Fabric, MessageLedger,
                           OpCounters, Topology, batch_hessian, batch_hessian_norm,
                           centralized_transfer, predicted_bandwidth)
from dbpdet.modem import build_constellation


def _fabric(n_ant=8, n_users=3, n_clusters=4, seed=13, kind="star", ledger=None,
            counters=None):
    const = build_constellation(16)
    inst = generate_instance(n_ant, n_users, const, snr_db=10.0, master_seed=seed)
    clustered = partition(inst.H, inst.y, n_clusters)
    return inst, Fabric(clustered, Topology(kind, n_clusters), ledger=ledger, counters=counters)


def test_topology_links():
    star = Topology("star", 3)
    assert star.links() == ["cu-du1", "cu-du2", "cu-du3"]
    assert star.cu_links() == star.links()
    chain = Topology("daisy_chain", 3)
    assert chain.links() == ["du1-du2", "du2-du3", "du3-cu"]
    assert chain.cu_links() == ["du3-cu"]
    with pytest.raises(ConfigError):
        Topology("ring", 3)


def test_topology_routing():
    chain = Topology("daisy_chain", 4)
    # reaching du2 and du4, in either direction, means every link from du2 up to the CU
    assert chain.upload_links([3, 1]) == ["du2-du3", "du3-du4", "du4-cu"]
    assert chain.upload_links([3]) == ["du4-cu"]
    star = Topology("star", 4)
    assert star.upload_links([2, 0]) == ["cu-du1", "cu-du3"]
    for topology in (chain, star):
        with pytest.raises(ConfigError):
            topology.upload_links([])


@pytest.mark.parametrize("kind", ["star", "daisy_chain"])
def test_link_lists_are_fresh_on_every_call(kind):
    # the names are built once per (kind, C); a caller that edits a returned list edits a copy
    topology = Topology(kind, 4)
    links, uploads = topology.links(), topology.upload_links([1, 3])
    before = (list(links), list(uploads))
    links[0] = "edited"
    links.append("extra")
    uploads.clear()
    assert (topology.links(), topology.upload_links([1, 3])) == before
    assert Topology(kind, 4).links() == before[0]


def test_ledger_widths_and_totals():
    ledger = MessageLedger(real_bits=16, symbol_bits=4)
    ledger.charge("cu-du1", UP, REAL, 6)
    ledger.charge("cu-du1", DOWN, SYMBOL, 8)
    ledger.charge("cu-du2", UP, SCALAR, 1)
    assert ledger.bits(link="cu-du1") == 6 * 16 + 8 * 4
    assert ledger.bits(payload_class=SCALAR) == 16
    assert ledger.bits() == 96 + 32 + 16
    with pytest.raises(ConfigError):
        ledger.charge("cu-du1", UP, REAL, -1)


def test_ledger_monotone():
    a = MessageLedger(16, 4)
    a.charge("x", UP, REAL, 2)
    before = a.bits()
    a.charge("x", UP, REAL, 3)
    assert a.bits() > before


def test_ledger_csv():
    ledger = MessageLedger(16, 4)
    ledger.charge("cu-du1", UP, REAL, 2)
    lines = ledger.to_csv().strip().splitlines()
    assert lines[0] == "link,direction,class,bits"
    assert lines[1] == "cu-du1,up,real,32"


def test_local_objective_and_gradient_worked_examples():
    H = np.vstack([np.eye(2), np.zeros((2, 2))]).astype(complex)
    y = np.array([1.0, -1.0, 0.0, 0.0], dtype=complex)
    fabric = Fabric(partition(H, y, 2))
    x0 = np.zeros(2, dtype=complex)
    assert fabric.local_objective(0, x0) == pytest.approx(1.0, abs=1e-15)
    g = fabric.local_gradient(0, x0)
    assert np.allclose(g, np.array([-1.0, 1.0]), atol=1e-15)
    with pytest.raises(ConfigError):
        fabric.local_objective(0, np.zeros(3, complex))


def test_objective_sum_matches_dense():
    inst, fabric = _fabric()
    const = build_constellation(16)
    x = const.points[np.random.default_rng(0).integers(0, 16, 3)]
    dense = 0.5 * np.sum(np.abs(inst.y - inst.H @ x) ** 2)
    assert abs(fabric.objective_sum(x) - dense) / dense < 1e-10


def test_gradient_sum_matches_dense_and_finite_differences():
    inst, fabric = _fabric()
    rng = np.random.default_rng(2)
    p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = fabric.gradient_sum(p, range(4))
    dense = -(inst.H.conj().T @ (inst.y - inst.H @ p))
    assert np.max(np.abs(g - dense)) < 1e-12
    # central differences along each real axis: df = Re(g_u) * 2eps / (2eps)
    eps = 1e-6
    f = lambda v: 0.5 * np.sum(np.abs(inst.y - inst.H @ v) ** 2)
    for u in range(3):
        e = np.zeros(3, complex)
        e[u] = eps
        fd_re = (f(p + e) - f(p - e)) / (2 * eps)
        fd_im = (f(p + 1j * e) - f(p - 1j * e)) / (2 * eps)
        assert fd_re == pytest.approx(g[u].real, rel=1e-6)
        assert fd_im == pytest.approx(g[u].imag, rel=1e-6)


def test_gram_diag_examples():
    H = np.eye(2, dtype=complex)
    fabric = Fabric(partition(H, np.zeros(2, complex), 1))
    assert np.allclose(fabric.local_gram_diag(0), np.ones(2), atol=0)
    rng = np.random.default_rng(3)
    H2 = generate_rayleigh(8, 4, rng)
    doubled = H2.copy()
    doubled[:, 1] *= 2.0
    f2 = Fabric(partition(doubled, np.zeros(8, complex), 2))
    base = np.sum(np.abs(H2[:4, 1]) ** 2)
    assert f2.local_gram_diag(0)[1] == pytest.approx(4 * base, rel=1e-12)
    total = f2.collect_gram_diag_sum()
    oracle = np.diag(doubled.conj().T @ doubled).real
    assert np.max(np.abs(total - oracle) / oracle) < 1e-10


def test_aggregate_single_du_star_charges_one_link():
    ledger = MessageLedger(real_bits=16, symbol_bits=4)
    inst, fabric = _fabric(ledger=ledger)
    fabric.charge_detection(np.array([[2]]), 1, 16)
    # the point goes down and the gradient comes up cu-du3 and no other link
    for direction in (UP, DOWN):
        assert ledger.bits(link="cu-du3", direction=direction, payload_class=REAL) == 2 * 3 * 16
        assert ledger.bits(direction=direction, payload_class=REAL) == 2 * 3 * 16
    # every link carries the Gram diagonal and one objective up, one symbol vector down
    for link in fabric.topology.links():
        assert ledger.bits(link=link, payload_class=SCALAR) == (3 + 1) * 16
        assert ledger.bits(link=link, payload_class=SYMBOL) == 3 * 4


def test_chain_aggregate_path_accumulation():
    ledger = MessageLedger(real_bits=16, symbol_bits=4)
    inst, fabric = _fabric(kind="daisy_chain", ledger=ledger)
    g = fabric.gradient_sum(np.zeros(3, complex), [0, 3])
    fabric.charge_detection(np.array([[0, 3], [0, 3]]), 1, 16)
    # contributors du1 and du4: every link between du1 and the CU carries
    # exactly one gradient-sized message per aggregation
    for link in ("du1-du2", "du2-du3", "du3-du4", "du4-cu"):
        assert ledger.bits(link=link, direction=UP, payload_class=REAL) == 2 * 2 * 3 * 16
    partial = np.zeros(3, complex)
    for c in (0, 3):
        Hc = inst.H[2 * c:2 * c + 2]
        partial += -(Hc.conj().T @ (inst.y[2 * c:2 * c + 2] - Hc @ np.zeros(3, complex)))
    assert np.max(np.abs(g - partial)) < 1e-15


def test_broadcast_charges():
    ledger = MessageLedger(real_bits=16, symbol_bits=4)
    inst, fabric = _fabric(ledger=ledger)
    fabric.broadcast_symbols(3)  # to all 4 DUs
    assert ledger.bits(payload_class=SYMBOL) == 4 * 3 * 4
    fabric.broadcast_reals(2 * 3, [1, 2])
    assert ledger.bits(payload_class=REAL, direction=DOWN) == 2 * 2 * 3 * 16

    chain_ledger = MessageLedger(real_bits=16, symbol_bits=4)
    _, chain = _fabric(kind="daisy_chain", ledger=chain_ledger)
    chain.broadcast_symbols(3)
    for link in chain.topology.links():
        assert chain_ledger.bits(link=link, payload_class=SYMBOL) == 3 * 4


def test_collectives_charge_nothing():
    ledger, counters = MessageLedger(real_bits=16, symbol_bits=4), OpCounters(4)
    inst, fabric = _fabric(kind="daisy_chain", ledger=ledger, counters=counters)
    fabric.gradient_sum(np.ones(3, complex), range(4))
    fabric.objective_sum(build_constellation(16).points[:3])
    fabric.collect_gram_diag_sum()
    assert ledger.to_csv() == "link,direction,class,bits\n"
    assert counters.du_totals().tolist() == [0, 0, 0, 0] and counters.cu_total() == 0


def test_charge_detection_counters():
    counters = OpCounters(4)
    inst, fabric = _fabric(n_ant=8, n_users=3, counters=counters)  # B_c = 2, U = 3
    fabric.charge_detection(np.array([[0, 2], [2, 3], [2, 3]]), 4, 16)
    assert counters.du["preprocessing"].tolist() == [2 * 2 * 3] * 4
    assert counters.du["gd"].tolist() == [8 * 2 * 3 * n for n in (1, 0, 3, 2)]
    assert counters.du["sampling"].tolist() == [4 * (4 * 2 * 3 + 2 * 2 + 1)] * 4
    # three aggregations and three sampling iterations at the CU, sqrt(M) = 4
    assert counters.cu == {"preprocessing": 3 + 2, "gd": 3 * 4 * 3,
                           "sampling": 3 * (4 * 3 + 2 * 4 * 3 + 2)}


def _row_billing(fabric, batches, n_objectives, mod_order):
    """Reference billing: the ledger charged once per distinct batch row, times its count."""
    u = fabric.n_users
    if fabric.ledger is not None:
        fabric.broadcast_symbols(n_objectives * u)
        for lk in fabric.topology.upload_links(range(fabric.n_units)):
            fabric.ledger.charge(lk, UP, SCALAR, u + n_objectives)
        for batch, count in Counter(map(tuple, batches.tolist())).items():
            fabric.broadcast_reals(2 * u * count, batch)
            for lk in fabric.topology.upload_links(batch):
                fabric.ledger.charge(lk, UP, REAL, 2 * u * count)
    if fabric.counters is not None:
        aggregations = np.bincount(batches.ravel(), minlength=fabric.n_units)
        b_c = fabric.clustered.block_rows
        for c in range(fabric.n_units):
            fabric.counters.add_du("preprocessing", c, 2 * b_c * u)
            fabric.counters.add_du("gd", c, 8 * b_c * u * int(aggregations[c]))
            fabric.counters.add_du("sampling", c, n_objectives * (4 * b_c * u + 2 * b_c + 1))
        sqrt_m = int(round(np.sqrt(mod_order)))
        fabric.counters.add_cu("preprocessing", u + 2)
        fabric.counters.add_cu("gd", 4 * u * len(batches))
        fabric.counters.add_cu("sampling", (4 * u + 2 * sqrt_m * u + 2) * (n_objectives - 1))


@st.composite
def _billing_case(draw):
    c = draw(st.sampled_from([1, 2, 4, 8]))
    config = DetectorConfig(
        sampling_iterations=draw(st.integers(0, 4)), nag_iterations=draw(st.integers(1, 3)),
        batch_size=draw(st.sampled_from([m for m in (1, 2, 4, 8) if c % m == 0])),
        samplers=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2 ** 32 - 1)))
    return (config, c, draw(st.sampled_from(["star", "daisy_chain"])),
            draw(st.integers(1, 4)), draw(st.sampled_from([4, 16])), draw(st.integers(0, 99)))


@settings(max_examples=100, deadline=None)
@given(case=_billing_case())
def test_count_billing_matches_row_billing(case):
    # a detection's batches as the sampler draws them, billed from per-unit counts and
    # from distinct rows: the same ledger and counters
    config, c, kind, n_users, mod_order, trial = case
    batches = np.concatenate([_chain_batches(config, c, trial, p)
                              for p in range(config.samplers)]).reshape(-1, config.batch_size)
    n_objectives = 1 + config.samplers * config.sampling_iterations
    billed = []
    for bill in (Fabric.charge_detection, _row_billing):
        ledger, counters = MessageLedger(real_bits=16, symbol_bits=4), OpCounters(c)
        _, fabric = _fabric(n_ant=2 * c, n_users=min(n_users, 2 * c), n_clusters=c,
                            kind=kind, ledger=ledger, counters=counters)
        bill(fabric, batches, n_objectives, mod_order)
        assert all(int(row.rsplit(",", 1)[1]) > 0 for row in ledger.to_csv().splitlines()[1:])
        billed.append((ledger.to_csv(), {ph: v.tolist() for ph, v in counters.du.items()},
                       counters.cu))
    assert billed[0] == billed[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_unit_outputs_depend_only_on_own_data(unit, seed):
    """Perturbing unit c's (H_c, y_c) changes unit c's outputs and no other's."""
    inst, fabric = _fabric()
    rng = np.random.default_rng(seed)
    H, y = inst.H.copy(), inst.y.copy()
    rows = slice(2 * unit, 2 * unit + 2)  # 8 antennas over 4 units
    H[rows] += 0.1 * (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    y[rows] += 0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    perturbed = Fabric(partition(H, y, 4))
    p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x = build_constellation(16).points[rng.integers(0, 16, 3)]
    for c in range(4):
        same_grad = np.array_equal(fabric.local_gradient(c, p), perturbed.local_gradient(c, p))
        same_obj = fabric.local_objective(c, x) == perturbed.local_objective(c, x)
        assert same_grad == same_obj == (c != unit)


def test_predicted_bandwidth_worked_values():
    assert predicted_bandwidth("centralized", n_ant=128, n_users=8,
                               real_bits=16) == 36_864
    assert predicted_bandwidth("mini_star", n_users=8, n_clusters=8, batch_size=2,
                               sampling_iterations=4, nag_iterations=16,
                               real_bits=16, mod_order=16) == 68_480
    assert predicted_bandwidth("mini_chain", n_users=8, sampling_iterations=4,
                               nag_iterations=16, real_bits=16, mod_order=16) == 33_136
    with pytest.raises(ConfigError):
        predicted_bandwidth("mini_star", n_users=8, sampling_iterations=4,
                            nag_iterations=4, mod_order=16)
    with pytest.raises(ConfigError):
        predicted_bandwidth("bogus", n_users=8)


def test_chain_cu_link_traffic_independent_of_cluster_count():
    results = {}
    for n_clusters in (4, 8):
        ledger = MessageLedger(real_bits=16, symbol_bits=4)
        const = build_constellation(16)
        inst = generate_instance(16, 4, const, snr_db=10.0, master_seed=1)
        topo = Topology("daisy_chain", n_clusters)
        fabric = Fabric(partition(inst.H, inst.y, n_clusters), topo, ledger=ledger)
        config = DetectorConfig(sampling_iterations=3, nag_iterations=2, batch_size=2,
                                seed=1, topology="daisy_chain")
        mini_nag_mcmc_detect(inst, config, fabric, const)
        cu_link = topo.cu_links()[0]
        results[n_clusters] = ledger.bits(link=cu_link, payload_class=REAL)
    assert results[4] == results[8]  # gradient-phase traffic does not grow with C


def test_centralized_transfer_charge():
    ledger = MessageLedger(real_bits=16, symbol_bits=4)
    centralized_transfer(ledger, 128, 8)
    assert ledger.bits() == predicted_bandwidth("centralized", n_ant=128, n_users=8,
                                                real_bits=16)


def test_batch_hessian_norm_matches_eigenvalue():
    inst, fabric = _fabric(n_ant=16, n_users=4, n_clusters=4)
    h = batch_hessian(fabric.clustered, [0, 2])
    lam = batch_hessian_norm(fabric.clustered, [0, 2])
    eigs = np.linalg.eigvalsh(h)
    assert lam == pytest.approx(eigs[-1], rel=1e-12)
    with pytest.raises(ConfigError):  # m = len(batch) = 0
        batch_hessian(fabric.clustered, [])


def test_op_counters_accumulate():
    counters = OpCounters(2)
    counters.add_du("gd", 0, 10)
    counters.add_du("gd", 1, 4)
    counters.add_cu("sampling", 7)
    assert counters.du_totals().tolist() == [10, 4]
    assert counters.cu_total() == 7
