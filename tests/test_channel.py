"""Channel statistics, SNR calibration, clustering, file ingest."""

import numpy as np
import pytest

from dbpdet.channel import (generate_instance, generate_rayleigh, load_channel_file,
                            noise_variance_from_snr, partition, save_channel_file)
from dbpdet.errors import ConfigError, FileFormatError, NumericInputError
from dbpdet.fabric import Fabric
from dbpdet.modem import build_constellation


def test_rayleigh_entry_variance():
    rng = np.random.default_rng(0)
    n_ant = 100
    samples = np.concatenate(
        [np.abs(generate_rayleigh(n_ant, n_ant, rng)) ** 2 for _ in range(100)])
    # 1e6 entries: the law-of-large-numbers estimate sits well inside 1%
    assert abs(samples.mean() * n_ant - 1.0) < 0.01


def test_rayleigh_column_norm():
    rng = np.random.default_rng(1)
    norms = []
    for _ in range(200):
        H = generate_rayleigh(64, 8, rng)
        norms.extend(np.sum(np.abs(H) ** 2, axis=0))
    assert abs(np.mean(norms) - 1.0) < 0.01


def test_rayleigh_deterministic_by_seed():
    a = generate_rayleigh(8, 4, np.random.default_rng(42))
    b = generate_rayleigh(8, 4, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_rayleigh_dimension_check():
    with pytest.raises(ConfigError):
        generate_rayleigh(4, 8, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        generate_rayleigh(4, 0, np.random.default_rng(0))


def test_noise_variance_examples():
    assert noise_variance_from_snr(1.0, 128, 8) == pytest.approx(0.0625, abs=1e-15)
    assert noise_variance_from_snr(1.0, 8, 8) == pytest.approx(1.0, abs=1e-15)
    assert noise_variance_from_snr(1e12, 128, 8) < 1e-12
    with pytest.raises(ConfigError):
        noise_variance_from_snr(0.0, 128, 8)
    with pytest.raises(ConfigError):
        noise_variance_from_snr(-1.0, 128, 8)


def test_empirical_snr_calibration():
    # 1e5 instances of a 4x2 system at 7 dB: the realized expectation
    # ratio must match the requested SNR within 2%
    n, n_ant, n_users = 100_000, 4, 2
    snr = 10.0 ** (7.0 / 10.0)
    rng = np.random.default_rng(3)
    const = build_constellation(16)
    H = np.sqrt(0.5 / n_ant) * (rng.standard_normal((n, n_ant, n_users))
                                + 1j * rng.standard_normal((n, n_ant, n_users)))
    x = const.points[rng.integers(0, 16, size=(n, n_users))]
    sigma2 = noise_variance_from_snr(snr, n_ant, n_users)
    w = np.sqrt(sigma2 / 2.0) * (rng.standard_normal((n, n_ant))
                                 + 1j * rng.standard_normal((n, n_ant)))
    sig = np.einsum("nbu,nu->nb", H, x)
    ratio = np.sum(np.abs(sig) ** 2) / np.sum(np.abs(w) ** 2)
    assert abs(ratio / snr - 1.0) < 0.02


def test_generate_instance_identity_and_crn():
    const = build_constellation(16)
    inst = generate_instance(16, 4, const, snr_db=8.0, master_seed=5, trial=3)
    assert np.array_equal(inst.y, inst.H @ inst.x_true + inst.n)
    other_snr = generate_instance(16, 4, const, snr_db=14.0, master_seed=5, trial=3)
    # common random numbers: same channel and symbols, rescaled noise
    assert np.array_equal(inst.H, other_snr.H)
    assert np.array_equal(inst.x_true, other_snr.x_true)
    assert not np.array_equal(inst.n, other_snr.n)
    different_trial = generate_instance(16, 4, const, snr_db=8.0, master_seed=5, trial=4)
    assert not np.array_equal(inst.H, different_trial.H)


def test_partition_identity_and_degenerate():
    rng = np.random.default_rng(7)
    H = generate_rayleigh(8, 3, rng)
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    one = partition(H, y, 1)
    assert np.array_equal(one.H_blocks[0], H)
    assert np.array_equal(one.y_blocks[0], y)
    per_row = partition(H, y, 8)
    assert per_row.block_rows == 1
    assert np.array_equal(np.concatenate(per_row.H_blocks), H)


def test_partition_reconstruction_and_diag_additivity():
    rng = np.random.default_rng(9)
    H = generate_rayleigh(12, 4, rng)
    y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    clustered = partition(H, y, 4)
    assert np.array_equal(np.concatenate(clustered.H_blocks, axis=0), H)
    assert np.array_equal(np.concatenate(clustered.y_blocks), y)
    col_norms = np.sum(np.abs(H) ** 2, axis=0)
    fabric = Fabric(clustered)
    parts = [fabric.local_gram_diag(c) for c in range(4)]
    assert all(np.all(part >= 0) for part in parts)
    total = fabric.collect_gram_diag_sum()
    assert np.max(np.abs(total - col_norms) / col_norms) < 1e-10


def test_partition_requires_divisibility():
    rng = np.random.default_rng(0)
    H = generate_rayleigh(9, 3, rng)
    with pytest.raises(ConfigError):
        partition(H, np.zeros(9, complex), 2)


def test_channel_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    H = generate_rayleigh(6, 3, rng)
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    path = tmp_path / "chan.txt"
    save_channel_file(path, H, y)
    H2, y2 = load_channel_file(path)
    assert np.array_equal(H, H2)
    assert np.array_equal(y, y2)
    save_channel_file(path, H)
    H3, y3 = load_channel_file(path)
    assert np.array_equal(H, H3) and y3 is None


def test_channel_file_hand_written(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("2 2 0\n1 0\n0 -1\n0.5 0.25\n-2 3\n")
    H, y = load_channel_file(path)
    assert H.shape == (2, 2) and y is None
    assert H[0, 0] == 1 and H[0, 1] == -1j
    assert H[1, 0] == 0.5 + 0.25j and H[1, 1] == -2 + 3j


def test_channel_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 0\n1 0\n2 0\n")
    with pytest.raises(ConfigError):  # B < U
        load_channel_file(path)
    path.write_text("2 2\n1 0\n")
    with pytest.raises(FileFormatError):
        load_channel_file(path)
    path.write_text("2 1 0\n1 0\n")
    with pytest.raises(FileFormatError):  # missing value lines
        load_channel_file(path)
    path.write_text("2 1 0\n1 0\nnan 0\n")
    with pytest.raises(NumericInputError):
        load_channel_file(path)
    path.write_text("2 1 0\n1 0\nx 0\n")
    with pytest.raises(FileFormatError):
        load_channel_file(path)
