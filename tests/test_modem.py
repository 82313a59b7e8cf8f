"""Constellation construction, Gray mapping, and lattice quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbpdet.errors import ConfigError, MappingError, NumericInputError
from dbpdet.modem import (SUPPORTED_ORDERS, _axis_quantize, bits_to_symbols,
                          build_constellation, constellation_csv, gray_table_csv,
                          qam_map, symbol_indices, symbols_to_bits)

S10 = np.sqrt(10.0)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_unit_average_energy(order):
    c = build_constellation(order)
    assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12
    assert len(c.points) == order
    assert c.bits_per_symbol == int(np.log2(order))


def test_normalizers():
    assert build_constellation(4).normalizer == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert build_constellation(16).normalizer == pytest.approx(S10, abs=1e-15)
    assert build_constellation(64).normalizer == pytest.approx(np.sqrt(42.0), abs=1e-15)


def test_four_qam_points():
    c = build_constellation(4)
    expected = {(s * 1 + 1j * t) / np.sqrt(2) for s in (-1, 1) for t in (-1, 1)}
    assert {complex(p) for p in c.points} == expected


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_gray_adjacent_levels_differ_in_one_bit(order):
    c = build_constellation(order)
    codes = c.axis_gray
    for a, b in zip(codes, codes[1:]):
        assert bin(int(a) ^ int(b)).count("1") == 1


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_grid_symmetry(order):
    c = build_constellation(order)
    assert np.allclose(sorted(c.levels), sorted(-c.levels), atol=0)
    assert len(c.levels) ** 2 == order


def test_qam_map_fixed_points():
    for order in SUPPORTED_ORDERS:
        c = build_constellation(order)
        assert np.array_equal(qam_map(c.points, c), c.points)


def test_qam_map_example_nearest():
    c = build_constellation(16)
    out = qam_map(np.array([0.9 + 0.9j]), c)
    assert out[0] == pytest.approx((3 + 3j) / S10, abs=1e-12)


def test_qam_map_tie_prefers_smaller_level():
    c = build_constellation(16)
    # exact per-axis midpoint between 1/sqrt(10) and 3/sqrt(10)
    out = qam_map(np.array([(2 + 2j) / S10]), c)
    assert out[0] == (c.levels[2] + 1j * c.levels[2])  # +1/sqrt(10) per axis
    # negative midpoint prefers -1 over -3
    out = qam_map(np.array([(-2 - 2j) / S10]), c)
    assert out[0] == (c.levels[1] + 1j * c.levels[1])
    # the origin tie resolves to the positive level
    out = qam_map(np.array([0.0 + 0.0j]), c)
    assert out[0] == (c.levels[2] + 1j * c.levels[2])


def test_qam_map_rejects_non_finite():
    c = build_constellation(16)
    with pytest.raises(NumericInputError):
        qam_map(np.array([np.nan + 0j]), c)
    with pytest.raises(NumericInputError):
        qam_map(np.array([np.inf * 1j]), c)


def _scan_quantize(u, n_axis):
    """Reference: build the tie-ordered level list on every call and scan it."""
    levels = np.arange(-(n_axis - 1), n_axis, 2)
    cand = levels[np.lexsort((levels < 0, np.abs(levels)))]
    chosen = cand[np.argmin(np.abs(u[..., None] - cand), axis=-1)]
    return (chosen + n_axis - 1) // 2


def _scan_qam_map(z, c):
    n_axis = c.levels.size
    i_re = _scan_quantize(z.real * c.normalizer, n_axis)
    i_im = _scan_quantize(z.imag * c.normalizer, n_axis)
    return c.levels[i_re] + 1j * c.levels[i_im]


def _exactly_scaled(k, normalizer):
    """A float z with z * normalizer == k exactly, if one is next to k / normalizer."""
    z = k / normalizer
    for _ in range(4):
        if z * normalizer == k:
            return z
        z = np.nextafter(z, np.inf if z * normalizer < k else -np.inf)
    return None


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_qam_map_matches_scan_reference(order):
    c = build_constellation(order)
    n_axis = c.levels.size
    # every exact midpoint between integer levels, 0, and points beyond the edges
    scaled = np.arange(-(n_axis + 2), n_axis + 3, dtype=float)
    assert np.array_equal(_axis_quantize(scaled, n_axis), _scan_quantize(scaled, n_axis))
    axis = [z for z in (_exactly_scaled(k, c.normalizer) for k in scaled) if z is not None]
    assert 0.0 in axis and len(axis) > n_axis
    axis = np.array(axis)
    grid = (axis[:, None] + 1j * axis[None, :]).reshape(-1)
    rng = np.random.default_rng(order)
    noise = 1.5 * (rng.standard_normal((50, 8)) + 1j * rng.standard_normal((50, 8)))
    for z in (grid, noise, noise[0], np.zeros(3, complex)):
        got = qam_map(z, c)
        assert got.shape == z.shape
        assert np.array_equal(got, _scan_qam_map(z, c))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=8))
def test_qam_map_idempotent_and_minimal(zs):
    c = build_constellation(16)
    z = np.array(zs, dtype=np.complex128)
    q = qam_map(z, c)
    assert np.array_equal(qam_map(q, c), q)
    # per-element distance no worse than any constellation point
    d_chosen = np.abs(q - z)
    d_all = np.abs(c.points[None, :] - z[:, None]).min(axis=1)
    assert np.all(d_chosen <= d_all + 1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), st.lists(st.integers(0, 1), min_size=8, max_size=40))
def test_bits_round_trip(order_idx, bits):
    c = build_constellation(SUPPORTED_ORDERS[order_idx])
    n = (len(bits) // c.bits_per_symbol) * c.bits_per_symbol
    if n == 0:
        return
    b = np.array(bits[:n], dtype=np.uint8)
    x = bits_to_symbols(b, c)
    assert np.array_equal(symbols_to_bits(x, c), b)
    assert x.size * c.bits_per_symbol == b.size


def test_all_zero_bits_map_to_documented_corner():
    c = build_constellation(4)
    x = bits_to_symbols(np.zeros(2, dtype=np.uint8), c)
    # Gray code 0 is the lowest level on each axis
    assert x[0] == (-1 - 1j) / np.sqrt(2)


def test_symbol_round_trip_identity():
    for order in SUPPORTED_ORDERS:
        c = build_constellation(order)
        rng = np.random.default_rng(order)
        x = c.points[rng.integers(0, order, size=32)]
        assert np.array_equal(bits_to_symbols(symbols_to_bits(x, c), c), x)


def test_off_lattice_symbol_rejected():
    c = build_constellation(16)
    with pytest.raises(MappingError):
        symbols_to_bits(np.array([0.5 + 0.5j]), c)
    with pytest.raises(MappingError):
        bits_to_symbols(np.array([0, 1, 2, 0]), c)
    with pytest.raises(MappingError):
        bits_to_symbols(np.array([0, 1, 0]), c)  # not a multiple of 4


def test_unsupported_order():
    with pytest.raises(ConfigError):
        build_constellation(8)
    with pytest.raises(ConfigError):
        build_constellation(32)


def test_symbol_indices_lexicographic():
    c = build_constellation(16)
    assert np.array_equal(symbol_indices(c.points, c), np.arange(16))


def test_gray_table_csv():
    c = build_constellation(16)
    lines = gray_table_csv(c).strip().splitlines()
    assert lines[0] == "level,bits"
    assert len(lines) == 5
    words = [int(ln.split(",")[1], 2) for ln in lines[1:]]
    for a, b in zip(words, words[1:]):
        assert bin(a ^ b).count("1") == 1
    levels = [float(ln.split(",")[0]) for ln in lines[1:]]
    assert levels == sorted(levels)


def test_constellation_csv():
    c = build_constellation(4)
    lines = constellation_csv(c).strip().splitlines()
    assert lines[0] == "index,re,im,bits"
    assert len(lines) == 5
