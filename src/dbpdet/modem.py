"""Square-QAM constellations, Gray bit mapping, and lattice quantization.

Constellations are Gray-coded square grids with unit average symbol
energy.  Per-axis levels are the odd integers +-1, +-3, ... divided by
the normalizer sqrt(2(M-1)/3).  The bit word of a symbol is the Gray
code of its in-phase level index followed by the Gray code of its
quadrature level index (I bits first, MSB first within each axis).

Quantization compares in the scaled domain (input times normalizer
against integer levels) so that exact midpoints tie reproducibly.  Tie
rule: the level with the smaller absolute value wins; at the origin the
positive level wins.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MappingError, NumericInputError

SUPPORTED_ORDERS = (4, 16, 64, 256)


def _gray(i: np.ndarray) -> np.ndarray:
    return i ^ (i >> 1)


@dataclass(frozen=True)
class Constellation:
    """Immutable M-QAM lattice with its Gray table.

    ``points`` is ordered by lexicographic symbol index
    ``i = i_I * sqrt(M) + i_Q`` with level indices ascending, which is
    the tie-break order used by the ML search.
    """

    order: int
    points: np.ndarray          # (M,) complex128, unit average energy
    bits_per_symbol: int
    levels: np.ndarray          # (sqrt(M),) ascending normalized levels
    normalizer: float           # sqrt(2(M-1)/3)
    axis_bits: int              # bits per axis = bits_per_symbol // 2
    axis_gray: np.ndarray       # gray code of ascending level index
    axis_ungray: np.ndarray     # inverse of axis_gray

    @property
    def levels_int(self) -> np.ndarray:
        """Unnormalized integer levels (-(L-1), ..., -1, 1, ..., L-1)."""
        return np.arange(-(self.levels.size - 1), self.levels.size, 2)


def build_constellation(order: int) -> Constellation:
    """Build the normalized Gray-coded square QAM constellation."""
    if order not in SUPPORTED_ORDERS:
        raise ConfigError(f"unsupported QAM order {order}; expected one of {SUPPORTED_ORDERS}")
    n_axis = int(round(np.sqrt(order)))
    bits_per_symbol = int(np.log2(order))
    normalizer = float(np.sqrt(2.0 * (order - 1) / 3.0))
    levels_int = np.arange(-(n_axis - 1), n_axis, 2)
    levels = levels_int / normalizer
    idx = np.arange(n_axis)
    points = (levels[:, None] + 1j * levels[None, :]).reshape(-1)
    gray = _gray(idx)
    ungray = np.empty(n_axis, dtype=np.int64)
    ungray[gray] = idx
    return Constellation(
        order=order,
        points=points,
        bits_per_symbol=bits_per_symbol,
        levels=levels,
        normalizer=normalizer,
        axis_bits=bits_per_symbol // 2,
        axis_gray=gray,
        axis_ungray=ungray,
    )


@functools.lru_cache(maxsize=len(SUPPORTED_ORDERS))
def _scan_table(n_axis: int):
    """Integer levels in tie-break scan order and their ascending level indices.

    Levels are scanned in order of increasing absolute value (positive
    before negative), so argmin's first-hit rule implements the
    documented tie-break.  Cached per axis size, read-only.
    """
    levels = np.arange(-(n_axis - 1), n_axis, 2)
    cand = levels[np.lexsort((levels < 0, np.abs(levels)))]
    index = (cand + n_axis - 1) // 2
    cand.flags.writeable = index.flags.writeable = False
    return cand, index


def _axis_quantize(u: np.ndarray, n_axis: int) -> np.ndarray:
    """Nearest integer-level index for scaled coordinates ``u``."""
    cand, index = _scan_table(n_axis)
    return index[np.argmin(np.abs(u[..., None] - cand), axis=-1)]


def qam_map(z: np.ndarray, c: Constellation) -> np.ndarray:
    """Map each element of ``z`` to its nearest constellation point."""
    z = np.asarray(z, dtype=np.complex128)
    if not np.isfinite(z).all():
        raise NumericInputError("qam_map input contains non-finite values")
    n_axis = c.levels.size
    i_re, i_im = _axis_quantize(np.stack((z.real, z.imag)) * c.normalizer, n_axis)
    return c.points[i_re * n_axis + i_im]


def _symbol_axis_indices(x: np.ndarray, c: Constellation, tol: float = 1e-9):
    x = np.asarray(x, dtype=np.complex128)
    i_re = np.argmin(np.abs(x.real[..., None] - c.levels), axis=-1)
    i_im = np.argmin(np.abs(x.imag[..., None] - c.levels), axis=-1)
    err = np.hypot(x.real - c.levels[i_re], x.imag - c.levels[i_im])
    if np.any(err > tol):
        raise MappingError("symbol vector contains off-lattice elements")
    return i_re, i_im


def symbol_indices(x: np.ndarray, c: Constellation) -> np.ndarray:
    """Lexicographic point index of each (on-lattice) symbol."""
    i_re, i_im = _symbol_axis_indices(x, c)
    return i_re * c.levels.size + i_im


def _axis_bits(level_idx: np.ndarray, c: Constellation) -> np.ndarray:
    code = c.axis_gray[level_idx]
    shifts = np.arange(c.axis_bits - 1, -1, -1)
    return ((code[..., None] >> shifts) & 1).astype(np.uint8)


def symbols_to_bits(x: np.ndarray, c: Constellation) -> np.ndarray:
    """Gray-demap a symbol vector to its bit vector (I bits, then Q bits)."""
    i_re, i_im = _symbol_axis_indices(x, c)
    bits = np.concatenate([_axis_bits(i_re, c), _axis_bits(i_im, c)], axis=-1)
    return bits.reshape(-1)


def bits_to_symbols(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """Inverse of :func:`symbols_to_bits`."""
    bits = np.asarray(bits)
    if bits.size % c.bits_per_symbol != 0:
        raise MappingError(f"bit count {bits.size} not a multiple of {c.bits_per_symbol}")
    if bits.size and not np.all((bits == 0) | (bits == 1)):
        raise MappingError("bits must be 0/1")
    words = bits.reshape(-1, c.bits_per_symbol).astype(np.int64)
    weights = 1 << np.arange(c.axis_bits - 1, -1, -1)
    code_re = words[:, : c.axis_bits] @ weights
    code_im = words[:, c.axis_bits :] @ weights
    return c.levels[c.axis_ungray[code_re]] + 1j * c.levels[c.axis_ungray[code_im]]


def gray_table_csv(c: Constellation) -> str:
    """Per-axis table of ``level,bits``, one row per ascending level."""
    lines = ["level,bits"]
    for i, lvl in enumerate(c.levels):
        word = format(int(c.axis_gray[i]), f"0{c.axis_bits}b")
        lines.append(f"{lvl:.17g},{word}")
    return "\n".join(lines) + "\n"


def constellation_csv(c: Constellation) -> str:
    """Full point table ``index,re,im,bits``."""
    lines = ["index,re,im,bits"]
    for k, p in enumerate(c.points):
        i_re, i_im = divmod(k, c.levels.size)
        word = format(int(c.axis_gray[i_re]), f"0{c.axis_bits}b") + format(
            int(c.axis_gray[i_im]), f"0{c.axis_bits}b"
        )
        lines.append(f"{k},{p.real:.17g},{p.imag:.17g},{word}")
    return "\n".join(lines) + "\n"
