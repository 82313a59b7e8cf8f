"""Rayleigh channel generation, SNR calibration, clustering, file ingest.

The received vector is y = H x + n with H having IID CN(0, 1/B) entries
(B antennas, so each user's column has unit expected norm), x drawn from
a unit-energy constellation, and n IID CN(0, sigma2).  With those
statistics E||Hx||^2 = U and E||n||^2 = B sigma2, so a target linear SNR
fixes sigma2 = U / (B * snr) in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, FileFormatError, NumericInputError
from .modem import Constellation


@dataclass(frozen=True)
class MimoInstance:
    """One uplink realization: y = H @ x_true + n by construction."""

    H: np.ndarray          # (B, U) complex
    x_true: np.ndarray     # (U,) constellation symbols
    n: np.ndarray          # (B,) complex noise
    y: np.ndarray          # (B,) received
    sigma2: float          # noise variance per complex entry
    snr_linear: float

    @property
    def n_ant(self) -> int:
        return self.H.shape[0]

    @property
    def n_users(self) -> int:
        return self.H.shape[1]


@dataclass(frozen=True)
class ClusteredChannel:
    """Row-partition of (H, y) into equal per-unit views."""

    H_blocks: np.ndarray      # (C, B_c, U)
    y_blocks: np.ndarray      # (C, B_c)

    @property
    def n_clusters(self) -> int:
        return self.H_blocks.shape[0]

    @property
    def block_rows(self) -> int:
        return self.H_blocks.shape[1]

    @property
    def n_users(self) -> int:
        return self.H_blocks.shape[2]


def generate_rayleigh(n_ant: int, n_users: int, rng: np.random.Generator) -> np.ndarray:
    """IID CN(0, 1/n_ant) channel matrix (variance 1/(2 n_ant) per axis)."""
    if n_users < 1 or n_ant < n_users:
        raise ConfigError(f"need n_ant >= n_users >= 1, got {n_ant}x{n_users}")
    scale = np.sqrt(0.5 / n_ant)
    return scale * (
        rng.standard_normal((n_ant, n_users)) + 1j * rng.standard_normal((n_ant, n_users))
    )


def snr_linear_from_db(snr_db: float) -> float:
    """10^(snr_db / 10); a finite SNR too large for a float is noise-free, as +inf dB is."""
    try:
        return 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        return math.inf


def noise_variance_from_snr(snr_linear: float, n_ant: int, n_users: int) -> float:
    """sigma2 such that E||Hx||^2 / E||n||^2 equals the requested SNR."""
    if not snr_linear > 0:
        raise ConfigError(f"SNR must be positive, got {snr_linear}")
    return n_users / (n_ant * snr_linear)


def generate_instance(
    n_ant: int,
    n_users: int,
    constellation: Constellation,
    snr_db: float,
    master_seed: int,
    trial: int = 0,
) -> MimoInstance:
    """Draw one seeded instance.

    Channel, symbols, and (unit-variance) noise come from separate
    streams keyed by trial index, so sweeps over SNR reuse the same
    realizations with only the noise scale changing (common random
    numbers), and trials can be generated in any order or in parallel.
    """
    snr_linear = snr_linear_from_db(snr_db)
    H = generate_rayleigh(n_ant, n_users, rngmod.stream(master_seed, rngmod.CHANNEL, trial))
    sym_rng = rngmod.stream(master_seed, rngmod.SYMBOLS, trial)
    x_true = constellation.points[sym_rng.integers(0, constellation.order, size=n_users)]
    noise_rng = rngmod.stream(master_seed, rngmod.NOISE, trial)
    w = noise_rng.standard_normal(n_ant) + 1j * noise_rng.standard_normal(n_ant)
    sigma2 = noise_variance_from_snr(snr_linear, n_ant, n_users)
    n = np.sqrt(sigma2 / 2.0) * w
    y = H @ x_true + n
    return MimoInstance(H=H, x_true=x_true, n=n, y=y, sigma2=sigma2, snr_linear=snr_linear)


def partition(H: np.ndarray, y: np.ndarray, n_clusters: int) -> ClusteredChannel:
    """Split (H, y) into contiguous equal row blocks in antenna order."""
    H = np.asarray(H)
    y = np.asarray(y)
    n_ant, n_users = H.shape
    if n_clusters < 1 or n_ant % n_clusters != 0:
        raise ConfigError(f"cluster count {n_clusters} must divide antenna count {n_ant}")
    block = n_ant // n_clusters
    return ClusteredChannel(
        H_blocks=H.reshape(n_clusters, block, n_users).copy(),
        y_blocks=y.reshape(n_clusters, block).copy(),
    )


def save_channel_file(path, H: np.ndarray, y: np.ndarray | None = None) -> None:
    """Write the text channel format: header ``B U has_y``, ``re im`` rows."""
    H = np.asarray(H, dtype=np.complex128)
    n_ant, n_users = H.shape
    with open(path, "w") as fh:
        fh.write(f"{n_ant} {n_users} {1 if y is not None else 0}\n")
        for v in H.reshape(-1):
            fh.write(f"{v.real:.17g} {v.imag:.17g}\n")
        if y is not None:
            for v in np.asarray(y, dtype=np.complex128):
                fh.write(f"{v.real:.17g} {v.imag:.17g}\n")


def load_channel_file(path):
    """Read the text channel format; returns (H, y or None)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise FileFormatError("empty channel file")
    head = lines[0].split()
    if len(head) != 3:
        raise FileFormatError(f"malformed header {lines[0]!r}; expected 'B U has_y'")
    try:
        n_ant, n_users, has_y = (int(tok) for tok in head)
    except ValueError as exc:
        raise FileFormatError(f"non-integer header field in {lines[0]!r}") from exc
    if has_y not in (0, 1):
        raise FileFormatError(f"has_y must be 0 or 1, got {has_y}")
    if n_users < 1 or n_ant < n_users:
        raise ConfigError(f"need B >= U >= 1 in channel file, got {n_ant}x{n_users}")
    expected = n_ant * n_users + has_y * n_ant
    body = lines[1:]
    if len(body) != expected:
        raise FileFormatError(f"expected {expected} value lines, found {len(body)}")
    vals = np.empty(expected, dtype=np.complex128)
    for i, ln in enumerate(body):
        toks = ln.split()
        if len(toks) != 2:
            raise FileFormatError(f"line {i + 2}: expected 're im', got {ln!r}")
        try:
            vals[i] = complex(float(toks[0]), float(toks[1]))
        except ValueError as exc:
            raise FileFormatError(f"line {i + 2}: unparsable number in {ln!r}") from exc
    if not (np.all(np.isfinite(vals.real)) and np.all(np.isfinite(vals.imag))):
        raise NumericInputError("channel file contains non-finite values")
    H = vals[: n_ant * n_users].reshape(n_ant, n_users)
    y = vals[n_ant * n_users :] if has_y else None
    return H, y
