"""Detectors: mini-batch NAG-MCMC, centralized NAG-MCMC, LMMSE, exact ML.

The sampler alternates a momentum-accelerated gradient descent stage on
the complex relaxation with a Metropolis-Hastings sampling stage on the
QAM lattice.  Gradients come from a randomly chosen mini-batch of units,
scaled by C/m so the estimate is unbiased; candidates are the quantized
random-walk perturbation of the descent output; acceptance uses
alpha = min{1, exp(2 f(x_prev) - 2 f(x_cand))} with the 1/2-norm
objective convention, and the reported decision is the stored sample
with the smallest objective (earliest on ties).

The centralized variant is the exact m = C special case: it performs the
same arithmetic (per-cluster gradients summed in ascending unit order)
but selects no batches and charges no ledger, so with shared walk and
acceptance streams its decisions are bit-identical to the mini-batch
sampler at m = C.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fabric as fb
from . import rng as rngmod
from .channel import MimoInstance, partition
from .errors import CapacityError, ConfigError, DegenerateChannelError, NumericInputError
from .fabric import Fabric, MessageLedger, OpCounters, Topology
from .modem import Constellation, build_constellation, qam_map

EXACT_GRAM_FNORM = "exact_gram_fnorm"
DIAG_APPROX = "diag_approx"


@dataclass(frozen=True)
class DetectorConfig:
    """Tunables of one sampler run.

    ``batch_size`` must divide the fabric's cluster count; the momentum
    schedule restarts fresh at every sampling iteration.
    """

    sampling_iterations: int
    nag_iterations: int = 4
    batch_size: int = 1
    walk_step: float = 0.05
    lr_mode: str = DIAG_APPROX
    samplers: int = 1
    seed: int = 0
    topology: str = fb.STAR

    def __post_init__(self):
        if self.sampling_iterations < 0:
            raise ConfigError("sampling_iterations must be >= 0")
        if self.nag_iterations < 1:
            raise ConfigError("nag_iterations must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not self.walk_step > 0:
            raise ConfigError("walk_step must be positive")
        if self.lr_mode not in (EXACT_GRAM_FNORM, DIAG_APPROX):
            raise ConfigError(f"unknown lr_mode {self.lr_mode!r}")
        if self.samplers < 1:
            raise ConfigError("samplers must be >= 1")
        if self.topology not in (fb.STAR, fb.DAISY_CHAIN):
            raise ConfigError(f"unknown topology {self.topology!r}")


@dataclass
class SampleRecord:
    """One chain step; ``x`` is the retained sample, ``f`` its objective."""

    t: int
    x: np.ndarray
    f: float
    f_prev: float
    f_cand: float
    alpha: float
    accepted: bool
    f_best: float
    sampler: int = 0


@dataclass
class DetectionResult:
    x_hat: np.ndarray
    f_hat: float
    records: list[SampleRecord]
    tau: float
    ledger: MessageLedger | None = None
    counters: OpCounters | None = None


def momentum_schedule(n_iterations: int) -> np.ndarray:
    """Momentum factors rho_1..rho_n from the mu recursion (rho_1 = 0)."""
    if n_iterations < 1:
        raise ConfigError("schedule needs at least one iteration")
    mu = 1.0
    rho = np.empty(n_iterations)
    for k in range(n_iterations):
        mu_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * mu * mu))
        rho[k] = (mu - 1.0) / mu_next
        mu = mu_next
    return rho


def learning_rate(clustered, mode: str = DIAG_APPROX) -> float:
    """Inverse Frobenius norm of the Gram matrix or of its diagonal.

    The diagonal mode uses only the per-unit column norms that the
    preprocessing upload provides; it never underestimates the exact
    mode's step because dropping off-diagonal entries can only shrink
    the Frobenius norm.
    """
    if mode == EXACT_GRAM_FNORM:
        n_units = clustered.n_clusters
        gram = fb.batch_hessian(clustered, range(n_units), n_units)
        return _inverse_norm(float(np.linalg.norm(gram, "fro")))
    if mode == DIAG_APPROX:
        return _diag_learning_rate(clustered.gram_diags.sum(axis=0))
    raise ConfigError(f"unknown lr_mode {mode!r}")


def _diag_learning_rate(diag_sum: np.ndarray) -> float:
    """Inverse Euclidean norm of the summed Gram diagonal."""
    return _inverse_norm(float(np.sqrt(np.sum(diag_sum * diag_sum))))


def _inverse_norm(norm: float) -> float:
    if norm == 0.0:
        raise DegenerateChannelError("all-zero channel has no usable learning rate")
    return 1.0 / norm


def mini_batch_gradient(p: np.ndarray, batch, fabric: Fabric, batch_size: int) -> np.ndarray:
    """(C/m)-scaled sum of the batch's local gradients (ledger charged)."""
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    return (fabric.n_units / batch_size) * fabric.gradient_sum(p, batch)


def propose_candidate(z: np.ndarray, walk_step: float, constellation: Constellation,
                      rng: np.random.Generator) -> np.ndarray:
    """Quantized random-walk step: Q(z + walk_step * w), w ~ CN(0, I)."""
    u = z.shape[0]
    w = math.sqrt(0.5) * (rng.standard_normal(u) + 1j * rng.standard_normal(u))
    return qam_map(z + walk_step * w, constellation)


def mh_accept(f_cand: float, f_prev: float, rng: np.random.Generator):
    """Metropolis-Hastings test; returns (accepted, alpha).

    The uniform draw happens on every call so the acceptance stream
    stays aligned across detector variants.
    """
    if not (math.isfinite(f_cand) and math.isfinite(f_prev)):
        raise NumericInputError("objective values must be finite")
    exponent = 2.0 * (f_prev - f_cand)
    alpha = 1.0 if exponent >= 0.0 else math.exp(exponent)
    nu = rng.uniform()
    return alpha >= nu, alpha


def nag_stage(x_prev: np.ndarray, config: DetectorConfig, fabric: Fabric, tau: float,
              rng_batch: np.random.Generator | None, rho: np.ndarray | None = None) -> np.ndarray:
    """Momentum-accelerated descent from x_prev; returns the final iterate.

    ``rng_batch=None`` runs full-batch (every unit contributes each
    iteration and no selection randomness is consumed).
    """
    if rho is None:
        rho = momentum_schedule(config.nag_iterations)
    n_units = fabric.n_units
    m = n_units if rng_batch is None else config.batch_size
    step = tau * (n_units / m)
    full = tuple(range(n_units))
    z = x_prev.astype(np.complex128)
    dz = np.zeros(fabric.n_users, dtype=np.complex128)
    counters = fabric.counters
    for k in range(config.nag_iterations):
        p_k = z + rho[k] * dz
        if rng_batch is None:
            batch = full
        else:
            batch = np.sort(rng_batch.choice(n_units, size=m, replace=False))
        fabric.broadcast_reals(2 * fabric.n_users, batch)
        g = fabric.gradient_sum(p_k, batch)
        z_new = p_k - step * g
        dz = z_new - z
        z = z_new
        if counters is not None:
            counters.add_cu("gd", 4 * fabric.n_users)
    return z


def _chain_rngs(seed: int, trial: int, sampler: int):
    return (
        rngmod.stream(seed, rngmod.BATCH, trial, sampler),
        rngmod.stream(seed, rngmod.WALK, trial, sampler),
        rngmod.stream(seed, rngmod.MH, trial, sampler),
    )


def _run_chain(fabric: Fabric, config: DetectorConfig, constellation: Constellation,
               tau: float, x0: np.ndarray, f0: float, rho: np.ndarray,
               rngs, full_batch: bool, sampler: int) -> list[SampleRecord]:
    rng_batch, rng_walk, rng_mh = rngs
    counters = fabric.counters
    n_users = fabric.n_users
    sqrt_m = int(round(math.sqrt(constellation.order)))
    x_prev, f_prev, f_best = x0, f0, f0
    records: list[SampleRecord] = []
    for t in range(1, config.sampling_iterations + 1):
        z = nag_stage(x_prev, config, fabric, tau,
                      None if full_batch else rng_batch, rho)
        cand = propose_candidate(z, config.walk_step, constellation, rng_walk)
        fabric.broadcast_symbols(n_users)
        f_cand = fabric.objective_sum(cand)
        f_before = f_prev
        accepted, alpha = mh_accept(f_cand, f_prev, rng_mh)
        if counters is not None:
            counters.add_cu("sampling", 2 * n_users + 2 * n_users + 2 * sqrt_m * n_users + 2)
        if accepted:
            x_prev, f_prev = cand, f_cand
        f_best = min(f_best, f_prev)
        records.append(SampleRecord(t=t, x=x_prev, f=f_prev, f_prev=f_before,
                                    f_cand=f_cand, alpha=alpha, accepted=accepted,
                                    f_best=f_best, sampler=sampler))
    return records


def _detect(instance: MimoInstance, config: DetectorConfig, fabric: Fabric,
            constellation: Constellation, trial: int, full_batch: bool,
            x0: np.ndarray | None) -> DetectionResult:
    n_units, n_users = fabric.n_units, fabric.n_users
    if instance.H.shape != (n_units * fabric.clustered.block_rows, n_users):
        raise ConfigError("fabric does not match the instance dimensions")
    if not full_batch:
        if config.batch_size > n_units or n_units % config.batch_size != 0:
            raise ConfigError(
                f"batch_size {config.batch_size} must divide cluster count {n_units}")

    # preprocessing: gram-diagonal upload, learning rate, initial sample
    diag_sum = fabric.collect_gram_diag_sum()
    if config.lr_mode == DIAG_APPROX:
        tau = _diag_learning_rate(diag_sum)
    else:
        tau = learning_rate(fabric.clustered, config.lr_mode)
    if fabric.counters is not None:
        fabric.counters.add_cu("preprocessing", n_users + 2)
    if x0 is None:
        rng_init = rngmod.stream(config.seed, rngmod.INIT_SAMPLE, trial)
        x0 = constellation.points[rng_init.integers(0, constellation.order, size=n_users)]
    else:
        x0 = np.asarray(x0, dtype=np.complex128)
    fabric.broadcast_symbols(n_users)
    f0 = fabric.objective_sum(x0)
    rho = momentum_schedule(config.nag_iterations)

    records = [SampleRecord(t=0, x=x0, f=f0, f_prev=f0, f_cand=f0, alpha=1.0,
                            accepted=True, f_best=f0, sampler=0)]
    for p in range(config.samplers):
        records.extend(_run_chain(fabric, config, constellation, tau, x0, f0, rho,
                                  _chain_rngs(config.seed, trial, p), full_batch, p))

    best = min(range(len(records)), key=lambda i: records[i].f)
    return DetectionResult(x_hat=records[best].x, f_hat=records[best].f, records=records,
                           tau=tau, ledger=fabric.ledger, counters=fabric.counters)


def mini_nag_mcmc_detect(instance: MimoInstance, config: DetectorConfig, fabric: Fabric,
                         constellation: Constellation, trial: int = 0,
                         x0: np.ndarray | None = None) -> DetectionResult:
    """Run the decentralized mini-batch sampler on a prepared fabric."""
    return _detect(instance, config, fabric, constellation, trial, full_batch=False, x0=x0)


def nag_mcmc_detect(instance: MimoInstance, config: DetectorConfig,
                    constellation: Constellation, clusters: int = 1, trial: int = 0,
                    x0: np.ndarray | None = None) -> DetectionResult:
    """Centralized full-gradient sampler (the exact m = C special case).

    ``clusters`` only fixes the gradient summation blocking; pass the
    mini-batch run's cluster count to reproduce its arithmetic exactly.
    No ledger is attached: the centralized scheme has no fabric to bill.
    """
    fabric = Fabric(partition(instance.H, instance.y, clusters),
                    Topology(fb.STAR, clusters))
    return _detect(instance, config, fabric, constellation, trial, full_batch=True, x0=x0)


def lmmse_estimate(instance: MimoInstance) -> np.ndarray:
    """Pre-quantization LMMSE estimate (H^H H + sigma2 I)^-1 H^H y."""
    H = instance.H
    gram = H.conj().T @ H + instance.sigma2 * np.eye(H.shape[1])
    try:
        return np.linalg.solve(gram, H.conj().T @ instance.y)
    except np.linalg.LinAlgError as exc:
        raise DegenerateChannelError("LMMSE solve failed on degenerate channel") from exc


def lmmse_detect(instance: MimoInstance, constellation: Constellation) -> np.ndarray:
    """LMMSE estimate quantized to the lattice."""
    return qam_map(lmmse_estimate(instance), constellation)


ML_CAP = 2 ** 20  # largest lattice ml_brute_force enumerates by default


def _lattice_indices(order: int, n_users: int) -> np.ndarray:
    """(order^U, U) symbol indices of every lattice vector, lexicographic order.

    U = 0 gives the single empty vector, shape (1, 0).
    """
    powers = order ** np.arange(n_users - 1, -1, -1)
    return np.arange(order ** n_users)[:, None] // powers % order


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=4)
def _candidate_matrix(order: int, n_users: int) -> np.ndarray:
    """Every lattice vector in lexicographic index order (cached, read-only)."""
    return _frozen(build_constellation(order).points[_lattice_indices(order, n_users)])


@functools.lru_cache(maxsize=4)
def _level_lattice(order: int, n_users: int) -> np.ndarray:
    """:func:`_candidate_matrix` in odd-integer levels (points times the normalizer)."""
    return _frozen(build_constellation(order).points_int[_lattice_indices(order, n_users)])


def _half_scores(half: np.ndarray, gram: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x^H G x - 2 Re(x^H w) for every row x of ``half``."""
    quad = np.einsum("nu,nu->n", half.conj(), half @ gram.T).real
    return quad - 2.0 * (half @ w.conj()).real


def ml_brute_force(instance: MimoInstance, constellation: Constellation,
                   cap: int = ML_CAP) -> np.ndarray:
    """Exact maximum-likelihood decision by split enumeration of the lattice.

    Candidates are ranked by the expanded metric x^H G x - 2 Re(x^H H^H y)
    (same argmin as ||y - Hx||^2), evaluated in odd-integer levels (the
    metric times normalizer^2) so that an integer-valued G with y = 0
    scores exactly.  The users split into a high half ``a`` (the first
    ceil(U/2)) and a low half ``b``.  Each half is scored once, and one
    real (M^|a|, 2 + 2|b|) @ (2 + 2|b|, M^|b|) product adds the two half
    scores to the cross term 2 Re(a^H G_ab b) for every pair, giving the
    order^U scores of x = [a; b] as a matrix whose flat index i M^|b| + j
    is the lexicographic symbol index: argmin's first hit gives ties to
    the smallest index.  Memory: that order^U float score matrix plus
    the cached half-lattices (M^|a| and M^|b| rows).  The cap is checked
    before anything is allocated.
    """
    n_users = instance.n_users
    order = constellation.order
    if order ** n_users > cap:
        raise CapacityError(f"{order}^{n_users} candidates exceed the cap {cap}")
    n_a = (n_users + 1) // 2
    a = _level_lattice(order, n_a)
    b = _level_lattice(order, n_users - n_a)
    gram = instance.H.conj().T @ instance.H
    w = constellation.normalizer * (instance.H.conj().T @ instance.y)
    p = a.conj() @ gram[:n_a, n_a:]  # row i: a_i^H G_ab
    # scores[i, j] = q_a[i] + q_b[j] + 2 Re(p_i b_j) as one real product
    left = np.column_stack([_half_scores(a, gram[:n_a, :n_a], w[:n_a]), np.ones(len(a)),
                            2.0 * p.real, -2.0 * p.imag])
    right = np.column_stack([np.ones(len(b)), _half_scores(b, gram[n_a:, n_a:], w[n_a:]),
                             b.real, b.imag])
    scores = left @ right.T
    digits = np.unravel_index(int(np.argmin(scores)), (order,) * n_users)
    return constellation.points[list(digits)]


def trace_csv(records: list[SampleRecord]) -> str:
    """Chain trace as ``t,f_prev,f_cand,alpha,accepted,f_best`` rows."""
    lines = ["t,f_prev,f_cand,alpha,accepted,f_best"]
    for r in records:
        lines.append(f"{r.t},{r.f_prev:.17g},{r.f_cand:.17g},{r.alpha:.17g},"
                     f"{int(r.accepted)},{r.f_best:.17g}")
    return "\n".join(lines) + "\n"
