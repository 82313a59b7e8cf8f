"""Detectors: mini-batch NAG-MCMC, centralized NAG-MCMC, LMMSE, exact ML.

The sampler alternates a momentum-accelerated gradient descent stage on
the complex relaxation with a Metropolis-Hastings sampling stage on the
QAM lattice.  Gradients come from a randomly chosen mini-batch of units,
scaled by C/m so the estimate is unbiased; candidates are the quantized
random-walk perturbation of the descent output; acceptance uses
alpha = min{1, exp(2 f(x_prev) - 2 f(x_cand))} with the 1/2-norm
objective convention, and the reported decision is the stored sample
with the smallest objective (earliest on ties).  One engine runs every
detection, stacked over a leading trial axis; a single detection is a
block of one trial.  The sampler keeps no accounting: each chain draws
its batches up front, and :meth:`Fabric.charge_detection` bills the
detection from them.

The centralized detector is the m = C run of the same sampler on the
star, billed nowhere: every unit is in every batch, so no batch is
drawn, and the walk and acceptance streams are shared, which makes its
decisions bit-identical to the mini-batch sampler at m = C by
construction.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import fabric as fb
from . import rng as rngmod
from .channel import ClusteredChannel, MimoInstance, partition
from .errors import CapacityError, ConfigError, DegenerateChannelError, NumericInputError
from .fabric import Fabric
from .modem import Constellation, qam_map

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
        if not 0 < self.walk_step < math.inf:
            raise ConfigError("walk_step must be positive and finite")
        if self.lr_mode not in (EXACT_GRAM_FNORM, DIAG_APPROX):
            raise ConfigError(f"unknown lr_mode {self.lr_mode!r}")
        if self.samplers < 1:
            raise ConfigError("samplers must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.topology not in (fb.STAR, fb.DAISY_CHAIN):
            raise ConfigError(f"unknown topology {self.topology!r}")

    def check_clusters(self, n_clusters: int) -> None:
        """Raise ConfigError unless ``batch_size`` divides ``n_clusters``."""
        if n_clusters % self.batch_size:
            raise ConfigError(f"batch_size {self.batch_size} must divide {n_clusters} clusters")

    def centralized(self, n_clusters: int) -> "DetectorConfig":
        """This config as the centralized sampler runs it: m = C on the star."""
        return replace(self, batch_size=n_clusters, topology=fb.STAR)


@dataclass
class DetectionResult:
    """One detection's run record: row 0 is the initial sample (t = 0), then chain 0's
    steps t = 1..S, chain 1's, and so on; ``x`` is the sample retained after the step.
    The sampler engine (:func:`_detect_block`) leads every array but ``t`` with a trial
    axis; ``decision(s)`` then gives each trial's row, and ``record[i]`` is trial i's record.
    """

    t: np.ndarray         # (R,) int
    x: np.ndarray         # ([T,] R, U) complex
    f: np.ndarray         # ([T,] R) float
    f_cand: np.ndarray    # ([T,] R) float
    alpha: np.ndarray     # ([T,] R) float
    accepted: np.ndarray  # ([T,] R) bool
    tau: float | np.ndarray

    def __getitem__(self, i: int) -> "DetectionResult":
        return DetectionResult(self.t, self.x[i], self.f[i], self.f_cand[i], self.alpha[i],
                               self.accepted[i], tau=float(self.tau[i]))

    def decision(self, s: float = math.inf):
        """The row of the best sample with t <= s, earliest on ties: the decision at S = s.

        The rows with t <= s are those of the same run stopped at S = s, in
        the same order, for any number of samplers.
        """
        if s < 0:
            raise ConfigError(f"no decision at S = {s}")
        return np.argmin(np.where(self.t <= s, self.f, np.inf), axis=-1)

    @property
    def x_hat(self) -> np.ndarray:
        return self.x[self.decision()]

    @property
    def f_hat(self) -> float:
        return float(self.f[self.decision()])


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


def learning_rate(clustered: ClusteredChannel, mode: str = DIAG_APPROX) -> float:
    """Inverse Frobenius norm of the Gram matrix or of its diagonal.

    The diagonal mode uses only the per-unit column norms that the
    preprocessing upload provides; it never underestimates the exact
    mode's step because dropping off-diagonal entries can only shrink
    the Frobenius norm.
    """
    if mode == EXACT_GRAM_FNORM:
        norm = float(np.linalg.norm(fb.batch_hessian(clustered, range(clustered.n_clusters)),
                                    "fro"))
    elif mode == DIAG_APPROX:
        diag_sum = Fabric(clustered).collect_gram_diag_sum()
        norm = float(np.sqrt(np.sum(diag_sum * diag_sum)))
    else:
        raise ConfigError(f"unknown lr_mode {mode!r}")
    if norm == 0.0:
        raise DegenerateChannelError("all-zero channel has no usable learning rate")
    return 1.0 / norm


def mini_batch_gradient(p: np.ndarray, batch, fabric: Fabric) -> np.ndarray:
    """(C/m)-scaled sum of the local gradients of the m units in ``batch``."""
    g = fabric.gradient_sum(p, batch)  # ConfigError on an empty batch
    return (fabric.n_units / len(batch)) * g


def propose_candidate(z: np.ndarray, walk_step: float, constellation: Constellation,
                      w: np.ndarray) -> np.ndarray:
    """Quantized random-walk step of each trial's row of z (T, U): Q(z + walk_step * w),
    w ~ CN(0, I) built from the pre-drawn real and imaginary normals ``w`` (T, 2, U)."""
    return qam_map(z + walk_step * (math.sqrt(0.5) * (w[:, 0] + 1j * w[:, 1])), constellation)


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


def nag_stage(x_prev: np.ndarray, H: np.ndarray, y: np.ndarray, adjoint: np.ndarray,
              step: np.ndarray, batches: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Momentum-accelerated descent from each trial's row of x_prev (T, U); returns the final
    iterates.

    Iteration k sums, in ascending unit order, the local gradients of the units in row k of
    each trial's ``batches`` (T, N_g, m), read from H (T, C, B_c, U), y (T, C, B_c) and the
    conj-swapaxes view ``adjoint`` of H; ``step`` (T, 1) is tau C/m and ``rho`` the momentum
    schedule.
    """
    trials = np.arange(len(x_prev))[:, None]
    full = batches.shape[-1] == H.shape[1]  # every unit in every row: no gather is needed
    z, dz = x_prev, np.zeros_like(x_prev)
    for rho_k, unit in zip(rho, batches.swapaxes(0, 1)):
        p_k = z + rho_k * dz
        at = np.s_[:] if full else (trials, unit)
        r = y[at] - (H[at] @ p_k[:, None, :, None])[..., 0]
        g = -(adjoint[at] @ r[..., None])[..., 0]  # gathers keep H_c.conj().T's layout
        z_new = p_k - step * functools.reduce(np.add, g.swapaxes(0, 1))
        z, dz = z_new, z_new - z
    return z


def _chain_batches(config: DetectorConfig, n_units: int, trial: int, sampler: int):
    """One chain's (S, N_g, m) sorted batches, in iteration order; none is drawn at m = C."""
    m = config.batch_size
    shape = (config.sampling_iterations, config.nag_iterations, m)
    if m == n_units:
        return np.broadcast_to(np.arange(n_units), shape)
    rng_batch = rngmod.stream(config.seed, rngmod.BATCH, trial, sampler)
    if m == 1:  # same draws and generator state as one choice(n_units, 1, replace=False) per row
        return rng_batch.integers(0, n_units, size=shape, dtype=np.intp)
    rows = [rng_batch.choice(n_units, size=m, replace=False) for _ in range(shape[0] * shape[1])]
    return np.sort(np.array(rows, dtype=np.intp).reshape(shape), axis=-1)


def mini_nag_mcmc_detect(instance: MimoInstance, config: DetectorConfig, fabric: Fabric,
                         constellation: Constellation, trial: int = 0,
                         x0: np.ndarray | None = None) -> DetectionResult:
    """Run the decentralized mini-batch sampler on a prepared fabric and bill it there."""
    if instance.H.shape != (fabric.n_units * fabric.clustered.block_rows, fabric.n_users):
        raise ConfigError("fabric does not match the instance dimensions")
    if config.topology != fabric.topology.kind:
        raise ConfigError(f"{config.topology} config on a {fabric.topology.kind} fabric")
    result, batches = _detect_block([fabric.clustered], config, constellation, [trial],
                                    None if x0 is None else [x0])
    fabric.charge_detection(batches.reshape(-1, config.batch_size), len(result.t),
                            constellation.order)
    return result[0]


def nag_mcmc_detect(instance: MimoInstance, config: DetectorConfig,
                    constellation: Constellation, clusters: int = 1, trial: int = 0,
                    x0: np.ndarray | None = None) -> DetectionResult:
    """Centralized full-gradient sampler: the m = C run of the mini-batch sampler.

    ``clusters`` only fixes the gradient summation blocking; pass the
    mini-batch run's cluster count to reproduce its arithmetic exactly.
    ``config.batch_size`` is replaced by ``clusters`` and ``config.topology``
    by the star.  No ledger is attached: the centralized scheme has no
    fabric to bill.
    """
    return _detect_block([partition(instance.H, instance.y, clusters)],
                         config.centralized(clusters), constellation, [trial],
                         None if x0 is None else [x0])[0][0]


def _block_objective(H: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each trial's :meth:`Fabric.objective_sum` of its row of x (r^H r adds as np.vdot)."""
    r = y - (H @ x[:, None, :, None])[..., 0]
    terms = 0.5 * (r.conj()[..., None, :] @ r[..., None])[..., 0, 0].real
    return functools.reduce(np.add, terms.T)


def _detect_block(channels, config: DetectorConfig, constellation: Constellation, trials,
                  x0=None):
    """The sampler on every trial's clustered channel at once, ``channels[i]`` for ``trials[i]``.

    Returns a record with a leading trial axis and the (T, samplers, S, N_g, m) batches it
    drew; nothing is billed.  Each trial has its own learning rate, x0 (drawn unless given
    as x0[i]), batches, walk noise and MH tests; the NAG stage, the proposal and the objective
    run stacked over (T, C, B_c, U).  No trial's record depends on another's.
    """
    H = np.array([clustered.H_blocks for clustered in channels])
    y = np.array([clustered.y_blocks for clustered in channels])
    n_clusters, n_iter, chains = H.shape[1], config.sampling_iterations, range(config.samplers)
    config.check_clusters(n_clusters)

    def prepare(i, trial):
        rng_init = rngmod.stream(config.seed, rngmod.INIT_SAMPLE, trial)
        return (learning_rate(channels[i], config.lr_mode),
                constellation.points[rng_init.integers(0, constellation.order, size=H.shape[3])]
                if x0 is None else np.asarray(x0[i], dtype=np.complex128),
                [_chain_batches(config, n_clusters, trial, p) for p in chains],
                [rngmod.stream(config.seed, rngmod.WALK, trial, p)
                 .standard_normal((n_iter, 2, H.shape[3])) for p in chains],
                [rngmod.stream(config.seed, rngmod.MH, trial, p) for p in chains])

    tau, x_init, batches, w, rng_mh = map(np.array, zip(*(
        prepare(i, trial) for i, trial in enumerate(trials))))
    adjoint = H.conj().swapaxes(-1, -2)
    step = (tau * (n_clusters / config.batch_size))[:, None]
    rho = momentum_schedule(config.nag_iterations)
    t = np.array([0] + [*range(1, n_iter + 1)] * config.samplers)
    x = np.repeat(x_init[:, None], len(t), axis=1)  # row 0 of the record: the initial sample
    f, f_cand, alpha = np.ones((3, len(trials), len(t)))
    accepted = np.ones((len(trials), len(t)), dtype=bool)
    f[:, 0] = f_cand[:, 0] = _block_objective(H, y, x_init)
    for p in chains:
        x_prev, f_prev = x_init, f[:, 0]
        for s in range(n_iter):
            row = 1 + p * n_iter + s
            z = nag_stage(x_prev, H, y, adjoint, step, batches[:, p, s], rho)
            cand = propose_candidate(z, config.walk_step, constellation, w[:, p, s])
            f_cand[:, row] = _block_objective(H, y, cand)
            for i, rng in enumerate(rng_mh[:, p]):
                accepted[i, row], alpha[i, row] = mh_accept(f_cand[i, row], f_prev[i], rng)
            x[:, row] = x_prev = np.where(accepted[:, row, None], cand, x_prev)
            f[:, row] = f_prev = np.where(accepted[:, row], f_cand[:, row], f_prev)
    return DetectionResult(t, x, f, f_cand, alpha, accepted, tau=tau), batches


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


ML_NODES = 10 ** 6  # search nodes one ml_brute_force call may visit
_ML_SLACK = 1e-9    # relative and absolute slack of the float search radius


def ml_brute_force(instance: MimoInstance, constellation: Constellation) -> np.ndarray:
    """Exact maximum-likelihood decision by Schnorr-Euchner sphere decoding.

    The search runs on the real QR form of ||y - Hx||^2 in odd-integer
    levels (the metric times normalizer^2), with the dimensions ordered
    (Re x_0, Im x_0, Re x_1, ...) so that level-index order is
    lexicographic symbol order.  2U zero rows stacked under the real
    channel keep R square when H is wide and change no distance.  The
    search is depth first from an infinite radius and tries the children
    of level k nearest first by (e_k - r_kk l)^2, with
    e_k = z_k - sum_{i>k} r_ki s_i, so the first leaf is the Babai point
    and a zero r_kk just means equal steps.  A float QR cannot decide
    exact ties: the radius keeps a slack of ``_ML_SLACK`` and every leaf
    inside it is rescored with the expanded metric x^H G x - 2 Re(x^H w),
    w = normalizer H^H y (exact for an integer-valued G with y = 0).
    Among the minima the smallest lexicographic index wins.  The cost
    depends on the SNR and the channel, not on the lattice size; past
    ``ML_NODES`` visited nodes the search raises CapacityError.
    """
    H = instance.H
    n_ant, n = H.shape[0], 2 * instance.n_users
    real = np.zeros((2 * n_ant + n, n))
    real[:n_ant, 0::2] = H.real
    real[:n_ant, 1::2] = -H.imag
    real[n_ant:2 * n_ant, 0::2] = H.imag
    real[n_ant:2 * n_ant, 1::2] = H.real
    q, r = np.linalg.qr(real)
    target = constellation.normalizer * np.concatenate([instance.y.real, instance.y.imag])
    z = (q[:2 * n_ant].T @ target).tolist()
    r = r.tolist()
    levels = constellation.levels_int.tolist()
    s, picks, dist = [0] * n, [0] * n, [0.0] * (n + 1)  # level, its index, partial distance

    def nearest_first(k):
        e = z[k] - sum(r[k][i] * s[i] for i in range(k + 1, n))
        return iter(sorted(((e - r[k][k] * lv) ** 2, j) for j, lv in enumerate(levels)))

    children = [None] * (n - 1) + [nearest_first(n - 1)]
    limit, leaves, nodes, k = math.inf, [], 0, n - 1
    while k < n:
        child = next(children[k], None)
        if child is None or dist[k + 1] + child[0] > limit:
            k += 1  # nearest first: the remaining children are farther still
            continue
        nodes += 1
        if nodes > ML_NODES:
            raise CapacityError(f"ML search visited more than {ML_NODES} nodes")
        cost, j = child
        picks[k], s[k] = j, levels[j]
        dist[k] = dist[k + 1] + cost
        if k == 0:
            limit = min(limit, dist[0] * (1.0 + _ML_SLACK) + _ML_SLACK)
            leaves.append((dist[0], tuple(picks)))
        else:
            k -= 1
            children[k] = nearest_first(k)

    kept = np.array(sorted(p for d, p in leaves if d <= limit))  # lexicographic order
    odd = constellation.levels_int
    x = odd[kept[:, 0::2]] + 1j * odd[kept[:, 1::2]]
    gram = H.conj().T @ H
    w = constellation.normalizer * (H.conj().T @ instance.y)
    scores = np.einsum("ku,ku->k", x.conj(), x @ gram.T).real - 2.0 * (x @ w.conj()).real
    best = kept[int(np.argmin(scores))]
    return constellation.points[best[0::2] * len(levels) + best[1::2]]


def trace_csv(result: DetectionResult) -> str:
    """Chain trace as ``t,f_prev,f_cand,alpha,accepted,f_best`` rows, where ``f_prev`` (the
    chain's previous f) and ``f_best`` (its running minimum) both start from f[0]."""
    lines = ["t,f_prev,f_cand,alpha,accepted,f_best"]
    columns = (result.t, result.f, result.f_cand, result.alpha, result.accepted)
    for t, f, f_cand, alpha, accepted in zip(*(c.tolist() for c in columns)):
        if t <= 1:
            f_prev = f_best = float(result.f[0])
        f_best = min(f_best, f)
        lines.append(f"{t},{f_prev:.17g},{f_cand:.17g},{alpha:.17g},"
                     f"{int(accepted)},{f_best:.17g}")
        f_prev = f
    return "\n".join(lines) + "\n"
