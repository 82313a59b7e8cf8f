"""Simulated CU/DU processing fabric with bit-exact interconnect accounting.

A :class:`Fabric` owns the clustered channel data on behalf of the
distributed units and mediates every exchange with the central unit.
Collectives only compute, summing in ascending unit index on any topology,
so star and chain runs are numerically identical.  Each detection is billed
once, from its record, to a :class:`MessageLedger` per link and direction
in three payload classes (reals and scalars ``omega`` bits each, QAM
symbols ``log2 M`` bits each) and to :class:`OpCounters` per unit and phase.
Uploads on the daisy chain accumulate hop-by-hop, so each traversed link
carries exactly one payload-sized message.

Each per-unit computation reads only its own unit's (H_c, y_c) through
:meth:`Fabric.du_view`, plus the adjoint view H_c^H that the fabric
builds once per unit.  These kernels serve the learning rate, the
mini-batch gradient and the exact diagnostics; the sampler runs the same
arithmetic stacked over trials and units, bit for bit.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .channel import ClusteredChannel
from .errors import ConfigError

STAR = "star"
DAISY_CHAIN = "daisy_chain"

# payload classes
REAL = "real"      # continuous real values, omega bits each
SYMBOL = "symbol"  # QAM symbols, log2(M) bits each
SCALAR = "scalar"  # objective / Gram-diagonal uploads, omega bits each

DOWN = "down"  # away from the CU
UP = "up"      # toward the CU


@dataclass(frozen=True)
class Topology:
    """Star (all DUs on the CU) or daisy chain (path du1-...-duC-cu)."""

    kind: str
    n_units: int

    def __post_init__(self):
        if self.kind not in (STAR, DAISY_CHAIN):
            raise ConfigError(f"unknown topology kind {self.kind!r}")
        if self.n_units < 1:
            raise ConfigError("topology needs at least one unit")

    def links(self) -> list[str]:
        return list(_link_names(self.kind, self.n_units))

    def cu_links(self) -> list[str]:
        """Links incident to the CU."""
        if self.kind == STAR:
            return self.links()
        return [f"du{self.n_units}-cu"]

    def upload_links(self, sources) -> list[str]:
        """Links that each carry one accumulated upload from, or broadcast to, ``sources``."""
        sources = sorted(sources)
        if not sources:
            raise ConfigError("upload needs a nonempty source set")
        names = _link_names(self.kind, self.n_units)
        if self.kind == STAR:
            return [names[c] for c in sources]
        return list(names[sources[0]:])


@functools.cache
def _link_names(kind: str, n_units: int) -> tuple[str, ...]:
    """Unit c's link: cu-du(c+1) on the star, its link toward the CU on the chain."""
    if kind == STAR:
        return tuple(f"cu-du{c + 1}" for c in range(n_units))
    return tuple(f"du{c + 1}-du{c + 2}" for c in range(n_units - 1)) + (f"du{n_units}-cu",)


class MessageLedger:
    """Per-link, per-direction, per-class payload counters.

    Counts are in payload units (reals / symbols / scalars); bit totals
    apply the class widths.  Counters only ever grow.
    """

    def __init__(self, real_bits: int = 16, symbol_bits: int = 4):
        if real_bits < 1 or symbol_bits < 1:
            raise ConfigError("bit widths must be positive")
        self.real_bits = int(real_bits)
        self.symbol_bits = int(symbol_bits)
        self._units: dict[tuple[str, str, str], int] = {}

    def charge(self, link: str, direction: str, payload_class: str, units: int) -> None:
        if units < 0:
            raise ConfigError("cannot charge a negative payload")
        key = (link, direction, payload_class)
        self._units[key] = self._units.get(key, 0) + int(units)

    def _width(self, payload_class: str) -> int:
        if payload_class == SYMBOL:
            return self.symbol_bits
        if payload_class in (REAL, SCALAR):
            return self.real_bits
        raise ConfigError(f"unknown payload class {payload_class!r}")

    def bits(self, link: str | None = None, direction: str | None = None,
             payload_class: str | None = None) -> int:
        total = 0
        for (lk, d, cls), units in self._units.items():
            if link is not None and lk != link:
                continue
            if direction is not None and d != direction:
                continue
            if payload_class is not None and cls != payload_class:
                continue
            total += units * self._width(cls)
        return total

    def cu_bits(self, topology: Topology) -> int:
        """Traffic on CU-incident links (both directions)."""
        return sum(self.bits(link=lk) for lk in topology.cu_links())

    def to_csv(self) -> str:
        lines = ["link,direction,class,bits"]
        for (lk, d, cls) in sorted(self._units):
            lines.append(f"{lk},{d},{cls},{self._units[(lk, d, cls)] * self._width(cls)}")
        return "\n".join(lines) + "\n"


class OpCounters:
    """Real-multiplication counts at the CU and at each DU, per phase."""

    PHASES = ("preprocessing", "gd", "sampling")

    def __init__(self, n_units: int):
        self.du = {ph: np.zeros(n_units, dtype=np.int64) for ph in self.PHASES}
        self.cu = {ph: 0 for ph in self.PHASES}

    def add_du(self, phase: str, unit: int, mults: int) -> None:
        self.du[phase][unit] += mults

    def add_cu(self, phase: str, mults: int) -> None:
        self.cu[phase] += mults

    def du_totals(self) -> np.ndarray:
        return sum(self.du.values())

    def cu_total(self) -> int:
        return sum(self.cu.values())


class Fabric:
    """Clustered data plus the collective operations of one detection."""

    def __init__(self, clustered: ClusteredChannel, topology: Topology | None = None,
                 ledger: MessageLedger | None = None, counters: OpCounters | None = None):
        self.clustered = clustered
        self.topology = topology or Topology(STAR, clustered.n_clusters)
        if self.topology.n_units != clustered.n_clusters:
            raise ConfigError("topology unit count must match cluster count")
        self.ledger = ledger
        self.counters = counters
        # fixed for the fabric's lifetime: read by every per-unit call
        self.n_units = clustered.n_clusters
        self.n_users = clustered.n_users
        self._views = tuple(zip(clustered.H_blocks, clustered.y_blocks))
        self._adjoints = tuple(H_c.conj().T for H_c in clustered.H_blocks)

    # ---- local data access -----------------------------------------------

    def du_view(self, owner: int):
        """(H_c, y_c) for unit ``owner``."""
        return self._views[owner]

    # ---- per-unit computations -------------------------------------------

    def local_objective(self, c: int, x: np.ndarray) -> float:
        """0.5 * ||y_c - H_c x||^2 computed at unit c."""
        H_c, y_c = self.du_view(c)
        if x.shape != (self.n_users,):
            raise ConfigError(f"expected {self.n_users}-vector, got shape {x.shape}")
        r = y_c - H_c @ x
        return 0.5 * float(np.real(np.vdot(r, r)))

    def local_gradient(self, c: int, p: np.ndarray) -> np.ndarray:
        """-H_c^H (y_c - H_c p) computed at unit c."""
        H_c, y_c = self.du_view(c)
        if p.shape != (self.n_users,):
            raise ConfigError(f"expected {self.n_users}-vector, got shape {p.shape}")
        return -(self._adjoints[c] @ (y_c - H_c @ p))

    def local_gram_diag(self, c: int) -> np.ndarray:
        """Per-user squared column norms of H_c (cost O(B_c U))."""
        H_c, _ = self.du_view(c)
        return np.einsum("bu,bu->u", H_c.conj(), H_c).real

    # ---- collective operations (compute only) -------------------------------

    def collect_gram_diag_sum(self) -> np.ndarray:
        """Gram-diagonal upload: every unit contributes U scalars."""
        total = self.local_gram_diag(0).copy()
        for c in range(1, self.n_units):
            total += self.local_gram_diag(c)
        return total

    def gradient_sum(self, p: np.ndarray, batch) -> np.ndarray:
        """Sum of batch members' local gradients, ascending unit index."""
        batch = sorted(batch)
        if not batch:
            raise ConfigError("gradient aggregation needs a nonempty batch")
        total = self.local_gradient(batch[0], p).copy()
        for c in batch[1:]:
            total += self.local_gradient(c, p)
        return total

    def objective_sum(self, x: np.ndarray) -> float:
        """Global objective as the ascending sum of per-unit scalars."""
        total = self.local_objective(0, x)
        for c in range(1, self.n_units):
            total += self.local_objective(c, x)
        return total

    def broadcast_reals(self, units: int, dests) -> None:
        """Bill a CU broadcast of ``units`` continuous reals to ``dests`` to the ledger."""
        for lk in self.topology.upload_links(dests):
            self.ledger.charge(lk, DOWN, REAL, units)

    def broadcast_symbols(self, n_symbols: int) -> None:
        """Bill a CU broadcast of ``n_symbols`` QAM symbols to every DU to the ledger."""
        for lk in self.topology.upload_links(range(self.n_units)):
            self.ledger.charge(lk, DOWN, SYMBOL, n_symbols)

    def charge_detection(self, batches: np.ndarray, n_objectives: int, mod_order: int) -> None:
        """Bill one detection, from its batches and objective count, to the ledger and counters.

        ``batches`` has a row of unit indices per gradient aggregation (2U reals
        down to the batch, 2U up); ``n_objectives`` counts objective evaluations
        (U symbols down to all, a scalar up) after the Gram-diagonal upload (U
        scalars): the initial sample's and one per sampling iteration.  The CU
        multiplies U + 2 times in preprocessing, 4U per aggregation and
        4U + 2 sqrt(M) U + 2 per sampling iteration for QAM order ``mod_order``.
        """
        u = self.n_users
        aggregations = np.bincount(batches.ravel(), minlength=self.n_units)
        if self.ledger is not None:
            self.broadcast_symbols(n_objectives * u)
            for lk in self.topology.upload_links(range(self.n_units)):
                self.ledger.charge(lk, UP, SCALAR, u + n_objectives)
            # a batch's reals travel upload_links(batch): each member's link on the star, every
            # link from the lowest member on along the chain, so counts per unit bill them all
            counts = (aggregations if self.topology.kind == STAR
                      else np.bincount(batches.min(axis=1), minlength=self.n_units))
            for c, count in enumerate(counts.tolist()):
                if count:
                    self.broadcast_reals(2 * u * count, [c])
                    for lk in self.topology.upload_links([c]):
                        self.ledger.charge(lk, UP, REAL, 2 * u * count)
        if self.counters is not None:
            for c, (H_c, _) in enumerate(self._views):
                b_c = H_c.shape[0]
                self.counters.add_du("preprocessing", c, 2 * b_c * u)
                self.counters.add_du("gd", c, 8 * b_c * u * int(aggregations[c]))
                self.counters.add_du("sampling", c, n_objectives * (4 * b_c * u + 2 * b_c + 1))
            sqrt_m = int(round(np.sqrt(mod_order)))
            self.counters.add_cu("preprocessing", u + 2)
            self.counters.add_cu("gd", 4 * u * len(batches))
            self.counters.add_cu("sampling", (4 * u + 2 * sqrt_m * u + 2) * (n_objectives - 1))


def centralized_transfer(ledger: MessageLedger, n_ant: int, n_users: int) -> None:
    """Account the raw upload a centralized detector needs: H and y."""
    ledger.charge("fronthaul-cu", UP, REAL, 2 * (n_ant * n_users + n_ant))


def predicted_bandwidth(mode: str, *, n_ant: int | None = None, n_users: int,
                        n_clusters: int | None = None, batch_size: int | None = None,
                        sampling_iterations: int | None = None,
                        nag_iterations: int | None = None,
                        real_bits: int = 16, mod_order: int | None = None) -> int:
    """Closed-form interconnect bits for one detected symbol vector.

    ``centralized`` counts the raw (H, y) upload; ``mini_star`` counts
    all CU-incident traffic of the mini-batch sampler; ``mini_chain``
    counts the CU-adjacent link of the daisy chain.
    """
    u = n_users
    w = real_bits
    if mode == "centralized":
        if n_ant is None:
            raise ConfigError("centralized bandwidth needs n_ant")
        return 2 * (n_ant * u + n_ant) * w
    if mode not in ("mini_star", "mini_chain"):
        raise ConfigError(f"unknown bandwidth mode {mode!r}")
    if None in (sampling_iterations, nag_iterations, mod_order):
        raise ConfigError(f"{mode} bandwidth needs S, N_g and the QAM order")
    s, ng = sampling_iterations, nag_iterations
    qbits = int(np.log2(mod_order))
    if mode == "mini_star":
        if None in (n_clusters, batch_size):
            raise ConfigError("mini_star bandwidth needs C and m")
        c, m = n_clusters, batch_size
        return 4 * ng * s * u * w * m + (s + 1) * u * qbits * c + (s + 1 + u) * w * c
    return 4 * ng * s * u * w + (s + 1) * u * qbits + (s + 1 + u) * w


def batch_hessian(clustered: ClusteredChannel, batch) -> np.ndarray:
    """(C/m) * sum of H_c^H H_c over the m units in the batch: the mini-batch Hessian."""
    batch = sorted(batch)
    if not batch:
        raise ConfigError("the mini-batch Hessian needs a nonempty batch")
    scale = clustered.n_clusters / len(batch)
    total = np.zeros((clustered.n_users, clustered.n_users), dtype=np.complex128)
    for c in batch:
        H_c = clustered.H_blocks[c]
        total += H_c.conj().T @ H_c
    return scale * total


def batch_hessian_norm(clustered: ClusteredChannel, batch) -> float:
    """Spectral norm of the mini-batch Hessian (Lipschitz bound lambda)."""
    return float(np.linalg.norm(batch_hessian(clustered, batch), 2))
