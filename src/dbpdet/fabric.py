"""Simulated CU/DU processing fabric with bit-exact interconnect accounting.

A :class:`Fabric` owns the clustered channel data on behalf of the
distributed units and mediates every exchange with the central unit.
Collective operations charge a :class:`MessageLedger` per link and per
direction, with three payload classes: continuous reals (``omega`` bits
each), QAM symbols (``log2 M`` bits each), and scalar uploads (``omega``
bits each).  Uploads on the daisy chain accumulate hop-by-hop, so each
traversed link carries exactly one payload-sized message; aggregation
always sums contributions in ascending unit index regardless of
topology, which makes star and chain runs numerically identical.

Each per-unit computation reads only its own unit's (H_c, y_c) through
:meth:`Fabric.du_view`.  The same kernels serve the sampler and the
exact diagnostics.
"""

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
        if self.kind == STAR:
            return [f"cu-du{c + 1}" for c in range(self.n_units)]
        inner = [f"du{c + 1}-du{c + 2}" for c in range(self.n_units - 1)]
        return inner + [f"du{self.n_units}-cu"]

    def cu_links(self) -> list[str]:
        """Links incident to the CU."""
        if self.kind == STAR:
            return self.links()
        return [f"du{self.n_units}-cu"]

    def broadcast_links(self, dests) -> list[str]:
        """Links that carry one copy of a CU broadcast reaching ``dests``."""
        dests = sorted(dests)
        if not dests:
            raise ConfigError("broadcast needs a nonempty destination set")
        if self.kind == STAR:
            return [f"cu-du{c + 1}" for c in dests]
        return self.links()[dests[0]:]

    def upload_links(self, sources) -> list[str]:
        """Links that each carry one accumulated upload from ``sources``."""
        sources = sorted(sources)
        if not sources:
            raise ConfigError("upload needs a nonempty source set")
        if self.kind == STAR:
            return [f"cu-du{c + 1}" for c in sources]
        return self.links()[sources[0]:]


class MessageLedger:
    """Per-link, per-direction, per-class payload counters.

    Counts are in payload units (reals / symbols / scalars); bit totals
    apply the class widths.  Counters only ever grow; ledgers from
    parallel workers can be combined with :meth:`merge`.
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

    def merge(self, other: "MessageLedger") -> None:
        if (other.real_bits, other.symbol_bits) != (self.real_bits, self.symbol_bits):
            raise ConfigError("cannot merge ledgers with different widths")
        for key, units in other._units.items():
            self._units[key] = self._units.get(key, 0) + units

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
        self._all_units = tuple(range(self.n_units))
        self._views = tuple(zip(clustered.H_blocks, clustered.y_blocks))

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
        if self.counters is not None:
            b_c = H_c.shape[0]
            self.counters.add_du("sampling", c, 4 * b_c * self.n_users + 2 * b_c + 1)
        return 0.5 * float(np.real(np.vdot(r, r)))

    def local_gradient(self, c: int, p: np.ndarray) -> np.ndarray:
        """-H_c^H (y_c - H_c p) computed at unit c."""
        H_c, y_c = self.du_view(c)
        if p.shape != (self.n_users,):
            raise ConfigError(f"expected {self.n_users}-vector, got shape {p.shape}")
        if self.counters is not None:
            self.counters.add_du("gd", c, 8 * H_c.shape[0] * self.n_users)
        return -(H_c.conj().T @ (y_c - H_c @ p))

    def local_gram_diag(self, c: int) -> np.ndarray:
        """Per-user squared column norms of H_c (cost O(B_c U))."""
        H_c, _ = self.du_view(c)
        if self.counters is not None:
            self.counters.add_du("preprocessing", c, 2 * H_c.shape[0] * self.n_users)
        return np.einsum("bu,bu->u", H_c.conj(), H_c).real

    # ---- collective operations (charge the ledger) -------------------------

    def _charge(self, route, units_reached, direction, payload_class, units):
        """Charge ``units`` on every link of ``route(units_reached)``, if billed."""
        if self.ledger is not None:
            for lk in route(units_reached):
                self.ledger.charge(lk, direction, payload_class, units)

    def broadcast_reals(self, units: int, dests) -> None:
        """Account a CU broadcast of ``units`` continuous reals to ``dests``."""
        self._charge(self.topology.broadcast_links, dests, DOWN, REAL, units)

    def broadcast_symbols(self, n_symbols: int, dests=None) -> None:
        """Account a CU broadcast of a QAM symbol vector (default: all DUs)."""
        dests = self._all_units if dests is None else dests
        self._charge(self.topology.broadcast_links, dests, DOWN, SYMBOL, n_symbols)

    def collect_gram_diag_sum(self) -> np.ndarray:
        """Gram-diagonal upload: every unit contributes U scalars."""
        total = self.local_gram_diag(0).copy()
        for c in range(1, self.n_units):
            total += self.local_gram_diag(c)
        self._charge(self.topology.upload_links, self._all_units, UP, SCALAR, self.n_users)
        return total

    def gradient_sum(self, p: np.ndarray, batch) -> np.ndarray:
        """Sum of batch members' local gradients, ascending unit index."""
        batch = sorted(batch)
        if not batch:
            raise ConfigError("gradient aggregation needs a nonempty batch")
        total = self.local_gradient(batch[0], p).copy()
        for c in batch[1:]:
            total += self.local_gradient(c, p)
        self._charge(self.topology.upload_links, batch, UP, REAL, 2 * self.n_users)
        return total

    def objective_sum(self, x: np.ndarray) -> float:
        """Global objective as the ascending sum of per-unit scalars."""
        total = self.local_objective(0, x)
        for c in range(1, self.n_units):
            total += self.local_objective(c, x)
        self._charge(self.topology.upload_links, self._all_units, UP, SCALAR, 1)
        return total


def centralized_transfer(ledger: MessageLedger, n_ant: int, n_users: int,
                         link: str = "fronthaul-cu") -> None:
    """Account the raw upload a centralized detector needs: H and y."""
    ledger.charge(link, UP, REAL, 2 * (n_ant * n_users + n_ant))


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


def batch_hessian(clustered: ClusteredChannel, batch, batch_size: int) -> np.ndarray:
    """(C/m) * sum of H_c^H H_c over the batch: the mini-batch Hessian."""
    batch = sorted(batch)
    scale = clustered.n_clusters / batch_size
    total = np.zeros((clustered.n_users, clustered.n_users), dtype=np.complex128)
    for c in batch:
        H_c = clustered.H_blocks[c]
        total += H_c.conj().T @ H_c
    return scale * total


def batch_hessian_norm(clustered: ClusteredChannel, batch, batch_size: int) -> float:
    """Spectral norm of the mini-batch Hessian (Lipschitz bound lambda)."""
    return float(np.linalg.norm(batch_hessian(clustered, batch, batch_size), 2))
