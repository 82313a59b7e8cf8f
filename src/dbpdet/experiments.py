"""Experiment harness: BER sweeps, convergence curves, bandwidth and
complexity reports, presets, and the flat config-file format.

Reproducibility contract: every trial derives its channel, symbols,
noise, and detector streams from (master seed, trial index) alone, and
trials are scanned in index order when applying the stopping rule, so
results are byte-identical for any worker count.  Sweeps share trial
realizations across detectors, SNR points, and sampler settings (common
random numbers) to make paired comparisons cheap.
"""

import configparser
import itertools
import math
import multiprocessing
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import fabric as fb
from .channel import generate_instance, noise_variance_from_snr, partition, snr_linear_from_db
from .detectors import (DetectorConfig, _detect_block, lmmse_detect, mini_nag_mcmc_detect,
                        ml_brute_force)
from .errors import ConfigError, UsageError
from .fabric import (Fabric, MessageLedger, OpCounters, Topology,
                     centralized_transfer, predicted_bandwidth)
from .modem import SUPPORTED_ORDERS, build_constellation, symbols_to_bits

BLOCK = 64  # trials per scheduling block; fixed so worker count cannot matter

MINI_NAG_MCMC = "mini_nag_mcmc"
NAG_MCMC = "nag_mcmc"
LMMSE = "lmmse"
ML = "ml"
DETECTOR_KINDS = (MINI_NAG_MCMC, NAG_MCMC, LMMSE, ML)


@dataclass(frozen=True)
class SystemSpec:
    n_ant: int
    n_users: int
    n_clusters: int
    mod_order: int

    def __post_init__(self):
        if self.n_ant < self.n_users or self.n_users < 1:
            raise ConfigError(f"need n_ant >= n_users >= 1, got {self.n_ant}x{self.n_users}")
        if self.n_clusters < 1 or self.n_ant % self.n_clusters:
            raise ConfigError(f"n_clusters {self.n_clusters} must be >= 1 and divide {self.n_ant}")
        if self.mod_order not in SUPPORTED_ORDERS:
            raise ConfigError(f"mod_order {self.mod_order} is not one of {SUPPORTED_ORDERS}")

    def check_snr(self, snr_db) -> None:
        """ConfigError, before any trial runs, for an SNR point that no instance accepts."""
        for snr in snr_db:
            noise_variance_from_snr(snr_linear_from_db(snr), self.n_ant, self.n_users)

    @property
    def bits_per_vector(self) -> int:
        return self.n_users * int(math.log2(self.mod_order))


@dataclass(frozen=True)
class StoppingRule:
    """Stop a point at the first boundary crossed, inclusive."""

    max_bits: int = 50_000_000
    max_bit_errors: int = 1000

    def __post_init__(self):
        if self.max_bits < 1 or self.max_bit_errors < 0:
            raise ConfigError("stopping needs max_bits >= 1 and max_bit_errors >= 0")

    def crossed(self, bits, bit_errors):
        """Whether a point with these totals has stopped; elementwise on arrays."""
        return (bits >= self.max_bits) | (bit_errors > self.max_bit_errors)


@dataclass(frozen=True)
class DetectorSpec:
    kind: str
    config: DetectorConfig | None = None

    def __post_init__(self):
        if self.kind not in DETECTOR_KINDS:
            raise ConfigError(f"unknown detector kind {self.kind!r}")
        if self.kind in (MINI_NAG_MCMC, NAG_MCMC) and self.config is None:
            raise ConfigError(f"{self.kind} needs a DetectorConfig")


@dataclass(frozen=True)
class ExperimentSpec:
    system: SystemSpec
    detectors: dict[str, DetectorSpec]
    snr_db: tuple[float, ...]
    stopping: StoppingRule = StoppingRule()
    seed: int = 0
    workers: int = 1
    out_dir: str | None = None

    def __post_init__(self):
        if not self.snr_db:
            raise ConfigError("SNR grid must be nonempty")
        self.system.check_snr(self.snr_db)
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for config in (d.config for d in self.detectors.values() if d.kind == MINI_NAG_MCMC):
            config.check_clusters(self.system.n_clusters)  # the centralized one runs at m = C


# --------------------------------------------------------------------------
# block evaluation
# --------------------------------------------------------------------------

def _decisions(det, system, constellation, instances, trials):
    """The detector's (trials, U) decisions as a function of S; LMMSE and ML have no S."""
    if det.kind in (LMMSE, ML):
        x_hat = np.array([lmmse_detect(inst, constellation) if det.kind == LMMSE
                          else ml_brute_force(inst, constellation) for inst in instances])
        return lambda s: x_hat
    config = det.config if det.kind == MINI_NAG_MCMC else det.config.centralized(system.n_clusters)
    channels = [partition(inst.H, inst.y, system.n_clusters) for inst in instances]
    result = _detect_block(channels, config, constellation, trials)[0]
    return lambda s: result.x[np.arange(len(instances)), result.decision(s)]


def _trial_errors(system, detectors, columns, snr_db, seed, constellation, trials):
    """(trials, columns, 2) bit and symbol errors of ``trials``, detected together: each
    detector runs once, in the spec's order, and a (detector name, S) column scores the
    run's decisions at S (the whole run's at ``math.inf``)."""
    instances = [generate_instance(system.n_ant, system.n_users, constellation, snr_db, seed,
                                   trial) for trial in trials]
    decide = {name: _decisions(det, system, constellation, instances, trials)
              for name, det in detectors.items()}
    x_true = np.array([inst.x_true for inst in instances])
    bits = lambda x: symbols_to_bits(x, constellation).reshape(len(trials), -1)
    true_bits = bits(x_true)
    errors = [(np.sum(bits(x_hat) != true_bits, axis=1), np.sum(x_hat != x_true, axis=1))
              for x_hat in (decide[name](s) for name, s in columns)]
    return np.array(errors, dtype=np.int64).transpose(2, 0, 1)


def _ber_block(args):
    """(BLOCK, columns, 2) errors of block ``args[-1]``.  If it raises, its trials run again
    one at a time, in index order, and the first to raise alone gets the note "in block B,
    trial T" (a trial's errors do not depend on its block); else the block's error stands."""
    *point, block = args
    constellation = build_constellation(point[0].mod_order)
    trials = range(block * BLOCK, (block + 1) * BLOCK)
    try:
        return _trial_errors(*point, constellation, trials)
    except Exception:
        for trial in trials:
            try:
                _trial_errors(*point, constellation, [trial])
            except Exception as exc:
                exc.add_note(f"in block {block}, trial {trial}")
                raise
        raise


def _run_blocks(args, workers, n_trials=None, stop=lambda blocks: False):
    """(trials, columns, 2) errors from ``_ber_block((*args, b))`` for b = 0, 1, ...

    Either the first ``n_trials`` trials, and no block past them is
    submitted, or whole blocks until ``stop(blocks so far)`` holds.  Blocks
    are consumed strictly in index order, so scheduling and worker count
    never affect which trials contribute.
    """
    indices = (itertools.count() if n_trials is None
               else iter(range(math.ceil(n_trials / BLOCK))))
    blocks = []
    if workers <= 1:
        for b in indices:
            blocks.append(_ber_block((*args, b)))
            if stop(blocks):
                break
    else:
        with multiprocessing.Pool(workers) as pool:
            pending = [pool.apply_async(_ber_block, ((*args, b),))
                       for b in itertools.islice(indices, workers)]
            while pending:
                blocks.append(pending.pop(0).get())
                if stop(blocks):
                    break
                pending += [pool.apply_async(_ber_block, ((*args, b),))
                            for b in itertools.islice(indices, 1)]
    return np.concatenate(blocks)[:n_trials]


def wilson_interval(errors: int, total: int, z: float = 1.96):
    """Wilson score interval for an error proportion; valid at low counts."""
    if total <= 0:
        return 0.0, 1.0
    p = errors / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class BerPoint:
    detector: str
    snr_db: float
    bits: int
    bit_errors: int
    ber: float
    ci_lo: float
    ci_hi: float
    trials: int = 0


def run_ber_sweep(spec: ExperimentSpec) -> list[BerPoint]:
    """BER per (detector, SNR) with the stopping rule applied per pair."""
    system = spec.system
    bits_per_trial = system.bits_per_vector
    columns = [(name, math.inf) for name in spec.detectors]
    rows: list[BerPoint] = []
    for snr in spec.snr_db:
        bit_errors = np.zeros(len(columns), dtype=np.int64)

        def stop(blocks):
            # continue until every detector has crossed a boundary
            bit_errors[:] += blocks[-1][:, :, 0].sum(axis=0)
            return spec.stopping.crossed(len(blocks) * BLOCK * bits_per_trial, bit_errors).all()

        errors = _run_blocks((system, spec.detectors, columns, snr, spec.seed), spec.workers,
                             stop=stop)
        cum_errors = np.cumsum(errors, axis=0)  # (trials, columns, bit/symbol)
        cum_bits = bits_per_trial * np.arange(1, len(errors) + 1)
        crossed = spec.stopping.crossed(cum_bits[:, None], cum_errors[:, :, 0])
        for col, name in enumerate(spec.detectors):
            last = int(np.argmax(crossed[:, col]))  # the block-level stop implies one exists
            bits, bit_errs = int(cum_bits[last]), int(cum_errors[last, col, 0])
            lo, hi = wilson_interval(bit_errs, bits)
            rows.append(BerPoint(detector=name, snr_db=snr, bits=bits, bit_errors=bit_errs,
                                 ber=bit_errs / bits, ci_lo=lo, ci_hi=hi, trials=last + 1))
    if spec.out_dir:
        _write(spec.out_dir, "ber.csv", ber_csv(rows))
    return rows


def ber_csv(rows: list[BerPoint]) -> str:
    lines = ["detector,snr_db,bits,bit_errors,ber,ci_lo,ci_hi"]
    for r in rows:
        lines.append(f"{r.detector},{r.snr_db:g},{r.bits},{r.bit_errors},"
                     f"{r.ber:.10g},{r.ci_lo:.10g},{r.ci_hi:.10g}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# paired trials (common random numbers)
# --------------------------------------------------------------------------

def run_paired_trials(system: SystemSpec, detectors: dict[str, DetectorSpec],
                      snr_db: float, n_trials: int, seed: int = 0,
                      workers: int = 1, unit: str = "bit") -> dict[str, np.ndarray]:
    """Per-trial error counts on shared realizations (paired statistics).

    ``unit`` selects bit or symbol errors.
    """
    if unit not in ("bit", "symbol"):
        raise ConfigError(f"unknown error unit {unit!r}")
    system.check_snr((snr_db,))
    columns = [(name, math.inf) for name in detectors]
    errors = _run_blocks((system, detectors, columns, snr_db, seed), workers,
                         n_trials)[:, :, 0 if unit == "bit" else 1]
    return {name: errors[:, col] for col, name in enumerate(detectors)}


# --------------------------------------------------------------------------
# convergence vs sampling iterations
# --------------------------------------------------------------------------

@dataclass
class ConvergencePoint:
    batch_size: int
    sampling_iterations: int
    snr_db: float
    bits: int
    bit_errors: int
    ber: float


def run_convergence(system: SystemSpec, base_config: DetectorConfig, m_grid,
                    s_grid, snr_db: float, n_trials: int, seed: int = 0,
                    workers: int = 1, out_dir: str | None = None):
    """BER versus sampling iterations for each batch size.

    One run per (trial, m) at the largest S supplies every S in the grid,
    scored at its decision at S (:meth:`DetectionResult.decision`): a
    shorter run is exactly a prefix of a longer one because the random
    streams are consumed in iteration order.  Identical channel, noise,
    walk, and acceptance realizations are shared across the m grid
    (common random numbers).
    """
    m_grid, s_grid = list(m_grid), sorted(s_grid)
    if n_trials < 1 or not m_grid or not s_grid or s_grid[0] < 0:
        raise ConfigError("convergence needs at least one trial, nonempty m and S grids "
                          "and S >= 0")
    system.check_snr((snr_db,))
    detectors = {m: DetectorSpec(MINI_NAG_MCMC, replace(base_config, batch_size=m,
                                                        sampling_iterations=s_grid[-1]))
                 for m in m_grid}
    columns = [(m, s) for m in m_grid for s in s_grid]
    errors = _run_blocks((system, detectors, columns, snr_db, seed), workers, n_trials)[:, :, 0]
    bits = n_trials * system.bits_per_vector
    rows = [ConvergencePoint(batch_size=m, sampling_iterations=s, snr_db=snr_db,
                             bits=bits, bit_errors=int(errors[:, col].sum()),
                             ber=float(errors[:, col].sum()) / bits)
            for col, (m, s) in enumerate(columns)]
    if out_dir:
        _write(out_dir, "convergence.csv", convergence_csv(rows))
    return rows, errors.reshape(n_trials, len(m_grid), len(s_grid))  # (trials, m, S)


def convergence_csv(rows: list[ConvergencePoint]) -> str:
    lines = ["m,S,snr_db,bits,bit_errors,ber"]
    for r in rows:
        lines.append(f"{r.batch_size},{r.sampling_iterations},{r.snr_db:g},"
                     f"{r.bits},{r.bit_errors},{r.ber:.10g}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# bandwidth report
# --------------------------------------------------------------------------

@dataclass
class BandwidthRow:
    mode: str
    n_ant: int
    n_users: int
    n_clusters: int
    batch_size: int
    sampling_iterations: int
    nag_iterations: int
    real_bits: int
    mod_order: int
    bits: int
    measured_bits: int | None


def _seeded_detection(system: SystemSpec, config: DetectorConfig, seed: int,
                      ledger: MessageLedger | None = None,
                      counters: OpCounters | None = None) -> None:
    """One mini-batch detection of the seeded 10 dB instance, billed to ledger/counters."""
    constellation = build_constellation(system.mod_order)
    inst = generate_instance(system.n_ant, system.n_users, constellation, snr_db=10.0,
                             master_seed=seed)
    fabric = Fabric(partition(inst.H, inst.y, system.n_clusters),
                    Topology(config.topology, system.n_clusters),
                    ledger=ledger, counters=counters)
    mini_nag_mcmc_detect(inst, config, fabric, constellation)


def _bandwidth_point(point: dict, topology_kind: str = fb.STAR, seed: int = 0):
    """(system, config, empty ledger) of one report point; ConfigError if it is impossible."""
    system = SystemSpec(point["B"], point["U"], point["C"], point["M"])
    constellation = build_constellation(point["M"])
    config = DetectorConfig(sampling_iterations=point["S"], nag_iterations=point["Ng"],
                            batch_size=point["m"], seed=seed, topology=topology_kind)
    config.check_clusters(system.n_clusters)
    ledger = MessageLedger(real_bits=point["omega"], symbol_bits=constellation.bits_per_symbol)
    return system, config, ledger


def measured_cu_bits(point: dict, topology_kind: str, seed: int = 0) -> int:
    """Run one real detection and total the ledger's CU-incident traffic."""
    system, config, ledger = _bandwidth_point(point, topology_kind, seed)
    _seeded_detection(system, config, seed, ledger=ledger)
    return ledger.cu_bits(Topology(topology_kind, point["C"]))


def run_bandwidth_report(points: list[dict], measure: bool = True, seed: int = 0,
                         out_dir: str | None = None) -> list[BandwidthRow]:
    """Closed-form interconnect bits per mode, optionally ledger-confirmed.

    Every point is checked, as a measured run would build it, before any is reported.
    """
    if not points:
        raise ConfigError("bandwidth report needs at least one point")
    ledgers = [_bandwidth_point(pt)[2] for pt in points]
    rows = []
    for pt, ledger in zip(points, ledgers):
        closed = {
            "centralized": predicted_bandwidth("centralized", n_ant=pt["B"],
                                               n_users=pt["U"], real_bits=pt["omega"]),
            "mini_star": predicted_bandwidth(
                "mini_star", n_users=pt["U"], n_clusters=pt["C"], batch_size=pt["m"],
                sampling_iterations=pt["S"], nag_iterations=pt["Ng"],
                real_bits=pt["omega"], mod_order=pt["M"]),
            "mini_chain": predicted_bandwidth(
                "mini_chain", n_users=pt["U"], sampling_iterations=pt["S"],
                nag_iterations=pt["Ng"], real_bits=pt["omega"], mod_order=pt["M"]),
        }
        measured = {mode: None for mode in closed}
        if measure:
            centralized_transfer(ledger, pt["B"], pt["U"])
            measured["centralized"] = ledger.bits()
            measured["mini_star"] = measured_cu_bits(pt, fb.STAR, seed)
            measured["mini_chain"] = measured_cu_bits(pt, fb.DAISY_CHAIN, seed)
        for mode, bits in closed.items():
            rows.append(BandwidthRow(mode=mode, n_ant=pt["B"], n_users=pt["U"],
                                     n_clusters=pt["C"], batch_size=pt["m"],
                                     sampling_iterations=pt["S"], nag_iterations=pt["Ng"],
                                     real_bits=pt["omega"], mod_order=pt["M"],
                                     bits=bits, measured_bits=measured[mode]))
    if out_dir:
        _write(out_dir, "bandwidth.csv", bandwidth_csv(rows))
    return rows


def bandwidth_csv(rows: list[BandwidthRow]) -> str:
    lines = ["mode,B,U,C,m,S,Ng,omega,M,bits,measured_bits"]
    for r in rows:
        measured = "" if r.measured_bits is None else str(r.measured_bits)
        lines.append(f"{r.mode},{r.n_ant},{r.n_users},{r.n_clusters},{r.batch_size},"
                     f"{r.sampling_iterations},{r.nag_iterations},{r.real_bits},"
                     f"{r.mod_order},{r.bits},{measured}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# complexity report
# --------------------------------------------------------------------------

@dataclass
class ComplexityRow:
    n_ant: int
    n_users: int
    n_clusters: int
    block_rows: int
    batch_size: int
    sampling_iterations: int
    nag_iterations: int
    du_mults_mean: float
    du_mults_max: int
    cu_mults: int


def measure_complexity(system: SystemSpec, config: DetectorConfig,
                       seed: int = 0) -> ComplexityRow:
    """Real-multiplication counters for one seeded detection."""
    counters = OpCounters(system.n_clusters)
    _seeded_detection(system, config, seed, counters=counters)
    du = counters.du_totals()
    return ComplexityRow(n_ant=system.n_ant, n_users=system.n_users,
                         n_clusters=system.n_clusters,
                         block_rows=system.n_ant // system.n_clusters,
                         batch_size=config.batch_size,
                         sampling_iterations=config.sampling_iterations,
                         nag_iterations=config.nag_iterations,
                         du_mults_mean=float(du.mean()), du_mults_max=int(du.max()),
                         cu_mults=int(counters.cu_total()))


def linear_fit(x, y):
    """Least-squares line fit; returns (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return float(slope), float(intercept), r2


def run_complexity_report(base_system: SystemSpec, base_config: DetectorConfig,
                          seed: int = 0, out_dir: str | None = None):
    """Measured counters over B/S/Ng grids plus fitted scaling checks."""
    rows: list[ComplexityRow] = []
    fits: dict[str, dict] = {}

    b_grid = [base_system.n_ant * k for k in (1, 2, 4)]
    # grow B with C fixed: per-DU work tracks the block size B_c
    sweep_bc = [measure_complexity(replace(base_system, n_ant=b), base_config, seed)
                for b in b_grid]
    rows.extend(sweep_bc)
    slope, intercept, r2 = linear_fit([r.block_rows for r in sweep_bc],
                                      [r.du_mults_mean for r in sweep_bc])
    fits["du_vs_block_rows"] = {"slope": slope, "intercept": intercept, "r2": r2}
    cu_slope, _, _ = linear_fit([r.n_ant for r in sweep_bc],
                                [r.cu_mults for r in sweep_bc])
    cu_vals = [r.cu_mults for r in sweep_bc]
    fits["cu_vs_antennas"] = {"slope": cu_slope, "values": cu_vals,
                              "constant": len(set(cu_vals)) == 1}
    # grow B with B_c fixed (C grows): per-DU work must not change
    sweep_fixed = []
    for k in (1, 2, 4):
        sys_k = replace(base_system, n_ant=base_system.n_ant * k,
                        n_clusters=base_system.n_clusters * k)
        cfg_k = replace(base_config, batch_size=base_config.batch_size * k)
        row = measure_complexity(sys_k, cfg_k, seed)
        rows.append(row)
        sweep_fixed.append(row.du_mults_mean)
    spread = (max(sweep_fixed) - min(sweep_fixed)) / max(sweep_fixed)
    fits["du_fixed_block_rows_rel_spread"] = {"value": float(spread)}

    for name, grid in (("sampling_iterations", (4, 8, 16, 32)), ("nag_iterations", (1, 2, 4, 8))):
        sweep = [measure_complexity(base_system, replace(base_config, **{name: v}), seed)
                 for v in grid]
        rows.extend(sweep)
        slope, intercept, r2 = linear_fit(grid, [r.du_mults_mean for r in sweep])
        fits[f"du_vs_{name}"] = {"slope": slope, "intercept": intercept, "r2": r2}

    if out_dir:
        _write(out_dir, "complexity.csv", complexity_csv(rows))
    return rows, fits


def complexity_csv(rows: list[ComplexityRow]) -> str:
    lines = ["B,U,C,Bc,m,S,Ng,du_mults_mean,du_mults_max,cu_mults"]
    for r in rows:
        lines.append(f"{r.n_ant},{r.n_users},{r.n_clusters},{r.block_rows},"
                     f"{r.batch_size},{r.sampling_iterations},{r.nag_iterations},"
                     f"{r.du_mults_mean:.10g},{r.du_mults_max},{r.cu_mults}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# presets and config files
# --------------------------------------------------------------------------

def _mini(s, m, seed=0):
    return DetectorSpec(MINI_NAG_MCMC, DetectorConfig(s, batch_size=m, seed=seed))


def preset(name: str, seed: int = 0) -> ExperimentSpec:
    """Built-in desk-scale experiment presets."""
    if name == "fig3-desk":
        system = SystemSpec(32, 8, 8, 16)
        detectors = {f"mini-m{m}": _mini(12, m, seed) for m in (1, 4, 8)}
        return ExperimentSpec(system=system, detectors=detectors, snr_db=(5.0,),
                              stopping=StoppingRule(max_bits=1_000_000), seed=seed)
    if name == "fig4-desk":
        system = SystemSpec(32, 8, 8, 16)
        detectors = {
            "mini": _mini(16, 4, seed),
            "nag": DetectorSpec(NAG_MCMC, DetectorConfig(sampling_iterations=16, seed=seed)),
            "lmmse": DetectorSpec(LMMSE),
        }
        return ExperimentSpec(system=system, detectors=detectors,
                              snr_db=tuple(range(2, 13, 2)),
                              stopping=StoppingRule(max_bits=1_000_000), seed=seed)
    if name == "oracle":
        system = SystemSpec(16, 4, 4, 16)
        detectors = {
            "mini": _mini(16, 2, seed),
            "lmmse": DetectorSpec(LMMSE),
            "ml": DetectorSpec(ML),
        }
        return ExperimentSpec(system=system, detectors=detectors,
                              snr_db=tuple(range(8, 19, 2)),
                              stopping=StoppingRule(max_bits=200_000), seed=seed)
    raise UsageError(f"unknown preset {name!r}; available: fig3-desk, fig4-desk, oracle")


_DETECTOR_KEYS = {field.name: field.type for field in fields(DetectorConfig)}


def parse_config_file(path: str) -> ExperimentSpec:
    """Read the flat INI experiment format (see README for the schema)."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise UsageError(f"cannot read config file {path}")
    try:
        sys_sec = cp["system"]
        system = SystemSpec(n_ant=sys_sec.getint("n_ant"),
                            n_users=sys_sec.getint("n_users"),
                            n_clusters=sys_sec.getint("n_clusters", fallback=1),
                            mod_order=sys_sec.getint("mod_order", fallback=16))
    except (KeyError, configparser.Error, TypeError, ValueError) as exc:
        raise UsageError(f"bad [system] section in {path}: {exc}") from exc
    sweep = cp["sweep"] if cp.has_section("sweep") else {}
    try:
        snr = tuple(float(tok) for tok in str(sweep.get("snr_db", "10")).split(",") if tok)
        stopping = StoppingRule(
            max_bits=int(float(sweep.get("max_bits", StoppingRule.max_bits))),
            max_bit_errors=int(float(sweep.get("max_bit_errors", StoppingRule.max_bit_errors))))
        seed = int(sweep.get("seed", 0))
        workers = int(sweep.get("workers", 1))
    except (ValueError, OverflowError) as exc:  # OverflowError: int(float("inf"))
        raise UsageError(f"bad [sweep] section in {path}: {exc}") from exc
    detectors: dict[str, DetectorSpec] = {}
    for section in cp.sections():
        if not section.startswith("detector:"):
            continue
        name = section.split(":", 1)[1]
        body = cp[section]
        kind = body.get("kind", MINI_NAG_MCMC)
        if kind in (LMMSE, ML):
            detectors[name] = DetectorSpec(kind)
            continue
        kwargs = {}
        for key, cast in _DETECTOR_KEYS.items():
            if key in body:
                try:
                    kwargs[key] = cast(body[key])
                except ValueError as exc:
                    raise UsageError(f"bad value for {key} in [{section}]") from exc
        kwargs.setdefault("sampling_iterations", 16)
        kwargs.setdefault("seed", seed)
        try:
            detectors[name] = DetectorSpec(kind, DetectorConfig(**kwargs))
        except ConfigError as exc:
            raise UsageError(f"bad detector section [{section}]: {exc}") from exc
    if not detectors:
        raise UsageError(f"no [detector:NAME] sections in {path}")
    try:
        return ExperimentSpec(system=system, detectors=detectors, snr_db=snr,
                              stopping=stopping, seed=seed, workers=workers)
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc


def _write(out_dir: str, name: str, text: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)
