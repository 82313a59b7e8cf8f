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
import math
import multiprocessing
import os
from dataclasses import dataclass, replace

import numpy as np

from . import fabric as fb
from .channel import generate_instance, partition
from .detectors import (ML_CAP, DetectorConfig, lmmse_detect, mini_nag_mcmc_detect,
                        ml_brute_force, nag_mcmc_detect)
from .errors import ConfigError, UsageError
from .fabric import (Fabric, MessageLedger, OpCounters, Topology,
                     centralized_transfer, predicted_bandwidth)
from .modem import build_constellation, symbols_to_bits

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
        if self.n_ant % self.n_clusters != 0:
            raise ConfigError(f"cluster count {self.n_clusters} must divide {self.n_ant}")

    @property
    def bits_per_vector(self) -> int:
        return self.n_users * int(math.log2(self.mod_order))


@dataclass(frozen=True)
class StoppingRule:
    """Stop a point at the first boundary crossed, inclusive."""

    max_bits: int = 50_000_000
    max_bit_errors: int = 1000


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
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        order, n_users = self.system.mod_order, self.system.n_users
        for name, det in self.detectors.items():
            if det.kind == ML and order ** n_users > ML_CAP:
                raise ConfigError(f"detector {name!r}: ML over {order}^{n_users} "
                                  f"candidates exceeds the cap {ML_CAP}")


# --------------------------------------------------------------------------
# single-trial evaluation
# --------------------------------------------------------------------------

def _detect_one(kind, config, system, constellation, instance, trial):
    if kind == MINI_NAG_MCMC:
        fabric = Fabric(partition(instance.H, instance.y, system.n_clusters),
                        Topology(config.topology, system.n_clusters))
        return mini_nag_mcmc_detect(instance, config, fabric, constellation, trial=trial).x_hat
    if kind == NAG_MCMC:
        return nag_mcmc_detect(instance, config, constellation,
                               clusters=system.n_clusters, trial=trial).x_hat
    if kind == LMMSE:
        return lmmse_detect(instance, constellation)
    if kind == ML:
        return ml_brute_force(instance, constellation)
    raise ConfigError(f"unknown detector kind {kind!r}")


def _ber_block(args):
    system, detectors, snr_db, seed, start, count = args
    constellation = build_constellation(system.mod_order)
    out = {name: np.zeros((count, 2), dtype=np.int64) for name in detectors}
    for i in range(count):
        trial = start + i
        inst = generate_instance(system.n_ant, system.n_users, constellation,
                                 snr_db, seed, trial)
        true_bits = symbols_to_bits(inst.x_true, constellation)
        for name, det in detectors.items():
            x_hat = _detect_one(det.kind, det.config, system, constellation, inst, trial)
            bits = symbols_to_bits(x_hat, constellation)
            out[name][i, 0] = int(np.sum(bits != true_bits))
            out[name][i, 1] = int(np.sum(x_hat != inst.x_true))
    return out


def _run_blocks(worker_fn, make_args, workers, stop_fn):
    """Feed fixed-size blocks to a pool; stop when ``stop_fn`` says so.

    Blocks are consumed strictly in index order, so scheduling and
    worker count never affect which trials contribute.
    """
    block_idx = 0
    if workers <= 1:
        while True:
            res = worker_fn(make_args(block_idx))
            block_idx += 1
            if stop_fn(res):
                return
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        pending = [pool.apply_async(worker_fn, (make_args(i),)) for i in range(workers)]
        block_idx = workers
        while True:
            res = pending.pop(0).get()
            if stop_fn(res):
                return
            pending.append(pool.apply_async(worker_fn, (make_args(block_idx),)))
            block_idx += 1


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
    symbols: int = 0
    symbol_errors: int = 0
    trials: int = 0

    @property
    def ser(self) -> float:
        return self.symbol_errors / self.symbols if self.symbols else 0.0


def run_ber_sweep(spec: ExperimentSpec) -> list[BerPoint]:
    """BER/SER per (detector, SNR) with the stopping rule applied per pair."""
    system = spec.system
    bits_per_trial = system.bits_per_vector
    rows: list[BerPoint] = []
    for snr in spec.snr_db:
        per_det = {name: [] for name in spec.detectors}
        trials = dict.fromkeys(spec.detectors, 0)
        bit_errs = dict.fromkeys(spec.detectors, 0)

        def stop(block_res):
            for name, arr in block_res.items():
                per_det[name].append(arr)
                trials[name] += arr.shape[0]
                bit_errs[name] += int(arr[:, 0].sum())
            # continue until every detector has crossed a boundary
            return all(trials[name] * bits_per_trial >= spec.stopping.max_bits
                       or bit_errs[name] > spec.stopping.max_bit_errors
                       for name in per_det)

        _run_blocks(_ber_block,
                    lambda i: (system, spec.detectors, snr, spec.seed, i * BLOCK, BLOCK),
                    spec.workers, stop)

        for name in spec.detectors:
            arr = np.concatenate(per_det[name])
            errs = arr[:, 0]
            cum_err = np.cumsum(errs)
            cum_bits = bits_per_trial * np.arange(1, errs.size + 1)
            crossed = (cum_bits >= spec.stopping.max_bits) | (cum_err > spec.stopping.max_bit_errors)
            last = int(np.argmax(crossed)) if crossed.any() else errs.size - 1
            n_trials = last + 1
            bit_errors = int(cum_err[last])
            bits = int(cum_bits[last])
            lo, hi = wilson_interval(bit_errors, bits)
            rows.append(BerPoint(detector=name, snr_db=snr, bits=bits,
                                 bit_errors=bit_errors, ber=bit_errors / bits,
                                 ci_lo=lo, ci_hi=hi, symbols=n_trials * system.n_users,
                                 symbol_errors=int(arr[:n_trials, 1].sum()),
                                 trials=n_trials))
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
    column = 0 if unit == "bit" else 1
    collected = {name: [] for name in detectors}
    needed = math.ceil(n_trials / BLOCK)

    def stop(block_res):
        for name, arr in block_res.items():
            collected[name].append(arr[:, column])
        return len(collected[next(iter(collected))]) >= needed

    _run_blocks(_ber_block,
                lambda i: (system, detectors, snr_db, seed, i * BLOCK, BLOCK),
                workers, stop)
    return {name: np.concatenate(parts)[:n_trials] for name, parts in collected.items()}


# --------------------------------------------------------------------------
# convergence vs sampling iterations
# --------------------------------------------------------------------------

def _convergence_block(args):
    system, base_config, m_grid, s_grid, snr_db, seed, start, count = args
    constellation = build_constellation(system.mod_order)
    s_max = max(s_grid)
    out = np.zeros((count, len(m_grid), len(s_grid)), dtype=np.int64)
    for i in range(count):
        trial = start + i
        inst = generate_instance(system.n_ant, system.n_users, constellation,
                                 snr_db, seed, trial)
        true_bits = symbols_to_bits(inst.x_true, constellation)
        for mi, m in enumerate(m_grid):
            config = replace(base_config, batch_size=m, sampling_iterations=s_max)
            fabric = Fabric(partition(inst.H, inst.y, system.n_clusters),
                            Topology(config.topology, system.n_clusters))
            result = mini_nag_mcmc_detect(inst, config, fabric, constellation, trial=trial)
            best_f = math.inf
            best_x = None
            s_pos = {s: k for k, s in enumerate(s_grid)}
            for rec in result.records:  # in-order: t = 0, 1, ..., s_max
                if rec.f < best_f:
                    best_f, best_x = rec.f, rec.x
                if rec.t in s_pos:
                    bits = symbols_to_bits(best_x, constellation)
                    out[i, mi, s_pos[rec.t]] = int(np.sum(bits != true_bits))
    return out


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

    One chain per (trial, m) at the largest S supplies every smaller S:
    a shorter run is exactly a prefix of a longer one because the
    random streams are consumed in iteration order.  Identical channel,
    noise, walk, and acceptance realizations are shared across the m
    grid (common random numbers).
    """
    m_grid, s_grid = list(m_grid), sorted(s_grid)
    collected = []
    needed = math.ceil(n_trials / BLOCK)

    def stop(block_res):
        collected.append(block_res)
        return len(collected) >= needed

    _run_blocks(_convergence_block,
                lambda i: (system, base_config, m_grid, s_grid, snr_db, seed,
                           i * BLOCK, BLOCK),
                workers, stop)
    errors = np.concatenate(collected)[:n_trials]  # (trials, m, s)
    bits = n_trials * system.bits_per_vector
    rows = [ConvergencePoint(batch_size=m, sampling_iterations=s, snr_db=snr_db,
                             bits=bits, bit_errors=int(errors[:, mi, si].sum()),
                             ber=float(errors[:, mi, si].sum()) / bits)
            for mi, m in enumerate(m_grid) for si, s in enumerate(s_grid)]
    if out_dir:
        _write(out_dir, "convergence.csv", convergence_csv(rows))
    return rows, errors


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


def measured_cu_bits(point: dict, topology_kind: str, seed: int = 0) -> int:
    """Run one real detection and total the ledger's CU-incident traffic."""
    constellation = build_constellation(point["M"])
    inst = generate_instance(point["B"], point["U"], constellation, snr_db=10.0,
                             master_seed=seed)
    config = DetectorConfig(sampling_iterations=point["S"], nag_iterations=point["Ng"],
                            batch_size=point["m"], seed=seed, topology=topology_kind)
    ledger = MessageLedger(real_bits=point["omega"],
                           symbol_bits=int(math.log2(point["M"])))
    topology = Topology(topology_kind, point["C"])
    fabric = Fabric(partition(inst.H, inst.y, point["C"]), topology, ledger=ledger)
    mini_nag_mcmc_detect(inst, config, fabric, constellation)
    return ledger.cu_bits(topology)


def run_bandwidth_report(points: list[dict], measure: bool = True, seed: int = 0,
                         out_dir: str | None = None) -> list[BandwidthRow]:
    """Closed-form interconnect bits per mode, optionally ledger-confirmed."""
    rows = []
    for pt in points:
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
            ledger = MessageLedger(real_bits=pt["omega"], symbol_bits=int(math.log2(pt["M"])))
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
    constellation = build_constellation(system.mod_order)
    inst = generate_instance(system.n_ant, system.n_users, constellation,
                             snr_db=10.0, master_seed=seed)
    counters = OpCounters(system.n_clusters)
    fabric = Fabric(partition(inst.H, inst.y, system.n_clusters),
                    Topology(config.topology, system.n_clusters), counters=counters)
    mini_nag_mcmc_detect(inst, config, fabric, constellation)
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
    sweep_bc = []
    for b in b_grid:
        row = measure_complexity(replace(base_system, n_ant=b), base_config, seed)
        rows.append(row)
        sweep_bc.append(row)
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

    s_rows = [measure_complexity(base_system,
                                 replace(base_config, sampling_iterations=s), seed)
              for s in (4, 8, 16, 32)]
    rows.extend(s_rows)
    slope, intercept, r2 = linear_fit([r.sampling_iterations for r in s_rows],
                                      [r.du_mults_mean for r in s_rows])
    fits["du_vs_sampling_iterations"] = {"slope": slope, "intercept": intercept, "r2": r2}

    ng_rows = [measure_complexity(base_system,
                                  replace(base_config, nag_iterations=ng), seed)
               for ng in (1, 2, 4, 8)]
    rows.extend(ng_rows)
    slope, intercept, r2 = linear_fit([r.nag_iterations for r in ng_rows],
                                      [r.du_mults_mean for r in ng_rows])
    fits["du_vs_nag_iterations"] = {"slope": slope, "intercept": intercept, "r2": r2}

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

def _mini(s, m, seed=0, topology=fb.STAR):
    return DetectorSpec(MINI_NAG_MCMC, DetectorConfig(
        sampling_iterations=s, batch_size=m, seed=seed, topology=topology))


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


_DETECTOR_KEYS = {
    "sampling_iterations": int, "nag_iterations": int, "batch_size": int,
    "walk_step": float, "lr_mode": str, "samplers": int, "seed": int, "topology": str,
}


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
    except ValueError as exc:
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
