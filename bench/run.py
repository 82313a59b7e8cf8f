#!/usr/bin/env python3
"""dbpdet benchmark: closed-loop Monte Carlo trials per second.

Run from the root of a checkout:

    python3 bench/run.py --workload fig4-ber --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced pass.  ``--workload all`` runs every
workload, untraced and traced, each in a fresh process, one after
another.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads,
metrics and units are described in bench/README.md.
"""

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"  # pinned before numpy loads; inherited by child processes

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "dbpdet" / "__init__.py").is_file():
    sys.exit(f"bench: no dbpdet sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from dbpdet import channel, detectors, experiments, fabric, modem, rng  # noqa: E402
from tracing import Tracer  # noqa: E402

TRIALS = 64        # trials per step: one fixed-size block of the BER harness
SETUP_SAMPLES = 7  # setup_s is the median of this many set-ups, spread over an untraced run
REF_S = 0.025      # nominal time of reference_kernel(): reported times are in reference seconds

# The reference kernel's operands: one 4x8 per-unit block, like a fig3/fig4 DU's,
# and 16^4 candidate vectors of length 4 with a 4x4 Gram matrix, like the oracle's ML search.
_REF_H = np.linspace(-1.0, 1.0, 32).reshape(4, 8) * (1 - 0.5j)
_REF_Y = np.linspace(0.5, -0.5, 4) + 0.25j
_REF_C = (np.arange(65536 * 4) % 7 - 3.0).reshape(65536, 4) * (1 + 0.5j)
_REF_G = np.linspace(-1.0, 1.0, 16).reshape(4, 4) * (1 - 0.25j)
_REF_V = np.linspace(0.5, -0.5, 4) + 0.1j

TRACED = {
    "rng": ("stream",),
    "channel": ("generate_instance", "partition"),
    "modem": ("qam_map", "symbols_to_bits", "build_constellation"),
    "fabric": ("Fabric.du_view", "Fabric.local_gradient", "Fabric.local_objective",
               "Fabric.gradient_sum", "Fabric.objective_sum", "Fabric.broadcast_reals",
               "Fabric.broadcast_symbols", "Fabric.collect_gram_diag_sum",
               "Topology.upload_links", "MessageLedger.charge",
               "OpCounters.add_du", "OpCounters.add_cu"),
    "detectors": ("mini_nag_mcmc_detect", "nag_mcmc_detect", "nag_stage",
                  "propose_candidate", "mh_accept", "lmmse_detect", "ml_brute_force"),
    "experiments": ("run_ber_sweep",),
}


def targets():
    """Traced label -> (module, public name), in the modules imported last."""
    modules = {"rng": rng, "channel": channel, "modem": modem, "fabric": fabric,
               "detectors": detectors, "experiments": experiments}
    return {f"{mod}.{name}": (modules[mod], name)
            for mod, names in TRACED.items() for name in names}


def import_dbpdet():
    """Import dbpdet afresh, so that its module-level and lazy caches are rebuilt."""
    global channel, detectors, experiments, fabric, modem, rng
    for name in [n for n in sys.modules if n == "dbpdet" or n.startswith("dbpdet.")]:
        del sys.modules[name]
    from dbpdet import channel, detectors, experiments, fabric, modem, rng


def summary(problems, shown=3):
    more = len(problems) - shown
    return "; ".join(problems[:shown]) + (f"; and {more} more" if more > 0 else "")


def _mix(acc: int, i: int) -> int:
    return (acc * 3 + i) % 1009


def reference_kernel() -> float:
    """Wall time of a fixed workload that shares no code with dbpdet.

    The machine this benchmark runs on is shared, and its speed drifts by
    tens of percent within seconds and over minutes.  The kernel's time
    follows that drift, so each step's time is scaled by ``REF_S / kernel
    time`` measured around the step: it reads as the time the step would
    take on a machine where the kernel takes ``REF_S``.  The kernel mixes
    the four kinds of work a dbpdet step does, so that it slows down as a
    step does; a change to dbpdet does not move it.
    """
    start = time.perf_counter()
    # numpy dispatch on tiny operands: small complex matrix-vector updates
    p = np.zeros(8, dtype=np.complex128)
    for _ in range(1500):
        p = p + 0.01 * (_REF_H.conj().T @ (_REF_Y - _REF_H @ p))
    # interpreter work: calls, tuples, dict updates, list churn
    counts, acc, keys = {}, 0, []
    for i in range(12000):
        acc = _mix(acc, i)
        key = (i % 17, acc % 5)
        counts[key] = counts.get(key, 0) + 1
        keys.append(key)
        if len(keys) > 64:
            keys.clear()
    # random-stream construction and small draws
    for i in range(120):
        g = np.random.default_rng(np.random.SeedSequence((7, i)))
        g.standard_normal(8)
        g.choice(8, size=4, replace=False)
    # large arrays: score every candidate vector, as an exhaustive search does
    for _ in range(3):
        quad = np.einsum("nu,nu->n", _REF_C.conj(), _REF_C @ _REF_G.T).real
        int(np.argmin(quad - 2.0 * (_REF_C @ _REF_V.conj()).real))
    return time.perf_counter() - start


def step_seed(seed: int, k: int) -> int:
    """Master seed of step ``k`` (``k = 0`` is the warm-up step)."""
    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])


def objective(inst, x) -> float:
    r = inst.y - inst.H @ x
    return float(np.real(np.vdot(r, r)))


def decide(det, system, inst, constellation, trial):
    """Decision of one preset detector on one instance, as the BER harness makes it."""
    c = system.n_clusters
    if det.kind == experiments.MINI_NAG_MCMC:
        fab = fabric.Fabric(channel.partition(inst.H, inst.y, c),
                            fabric.Topology(det.config.topology, c))
        return detectors.mini_nag_mcmc_detect(inst, det.config, fab, constellation,
                                              trial=trial).x_hat
    if det.kind == experiments.NAG_MCMC:
        return detectors.nag_mcmc_detect(inst, det.config, constellation, clusters=c,
                                         trial=trial).x_hat
    if det.kind == experiments.LMMSE:
        return detectors.lmmse_detect(inst, constellation)
    return detectors.ml_brute_force(inst, constellation)


def check_ml_is_best(spec, inst, constellation, trial):
    """ML's objective is no larger than any other detector's on this trial."""
    f = {name: objective(inst, decide(det, spec.system, inst, constellation, trial))
         for name, det in spec.detectors.items()}
    f_ml = min(f[name] for name, det in spec.detectors.items() if det.kind == experiments.ML)
    # ML ranks candidates by an expanded metric; allow its rounding, nothing more
    return [f"trial {trial}: ML objective {f_ml!r} > {name} objective {value!r}"
            for name, value in f.items() if f_ml > value * (1.0 + 1e-9) + 1e-12]


def check_full_batch_is_centralized(spec, inst, constellation, trial):
    """mini at m = C decides exactly as the centralized sampler (a README guarantee)."""
    c = spec.system.n_clusters
    config = next(det.config for det in spec.detectors.values()
                  if det.kind == experiments.NAG_MCMC)
    fab = fabric.Fabric(channel.partition(inst.H, inst.y, c), fabric.Topology(config.topology, c))
    mini = detectors.mini_nag_mcmc_detect(inst, replace(config, batch_size=c), fab,
                                          constellation, trial=trial)
    nag = detectors.nag_mcmc_detect(inst, config, constellation, clusters=c, trial=trial)
    if np.array_equal(mini.x_hat, nag.x_hat) and mini.f_hat == nag.f_hat:
        return []
    return [f"trial {trial}: mini at m=C decided {mini.x_hat} (f={mini.f_hat!r}), "
            f"nag decided {nag.x_hat} (f={nag.f_hat!r})"]


class BerWorkload:
    """Each step is one ``run_ber_sweep`` call: one SNR point, one 64-trial block."""

    def __init__(self, preset, check_trial):
        self.preset = preset
        self.check_trial = check_trial

    def setup(self):
        spec = experiments.preset(self.preset)
        self.constellation = modem.build_constellation(spec.system.mod_order)

    def step(self, seed, k):
        spec = experiments.preset(self.preset, seed=seed)
        bits = TRIALS * spec.system.bits_per_vector
        # the error budget equals the bit budget, so it can never stop a point early
        spec = replace(spec, snr_db=(spec.snr_db[k % len(spec.snr_db)],), workers=1,
                       stopping=experiments.StoppingRule(max_bits=bits, max_bit_errors=bits))
        return spec, experiments.run_ber_sweep(spec)

    def check(self, out, seed, k):
        spec, rows = out
        system = spec.system
        bits = TRIALS * system.bits_per_vector
        problems = []
        if [r.detector for r in rows] != list(spec.detectors):
            problems.append(f"rows for {[r.detector for r in rows]}, "
                            f"expected {list(spec.detectors)}")
        problems += [f"{r.detector}: trials={r.trials} bits={r.bits} bit_errors={r.bit_errors}"
                     for r in rows
                     if r.trials != TRIALS or r.bits != bits or not 0 <= r.bit_errors <= r.bits]
        trial = k % TRIALS
        inst = channel.generate_instance(system.n_ant, system.n_users, self.constellation,
                                         spec.snr_db[0], seed, trial)
        return problems + self.check_trial(spec, inst, self.constellation, trial)

    def accounting(self, out):
        """(ledger bits, DU mults, CU mults); the BER harness attaches no ledger or counters."""
        return 0, 0, 0


class ChainWorkload:
    """Each step runs 64 fig3-desk trials on a daisy chain for every batch size."""

    preset = "fig3-desk"

    def setup(self):
        spec = experiments.preset(self.preset)
        self.system = spec.system
        self.constellation = modem.build_constellation(spec.system.mod_order)

    def step(self, seed, k):
        spec = experiments.preset(self.preset, seed=seed)
        system, c = spec.system, spec.system.n_clusters
        configs = [replace(det.config, topology=fabric.DAISY_CHAIN)
                   for det in spec.detectors.values()]
        out = []
        for trial in range(TRIALS):
            inst = channel.generate_instance(system.n_ant, system.n_users, self.constellation,
                                             spec.snr_db[0], seed, trial)
            true_bits = modem.symbols_to_bits(inst.x_true, self.constellation)
            for config in configs:
                topology = fabric.Topology(fabric.DAISY_CHAIN, c)
                ledger = fabric.MessageLedger(symbol_bits=self.constellation.bits_per_symbol)
                counters = fabric.OpCounters(c)
                fab = fabric.Fabric(channel.partition(inst.H, inst.y, c), topology,
                                    ledger=ledger, counters=counters)
                x_hat = detectors.mini_nag_mcmc_detect(inst, config, fab, self.constellation,
                                                       trial=trial).x_hat
                errors = int(np.sum(modem.symbols_to_bits(x_hat, self.constellation)
                                    != true_bits))
                out.append((config, errors, ledger, counters, topology))
        return out

    def check(self, out, seed, k):
        system = self.system
        problems = []
        if len(out) != TRIALS * len(experiments.preset(self.preset).detectors):
            problems.append(f"{len(out)} detections in a step")
        for config, errors, ledger, _, topology in out:
            expected = fabric.predicted_bandwidth(
                "mini_chain", n_users=system.n_users,
                sampling_iterations=config.sampling_iterations,
                nag_iterations=config.nag_iterations, real_bits=ledger.real_bits,
                mod_order=system.mod_order)
            if ledger.cu_bits(topology) != expected:
                problems.append(f"m={config.batch_size}: ledger CU bits "
                                f"{ledger.cu_bits(topology)} != closed form {expected}")
            if not 0 <= errors <= system.bits_per_vector:
                problems.append(f"m={config.batch_size}: {errors} bit errors")
        return problems

    def accounting(self, out):
        return (sum(ledger.bits() for _, _, ledger, _, _ in out),
                sum(int(counters.du_totals().sum()) for _, _, _, counters, _ in out),
                sum(int(counters.cu_total()) for _, _, _, counters, _ in out))


WORKLOADS = {
    "fig4-ber": lambda: BerWorkload("fig4-desk", check_full_batch_is_centralized),
    "oracle-ml": lambda: BerWorkload("oracle", check_ml_is_best),
    "fig3-chain": ChainWorkload,
}


@dataclass
class Phase:
    """Outcome of a closed loop of timed steps."""

    times: list = field(default_factory=list)   # reference seconds per step
    walls: list = field(default_factory=list)   # wall seconds per step
    trials: int = 0
    failed: int = 0
    accounting: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=np.int64))

    @property
    def trials_per_s(self) -> float:
        return self.trials / sum(self.times)

    @classmethod
    def join(cls, phases):
        return cls(times=[t for p in phases for t in p.times],
                   walls=[w for p in phases for w in p.walls],
                   trials=sum(p.trials for p in phases), failed=sum(p.failed for p in phases),
                   accounting=sum(p.accounting for p in phases))


def run_steps(workload, seed, first_k, seconds, tracer=None) -> Phase:
    """Closed loop: each step starts when the previous step and its checks end.

    Only the steps themselves are timed; checks, span bookkeeping and the
    reference kernel, run before and after each step, are not.
    """
    phase = Phase()
    k = first_k
    while not phase.walls or sum(phase.walls) < seconds:
        s = step_seed(seed, k)
        out = None
        ref_before = reference_kernel()
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            out = workload.step(s, k)
        except Exception:
            traceback.print_exc()
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        scale = REF_S / (0.5 * (ref_before + reference_kernel()))
        phase.walls.append(wall)
        phase.times.append(wall * scale)
        if tracer is not None:
            tracer.drain(scale)
        problems = ["step raised"] if out is None else workload.check(out, s, k)
        if problems:
            phase.failed += 1
            print(f"bench: step {k} (seed {s}) failed: {summary(problems)}", file=sys.stderr)
        if out is not None:
            phase.trials += TRIALS
            phase.accounting += workload.accounting(out)
        k += 1
    if phase.trials == 0:
        sys.exit("bench: no step completed")
    return phase


def set_up(name, seed):
    """Import dbpdet afresh, build the workload and run its warm-up step (step 0).

    Returns the workload and the set-up time, scaled like a step's, in
    reference seconds.  The warm-up step's checks are not timed.
    """
    gc.collect()  # free an earlier set-up's modules before this one is built
    ref_before = statistics.median(reference_kernel() for _ in range(3))
    start = time.perf_counter()
    import_dbpdet()
    workload = WORKLOADS[name]()
    workload.setup()
    s = step_seed(seed, 0)
    out = workload.step(s, 0)
    wall = time.perf_counter() - start
    ref_after = statistics.median(reference_kernel() for _ in range(3))
    problems = workload.check(out, s, 0)
    if problems:
        sys.exit(f"bench: warm-up step failed: {summary(problems)}")
    return workload, wall * REF_S / (0.5 * (ref_before + ref_after))


def tail(times):
    """Highest percentile of step time with at least ten steps beyond it.

    Returns (value, percentile); with ten steps or fewer, the slowest step.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(name, seed, trace):
    digest = hashlib.sha256()
    for path in sorted((SRC / "dbpdet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": name, "workload_seed": seed, "trace": trace,
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "git_revision": git_revision(), "src_sha256": digest.hexdigest()}


def emit(correct, attempted, failed, metrics, lines=()):
    """Print the human-readable lines, then the result as the last line."""
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}),
          flush=True)


def end_to_end(name, seed, seconds, workload, setup_s):
    """The run's steps, with a fresh set-up after each SETUP_SAMPLES-th share of them.

    Set-ups spread over the run meet the same drift of machine speed as
    the steps do; the steps after a set-up run on its workload.
    """
    setups, phases, done = [setup_s], [], 0.0
    for i in range(SETUP_SAMPLES):
        if i:
            workload = None  # so that set_up can free its modules
            workload, setup_s = set_up(name, seed)
            setups.append(setup_s)
        k = 1 + sum(len(p.times) for p in phases)
        phases.append(run_steps(workload, seed, k, seconds * (i + 1) / SETUP_SAMPLES - done))
        done += sum(phases[-1].walls)
        if i == 0:
            # read before the second set-up: the memory freed by each later
            # re-import stays fragmented and would add a few MiB at random
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phase = Phase.join(phases)
    tail_s, tail_pct = tail(phase.times)
    n = len(phase.times)
    metrics = {
        "trials_per_s": (phase.trials_per_s, "1/s"),
        "step_s_p50": (statistics.median(phase.times), "s"),
        "step_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    lines = [f"{k:<14} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines += [f"step_s_tail is p{tail_pct:.1f} of {n} steps",
              f"wall clock: {phase.trials / sum(phase.walls):.6g} trials/s, step p50 "
              f"{statistics.median(phase.walls):.6g} s, reference scale "
              f"{sum(phase.times) / sum(phase.walls):.4f}",
              f"setup_s samples {[round(s, 4) for s in setups]}",
              f"failed_share   {phase.failed / n:.6g} ({phase.failed}/{n} steps)"]
    return phase.failed == 0, n, phase.failed, metrics, lines


def per_layer(name, seed, seconds, workload):
    """Half the time untraced, then half traced; returns per-layer metrics."""
    base = run_steps(workload, seed, 1, seconds / 2)
    traced_names = targets()
    tracer = Tracer(traced_names)
    accepted = 0

    def count_accept(result):
        nonlocal accepted
        accepted += bool(result[0])

    modules = [m for n, m in sys.modules.items() if n == "dbpdet" or n.startswith("dbpdet.")]
    tracer.install(traced_names, modules, on_return={"detectors.mh_accept": count_accept})
    try:
        traced = run_steps(workload, seed, 1 + len(base.times), seconds / 2, tracer)
    finally:
        tracer.uninstall()
    trials, wall = traced.trials, sum(traced.times)
    metrics, rows = {}, []
    for label, calls, self_s in zip(tracer.labels, tracer.calls, tracer.self_s):
        metrics[f"{label}.calls_per_trial"] = (int(calls) / trials, "count")
        metrics[f"{label}.self_us_per_trial"] = (float(self_s) / trials * 1e6, "us")
        metrics[f"{label}.self_share"] = (float(self_s) / wall, "ratio")
        rows.append((float(self_s) / wall, label, int(calls) / trials,
                     float(self_s) / trials * 1e6))
    mh_calls = int(tracer.calls[tracer.labels.index("detectors.mh_accept")])
    bits, du, cu = (int(v) for v in traced.accounting)
    metrics.update({
        "detectors.mh_accept.accept_ratio": (accepted / mh_calls if mh_calls else 0.0, "ratio"),
        "fabric.ledger.bits_per_trial": (bits / trials, "bit"),
        "fabric.counters.du_mults_per_trial": (du / trials, "count"),
        "fabric.counters.cu_mults_per_trial": (cu / trials, "count"),
        "tracing_overhead": (traced.trials_per_s / base.trials_per_s, "ratio"),
    })
    lines = [f"{'traced name':<36} {'self_share':>10} {'calls/trial':>12} {'self_us/trial':>14}"]
    lines += [f"{label:<36} {share:>10.4f} {calls:>12.6g} {us:>14.2f}"
              for share, label, calls, us in sorted(rows, reverse=True)]
    lines += [f"{k:<36} {metrics[k][0]:.6g} {metrics[k][1]}"
              for k in list(metrics)[-5:]]
    attempted = len(base.times) + len(traced.times)
    failed = base.failed + traced.failed
    lines.append(f"failed_share {failed / attempted:.6g} ({failed}/{attempted} steps)")
    return failed == 0, attempted, failed, metrics, lines


def run_all(args):
    """Every workload, untraced then traced, each run in a fresh process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(trace)],
                                  stdout=subprocess.PIPE, text=True, check=True)
            print(f"== {name} trace={trace}")
            print(proc.stdout, end="")
            result = json.loads(proc.stdout.splitlines()[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}:{k}": (v["value"], v["unit"])
                            for k, v in result["metrics"].items()})
    emit(correct, attempted, failed, metrics)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    print("env " + json.dumps(environment(args.workload, args.seed, args.trace)))
    if args.trace:
        emit(*per_layer(args.workload, args.seed, args.seconds,
                        set_up(args.workload, args.seed)[0]))
    else:
        emit(*end_to_end(args.workload, args.seed, args.seconds,
                         *set_up(args.workload, args.seed)))


if __name__ == "__main__":
    main()
