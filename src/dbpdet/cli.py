"""Command-line entry point.

Subcommands: ber, convergence, bandwidth, complexity, diagnose,
validate-config.  Exit codes: 0 success, 1 usage/config error,
2 runtime error, 3 diagnostic failure.
"""

import argparse
import os
import sys
from dataclasses import replace

from . import diagnostics, experiments
from .detectors import DetectorConfig
from .errors import ConfigError, UsageError
from .experiments import (ExperimentSpec, SystemSpec, bandwidth_csv, ber_csv,
                          complexity_csv, convergence_csv, parse_config_file, preset)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through UsageError (exit 1)."""

    def error(self, message):
        raise UsageError(message)


def _ints(text):
    return [int(tok) for tok in text.split(",") if tok]


def _floats(text):
    return [float(tok) for tok in text.split(",") if tok]


def _names(text):
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _build_parser() -> _Parser:
    parser = _Parser(prog="dbpdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {"--config": {"help": "experiment config file (INI)"},
              "--preset": {"help": "built-in preset: fig3-desk, fig4-desk, oracle"},
              "--seed": {"type": int, "help": "master seed override"},
              "--workers": {"type": int, "help": "worker process count"},
              "--out": {"help": "output directory for CSV/JSON"}}

    def common(p, *flags):
        """Register the shared flags the subcommand's handler reads (all by default)."""
        for flag in flags or shared:
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("ber", help="BER sweep over an SNR grid")
    common(p)
    p.add_argument("--snr", type=_floats, help="comma-separated SNR grid in dB")
    p.add_argument("--max-bits", type=int, help="stop after this many bits")
    p.add_argument("--max-errors", type=int, help="stop once bit errors exceed this")

    p = sub.add_parser("convergence", help="BER vs sampling iterations per batch size")
    common(p)
    p.add_argument("--snr", type=float, default=5.0)
    p.add_argument("--m-grid", type=_ints, default=[1, 4, 8])
    p.add_argument("--s-grid", type=_ints, default=list(range(2, 13)))
    p.add_argument("--trials", type=int, default=2000)

    p = sub.add_parser("bandwidth", help="interconnect bits: closed form vs ledger")
    common(p, "--seed", "--out")
    p.add_argument("--b-grid", type=_ints, default=[64, 128, 256])
    p.add_argument("--u", type=int, default=8)
    p.add_argument("--c", type=int, default=8)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--s", type=int, default=4)
    p.add_argument("--ng", type=int, default=4)
    p.add_argument("--omega", type=int, default=16)
    p.add_argument("--m-order", type=int, default=16)
    p.add_argument("--no-measured", action="store_true",
                   help="skip the ledger confirmation runs")

    p = sub.add_parser("complexity", help="multiplication counters and scaling fits")
    common(p, "--seed", "--out")
    p.add_argument("--b", type=int, default=32)
    p.add_argument("--u", type=int, default=8)
    p.add_argument("--c", type=int, default=8)
    p.add_argument("--m-order", type=int, default=16)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--s", type=int, default=8)
    p.add_argument("--ng", type=int, default=4)

    p = sub.add_parser("diagnose", help="run the chain diagnostics suite")
    common(p, "--out")
    p.add_argument("--checks", type=_names, help="comma-separated subset of check names")
    p.add_argument("--inject-fault", choices=["acceptance"],
                   help="deliberately tamper the acceptance rule (self-test)")

    p = sub.add_parser("validate-config", help="parse and validate a config file")
    p.add_argument("--config", required=True)
    return parser


def _resolve_spec(args) -> ExperimentSpec:
    if args.config:
        spec = parse_config_file(args.config)
    elif args.preset:
        spec = preset(args.preset, seed=args.seed or 0)
    else:
        raise UsageError("provide --preset or --config")
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
        detectors = {}
        for name, det in spec.detectors.items():
            if det.config is not None:
                detectors[name] = replace(det, config=replace(det.config, seed=args.seed))
            else:
                detectors[name] = det
        spec = replace(spec, detectors=detectors)
    if args.workers is not None:
        spec = replace(spec, workers=args.workers)
    if args.out is not None:
        spec = replace(spec, out_dir=args.out)
    return spec


def _cmd_ber(args) -> int:
    spec = _resolve_spec(args)
    if args.snr:
        spec = replace(spec, snr_db=tuple(args.snr))
    stopping = spec.stopping
    if args.max_bits is not None:
        stopping = replace(stopping, max_bits=args.max_bits)
    if args.max_errors is not None:
        stopping = replace(stopping, max_bit_errors=args.max_errors)
    spec = replace(spec, stopping=stopping)
    rows = experiments.run_ber_sweep(spec)
    sys.stdout.write(ber_csv(rows))
    return 0


def _cmd_convergence(args) -> int:
    spec = _resolve_spec(args)
    mini = next((d for d in spec.detectors.values()
                 if d.kind == experiments.MINI_NAG_MCMC), None)
    base = mini.config if mini else DetectorConfig(sampling_iterations=max(args.s_grid, default=0),
                                                   seed=spec.seed)
    rows, _ = experiments.run_convergence(spec.system, base, args.m_grid, args.s_grid,
                                          args.snr, args.trials, seed=spec.seed,
                                          workers=spec.workers, out_dir=spec.out_dir)
    sys.stdout.write(convergence_csv(rows))
    return 0


def _cmd_bandwidth(args) -> int:
    points = [{"B": b, "U": args.u, "C": args.c, "m": args.m, "S": args.s,
               "Ng": args.ng, "omega": args.omega, "M": args.m_order}
              for b in args.b_grid]
    rows = experiments.run_bandwidth_report(points, measure=not args.no_measured,
                                            seed=args.seed or 0, out_dir=args.out)
    sys.stdout.write(bandwidth_csv(rows))
    centralized = {r.n_ant: r.bits for r in rows if r.mode == "centralized"}
    for mode in ("mini_star", "mini_chain"):
        shares = ", ".join(f"B={r.n_ant}: {100 * r.bits / centralized[r.n_ant]:.1f}%"
                           for r in rows if r.mode == mode)
        sys.stdout.write(f"# {mode} share of centralized -> {shares}\n")
    return 0


def _cmd_complexity(args) -> int:
    system = SystemSpec(args.b, args.u, args.c, args.m_order)
    config = DetectorConfig(sampling_iterations=args.s, nag_iterations=args.ng,
                            batch_size=args.m, seed=args.seed or 0)
    rows, fits = experiments.run_complexity_report(system, config,
                                                   seed=args.seed or 0, out_dir=args.out)
    sys.stdout.write(complexity_csv(rows))
    for name, info in fits.items():
        sys.stdout.write(f"# fit {name}: {info}\n")
    return 0


def _cmd_diagnose(args) -> int:
    report = diagnostics.run_diagnostic_suite(checks=args.checks, fault=args.inject_fault)
    text = diagnostics.report_json(report)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "diagnostics.json"), "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0 if report["passed"] else 3


def _cmd_validate_config(args) -> int:
    spec = parse_config_file(args.config)
    sys.stdout.write(
        f"ok: {len(spec.detectors)} detector(s), "
        f"system {spec.system.n_ant}x{spec.system.n_users} "
        f"C={spec.system.n_clusters} M={spec.system.mod_order}, "
        f"{len(spec.snr_db)} SNR point(s)\n")
    return 0


_COMMANDS = {
    "ber": _cmd_ber,
    "convergence": _cmd_convergence,
    "bandwidth": _cmd_bandwidth,
    "complexity": _cmd_complexity,
    "diagnose": _cmd_diagnose,
    "validate-config": _cmd_validate_config,
}


def _message(exc: Exception) -> str:
    """The exception text plus its notes, such as the block and trial that failed."""
    return str(exc) + "".join(f" ({note})" for note in getattr(exc, "__notes__", ()))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigError) as exc:
        sys.stderr.write(f"error: {_message(exc)}\n")
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except Exception as exc:  # noqa: BLE001 - map anything else to exit 2
        sys.stderr.write(f"runtime error: {type(exc).__name__}: {_message(exc)}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
