"""Harness behavior: stopping, reproducibility, reports, config parsing."""

import numpy as np
import pytest

from dbpdet.detectors import DetectorConfig
from dbpdet.errors import ConfigError, UsageError
from dbpdet.experiments import (LMMSE, MINI_NAG_MCMC, ML, NAG_MCMC, DetectorSpec,
                                ExperimentSpec, StoppingRule, SystemSpec,
                                bandwidth_csv, ber_csv, linear_fit,
                                measure_complexity, parse_config_file, preset,
                                run_bandwidth_report, run_ber_sweep,
                                run_complexity_report, run_convergence,
                                run_paired_trials, wilson_interval)

SMALL = SystemSpec(8, 2, 2, 4)


def _spec(**kw):
    defaults = dict(
        system=SMALL,
        detectors={"lmmse": DetectorSpec(LMMSE),
                   "mini": DetectorSpec(MINI_NAG_MCMC,
                                        DetectorConfig(sampling_iterations=3,
                                                       batch_size=1, seed=1))},
        snr_db=(6.0,),
        stopping=StoppingRule(max_bits=800, max_bit_errors=10_000),
        seed=1,
        workers=1,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def test_wilson_interval():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0 and 0.0 < hi < 0.01
    lo, hi = wilson_interval(100, 1000)
    assert lo < 0.1 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_stopping_rule_bit_boundary():
    rows = run_ber_sweep(_spec())
    bits_per_trial = SMALL.bits_per_vector
    for row in rows:
        crossed_bits = row.bits >= 800
        crossed_errs = row.bit_errors > 10_000
        assert crossed_bits or crossed_errs
        # removing the final trial leaves both boundaries uncrossed
        assert row.bits - bits_per_trial < 800
        assert row.trials == row.bits // bits_per_trial


def test_stopping_rule_error_boundary():
    spec = _spec(snr_db=(0.0,), stopping=StoppingRule(max_bits=10 ** 9, max_bit_errors=25))
    rows = run_ber_sweep(spec)
    for row in rows:
        assert row.bit_errors > 25
        # the crossing trial is included, nothing after it
        prev = row.bit_errors
        assert prev - SMALL.bits_per_vector <= 25 + SMALL.bits_per_vector


def test_worker_count_invariance():
    s1 = _spec(workers=1, stopping=StoppingRule(max_bits=2000, max_bit_errors=10 ** 6))
    s2 = _spec(workers=2, stopping=StoppingRule(max_bits=2000, max_bit_errors=10 ** 6))
    rows1 = run_ber_sweep(s1)
    rows2 = run_ber_sweep(s2)
    assert ber_csv(rows1) == ber_csv(rows2)


def test_ber_csv_schema():
    rows = run_ber_sweep(_spec())
    lines = ber_csv(rows).strip().splitlines()
    assert lines[0] == "detector,snr_db,bits,bit_errors,ber,ci_lo,ci_hi"
    assert len(lines) == 1 + len(rows)


def test_paired_trials_full_batch_matches_centralized():
    system = SystemSpec(16, 4, 4, 16)
    dets = {
        "mini": DetectorSpec(MINI_NAG_MCMC,
                             DetectorConfig(sampling_iterations=4, batch_size=4, seed=2)),
        "cen": DetectorSpec(NAG_MCMC, DetectorConfig(sampling_iterations=4, seed=2)),
    }
    res = run_paired_trials(system, dets, 8.0, 100, seed=2, workers=1)
    assert np.array_equal(res["mini"], res["cen"])


def test_paired_trials_worker_invariance():
    system = SystemSpec(16, 4, 4, 16)
    dets = {"mini": DetectorSpec(MINI_NAG_MCMC,
                                 DetectorConfig(sampling_iterations=3, batch_size=2, seed=3))}
    a = run_paired_trials(system, dets, 8.0, 130, seed=3, workers=1)
    b = run_paired_trials(system, dets, 8.0, 130, seed=3, workers=2)
    assert np.array_equal(a["mini"], b["mini"])


def test_convergence_prefix_matches_direct_runs():
    system = SystemSpec(16, 4, 4, 16)
    base = DetectorConfig(sampling_iterations=6, batch_size=2, seed=4)
    rows, errors = run_convergence(system, base, m_grid=[2], s_grid=[2, 6],
                                   snr_db=8.0, n_trials=40, seed=4, workers=1)
    # direct short runs must agree with prefixes of the long run
    from dbpdet.channel import generate_instance, partition
    from dbpdet.detectors import mini_nag_mcmc_detect
    from dbpdet.fabric import Fabric, Topology
    from dbpdet.modem import build_constellation, symbols_to_bits
    const = build_constellation(16)
    import dataclasses
    for trial in range(6):
        inst = generate_instance(16, 4, const, 8.0, 4, trial)
        cfg = dataclasses.replace(base, sampling_iterations=2)
        fab = Fabric(partition(inst.H, inst.y, 4), Topology("star", 4))
        res = mini_nag_mcmc_detect(inst, cfg, fab, const, trial=trial)
        errs = int(np.sum(symbols_to_bits(res.x_hat, const)
                          != symbols_to_bits(inst.x_true, const)))
        assert errs == errors[trial, 0, 0]


def test_tiny_instance_sampler_ser_near_ml():
    # 4x2 with 4-QAM at 15 dB: the sampler's symbol error rate stays
    # within 0.1% absolute of exhaustive ML over 1e4 paired trials.  The
    # walk step is sized for the coarse 4-QAM lattice at this tiny
    # dimension (the 0.05 default suits large arrays where the descent
    # output already sits next to the truth).
    system = SystemSpec(4, 2, 2, 4)
    config = DetectorConfig(sampling_iterations=32, batch_size=1, seed=11,
                            walk_step=0.7)
    dets = {"mini": DetectorSpec(MINI_NAG_MCMC, config), "ml": DetectorSpec(ML)}
    res = run_paired_trials(system, dets, 15.0, 10_000, seed=11, workers=2,
                            unit="symbol")
    n_symbols = 10_000 * system.n_users
    gap = (res["mini"].sum() - res["ml"].sum()) / n_symbols
    assert gap < 1e-3


def test_convergence_ber_shrinks_with_iterations():
    # desk scale: more sampling iterations cannot hurt (statistically)
    system = SystemSpec(32, 8, 8, 16)
    base = DetectorConfig(sampling_iterations=12, batch_size=4, seed=31)
    _, errors = run_convergence(system, base, m_grid=[4], s_grid=[2, 6, 12],
                                snr_db=5.0, n_trials=400, seed=31, workers=2)
    totals = errors[:, 0, :].sum(axis=0)
    assert totals[0] > totals[1] > totals[2]
    # larger-array analogue of the convergence figure: same shape
    big = SystemSpec(128, 8, 32, 16)
    cfg = DetectorConfig(sampling_iterations=12, batch_size=16, seed=32)
    _, errors_big = run_convergence(big, cfg, m_grid=[16], s_grid=[2, 12],
                                    snr_db=5.0, n_trials=400, seed=32, workers=2)
    totals_big = errors_big[:, 0, :].sum(axis=0)
    assert totals_big[0] > totals_big[1]


def test_convergence_rows_shape():
    system = SystemSpec(16, 4, 4, 16)
    base = DetectorConfig(sampling_iterations=4, batch_size=2, seed=5)
    rows, errors = run_convergence(system, base, m_grid=[1, 2], s_grid=[2, 4],
                                   snr_db=8.0, n_trials=30, seed=5, workers=1)
    assert errors.shape == (30, 2, 2)
    assert len(rows) == 4
    assert {(r.batch_size, r.sampling_iterations) for r in rows} == {(1, 2), (1, 4), (2, 2), (2, 4)}


def test_bandwidth_report_values_and_ratios():
    points = [{"B": b, "U": 8, "C": 8, "m": 2, "S": 4, "Ng": 4, "omega": 16, "M": 16}
              for b in (64, 128, 256)]
    rows = run_bandwidth_report(points, measure=False)
    by_mode = {}
    for r in rows:
        by_mode.setdefault(r.mode, []).append(r)
    # decentralized bits do not depend on B; centralized grows linearly
    star_bits = {r.bits for r in by_mode["mini_star"]}
    assert len(star_bits) == 1
    cen = [r.bits for r in by_mode["centralized"]]
    assert cen == sorted(cen) and cen[0] < cen[-1]
    ratios = [s.bits / c.bits for s, c in zip(by_mode["mini_star"], by_mode["centralized"])]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert by_mode["centralized"][1].bits == 36_864  # B=128, U=8, omega=16


def test_bandwidth_measured_matches_closed_form():
    points = [{"B": 16, "U": 4, "C": 4, "m": 2, "S": 3, "Ng": 2, "omega": 16, "M": 16}]
    rows = run_bandwidth_report(points, measure=True, seed=6)
    for r in rows:
        assert r.measured_bits == r.bits


def test_bandwidth_csv_schema(tmp_path):
    points = [{"B": 16, "U": 4, "C": 4, "m": 2, "S": 3, "Ng": 2, "omega": 16, "M": 16}]
    rows = run_bandwidth_report(points, measure=False, out_dir=str(tmp_path))
    text = (tmp_path / "bandwidth.csv").read_text()
    assert text.splitlines()[0] == "mode,B,U,C,m,S,Ng,omega,M,bits,measured_bits"
    assert bandwidth_csv(rows) == text


def test_complexity_scaling_counters():
    system = SystemSpec(16, 4, 4, 16)
    config = DetectorConfig(sampling_iterations=4, batch_size=2, seed=7)
    base = measure_complexity(system, config)
    double_b = measure_complexity(SystemSpec(32, 4, 4, 16), config)
    triple_b = measure_complexity(SystemSpec(48, 4, 4, 16), config)
    # per-DU work is exactly affine in the block size (equal increments
    # for equal block-size steps 4 -> 8 -> 12)
    assert (double_b.du_mults_mean - base.du_mults_mean
            == pytest.approx(triple_b.du_mults_mean - double_b.du_mults_mean, abs=1e-9))
    assert double_b.du_mults_mean > 1.5 * base.du_mults_mean
    # doubling B with B_c fixed leaves the per-DU work unchanged
    import dataclasses
    same_bc = measure_complexity(SystemSpec(32, 4, 8, 16),
                                 dataclasses.replace(config, batch_size=4))
    assert same_bc.du_mults_mean == pytest.approx(base.du_mults_mean, rel=1e-12)
    # the CU never touches B
    assert double_b.cu_mults == base.cu_mults


def test_complexity_report_fits():
    system = SystemSpec(16, 4, 4, 16)
    config = DetectorConfig(sampling_iterations=4, batch_size=2, seed=8)
    rows, fits = run_complexity_report(system, config)
    assert fits["du_vs_block_rows"]["r2"] > 0.999
    assert fits["du_vs_sampling_iterations"]["r2"] > 0.999
    assert fits["du_vs_nag_iterations"]["r2"] > 0.999
    assert fits["cu_vs_antennas"]["constant"]
    assert fits["du_fixed_block_rows_rel_spread"]["value"] < 1e-12


def test_linear_fit_degenerate():
    slope, intercept, r2 = linear_fit([1, 2, 3], [5.0, 5.0, 5.0])
    assert abs(slope) < 1e-12 and r2 == 1.0


def test_presets():
    for name in ("fig3-desk", "fig4-desk", "oracle"):
        spec = preset(name, seed=9)
        assert spec.snr_db and spec.detectors
    assert preset("oracle").system.n_ant == 16
    with pytest.raises(UsageError):
        preset("fig99")


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("""
[system]
n_ant = 16
n_users = 4
n_clusters = 4
mod_order = 16

[sweep]
snr_db = 8,10
max_bits = 5000
max_bit_errors = 100
seed = 3
workers = 2

[detector:mini]
kind = mini_nag_mcmc
sampling_iterations = 8
batch_size = 2

[detector:lmmse]
kind = lmmse
""")
    spec = parse_config_file(str(path))
    assert spec.system.n_ant == 16
    assert spec.snr_db == (8.0, 10.0)
    assert spec.stopping.max_bits == 5000
    assert spec.workers == 2
    assert spec.detectors["mini"].config.batch_size == 2
    assert spec.detectors["mini"].config.seed == 3  # inherits sweep seed
    assert spec.detectors["lmmse"].kind == LMMSE


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(UsageError):
        parse_config_file(str(tmp_path / "missing.ini"))
    bad = tmp_path / "bad.ini"
    bad.write_text("[sweep]\nsnr_db = 8\n")
    with pytest.raises(UsageError):
        parse_config_file(str(bad))  # no [system]
    bad.write_text("[system]\nn_ant = 16\nn_users = 4\n")
    with pytest.raises(UsageError):
        parse_config_file(str(bad))  # no detectors
    bad.write_text("[system]\nn_ant = x\nn_users = 4\n\n[detector:a]\nkind = lmmse\n")
    with pytest.raises(UsageError):
        parse_config_file(str(bad))
    bad.write_text("[system]\nn_ant = 16\nn_users = 4\nn_clusters = 4\n"
                   "\n[detector:a]\nkind = mini_nag_mcmc\nbatch_size = nope\n")
    with pytest.raises(UsageError):
        parse_config_file(str(bad))


def test_invalid_specs():
    with pytest.raises(ConfigError):
        SystemSpec(8, 16, 2, 16)
    with pytest.raises(ConfigError):
        SystemSpec(8, 2, 3, 16)
    with pytest.raises(ConfigError):
        DetectorSpec("unknown")
    with pytest.raises(ConfigError):
        DetectorSpec(MINI_NAG_MCMC)  # config required
    with pytest.raises(ConfigError):
        _spec(snr_db=())
    with pytest.raises(ConfigError):
        _spec(workers=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(system=SMALL, detectors={"ml": DetectorSpec(ML)},
                       snr_db=(5.0,), workers=0)
    with pytest.raises(ConfigError, match="exceeds the cap"):
        ExperimentSpec(system=SystemSpec(16, 6, 2, 16), detectors={"ml": DetectorSpec(ML)},
                       snr_db=(5.0,))
