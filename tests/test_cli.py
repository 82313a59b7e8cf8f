"""CLI subcommands, exit codes, and emitted files."""

import json
import subprocess
import sys

import numpy as np
import pytest

from dbpdet import detectors, experiments
from dbpdet import rng as rngmod
from dbpdet.channel import generate_instance
from dbpdet.cli import main
from dbpdet.errors import CapacityError
from dbpdet.modem import build_constellation

CONFIG = """
[system]
n_ant = 8
n_users = 2
n_clusters = 2
mod_order = 4

[sweep]
snr_db = 6
max_bits = 400
max_bit_errors = 100000
seed = 2
workers = 1

[detector:mini]
kind = mini_nag_mcmc
sampling_iterations = 3
batch_size = 1

[detector:lmmse]
kind = lmmse
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG)
    return str(path)


def test_validate_config_ok(config_path, capsys):
    assert main(["validate-config", "--config", config_path]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_config_missing_file(tmp_path, capsys):
    assert main(["validate-config", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "error:" in capsys.readouterr().err


ML_CONFIG = """
[system]
n_ant = 32
n_users = 8
n_clusters = 8
mod_order = 16

[sweep]
snr_db = 6
max_bits = 2048
seed = 2

[detector:ml]
kind = ml

[detector:lmmse]
kind = lmmse
"""


def test_ml_runs_at_fig4_scale(tmp_path, capsys):
    path = tmp_path / "ml.ini"
    path.write_text(ML_CONFIG)
    assert main(["validate-config", "--config", str(path)]) == 0
    assert "ok: 2 detector(s), system 32x8" in capsys.readouterr().out
    assert main(["ber", "--config", str(path)]) == 0  # one 64-trial block of 32 bits each
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [["ml", "6", "2048"], ["lmmse", "6", "2048"]]


def test_ml_node_budget_exceeded_exits_2(config_path, monkeypatch, capsys):
    monkeypatch.setattr(detectors, "ML_NODES", 2)
    const = build_constellation(4)
    with pytest.raises(CapacityError, match="more than 2 nodes"):
        detectors.ml_brute_force(generate_instance(8, 2, const, 6.0, 2), const)
    with open(config_path, "a") as fh:
        fh.write("\n[detector:ml]\nkind = ml\n")
    assert main(["ber", "--config", config_path]) == 2
    assert capsys.readouterr().err == ("runtime error: CapacityError: ML search visited more "
                                       "than 2 nodes (in block 0, trial 0)\n")


def test_usage_errors(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["ber"]) == 1  # needs --preset or --config
    capsys.readouterr()


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_ber_runs_and_writes_csv(config_path, tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["ber", "--config", config_path, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "detector,snr_db,bits,bit_errors,ber,ci_lo,ci_hi"
    assert (out / "ber.csv").read_text() == text


def test_ber_deterministic_across_workers(config_path, capsys):
    assert main(["ber", "--config", config_path, "--workers", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["ber", "--config", config_path, "--workers", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_failure_names_block_and_trial(config_path, monkeypatch, capsys, workers):
    stream = rngmod.stream

    def failing_at_trial_70(seed, domain, *key):
        if domain == rngmod.WALK and key[0] == 70:
            raise FloatingPointError("injected")
        return stream(seed, domain, *key)

    # 100 trials of 4 bits: blocks 0 and 1 run, and trial 70 is in block 1; the sampler
    # draws each trial's walk stream in its per-trial set-up
    monkeypatch.setattr(rngmod, "stream", failing_at_trial_70)
    assert main(["ber", "--config", config_path, "--workers", str(workers)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "runtime error: FloatingPointError: injected (in block 1, trial 70)\n"


@pytest.mark.parametrize("workers", [1, 2])
def test_non_finite_trial_names_block_and_trial(config_path, monkeypatch, capsys, workers):
    generate = experiments.generate_instance

    def nan_at_trial_70(*args):
        instance = generate(*args)
        if args[-1] == 70:
            instance.y[0] = np.nan
        return instance

    # the first detector in the spec's order (mini) fails first, on its MH test
    monkeypatch.setattr(experiments, "generate_instance", nan_at_trial_70)
    assert main(["ber", "--config", config_path, "--workers", str(workers)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("runtime error: NumericInputError: objective values must be finite "
                            "(in block 1, trial 70)\n")


@pytest.mark.parametrize("workers", [1, 2])
def test_first_trial_to_fail_alone_is_named(config_path, monkeypatch, capsys, workers):
    generate, ml = experiments.generate_instance, experiments.ml_brute_force
    made = {}

    def nan_at_trial_70(*args):
        instance = made[args[-1]] = generate(*args)
        if args[-1] == 70:
            instance.y[0] = np.nan
        return instance

    def failing_at_trial_66(instance, constellation):
        if instance is made.get(66):
            raise CapacityError("injected")
        return ml(instance, constellation)

    # block 1 fails first in mini, on trial 70; run again one at a time, its trials fail
    # first at trial 66, in ml, the last detector in the spec's order
    monkeypatch.setattr(experiments, "generate_instance", nan_at_trial_70)
    monkeypatch.setattr(experiments, "ml_brute_force", failing_at_trial_66)
    with open(config_path, "a") as fh:
        fh.write("\n[detector:ml]\nkind = ml\n")
    assert main(["ber", "--config", config_path, "--workers", str(workers)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "runtime error: CapacityError: injected (in block 1, trial 66)\n"


_BAD_VALUES = [("n_clusters = 2", "n_clusters = 0", "n_clusters"),
               ("n_clusters = 2", "n_clusters = -2", "n_clusters"),
               ("mod_order = 4", "mod_order = 8", "mod_order"),
               ("mod_order = 4", "mod_order = 0", "mod_order"),
               ("mod_order = 4", "mod_order = -4", "mod_order"),
               ("batch_size = 1", "batch_size = 3", "batch_size"),
               ("seed = 2", "seed = -1", "seed"),
               ("batch_size = 1", "batch_size = 1\nseed = -3", "seed")]


@pytest.mark.parametrize("argv, edit, key", [
    *(pytest.param([command], (old, new), key, id=f"{command} {new}".replace("\n", " "))
      for old, new, key in _BAD_VALUES for command in ("validate-config", "ber")),
    *(pytest.param(argv, None, key, id=" ".join(argv)) for argv, key in (
        (["complexity", "--c", "0"], "n_clusters"),
        (["bandwidth", "--c", "0"], "n_clusters"),
        (["bandwidth", "--c", "0", "--no-measured"], "n_clusters"),
        (["ber", "--preset", "oracle", "--seed", "-1"], "seed"),
        (["convergence", "--preset", "fig3-desk", "--seed", "-1", "--trials", "1"], "seed"))),
])
def test_bad_system_batch_size_or_seed_exits_1(argv, edit, key, tmp_path, capsys):
    # no cluster, an unsupported QAM order, a batch size that does not divide C = 2 or a
    # negative seed: validate-config rejects what the run would, before any row is printed
    if edit:
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG.replace(*edit))
        argv = [*argv, "--config", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and key in captured.err


@pytest.mark.parametrize("argv", [
    ["ber", "--preset", "oracle", "--snr", "10", "--max-bits", "0"],
    ["ber", "--preset", "oracle", "--snr", "10", "--max-bits", "-5"],
    ["ber", "--preset", "oracle", "--snr", "10", "--max-errors", "-1"],
    ["ber", "--preset", "oracle", "--snr", "nan"],
    ["ber", "--preset", "oracle", "--snr=-inf"],
    ["convergence", "--preset", "fig3-desk", "--trials", "4", "--snr", "nan"],
])
def test_impossible_budget_or_snr_exits_1(argv, capsys):
    # a point that can never stop, or an SNR with no noise variance, fails before any trial
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["validate-config", "ber"])
@pytest.mark.parametrize("line", ["max_bits = inf", "max_bits = 1e400",
                                  "max_bit_errors = inf", "max_bit_errors = 1e400"])
def test_infinite_sweep_budget_exits_1(tmp_path, command, line, capsys):
    # int(float("inf")) overflows; it is reported like any other bad [sweep] value
    key = line.split(" = ")[0]
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG.replace(f"\n{key} = ", f"\n{line}\n# {key} = "))
    assert main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad [sweep] section in {path}: ")


@pytest.mark.parametrize("command", ["validate-config", "ber"])
@pytest.mark.parametrize("walk_step", ["inf", "1e400", "nan"])
def test_non_finite_walk_step_exits_1(tmp_path, command, walk_step, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG.replace("batch_size = 1\n",
                                   f"batch_size = 1\nwalk_step = {walk_step}\n"))
    assert main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bad detector section [detector:mini]: "
                            "walk_step must be positive and finite\n")


def test_noise_free_snr_runs(capsys):
    assert main(["ber", "--preset", "oracle", "--snr", "inf", "--max-bits", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("mini,inf,16,0,")


@pytest.mark.parametrize("argv", [
    ["ber", "--preset", "oracle", "--max-bits", "1"],
    ["convergence", "--preset", "fig3-desk", "--trials", "2", "--m-grid", "4", "--s-grid", "2,4"],
])
def test_overflowing_snr_runs_noise_free(argv, capsys):
    # 1e10 dB is too large for a float in linear units: it runs as inf dB does, row for row
    outputs = []
    for snr in ("1e10", "inf"):
        assert main(argv + ["--snr", snr]) == 0
        outputs.append(capsys.readouterr().out)
    assert "1e+10" in outputs[0]
    assert outputs[0].replace("1e+10", "inf") == outputs[1]


def test_bandwidth_stdout(capsys):
    code = main(["bandwidth", "--b-grid", "128", "--no-measured"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "mode,B,U,C,m,S,Ng,omega,M,bits,measured_bits"
    cen = [ln for ln in lines if ln.startswith("centralized,128")]
    assert cen and cen[0].split(",")[9] == "36864"


def test_bandwidth_measured(capsys):
    code = main(["bandwidth", "--b-grid", "16", "--u", "4", "--c", "4", "--m", "2",
                 "--s", "2", "--ng", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(rows) == 3  # centralized, mini_star, mini_chain at B=16
    for line in rows:
        cols = line.split(",")
        assert cols[9] == cols[10]  # measured equals closed form
    shares = [ln for ln in lines if ln.startswith("# ")]
    assert shares == ["# mini_star share of centralized -> B=16: 105.0%",
                      "# mini_chain share of centralized -> B=16: 46.2%"]


@pytest.mark.parametrize("flags", [
    ["--b-grid="], ["--b-grid", "30", "--c", "8"],
    *(["--b-grid", "64", flag, value] for flag, value in (
        ("--m", "3"), ("--m", "0"), ("--m", "16"), ("--s", "-1"), ("--ng", "0"),
        ("--m-order", "8"), ("--omega", "0"))),
])
def test_bandwidth_impossible_points_exit_1(flags, capsys):
    # an empty grid, 30 antennas that 8 clusters do not divide, and detector or
    # ledger settings that no measured run accepts: a batch size that does not
    # divide C = 8, no NAG iterations, S < 0, an unsupported QAM order, 0-bit
    # reals; with and without the measured runs
    for measure in (["--no-measured"], []):
        assert main(["bandwidth", *measure, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["bandwidth", "--no-measured", "--workers", "2"],
    ["complexity", "--preset", "fig3-desk"],
    ["diagnose", "--config", "experiment.ini"],
    ["diagnose", "--seed", "3"],
])
def test_unread_flags_exit_1(argv, capsys):
    # only ber and convergence read --config, --preset and --workers; diagnose reads no --seed
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unrecognized arguments: ")


def test_complexity_quick(capsys):
    code = main(["complexity", "--b", "16", "--u", "4", "--c", "4", "--s", "4",
                 "--m", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("B,U,C,Bc,m,S,Ng")
    assert "# fit du_vs_block_rows" in out


def test_convergence_quick(capsys):
    code = main(["convergence", "--preset", "fig3-desk", "--trials", "16",
                 "--m-grid", "1,8", "--s-grid", "2,3", "--workers", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,S,snr_db,bits,bit_errors,ber"
    assert len(lines) == 5


@pytest.mark.parametrize("flags", [["--trials", "0"], ["--trials", "-3"], ["--s-grid="],
                                   ["--m-grid="], ["--s-grid=-1,4"]])
def test_convergence_bad_input_exits_1(flags, capsys):
    assert main(["convergence", "--preset", "fig3-desk", "--workers", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: convergence needs at least one trial")


def test_diagnose_ok(tmp_path, capsys):
    code = main(["diagnose", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "diagnostics.json").read_text())
    assert report["passed"] is True
    capsys.readouterr()


def test_diagnose_fault_injection_exit_code(capsys):
    assert main(["diagnose", "--inject-fault", "acceptance"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False


def test_diagnose_check_selection(capsys):
    assert main(["diagnose", "--checks", "stationary_tv_distance"]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--checks",
                 "stationary_tv_distance, flat_posterior_uniform_tv ,"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"]] == ["stationary_tv_distance",
                                                     "flat_posterior_uniform_tv"]
    assert main(["diagnose", "--checks", ""]) == 1
    assert main(["diagnose", "--checks", "bogus"]) == 1
    capsys.readouterr()


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "dbpdet.cli", "diagnose",
                           "--checks", "proposal_rows_normalized"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
