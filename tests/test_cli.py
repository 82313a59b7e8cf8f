"""CLI subcommands, exit codes, and emitted files."""

import json
import subprocess
import sys

import pytest

from dbpdet.cli import main

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


def test_ml_over_cap_rejected_at_parse(tmp_path, capsys):
    path = tmp_path / "ml.ini"
    path.write_text(CONFIG.replace("n_users = 2", "n_users = 6").replace("mod_order = 4",
                                                                       "mod_order = 16")
                    + "\n[detector:ml]\nkind = ml\n")
    for argv in (["validate-config", "--config", str(path)],
                 ["ber", "--config", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 1
        assert "16^6 candidates exceeds the cap" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    assert main(["diagnose", "--checks", ""]) == 1
    assert main(["diagnose", "--checks", "bogus"]) == 1
    capsys.readouterr()


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "dbpdet.cli", "diagnose",
                           "--checks", "proposal_rows_normalized"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
