"""Golden outputs: byte-exact digests of every CSV the package writes.

The digests were recorded from the reference implementation; any change
to the arithmetic, the random streams, the stopping rule or the CSV
formatting shows up here as a digest mismatch.
"""

import hashlib
import json

import numpy as np
import pytest

from dbpdet.channel import generate_instance, partition
from dbpdet.cli import main
from dbpdet.detectors import (EXACT_GRAM_FNORM, DetectorConfig, mini_nag_mcmc_detect,
                              nag_mcmc_detect, trace_csv)
from dbpdet.fabric import DAISY_CHAIN, STAR, Fabric, MessageLedger, OpCounters, Topology
from dbpdet.modem import build_constellation

S_GRID = ",".join(str(s) for s in range(2, 13))

# Several blocks of a small system that stop on the error budget mid-block.
SMALL_CONFIG = """
[system]
n_ant = 8
n_users = 2
n_clusters = 2
mod_order = 4

[sweep]
snr_db = -2,0
max_bits = 1000000
max_bit_errors = 120
seed = 3

[detector:mini]
kind = mini_nag_mcmc
sampling_iterations = 3
batch_size = 1

[detector:lmmse]
kind = lmmse
"""

CASES = {
    # one SNR point, one 64-trial block (64 trials x 16 bits)
    "ber-oracle": (["ber", "--preset", "oracle", "--seed", "5", "--snr", "10",
                    "--max-bits", "1024"], "ber.csv"),
    # one SNR point, one 64-trial block (64 trials x 32 bits)
    "ber-fig4-desk": (["ber", "--preset", "fig4-desk", "--seed", "5", "--snr", "6",
                       "--max-bits", "2048"], "ber.csv"),
    "ber-small-error-budget": (["ber", "--config", "{config}"], "ber.csv"),
    "convergence-fig3-desk": (["convergence", "--preset", "fig3-desk", "--seed", "5",
                               "--trials", "64", "--m-grid", "1,4,8",
                               "--s-grid", S_GRID], "convergence.csv"),
    "bandwidth-measured": (["bandwidth", "--b-grid", "16,32", "--u", "4", "--c", "4",
                            "--m", "2", "--s", "3", "--ng", "2", "--seed", "2"],
                           "bandwidth.csv"),
    "complexity": (["complexity", "--b", "16", "--u", "4", "--c", "4", "--s", "4",
                    "--m", "2", "--seed", "2"], "complexity.csv"),
}

DIGESTS = {
    "ber-oracle":
        "b5441ad0ba010c83333433910a1f6c73d4bb6b15759d8483458eed775a0d1968",
    "ber-fig4-desk":
        "1c513a53692eef7efe088a0bc9b1f6688904803632f341acb7c7c90da5d8c409",
    "ber-small-error-budget":
        "df0a8bc3162f097279cac0051d62e2e87d7598b38a4fa716fd5ae57df49c369e",
    "convergence-fig3-desk":
        "44ae12dcc3ea8e1e726765c9a71204e05c23bed6f920920241b1c02012790cf7",
    "bandwidth-measured":
        "d55e03807fd8d852edaebd277b301d6585d91ce41eef5c87ec062d256ba6ed30",
    "complexity":
        "49c3c906a4260026d032bfde7b62c107fae1d7e870597d6730af8c602bef1fa5",
    "detection-daisy-chain":
        "56be5defec88ecbd98b68cbb8e75e54f4b79842b796926765ffbbe5380d63a36",
    "detection-centralized":
        "5435a421421aa4cb3b027c6672b80f887f641d4fb599f71c9efaaa093e75c5a0",
    "detection-star-m1-samplers3-exact":
        "62e024c84364d8e3467731c24f75d59310ba00ce0fd61b5ac5c68a165f9e7371",
    "detection-chain-s0":
        "bad799a464a1e8cde2f68db88f68661dabe29bcfef38fbc9744165fb401bedba",
}

# seeded 32x8 detections billed to a ledger and counters: (topology, config)
BILLED = {
    "detection-star-m1-samplers3-exact": (STAR, DetectorConfig(
        sampling_iterations=10, batch_size=1, samplers=3, lr_mode=EXACT_GRAM_FNORM, seed=11)),
    "detection-chain-s0": (DAISY_CHAIN, DetectorConfig(
        sampling_iterations=0, batch_size=4, seed=11, topology=DAISY_CHAIN)),
}

DIAGNOSE_VERDICTS = [
    ["transition_rows_sum_to_one", True],
    ["transition_entries_positive", True],
    ["proposal_rows_normalized", True],
    ["stationary_tv_distance", True],
    ["exact_mh_detailed_balance", True],
    ["implemented_kernel_db_residual", True],
    ["flat_posterior_uniform_tv", True],
    ["proposal_ratio_near_stationary", True],
    ["proposal_ratio_large_gradient_flagged", True],
    ["hessian_bound_matches_operator_norm", True],
    ["diag_tau_shrinks_with_users", True],
    ["block_engine_matches_per_trial", True],
]

# the tampered acceptance breaks exact detailed balance and nothing else
FAULT_VERDICTS = [[name, name != "exact_mh_detailed_balance"]
                  for name, _ in DIAGNOSE_VERDICTS]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_output(case, tmp_path, capsys):
    """(file text, stdout) of one CLI case run with ``--out``."""
    argv, name = CASES[case]
    config = tmp_path / "small.ini"
    config.write_text(SMALL_CONFIG)
    out = tmp_path / "out"
    argv = [a.format(config=config) for a in argv] + ["--out", str(out)]
    assert main(argv) == 0
    return (out / name).read_text(), capsys.readouterr().out


def _billed_text(kind, config):
    """Trace, ledger, counters and decision of one seeded 32x8 detection on a ``kind`` fabric."""
    const = build_constellation(16)
    inst = generate_instance(32, 8, const, snr_db=6.0, master_seed=11, trial=4)
    ledger = MessageLedger(symbol_bits=const.bits_per_symbol)
    counters = OpCounters(8)
    fabric = Fabric(partition(inst.H, inst.y, 8), Topology(kind, 8),
                    ledger=ledger, counters=counters)
    result = mini_nag_mcmc_detect(inst, config, fabric, const, trial=4)
    counts = "\n".join(f"{ph},{','.join(map(str, counters.du[ph]))},{counters.cu[ph]}"
                       for ph in counters.PHASES)
    decision = ",".join(f"{v.real!r}:{v.imag!r}" for v in result.x_hat)
    text = "\n".join([trace_csv(result), ledger.to_csv(), counts, decision,
                      repr(result.f_hat), repr(result.tau)])
    assert np.all(np.isin(result.x_hat, const.points))
    return text


def _detection_text():
    """Trace, ledger, counters and decision of one seeded daisy-chain detection."""
    return _billed_text(DAISY_CHAIN, DetectorConfig(sampling_iterations=10, batch_size=4,
                                                    seed=11, topology=DAISY_CHAIN))


def _centralized_text():
    """Trace and decision of one seeded centralized detection."""
    const = build_constellation(16)
    inst = generate_instance(32, 8, const, snr_db=6.0, master_seed=11, trial=4)
    config = DetectorConfig(sampling_iterations=10, seed=11)
    result = nag_mcmc_detect(inst, config, const, clusters=8, trial=4)
    decision = ",".join(f"{v.real!r}:{v.imag!r}" for v in result.x_hat)
    return "\n".join([trace_csv(result), decision, repr(result.f_hat),
                      repr(result.tau)])


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_digest(case, tmp_path, capsys):
    text, stdout = _cli_output(case, tmp_path, capsys)
    # stdout carries the same table, plus '# ' comment lines where a
    # subcommand reports more than its CSV
    assert [ln for ln in stdout.splitlines() if not ln.startswith("# ")] == text.splitlines()
    assert _sha256(text) == DIGESTS[case]


def test_detection_digest():
    assert _sha256(_detection_text()) == DIGESTS["detection-daisy-chain"]


@pytest.mark.parametrize("case", sorted(BILLED))
def test_billed_detection_digest(case):
    assert _sha256(_billed_text(*BILLED[case])) == DIGESTS[case]


def test_centralized_detection_digest():
    assert _sha256(_centralized_text()) == DIGESTS["detection-centralized"]


@pytest.mark.parametrize("fault", [None, "acceptance"])
def test_diagnose_verdicts(fault, capsys):
    argv = ["diagnose"] + (["--inject-fault", fault] if fault else [])
    assert main(argv) == (3 if fault else 0)
    report = json.loads(capsys.readouterr().out)
    verdicts = [[c["name"], c["passed"]] for c in report["checks"]]
    assert verdicts == (FAULT_VERDICTS if fault else DIAGNOSE_VERDICTS)
