"""Decentralized massive-MIMO detection simulator.

Mini-batch gradient MCMC detection over simulated CU/DU fabrics (star
and daisy-chain), with LMMSE and exact-ML baselines, a Monte Carlo BER
harness, byte-accurate interconnect accounting, and exhaustive chain
diagnostics on tiny instances.
"""

from .channel import (ClusteredChannel, MimoInstance, generate_instance,
                      generate_rayleigh, load_channel_file, noise_variance_from_snr,
                      partition, save_channel_file)
from .detectors import (DetectorConfig, DetectionResult, learning_rate, lmmse_detect,
                        lmmse_estimate, mh_accept, mini_batch_gradient, mini_nag_mcmc_detect,
                        ml_brute_force, momentum_schedule, nag_mcmc_detect, nag_stage,
                        propose_candidate, trace_csv)
from .fabric import (Fabric, MessageLedger, OpCounters, Topology,
                     batch_hessian, batch_hessian_norm, centralized_transfer,
                     predicted_bandwidth)
from .modem import (Constellation, bits_to_symbols, build_constellation,
                    constellation_csv, gray_table_csv, qam_map, symbol_indices,
                    symbols_to_bits)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
