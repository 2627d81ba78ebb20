"""Packet-erasure FEC with quasi-cyclic LDPC codes and banded ML decoding."""

from .gf2 import SparseBinMatrix, dense_solve_oracle, rank_oracle, syndrome_is_zero
from .qc import (BaseMatrix, EnsembleSpec, ExpansionSpec, QCCode, build_rra_base,
                 expand, load_code, make_code, max_shift, read_base_matrix,
                 sample_shifts, write_base_matrix)
from .band import BandShape, band_shape, permuted_code
from .codec import (Codeword, DecodeOutcome, DecodeStatus, OpCounter,
                    ReceptionState, ResidualSystem, back_substitute,
                    build_residual, encode, forward_eliminate, hybrid_decode,
                    read_symbols, write_symbols)
from .sim import (CurvePoint, TrialResult, bler_sweep, ineff_sweep,
                  inefficiency_trial, minimal_ml_reception, ops_vs_k,
                  ops_vs_loss, reception_order)

__version__ = "0.1.0"
