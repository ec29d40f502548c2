"""Joint sampling-frequency and sampling-time offset estimation with Farrow compensation.

The package splits into small layers:

* :mod:`farrowsync.signals` - exact harmonic test waveforms and impairments
* :mod:`farrowsync.farrow` - the variable fractional-delay compensator
* :mod:`farrowsync.design` - least-squares design of the branch filter bank
* :mod:`farrowsync.estimation` - Newton, iterative-least-squares and
  simplified offset estimators with reference operation counting
* :mod:`farrowsync.metrics` - NMSE and BER scoring
* :mod:`farrowsync.harness` - seeded Monte-Carlo experiments and CSV output
* :mod:`farrowsync.cli` - the ``farrow-sync`` command
"""

from .design import DesignSpec, ErrorReport, ERROR_FRONTIER, design_bank, measure_error
from .estimation import (
    BatchEstimate,
    EstimatorConfig,
    EstimationResult,
    OffsetParams,
    OpCounts,
    SingularSystemError,
    count_operations,
    estimate,
    estimate_batch,
    estimate_from_outputs,
)
from .farrow import (
    CoefficientBank,
    compute_subfilter_outputs,
    farrow_output,
    load_bank,
    save_bank,
)
from .metrics import nmse, qam_demod_ber
from .signals import (
    HarmonicSignalModel,
    ImpairmentSpec,
    OfdmSpec,
    add_awgn,
    make_bandpass_noise,
    make_multisine,
    make_ofdm,
    sample_pair,
    sample_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "BatchEstimate",
    "CoefficientBank",
    "DesignSpec",
    "ERROR_FRONTIER",
    "ErrorReport",
    "EstimationResult",
    "EstimatorConfig",
    "HarmonicSignalModel",
    "ImpairmentSpec",
    "OfdmSpec",
    "OffsetParams",
    "OpCounts",
    "SingularSystemError",
    "add_awgn",
    "compute_subfilter_outputs",
    "count_operations",
    "design_bank",
    "estimate",
    "estimate_batch",
    "estimate_from_outputs",
    "farrow_output",
    "load_bank",
    "make_bandpass_noise",
    "make_multisine",
    "make_ofdm",
    "measure_error",
    "nmse",
    "qam_demod_ber",
    "sample_pair",
    "sample_pairs",
    "save_bank",
]
