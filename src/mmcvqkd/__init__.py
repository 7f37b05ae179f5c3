"""Multi-mode CV-QKD key-rate simulator with heralded non-Gaussian operations."""

from .channel import (
    ChannelParams,
    DetectorParams,
    PipelineCMs,
    build_pipeline,
    channel_evolve,
    condition_on_bob,
    detector_assemble,
)
from .gaussian import (
    GeneralCM,
    TwoModeCM,
    UnphysicalStateError,
    entropy_g,
    homodyne_condition,
    symplectic_eigenvalues,
    symplectic_form,
)
from .keyrate import (
    KeyRateResult,
    RateParams,
    holevo_bound,
    mutual_information,
    subchannel_rate,
    subchannel_rates_batch,
    total_rate,
    total_rate_batch,
)
from .operations import (
    NonGaussianOpSpec,
    OpKind,
    OpOutcome,
    apply_op,
    apply_to_supermodes,
    combined_probability,
    heralded_entries,
)
from .optimize import OptimizationProblem, OptimizationResult, optimize
from .source import (
    Scenario,
    SourceParams,
    SupermodeSpectrum,
    epr_cm,
    make_spectrum,
    squeezing_db,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "DetectorParams",
    "GeneralCM",
    "KeyRateResult",
    "NonGaussianOpSpec",
    "OpKind",
    "OpOutcome",
    "OptimizationProblem",
    "OptimizationResult",
    "PipelineCMs",
    "RateParams",
    "Scenario",
    "SourceParams",
    "SupermodeSpectrum",
    "TwoModeCM",
    "UnphysicalStateError",
    "apply_op",
    "apply_to_supermodes",
    "build_pipeline",
    "channel_evolve",
    "combined_probability",
    "condition_on_bob",
    "detector_assemble",
    "entropy_g",
    "epr_cm",
    "heralded_entries",
    "holevo_bound",
    "homodyne_condition",
    "make_spectrum",
    "mutual_information",
    "optimize",
    "squeezing_db",
    "subchannel_rate",
    "subchannel_rates_batch",
    "symplectic_eigenvalues",
    "symplectic_form",
    "total_rate",
    "total_rate_batch",
]
