"""rssikit: received-power prediction and adaptive transmission power
control for lossy low-power wireless links.

The library estimates second-order statistics of a received-power stream,
fits a lightweight two-term predictor by three equivalent paths, and embeds
it in a simulated closed power-control loop that keeps transmitting sensibly
while ACKs are lost.
"""

from .trace import (
    DerivativeSeries,
    IngestError,
    Trace,
    derivative_series,
    export_csv,
    ingest_csv,
)
from .stats import (
    AcfEstimate,
    DegenerateProcessError,
    IdentityCheck,
    InsufficientSupportError,
    MomentSet,
    check_derivative_identities,
    moment_set,
    sample_acf,
)
from .predictor import (
    DegenerateMomentsError,
    LagMismatchError,
    OrthonormalBasis,
    Prediction,
    PredictorModel,
    SlidingWindowPredictor,
    analytic_mse,
    fit_normal_equations,
    fit_orthonormal,
    fit_simplified,
    model_from_json,
    model_to_json,
    predict,
)
from .linksim import (
    ChannelModel,
    LossModel,
    RadioProfile,
    apply_loss,
    ar2_channel,
    bernoulli_loss,
    builtin_profiles,
    channel_by_name,
    generate_trace,
    gilbert_elliott_loss,
    profile_by_name,
    ripple_channel,
    swell_channel,
)
from .atpc import (
    AtpcConfig,
    AtpcController,
    AtpcState,
    LoopRecord,
    LoopResult,
    run_closed_loop,
    run_fixed_power,
)
from .evaluate import EvalReport, EvalRow, evaluate

__version__ = "0.1.0"

__all__ = [
    "AcfEstimate",
    "AtpcConfig",
    "AtpcController",
    "AtpcState",
    "ChannelModel",
    "DegenerateMomentsError",
    "DegenerateProcessError",
    "DerivativeSeries",
    "EvalReport",
    "EvalRow",
    "IdentityCheck",
    "IngestError",
    "InsufficientSupportError",
    "LagMismatchError",
    "LoopRecord",
    "LoopResult",
    "LossModel",
    "MomentSet",
    "OrthonormalBasis",
    "Prediction",
    "PredictorModel",
    "RadioProfile",
    "SlidingWindowPredictor",
    "Trace",
    "analytic_mse",
    "apply_loss",
    "ar2_channel",
    "bernoulli_loss",
    "builtin_profiles",
    "channel_by_name",
    "check_derivative_identities",
    "derivative_series",
    "evaluate",
    "export_csv",
    "fit_normal_equations",
    "fit_orthonormal",
    "fit_simplified",
    "generate_trace",
    "gilbert_elliott_loss",
    "ingest_csv",
    "model_from_json",
    "model_to_json",
    "moment_set",
    "predict",
    "profile_by_name",
    "ripple_channel",
    "run_closed_loop",
    "run_fixed_power",
    "sample_acf",
    "swell_channel",
]
