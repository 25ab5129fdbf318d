"""Out-of-distribution detection from per-layer activation extremes.

The package trains a small reference CNN, records the tensor feeding each
Relu, reduces those tensors to per-image statistics (global min and max by
default), Gaussianizes the statistics with a per-dimension power transform,
and scores images either by regularized Mahalanobis distance to the
training distribution or by a logistic regression trained on distorted
copies of held-out data.
"""

from .datasets import Dataset, gen_noise, load_idx, make_blobs, make_gratings, split
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    FormatError,
    NumericalError,
    SingularityError,
    TrainingDivergedError,
    XoodError,
)
from .features import (
    FeatureKind,
    PowerTransform,
    apply_power_transform,
    extract_features,
    fit_power_transform,
    reduce_tap,
)
from .logistic import LDetector, fit_l_detector, score_l
from .mahalanobis import MDetector, confidence, fit_mahalanobis, mahalanobis_score
from .metrics import auroc, detection_accuracy, fpr_at_95tpr, msp_baseline, tnr_at_95tpr
from .network import (
    Network,
    TrainConfig,
    build_reference_cnn,
    forward_with_taps,
    load_network,
    save_network,
    train_reference_cnn,
)
from .pipeline import (
    DetectorBundle,
    fit_l_bundle,
    fit_m_bundle,
    load_bundle,
    run_network,
    save_bundle,
    score_images,
)
from .rng import Stream, derive_seed

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractError",
    "Dataset",
    "DetectorBundle",
    "DimensionError",
    "FeatureKind",
    "FormatError",
    "LDetector",
    "MDetector",
    "Network",
    "NumericalError",
    "PowerTransform",
    "SingularityError",
    "Stream",
    "TrainConfig",
    "TrainingDivergedError",
    "XoodError",
    "apply_power_transform",
    "auroc",
    "build_reference_cnn",
    "confidence",
    "derive_seed",
    "detection_accuracy",
    "extract_features",
    "fit_l_bundle",
    "fit_l_detector",
    "fit_m_bundle",
    "fit_mahalanobis",
    "fit_power_transform",
    "forward_with_taps",
    "fpr_at_95tpr",
    "gen_noise",
    "load_bundle",
    "load_idx",
    "load_network",
    "mahalanobis_score",
    "make_blobs",
    "make_gratings",
    "msp_baseline",
    "reduce_tap",
    "run_network",
    "save_bundle",
    "save_network",
    "score_images",
    "score_l",
    "split",
    "tnr_at_95tpr",
    "train_reference_cnn",
    "__version__",
]
