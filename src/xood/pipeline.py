"""End-to-end composition: images to detector rows, fitting, scoring.

``run_network`` is the one batched forward-and-reduce loop; detector rows
are its features, power-transformed. xood-l's folds are forwarded here, and
both detectors are calibrated here on the calibration split's rows.

A detector bundle is everything needed to score raw images: the feature
kind, the fitted power transform, and one fitted detector. Bundles
persist as a directory holding a small text manifest, the power transform
manifest, and the detector's own files, so a bundle written by one
process scores identically when loaded by another. This module is the only
reader and writer of that directory.
"""

from __future__ import annotations

import logging
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import logistic, mahalanobis
from .datasets import Dataset
from .distortions import DISTORTION_FAMILIES
from .errors import ContractError, FormatError
from .features import (
    MIN_FIT_ROWS,
    FeatureKind,
    PowerTransform,
    apply_power_transform,
    feature_width,
    fit_power_transform,
    reduce_tap,
)
from .keyvalue import (
    finite_float, optional_float, read_key_values, read_table, write_table,
)
from .network import Network, forward_with_taps
from .rng import derive_seed
from .xten import read_tensor, write_tensor

logger = logging.getLogger(__name__)

# xood-l's folds: the calibration split, then one distorted copy per family
FOLD_NAMES = ("calibration",) + tuple(DISTORTION_FAMILIES)


@dataclass
class DetectorBundle:
    kind: FeatureKind
    transform: PowerTransform
    detector: mahalanobis.MDetector | logistic.LDetector


@dataclass
class NetworkOutputs:
    predictions: np.ndarray  # (N,) int64
    probabilities: np.ndarray  # (N, K) float32
    features: np.ndarray  # (N, width) float32, untransformed


def run_network(
    net: Network,
    images: np.ndarray,
    kind: FeatureKind = FeatureKind.MINMAX,
) -> NetworkOutputs:
    """Forward a whole image set, reducing taps as they appear.

    One ``forward_with_taps`` call runs the set in blocks of
    ``DEFAULT_BATCH`` = 64 images, each Relu that feeds a max-pool after
    that pool; ``reduce_tap`` reduces each block's taps while they are
    cache-resident, straight into that block's rows of a feature matrix
    allocated once.
    The columns match extract_features on retained taps bit for bit, an
    empty image set gives empty outputs, and as in ``forward_with_taps``
    only a trailing block of 16 or fewer images can move, by about 1e-6.
    """
    per_tap = feature_width(kind, 1)
    features = np.empty(
        (images.shape[0], feature_width(kind, net.num_activation_layers)),
        np.float32,
    )

    def reduce(index: int, rows: slice, tap: np.ndarray) -> None:
        reduce_tap(tap, kind, features[rows, index * per_tap : (index + 1) * per_tap])

    result = forward_with_taps(net, images, tap_map=reduce)
    return NetworkOutputs(result.predictions, result.probabilities, features)


def _forward_transform(
    net: Network, images: np.ndarray, pt: PowerTransform, kind: FeatureKind
) -> tuple[np.ndarray, np.ndarray]:
    """The images' detector rows (transformed features) and predictions."""
    outputs = run_network(net, images, kind)
    return apply_power_transform(pt, outputs.features), outputs.predictions


def _fit_transform(
    net: Network, train: Dataset, kind: FeatureKind
) -> tuple[PowerTransform, np.ndarray]:
    """Fit the power transform on the correctly classified training rows;
    returns it and those rows transformed."""
    if train.labels is None:
        raise ContractError("training dataset must be labeled")
    outputs = run_network(net, train.images, kind)
    correct = outputs.predictions == train.labels
    n_correct = int(correct.sum())
    logger.info("fitting on %d/%d correctly classified images", n_correct, len(train))
    if n_correct < MIN_FIT_ROWS:
        raise ContractError(
            f"only {n_correct} correctly classified training images; "
            "train the classifier first"
        )
    pt = fit_power_transform(outputs.features[correct])
    return pt, apply_power_transform(pt, outputs.features[correct])


def fit_m_bundle(
    net: Network,
    train: Dataset,
    calibration: Dataset,
    reg_c: float = mahalanobis.DEFAULT_REG_C,
    kind: FeatureKind = FeatureKind.MINMAX,
) -> DetectorBundle:
    """Fit the unsupervised detector from correctly classified training
    images and calibrate its threshold on the held-out split."""
    pt, transformed = _fit_transform(net, train, kind)
    det = mahalanobis.fit_mahalanobis(transformed, reg_c)
    calib_rows, _ = _forward_transform(net, calibration.images, pt, kind)
    mahalanobis.calibrate(det, det.score(calib_rows))
    return DetectorBundle(kind, pt, det)


def _l_training_set(
    net: Network, calibration: Dataset, pt: PowerTransform, seed: int, kind: FeatureKind
) -> logistic.LabeledFeatureSet:
    """xood-l's folds, each row labeled by whether the classifier still
    predicts its (possibly mixup-adjusted) label; ``pt`` is never refit."""
    sources = [calibration] + [
        family(calibration, derive_seed(seed, f"distort-{name}"))
        for name, family in DISTORTION_FAMILIES.items()
    ]
    folds = {}
    for name, source in zip(FOLD_NAMES, sources):
        rows, predictions = _forward_transform(net, source.images, pt, kind)
        folds[name] = (rows, predictions == source.labels)
    return logistic.build_training_set(folds)


def fit_l_bundle(
    net: Network,
    train: Dataset,
    calibration: Dataset,
    seed: int,
    grid: tuple[float, ...] = logistic.LAMBDA_GRID,
    kind: FeatureKind = FeatureKind.MINMAX,
) -> tuple[DetectorBundle, logistic.CVResult]:
    """Fit the supervised detector from the calibration split and its
    distorted copies, calibrated on fold 0; the transform is the training's."""
    if calibration.labels is None:
        raise ContractError("calibration dataset must be labeled")
    pt, _ = _fit_transform(net, train, kind)
    training = _l_training_set(net, calibration, pt, seed, kind)
    det, cv = logistic.fit_l_detector(training, grid)
    mahalanobis.calibrate(det, det.score(training.features[training.fold_ids == 0]))
    return DetectorBundle(kind, pt, det), cv


def score_images(
    bundle: DetectorBundle, net: Network, images: np.ndarray
) -> np.ndarray:
    """Confidence scores for raw images (forward, extract, transform, score).

    A bundle whose feature kind gives ``net`` a width other than its power
    transform's is refused before the forward pass."""
    layers = net.num_activation_layers
    width = feature_width(bundle.kind, layers)
    if width != bundle.transform.dim:
        raise ContractError(
            f"feature kind {bundle.kind.value!r} gives {width} columns for a "
            f"network with {layers} activation layers, but the bundle's power "
            f"transform has {bundle.transform.dim}"
        )
    rows, _ = _forward_transform(net, images, bundle.transform, bundle.kind)
    return bundle.detector.score(rows)


# ---------------------------------------------------------------------------
# bundle persistence: the only reader and writer of a bundle directory

_Format = namedtuple("_Format", "detector tag penalty shapes positive lower")

# Per method, as bundle.txt names it: the detector class; the detector.txt
# tag; the penalty's key there; each tensor file's shape for feature width d;
# the tensor (and the view of it) whose entries must be > 0; and the tensor
# that must be lower triangular, if any. Tensor files and the penalty key are
# named after the detector's fields.
_FORMATS = {
    "m": _Format(
        detector=mahalanobis.MDetector,
        tag="mahalanobis",
        penalty="reg_c",
        shapes=lambda d: {"mean": (d,), "factor": (d, d)},
        positive=("factor", np.diag),
        # a Cholesky factor, so invertible once its diagonal is positive
        lower="factor",
    ),
    "l": _Format(
        detector=logistic.LDetector,
        tag="logistic",
        penalty="reg_lambda",
        shapes=lambda d: {
            "scale_means": (2 * d,), "scale_stds": (2 * d,), "weights": (2 * d + 1,),
        },
        positive=("scale_stds", np.ravel),
        lower=None,
    ),
}


def save_power_transform(pt: PowerTransform, path: str | Path) -> None:
    """One row per dimension: dim,lambda,mean,std,flagged (0 or 1)."""
    write_table(path, "dim", {"lambda": pt.lambdas, "mean": pt.means, "std": pt.stds,
                              "flagged": pt.flags.astype(np.int64)})


def load_power_transform(path: str | Path) -> PowerTransform:
    _, table = read_table(path, "dim", ("lambda", "mean", "std", "flagged"))
    lambdas, means, stds, flags = table.T.copy()
    for bad, rule in ((stds <= 0, "std must be > 0"),
                      ((flags != 0) & (flags != 1), "flagged must be 0 or 1")):
        if bad.any():
            raise FormatError(f"{path} row {int(bad.argmax())}: {rule}")
    return PowerTransform(lambdas, means, stds, flags == 1)


def _required(path: Path) -> Path:
    if not path.is_file():
        raise FormatError(f"{path} is missing")
    return path


def save_bundle(bundle: DetectorBundle, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    det = bundle.detector
    fmt = _FORMATS[det.method]
    (directory / "bundle.txt").write_text(
        f"method={det.method}\nfeature_kind={bundle.kind.value}\n"
    )
    save_power_transform(bundle.transform, directory / "power_transform.txt")
    threshold = "none" if det.threshold is None else repr(float(det.threshold))
    (directory / "detector.txt").write_text(
        f"detector={fmt.tag}\ndim={bundle.transform.dim}\n"
        f"{fmt.penalty}={float(getattr(det, fmt.penalty))!r}\nthreshold={threshold}\n"
    )
    for name in fmt.shapes(bundle.transform.dim):
        write_tensor(directory / f"{name}.xten", getattr(det, name).astype(np.float64))


def load_bundle(directory: str | Path) -> DetectorBundle:
    """Read a saved bundle, checking every value: ``dim`` is the power
    transform's width and the tensor shapes follow it, every number is
    finite, the penalty >= 0 and an xood-m factor is lower triangular with
    a positive diagonal. A missing file is a ``FormatError``. Other files,
    such as the ``cov.xten``, ``scale_flags.xten`` and ``raw_means.xten``
    of older versions, are ignored."""
    directory = Path(directory)
    manifest = directory / "bundle.txt"
    if not manifest.is_file():
        raise FormatError(f"{directory} is not a detector bundle")
    entries = read_key_values(manifest)
    method = entries.get("method")
    if method not in _FORMATS:
        raise FormatError(f"unknown detector method {method!r} in {manifest}")
    fmt = _FORMATS[method]
    kind = entries.get("feature_kind", FeatureKind)
    pt = load_power_transform(_required(directory / "power_transform.txt"))
    manifest = _required(directory / "detector.txt")
    entries = read_key_values(manifest)
    if entries.get("detector") != fmt.tag:
        raise FormatError(f"{manifest} does not hold a {fmt.tag} detector")
    dim = entries.get("dim", int)
    if dim != pt.dim:
        raise FormatError(f"{manifest} has dim={dim}, the power transform {pt.dim}")
    penalty = entries.get(fmt.penalty, finite_float)
    if penalty < 0:
        raise FormatError(f"{manifest}: {fmt.penalty}={penalty!r} is below 0")
    tensors = {}
    for name, shape in fmt.shapes(dim).items():
        path = directory / f"{name}.xten"
        tensors[name] = values = read_tensor(_required(path)).astype(np.float64)
        if values.shape != shape:
            raise FormatError(f"{path} has shape {values.shape}, expected {shape}")
        if not np.isfinite(values).all():
            raise FormatError(f"{path} holds non-finite values")
    name, view = fmt.positive
    if not (view(tensors[name]) > 0).all():
        raise FormatError(f"{directory / name}.xten has an entry <= 0")
    if fmt.lower is not None and np.triu(tensors[fmt.lower], 1).any():
        raise FormatError(
            f"{directory / fmt.lower}.xten has a non-zero entry above its diagonal"
        )
    threshold = entries.get("threshold", optional_float)
    detector = fmt.detector(**tensors, threshold=threshold, **{fmt.penalty: penalty})
    return DetectorBundle(kind, pt, detector)
