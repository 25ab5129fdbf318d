"""End-to-end composition: train-time fitting and inference-time scoring.

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
from .errors import ContractError, FormatError
from .features import (
    MIN_FIT_ROWS,
    FeatureKind,
    PowerTransform,
    apply_power_transform,
    feature_width,
    fit_power_transform,
    load_power_transform,
    save_power_transform,
)
from .keyvalue import finite_float, optional_float, read_key_values
from .network import Network, run_network
from .xten import read_tensor, write_tensor

logger = logging.getLogger(__name__)


@dataclass
class DetectorBundle:
    kind: FeatureKind
    transform: PowerTransform
    detector: mahalanobis.MDetector | logistic.LDetector


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
    calib_outputs = run_network(net, calibration.images, kind)
    calib_transformed = apply_power_transform(pt, calib_outputs.features)
    mahalanobis.calibrate(det, det.score(calib_transformed))
    return DetectorBundle(kind, pt, det)


def fit_l_bundle(
    net: Network,
    train: Dataset,
    calibration: Dataset,
    seed: int,
    grid: tuple[float, ...] = logistic.LAMBDA_GRID,
    kind: FeatureKind = FeatureKind.MINMAX,
) -> tuple[DetectorBundle, logistic.CVResult]:
    """Fit the supervised detector from the calibration split and its
    distorted copies; the power transform comes from the training data."""
    pt, means_source = _fit_transform(net, train, kind)
    training_set = logistic.build_training_set(net, calibration, pt, seed, kind)
    det, cv = logistic.fit_l_detector(training_set, means_source, grid)
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
    outputs = run_network(net, images, bundle.kind)
    transformed = apply_power_transform(bundle.transform, outputs.features)
    return bundle.detector.score(transformed)


# ---------------------------------------------------------------------------
# bundle persistence: the only reader and writer of a bundle directory

_Format = namedtuple("_Format", "tag penalty shapes positive tensors build")

# Per method, as bundle.txt names it: the detector.txt tag; the penalty's key
# there, which is also the detector's attribute; each tensor file's shape for
# feature width d; the tensor (and the view of it) whose entries must be > 0;
# and the conversions from a detector to its tensors and back.
_FORMATS = {
    "m": _Format(
        tag="mahalanobis",
        penalty="reg_c",
        shapes=lambda d: {"mean": (d,), "factor": (d, d)},
        positive=("factor", np.diag),
        tensors=lambda det: {"mean": det.mean, "factor": det.factor},
        build=lambda t, **scalars: mahalanobis.MDetector(
            t["mean"], factor=t["factor"], **scalars
        ),
    ),
    "l": _Format(
        tag="logistic",
        penalty="reg_lambda",
        shapes=lambda d: {
            "raw_means": (d,), "scale_means": (2 * d,), "scale_stds": (2 * d,),
            "scale_flags": (2 * d,), "weights": (2 * d + 1,),
        },
        positive=("scale_stds", np.ravel),
        tensors=lambda det: {
            "raw_means": det.scaler.raw_means, "scale_means": det.scaler.scale_means,
            "scale_stds": det.scaler.scale_stds, "scale_flags": det.scaler.flags,
            "weights": det.weights,
        },
        build=lambda t, **scalars: logistic.LDetector(
            logistic.SplitScaler(
                t["raw_means"], t["scale_means"], t["scale_stds"], t["scale_flags"] != 0
            ),
            t["weights"],
            **scalars,
        ),
    ),
}


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
    for name, values in fmt.tensors(det).items():
        write_tensor(directory / f"{name}.xten", values.astype(np.float64))


def load_bundle(directory: str | Path) -> DetectorBundle:
    """Read a saved bundle, checking every value: ``dim`` is the power
    transform's width and the tensor shapes follow it, every number is
    finite and the penalty >= 0. Other files, such as the ``cov.xten`` of
    older versions, are ignored."""
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
    pt = load_power_transform(directory / "power_transform.txt")
    manifest = directory / "detector.txt"
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
        tensors[name] = values = read_tensor(path).astype(np.float64)
        if values.shape != shape:
            raise FormatError(f"{path} has shape {values.shape}, expected {shape}")
        if not np.isfinite(values).all():
            raise FormatError(f"{path} holds non-finite values")
    name, view = fmt.positive
    if not (view(tensors[name]) > 0).all():
        raise FormatError(f"{directory / name}.xten has an entry <= 0")
    threshold = entries.get("threshold", optional_float)
    detector = fmt.build(tensors, threshold=threshold, **{fmt.penalty: penalty})
    return DetectorBundle(kind, pt, detector)
