"""End-to-end composition: train-time fitting and inference-time scoring.

A detector bundle is everything needed to score raw images: the feature
kind, the fitted power transform, and one fitted detector. Bundles
persist as a directory holding a small text manifest, the power transform
manifest, and the detector's own files, so a bundle written by one
process scores identically (up to float32 storage) when loaded by
another.
"""

from __future__ import annotations

import logging
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
    fit_power_transform,
    load_power_transform,
    save_power_transform,
)
from .keyvalue import read_key_values
from .network import DEFAULT_BATCH, Network, run_network

logger = logging.getLogger(__name__)


@dataclass
class DetectorBundle:
    kind: FeatureKind
    transform: PowerTransform
    detector: mahalanobis.MDetector | logistic.LDetector


def _fit_transform(
    net: Network, train: Dataset, kind: FeatureKind, batch_size: int
) -> tuple[PowerTransform, np.ndarray]:
    """Fit the power transform on the correctly classified training rows;
    returns it and those rows transformed."""
    if train.labels is None:
        raise ContractError("training dataset must be labeled")
    outputs = run_network(net, train.images, kind, batch_size)
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
    batch_size: int = DEFAULT_BATCH,
) -> DetectorBundle:
    """Fit the unsupervised detector from correctly classified training
    images and calibrate its threshold on the held-out split."""
    pt, transformed = _fit_transform(net, train, kind, batch_size)
    det = mahalanobis.fit_mahalanobis(transformed, reg_c)
    calib_outputs = run_network(net, calibration.images, kind, batch_size)
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
    batch_size: int = DEFAULT_BATCH,
) -> tuple[DetectorBundle, logistic.CVResult]:
    """Fit the supervised detector from the calibration split and its
    distorted copies; the power transform comes from the training data."""
    pt, means_source = _fit_transform(net, train, kind, batch_size)
    training_set = logistic.build_training_set(
        net, calibration, pt, seed, kind, batch_size
    )
    det, cv = logistic.fit_l_detector(training_set, means_source, grid)
    return DetectorBundle(kind, pt, det), cv


def score_images(
    bundle: DetectorBundle,
    net: Network,
    images: np.ndarray,
    batch_size: int = DEFAULT_BATCH,
) -> np.ndarray:
    """Confidence scores for raw images (forward, extract, transform, score)."""
    outputs = run_network(net, images, bundle.kind, batch_size)
    transformed = apply_power_transform(bundle.transform, outputs.features)
    return bundle.detector.score(transformed)


# ---------------------------------------------------------------------------
# bundle persistence

_DETECTOR_LOADERS = {"m": mahalanobis.load_m_detector, "l": logistic.load_l_detector}


def save_bundle(bundle: DetectorBundle, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "bundle.txt").write_text(
        f"method={bundle.detector.method}\nfeature_kind={bundle.kind.value}\n"
    )
    save_power_transform(bundle.transform, directory / "power_transform.txt")
    bundle.detector.save(directory)


def load_bundle(directory: str | Path) -> DetectorBundle:
    directory = Path(directory)
    manifest = directory / "bundle.txt"
    if not manifest.is_file():
        raise FormatError(f"{directory} is not a detector bundle")
    entries = read_key_values(manifest)
    method = entries.get("method")
    if method not in _DETECTOR_LOADERS:
        raise FormatError(f"unknown detector method {method!r} in {manifest}")
    kind = entries.get("feature_kind", FeatureKind)
    pt = load_power_transform(directory / "power_transform.txt")
    return DetectorBundle(kind, pt, _DETECTOR_LOADERS[method](directory))
