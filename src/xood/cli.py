"""Command-line interface.

Subcommands cover the whole pipeline at desk scale: ``gen`` synthesizes
datasets, ``train`` fits the reference CNN (holding out a calibration
split), ``extract`` dumps per-image features, ``fit-m``/``fit-l`` build
detector bundles, ``score`` applies a bundle, ``eval`` turns score files
into metric rows, ``distort`` applies one distortion family, and ``hist``
writes per-layer extreme-value histograms.

Conventions:

* long-form flags only; an optional ``--config`` file supplies key=value
  defaults, required options included, which the flags that argparse
  reports as given override
* an existing output is refused before any work starts unless ``--force``
  is given (``eval --append`` adds rows to an existing table)
* every run writes a ``.manifest`` next to its primary output echoing the
  fully resolved configuration plus run statistics
* one ``--seed`` drives all randomness; independent streams are derived
  per purpose, so ``train`` and ``fit-m``/``fit-l`` recover the same
  calibration split when given the same dataset, seed and holdout fraction
* exit codes: 0 success, 2 configuration error, 3 data or format error,
  4 numerical failure
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import mahalanobis, metrics, pipeline
from .datasets import (
    Dataset,
    NoiseKind,
    dataset_to_idx,
    gen_noise,
    load_images_any,
    load_labels_any,
    make_blobs,
    make_gratings,
    save_dataset,
    split,
)
from .distortions import DISTORTION_FAMILIES
from .errors import (
    ConfigError,
    FormatError,
    NumericalError,
    XoodError,
)
from .features import FeatureKind, feature_names, is_penalty
from .keyvalue import (
    read_key_values, read_table, read_utf8, refuse_non_finite, write_table,
)
from .logistic import LAMBDA_GRID
from .network import (
    Network,
    TrainConfig,
    evaluate_accuracy,
    load_network,
    save_network,
    train_reference_cnn,
)
from .rng import derive_seed
from .tensor_ops import MAX_IMAGE_VALUES

logger = logging.getLogger(__name__)


def _bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _checked(convert, rule: str, ok):
    """An argparse ``type``: ``convert`` the text and refuse a value that is
    not ``ok``, so a bad number exits 2 before any work."""
    def check(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
    return check


_COUNT = _checked(int, "an integer >= 1", lambda v: v >= 1)
_CLASSES = _checked(int, "an integer >= 2", lambda v: v >= 2)
_FRACTION = _checked(float, "a number in (0, 1)", lambda v: 0.0 < v < 1.0)
_PENALTY = _checked(float, "a finite number >= 0", is_penalty)


def _lambda_grid(text: str) -> tuple[float, ...]:
    values = tuple(_PENALTY(v) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError("lambda grid is empty")
    return values


# Each option maps its long flag (without dashes) to add_argument keywords.
_COMMON = {
    "config": dict(help="key=value file supplying defaults"),
    "seed": dict(type=int, default=0,
                 help="master seed; per-purpose streams are derived"),
}
_FORCE = {"force": dict(action="store_true", help="overwrite existing outputs")}
_FEATURE_KIND = dict(type=FeatureKind, default=FeatureKind.MINMAX)
_HOLDOUT = dict(type=_FRACTION, default=0.2,
                help="fraction held out of training as the calibration split")
_FORMAT = dict(default="xten", choices=("xten", "idx"))

_SCHEMAS: dict[str, dict[str, dict]] = {
    "gen": {**_COMMON,
        "kind": dict(required=True, choices=(
            "blobs", "gratings", *(k.value for k in NoiseKind))),
        "count": dict(type=_COUNT, required=True, help="number of images"),
        "side": dict(type=_COUNT, default=28, help="image side length"),
        "classes": dict(type=_CLASSES, default=4,
                        help="class count (blobs only)"),
        "images-out": dict(required=True),
        "labels-out": dict(help="label output (labeled kinds only)"),
        "format": _FORMAT,
        **_FORCE,
    },
    "train": {**_COMMON,
        "images": dict(required=True),
        "labels": dict(required=True),
        "epochs": dict(type=_checked(int, "an integer >= 0", lambda v: v >= 0),
                       default=TrainConfig.epochs),
        "learning-rate": dict(
            type=_checked(float, "a finite number > 0",
                          lambda v: math.isfinite(v) and v > 0.0),
            default=TrainConfig.learning_rate),
        "batch-size": dict(type=_COUNT, default=TrainConfig.batch_size),
        "holdout-fraction": _HOLDOUT,
        "min-accuracy": dict(
            type=_checked(float, "a finite number", math.isfinite), default=0.0,
            help="fail if training accuracy falls below this floor"),
        "out": dict(required=True, help="model file to write"),
        **_FORCE,
    },
    "extract": {**_COMMON,
        "model": dict(required=True),
        "images": dict(required=True),
        "feature-kind": _FEATURE_KIND,
        "out": dict(required=True, help="feature CSV to write"),
        **_FORCE,
    },
    "fit-m": {**_COMMON,
        "model": dict(required=True),
        "images": dict(required=True),
        "labels": dict(required=True),
        "holdout-fraction": _HOLDOUT,
        "reg-c": dict(type=_PENALTY, default=mahalanobis.DEFAULT_REG_C,
                      help="covariance regularizer C"),
        "feature-kind": _FEATURE_KIND,
        "out": dict(required=True, help="detector bundle directory"),
        **_FORCE,
    },
    "fit-l": {**_COMMON,
        "model": dict(required=True),
        "images": dict(required=True),
        "labels": dict(required=True),
        "holdout-fraction": _HOLDOUT,
        "lambda-grid": dict(type=_lambda_grid, default=LAMBDA_GRID),
        "feature-kind": _FEATURE_KIND,
        "out": dict(required=True, help="detector bundle directory"),
        **_FORCE,
    },
    "score": {**_COMMON,
        "model": dict(required=True),
        "detector": dict(required=True, help="detector bundle directory"),
        "images": dict(required=True),
        "out": dict(required=True, help="score CSV to write"),
        **_FORCE,
    },
    "eval": {**_COMMON,
        "id-scores": dict(required=True),
        "ood-scores": dict(required=True, action="append",
                           help="one or more OOD score files"),
        "method": dict(default="detector", help="method label for the rows"),
        "id-name": dict(help="in-distribution set label (default: file stem)"),
        "ood-names": dict(help="comma list of OOD set labels"),
        "out": dict(required=True, help="metrics CSV"),
        "append": dict(action="store_true",
                       help="append rows to an existing CSV"),
        **_FORCE,
    },
    "distort": {**_COMMON,
        "kind": dict(required=True, choices=tuple(DISTORTION_FAMILIES)),
        "images": dict(required=True),
        "labels": dict(help="required for mixup"),
        "images-out": dict(required=True),
        "labels-out": {},
        "format": _FORMAT,
        **_FORCE,
    },
    "hist": {**_COMMON,
        "model": dict(required=True),
        "id-images": dict(required=True),
        "ood-images": dict(required=True),
        "bins": dict(type=_COUNT, default=40),
        "out": dict(required=True, help="output directory"),
        **_FORCE,
    },
}
# Outputs refused before a handler runs unless --force is given.
_OUTPUTS = ("out", "images-out", "labels-out")


def _build_parser(given_only: bool = False) -> argparse.ArgumentParser:
    """The parser; with ``given_only``, no defaults and no required options,
    so a parse's namespace holds just the options the command line gave."""
    parser = argparse.ArgumentParser(
        prog="xood",
        description="extreme-value out-of-distribution detection toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        sub = subs.add_parser(command, add_help=not given_only)
        for name, kwargs in schema.items():
            if given_only:
                kwargs = {**kwargs, "default": argparse.SUPPRESS, "required": False}
            sub.add_argument(f"--{name}", **kwargs)
    return parser


def _config_flags(path: str, schema: dict[str, dict], given: set[str]) -> list[str]:
    """The entries of a config file as flags, except the ``given`` ones."""
    try:
        entries = read_key_values(path).entries
    except (OSError, FormatError) as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    unknown = set(entries) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    flags = []
    for key, text in entries.items():
        if key in given:
            continue
        if schema[key].get("action") != "store_true":
            flags.append(f"--{key}={text}")
            continue
        try:
            if _bool(text):
                flags.append(f"--{key}")
        except ValueError as exc:
            raise ConfigError(str(exc))
    return flags


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The command and its options by flag name: flags > config file >
    defaults. A config file may supply required options, so its entries
    join the flags before the full parse."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    if config and argv[0] in _SCHEMAS:
        given = vars(_build_parser(given_only=True).parse_known_args(argv)[0])
        given = {key.replace("_", "-") for key in given}
        argv = [argv[0], *_config_flags(config, _SCHEMAS[argv[0]], given), *argv[1:]]
    cfg = {key.replace("_", "-"): value
           for key, value in vars(_build_parser().parse_args(argv)).items()}
    return cfg.pop("command"), cfg


def _manifest_text(cfg: dict, extras: dict) -> str:
    def fmt(value) -> str:
        if isinstance(value, FeatureKind):
            return value.value
        if isinstance(value, (list, tuple)):
            return ",".join(fmt(v) for v in value)
        if isinstance(value, float):
            return repr(float(value))
        return str(value)

    lines = [f"{key}={fmt(value)}" for key, value in sorted(cfg.items())
             if key != "config"]
    lines += [f"{key}={fmt(value)}" for key, value in sorted(extras.items())]
    return "\n".join(lines) + "\n"


def _write_manifest(primary_out: str, cfg: dict, extras: dict) -> None:
    out = Path(primary_out)
    target = out / "run.manifest" if out.is_dir() else Path(str(out) + ".manifest")
    target.write_text(_manifest_text(cfg, extras))


def _ensure_writable(path: str, force: bool) -> None:
    p = Path(path)
    if p.is_dir() and any(p.iterdir()) and not force:
        raise ConfigError(f"{path} exists and is not empty; pass --force")
    if p.is_file() and not force:
        raise ConfigError(f"{path} exists; pass --force to overwrite")
    p.parent.mkdir(parents=True, exist_ok=True)


def _load_dataset(images: str, labels: str | None = None) -> Dataset:
    ds = load_images_any(images)
    if labels is not None:
        ds = Dataset(ds.images, load_labels_any(labels, len(ds)))
    return ds


def _save_images(ds: Dataset, cfg: dict) -> None:
    labels_out = cfg["labels-out"]
    if labels_out and ds.labels is None:
        raise ConfigError("--labels-out given but the images have no labels")
    if cfg["format"] == "xten":
        save_dataset(ds, cfg["images-out"], labels_out)
    else:
        dataset_to_idx(ds, cfg["images-out"], labels_out)


def _training_split(ds: Dataset, cfg: dict) -> tuple[Dataset, Dataset]:
    """The (train, calibration) split shared by train, fit-m, and fit-l."""
    return split(ds, 1.0 - cfg["holdout-fraction"],
                 derive_seed(cfg["seed"], "calibration-split"))


def _fit_inputs(cfg: dict) -> tuple[Network, Dataset, Dataset]:
    """The model and the (train, calibration) split fit-m and fit-l use."""
    net = load_network(cfg["model"])
    ds = _load_dataset(cfg["images"], cfg["labels"])
    return (net, *_training_split(ds, cfg))


# ---------------------------------------------------------------------------
# handlers


def cmd_gen(cfg: dict) -> dict:
    kind, n, side = cfg["kind"], cfg["count"], cfg["side"]
    if n * side * side > MAX_IMAGE_VALUES:
        raise ConfigError(f"--count {n} images of --side {side} exceed "
                          f"{MAX_IMAGE_VALUES} pixel values")
    if kind == "blobs":
        if n < cfg["classes"]:
            raise ConfigError(f"--count {n} is below --classes {cfg['classes']}")
        ds = make_blobs(n, cfg["classes"], side, cfg["seed"])
    elif kind == "gratings":
        ds = make_gratings(n, side, cfg["seed"])
    else:
        ds = gen_noise(kind, n, (1, side, side), cfg["seed"])
    _save_images(ds, cfg)
    return {"generated": len(ds)}


def cmd_train(cfg: dict) -> dict:
    ds = _load_dataset(cfg["images"], cfg["labels"])
    train_part, calib_part = _training_split(ds, cfg)
    config = TrainConfig(
        epochs=cfg["epochs"],
        learning_rate=cfg["learning-rate"],
        batch_size=cfg["batch-size"],
        seed=derive_seed(cfg["seed"], "train"),
    )
    net = train_reference_cnn(train_part.images, train_part.labels, config)
    accuracy = evaluate_accuracy(net, train_part.images, train_part.labels)
    logger.info("training accuracy %.4f on %d images", accuracy, len(train_part))
    if accuracy < cfg["min-accuracy"]:
        raise NumericalError(
            f"training accuracy {accuracy:.4f} is below the floor "
            f"{cfg['min-accuracy']:.4f}"
        )
    save_network(net, cfg["out"])
    return {
        "train_accuracy": accuracy,
        "train_images": len(train_part),
        "calibration_images": len(calib_part),
    }


def cmd_extract(cfg: dict) -> dict:
    net = load_network(cfg["model"])
    ds = _load_dataset(cfg["images"])
    outputs = pipeline.run_network(net, ds.images, cfg["feature-kind"], head=False)
    names = feature_names(cfg["feature-kind"], net.num_activation_layers)
    write_table(cfg["out"], "image_id",
                dict(zip(names, outputs.features.T, strict=True)))
    return {
        "rows": outputs.features.shape[0],
        "width": outputs.features.shape[1],
    }


def cmd_fit_m(cfg: dict) -> dict:
    net, train_part, calib_part = _fit_inputs(cfg)
    bundle = pipeline.fit_m_bundle(
        net, train_part, calib_part, cfg["reg-c"], cfg["feature-kind"]
    )
    pipeline.save_bundle(bundle, cfg["out"])
    return {"threshold": bundle.detector.threshold, "dim": bundle.transform.dim,
            "power_lambdas_at_edge": bundle.transform.lambdas_at_edge}


def cmd_fit_l(cfg: dict) -> dict:
    net, train_part, calib_part = _fit_inputs(cfg)
    bundle, cv = pipeline.fit_l_bundle(
        net, train_part, calib_part, cfg["seed"], cfg["lambda-grid"],
        cfg["feature-kind"],
    )
    pipeline.save_bundle(bundle, cfg["out"])
    return {
        "selected_lambda": cv.best_lambda,
        "threshold": bundle.detector.threshold,
        "cv_mean_losses": cv.mean_losses.tolist(),
        "folds": cv.fold_losses.shape[1],
        "pinned_split_columns": cv.pinned_split_columns,
        "fold_positive_rates": cv.fold_positive_rates,
        "power_lambdas_at_edge": bundle.transform.lambdas_at_edge,
    }


def cmd_score(cfg: dict) -> dict:
    net = load_network(cfg["model"])
    bundle = pipeline.load_bundle(cfg["detector"])
    ds = _load_dataset(cfg["images"])
    scores = pipeline.score_images(bundle, net, ds.images)
    write_table(cfg["out"], "index", {"score": scores})
    return {"scored": scores.shape[0], "mean_score": float(scores.mean())}


def read_scores_csv(path: str | Path) -> np.ndarray:
    return read_table(path, "index", ("score",))[:, 0]


# An eval table's metric columns, in order, and the metric each one holds
_EVAL_COLUMNS = (
    ("auroc", metrics.auroc),
    ("tnr95", metrics.tnr_at_95tpr),
    ("det_acc", metrics.detection_accuracy),
    ("fpr95", metrics.fpr_at_95tpr),
)


def cmd_eval(cfg: dict) -> dict:
    id_scores = read_scores_csv(cfg["id-scores"])
    ood_files = cfg["ood-scores"]
    names = (cfg["ood-names"].split(",") if cfg["ood-names"]
             else [Path(f).stem for f in ood_files])
    if len(names) != len(ood_files):
        raise ConfigError(
            f"{len(names)} names for {len(ood_files)} OOD score files"
        )
    id_name = cfg["id-name"] or Path(cfg["id-scores"]).stem
    table = np.empty((len(ood_files), len(_EVAL_COLUMNS)))
    for i, ood_file in enumerate(ood_files):
        ood = read_scores_csv(ood_file)
        scores = np.concatenate([id_scores, ood])
        is_id = np.concatenate(
            [np.ones(id_scores.shape[0], bool), np.zeros(ood.shape[0], bool)]
        )
        table[i] = [metric(scores, is_id) for _, metric in _EVAL_COLUMNS]
    if len(ood_files) > 1:
        names, table = [*names, "average"], np.vstack([table, table.mean(axis=0)])
    rows = [f"{id_name},{name},{cfg['method']}," + ",".join(f"{v:.6f}" for v in values)
            for name, values in zip(names, table)]
    out = Path(cfg["out"])
    if cfg["append"] and out.is_file():
        existing = read_utf8(out).rstrip("\n")
        out.write_text(existing + "\n" + "\n".join(rows) + "\n")
    else:
        header = "in_dist,out_dist,method," + ",".join(c for c, _ in _EVAL_COLUMNS)
        out.write_text(header + "\n" + "\n".join(rows) + "\n")
    return {"rows": len(rows)}


def cmd_distort(cfg: dict) -> dict:
    ds = _load_dataset(cfg["images"], cfg["labels"])
    distorted = pipeline.distortion_fold(ds, cfg["kind"], cfg["seed"])
    _save_images(distorted, cfg)
    return {"distorted": len(distorted)}


def cmd_hist(cfg: dict) -> dict:
    net = load_network(cfg["model"])
    id_ds = _load_dataset(cfg["id-images"])
    ood_ds = _load_dataset(cfg["ood-images"])
    id_feats = pipeline.run_network(net, id_ds.images, head=False).features
    ood_feats = pipeline.run_network(net, ood_ds.images, head=False).features
    num_layers = net.num_activation_layers
    names = feature_names(FeatureKind.MINMAX, num_layers)
    for population, feats in (("ID", id_feats), ("OOD", ood_feats)):
        refuse_non_finite(feats, names, f"{population} features")
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = ["layer,stat,id_p01,id_p99,ood_outside_fraction"]
    for layer in range(1, num_layers + 1):
        lines = ["stat,population,bin_left,bin_right,count"]
        for si, stat in enumerate(("min", "max")):
            col = 2 * (layer - 1) + si
            id_vals = id_feats[:, col].astype(np.float64)
            ood_vals = ood_feats[:, col].astype(np.float64)
            combined = np.concatenate([id_vals, ood_vals])
            lo, hi = float(combined.min()), float(combined.max())
            edges = np.linspace(lo, hi, cfg["bins"] + 1)
            for pop, vals in (("id", id_vals), ("ood", ood_vals)):
                counts, _ = np.histogram(vals, bins=edges)
                for b in range(cfg["bins"]):
                    lines.append(
                        f"{stat},{pop},{edges[b]:.9g},{edges[b + 1]:.9g},"
                        f"{counts[b]}"
                    )
            p01, p99 = np.percentile(id_vals, [1.0, 99.0])
            outside = float(np.mean((ood_vals < p01) | (ood_vals > p99)))
            summary.append(f"{layer},{stat},{p01:.9g},{p99:.9g},{outside:.6f}")
        (out_dir / f"hist_layer{layer}.csv").write_text("\n".join(lines) + "\n")
    (out_dir / "hist_summary.csv").write_text("\n".join(summary) + "\n")
    return {
        "layers": num_layers,
        "id_images": len(id_ds),
        "ood_images": len(ood_ds),
    }


_HANDLERS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "extract": cmd_extract,
    "fit-m": cmd_fit_m,
    "fit-l": cmd_fit_l,
    "score": cmd_score,
    "eval": cmd_eval,
    "distort": cmd_distort,
    "hist": cmd_hist,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        command, cfg = _parse(argv)
        appending = cfg.get("append") and Path(cfg["out"]).is_file()
        for key in _OUTPUTS:
            if cfg.get(key) and not (appending and key == "out"):
                _ensure_writable(cfg[key], cfg["force"])
        extras = _HANDLERS[command](cfg)
        _write_manifest(cfg.get("out", cfg.get("images-out")), cfg, extras)
        return 0
    except SystemExit as exc:  # argparse has printed the usage error
        return int(exc.code or 0)
    except (XoodError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        if isinstance(exc, ConfigError):
            return 2
        # any other package error is a data problem, as is input too big to hold
        return 4 if isinstance(exc, NumericalError) else 3


if __name__ == "__main__":
    sys.exit(main())
