"""Command-line interface.

Subcommands cover the whole pipeline at desk scale: ``gen`` synthesizes
datasets, ``train`` fits the reference CNN (holding out a calibration
split), ``extract`` dumps per-image features, ``fit-m``/``fit-l`` build
detector bundles, ``score`` applies a bundle, ``eval`` turns score files
into metric rows, ``bench`` measures scoring overhead, ``distort`` applies
one distortion family, and ``hist`` writes per-layer extreme-value
histograms.

Conventions:

* long-form flags only; an optional ``--config`` file supplies key=value
  defaults which explicit flags override
* every run writes a ``.manifest`` next to its primary output echoing the
  fully resolved configuration plus run statistics
* one ``--seed`` drives all randomness; independent streams are derived
  per purpose, so ``train`` and ``fit-m``/``fit-l`` recover the same
  calibration split when given the same dataset and seed
* exit codes: 0 success, 2 configuration error, 3 data or format error,
  4 numerical failure
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import metrics, pipeline
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
    ContractError,
    DimensionError,
    FormatError,
    NumericalError,
    XoodError,
)
from .features import FeatureKind, feature_names, write_feature_csv
from .keyvalue import read_key_values, read_utf8
from .logistic import LAMBDA_GRID
from .network import (
    TrainConfig,
    evaluate_accuracy,
    forward_with_taps,
    load_network,
    save_network,
    train_reference_cnn,
)
from .rng import derive_seed

logger = logging.getLogger(__name__)

_REQUIRED = object()


@dataclass(frozen=True)
class Opt:
    name: str  # long flag without the leading dashes
    type: Callable = str
    default: object = None
    flag: bool = False  # boolean store_true option
    repeat: bool = False  # may be given multiple times
    help: str = ""

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


def _bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _lambda_grid(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad lambda grid: {exc}")
    if not values:
        raise ConfigError("lambda grid is empty")
    return values


_COMMON = [
    Opt("config", help="key=value file supplying defaults"),
    Opt("seed", int, 0, help="master seed; per-purpose streams are derived"),
]

_SCHEMAS: dict[str, list[Opt]] = {
    "gen": _COMMON + [
        Opt("kind", str, _REQUIRED, help="blobs | gratings | uniform | gaussian"),
        Opt("count", int, _REQUIRED, help="number of images"),
        Opt("side", int, 28, help="image side length"),
        Opt("classes", int, 4, help="class count (blobs only)"),
        Opt("images-out", str, _REQUIRED),
        Opt("labels-out", help="label output (labeled kinds only)"),
        Opt("format", str, "xten", help="xten | idx"),
        Opt("force", flag=True, help="overwrite existing outputs"),
    ],
    "train": _COMMON + [
        Opt("images", str, _REQUIRED),
        Opt("labels", str, _REQUIRED),
        Opt("epochs", int, 5),
        Opt("learning-rate", float, 0.1),
        Opt("batch-size", int, 64),
        Opt("holdout-fraction", float, 0.2,
            help="fraction held out of training as the calibration split"),
        Opt("min-accuracy", float, 0.0,
            help="fail if training accuracy falls below this floor"),
        Opt("out", str, _REQUIRED, help="model file to write"),
        Opt("force", flag=True),
    ],
    "extract": _COMMON + [
        Opt("model", str, _REQUIRED),
        Opt("images", str, _REQUIRED),
        Opt("feature-kind", FeatureKind, FeatureKind.MINMAX),
        Opt("batch-size", int, 256),
        Opt("out", str, _REQUIRED, help="feature CSV to write"),
        Opt("force", flag=True),
    ],
    "fit-m": _COMMON + [
        Opt("model", str, _REQUIRED),
        Opt("images", str, _REQUIRED),
        Opt("labels", str, _REQUIRED),
        Opt("holdout-fraction", float, 0.2),
        Opt("reg-c", float, 10.0, help="covariance regularizer C"),
        Opt("feature-kind", FeatureKind, FeatureKind.MINMAX),
        Opt("batch-size", int, 256),
        Opt("out", str, _REQUIRED, help="detector bundle directory"),
        Opt("force", flag=True),
    ],
    "fit-l": _COMMON + [
        Opt("model", str, _REQUIRED),
        Opt("images", str, _REQUIRED),
        Opt("labels", str, _REQUIRED),
        Opt("holdout-fraction", float, 0.2),
        Opt("lambda-grid", _lambda_grid, LAMBDA_GRID),
        Opt("feature-kind", FeatureKind, FeatureKind.MINMAX),
        Opt("batch-size", int, 256),
        Opt("out", str, _REQUIRED, help="detector bundle directory"),
        Opt("force", flag=True),
    ],
    "score": _COMMON + [
        Opt("model", str, _REQUIRED),
        Opt("detector", str, _REQUIRED, help="detector bundle directory"),
        Opt("images", str, _REQUIRED),
        Opt("batch-size", int, 256),
        Opt("out", str, _REQUIRED, help="score CSV to write"),
        Opt("force", flag=True),
    ],
    "eval": _COMMON + [
        Opt("id-scores", str, _REQUIRED),
        Opt("ood-scores", str, _REQUIRED, repeat=True,
            help="one or more OOD score files"),
        Opt("method", str, "detector", help="method label for the rows"),
        Opt("id-name", help="in-distribution set label (default: file stem)"),
        Opt("ood-names", help="comma list of OOD set labels"),
        Opt("out", str, _REQUIRED, help="metrics CSV"),
        Opt("append", flag=True, help="append rows to an existing CSV"),
        Opt("force", flag=True),
    ],
    "bench": _COMMON + [
        Opt("model", str, _REQUIRED),
        Opt("images", str, _REQUIRED),
        Opt("detector-m", help="bundle directory for the Mahalanobis detector"),
        Opt("detector-l", help="bundle directory for the logistic detector"),
        Opt("repeats", int, 10),
        Opt("batch-size", int, 256),
        Opt("out", str, _REQUIRED, help="timing CSV"),
        Opt("force", flag=True),
    ],
    "distort": _COMMON + [
        Opt("kind", str, _REQUIRED, help=" | ".join(DISTORTION_FAMILIES)),
        Opt("images", str, _REQUIRED),
        Opt("labels", help="required for mixup"),
        Opt("images-out", str, _REQUIRED),
        Opt("labels-out"),
        Opt("format", str, "xten", help="xten | idx"),
        Opt("force", flag=True),
    ],
    "hist": _COMMON + [
        Opt("model", str, _REQUIRED),
        Opt("id-images", str, _REQUIRED),
        Opt("ood-images", str, _REQUIRED),
        Opt("bins", int, 40),
        Opt("batch-size", int, 256),
        Opt("out", str, _REQUIRED, help="output directory"),
        Opt("force", flag=True),
    ],
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xood",
        description="extreme-value out-of-distribution detection toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        sub = subs.add_parser(command)
        for opt in schema:
            if opt.flag:
                sub.add_argument(f"--{opt.name}", action="store_true",
                                 default=None, help=opt.help)
            elif opt.repeat:
                sub.add_argument(f"--{opt.name}", action="append",
                                 default=None, help=opt.help)
            else:
                sub.add_argument(f"--{opt.name}", default=None, help=opt.help)
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    try:
        return read_key_values(path).entries
    except (OSError, FormatError) as exc:
        raise ConfigError(f"cannot read config file: {exc}")


def _resolve(args: argparse.Namespace, schema: list[Opt]) -> dict:
    """CLI value > config file value > schema default."""
    raw = vars(args)
    file_values = _read_config_file(raw["config"]) if raw.get("config") else {}
    unknown = set(file_values) - {o.name for o in schema}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    resolved: dict = {}
    for opt in schema:
        value = raw.get(opt.dest)
        if value is None and opt.name in file_values:
            text = file_values[opt.name]
            try:
                value = (_bool(text) if opt.flag
                         else [text] if opt.repeat
                         else text)
            except ValueError as exc:
                raise ConfigError(str(exc))
        if value is None:
            if opt.default is _REQUIRED:
                raise ConfigError(f"missing required option --{opt.name}")
            value = False if opt.flag else opt.default
        elif not opt.flag and not opt.repeat and isinstance(value, str):
            if opt.type is not str:
                try:
                    value = opt.type(value)
                except (ValueError, TypeError) as exc:
                    raise ConfigError(f"bad value for --{opt.name}: {exc}")
        elif opt.repeat and isinstance(value, list):
            value = [opt.type(v) for v in value]
        resolved[opt.name] = value
    return resolved


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
    if p.parent and not p.parent.exists():
        p.parent.mkdir(parents=True, exist_ok=True)


def _load_dataset(images: str, labels: str | None = None) -> Dataset:
    ds = load_images_any(images)
    if labels is not None:
        ds = Dataset(ds.images, load_labels_any(labels, len(ds)), ds.name)
    return ds


def _save_images(ds: Dataset, cfg: dict) -> None:
    fmt = cfg["format"]
    if fmt not in ("xten", "idx"):
        raise ConfigError(f"unknown output format {fmt!r}")
    labels_out = cfg.get("labels-out")
    if labels_out and ds.labels is None:
        raise ConfigError(f"--labels-out given but {ds.name!r} has no labels")
    _ensure_writable(cfg["images-out"], cfg["force"])
    if labels_out:
        _ensure_writable(labels_out, cfg["force"])
    if fmt == "xten":
        save_dataset(ds, cfg["images-out"], labels_out)
    else:
        dataset_to_idx(ds, cfg["images-out"], labels_out)


def _training_split(ds: Dataset, cfg: dict) -> tuple[Dataset, Dataset]:
    """The (train, calibration) split shared by train, fit-m, and fit-l."""
    fraction = 1.0 - cfg["holdout-fraction"]
    if not 0.0 < cfg["holdout-fraction"] < 1.0:
        raise ConfigError("--holdout-fraction must be in (0, 1)")
    return split(ds, fraction, derive_seed(cfg["seed"], "calibration-split"))


# ---------------------------------------------------------------------------
# handlers


def cmd_gen(cfg: dict) -> dict:
    kind, n, side = cfg["kind"], cfg["count"], cfg["side"]
    if n < 1 or side < 1:
        raise ConfigError("--count and --side must be positive")
    if kind == "blobs":
        ds = make_blobs(n, cfg["classes"], side, cfg["seed"])
    elif kind == "gratings":
        ds = make_gratings(n, side, cfg["seed"])
    elif kind in (NoiseKind.UNIFORM.value, NoiseKind.GAUSSIAN.value):
        ds = gen_noise(kind, n, (1, side, side), cfg["seed"])
    else:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    _save_images(ds, cfg)
    _write_manifest(cfg["images-out"], cfg, {"generated": len(ds)})
    return {}


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
    _ensure_writable(cfg["out"], cfg["force"])
    save_network(net, cfg["out"])
    _write_manifest(cfg["out"], cfg, {
        "train_accuracy": accuracy,
        "train_images": len(train_part),
        "calibration_images": len(calib_part),
    })
    return {}


def cmd_extract(cfg: dict) -> dict:
    net = load_network(cfg["model"])
    ds = _load_dataset(cfg["images"])
    outputs = pipeline.run_network(
        net, ds.images, cfg["feature-kind"], cfg["batch-size"]
    )
    names = feature_names(cfg["feature-kind"], net.num_activation_layers)
    _ensure_writable(cfg["out"], cfg["force"])
    write_feature_csv(cfg["out"], outputs.features, names)
    _write_manifest(cfg["out"], cfg, {
        "rows": outputs.features.shape[0],
        "width": outputs.features.shape[1],
    })
    return {}


def cmd_fit_m(cfg: dict) -> dict:
    net = load_network(cfg["model"])
    ds = _load_dataset(cfg["images"], cfg["labels"])
    train_part, calib_part = _training_split(ds, cfg)
    bundle = pipeline.fit_m_bundle(
        net, train_part, calib_part, cfg["reg-c"], cfg["feature-kind"],
        cfg["batch-size"],
    )
    _ensure_writable(cfg["out"], cfg["force"])
    pipeline.save_bundle(bundle, cfg["out"])
    _write_manifest(cfg["out"], cfg, {
        "threshold": bundle.detector.threshold,
        "dim": bundle.transform.dim,
    })
    return {}


def cmd_fit_l(cfg: dict) -> dict:
    net = load_network(cfg["model"])
    ds = _load_dataset(cfg["images"], cfg["labels"])
    train_part, calib_part = _training_split(ds, cfg)
    bundle, cv = pipeline.fit_l_bundle(
        net, train_part, calib_part, cfg["seed"], cfg["lambda-grid"],
        cfg["feature-kind"], cfg["batch-size"],
    )
    _ensure_writable(cfg["out"], cfg["force"])
    pipeline.save_bundle(bundle, cfg["out"])
    _write_manifest(cfg["out"], cfg, {
        "selected_lambda": cv.best_lambda,
        "threshold": bundle.detector.threshold,
        "cv_mean_losses": cv.mean_losses.tolist(),
        "folds": cv.fold_losses.shape[1],
    })
    return {}


def cmd_score(cfg: dict) -> dict:
    net = load_network(cfg["model"])
    bundle = pipeline.load_bundle(cfg["detector"])
    ds = _load_dataset(cfg["images"])
    scores = pipeline.score_images(bundle, net, ds.images, cfg["batch-size"])
    _ensure_writable(cfg["out"], cfg["force"])
    lines = ["index,score"] + [
        f"{i},{s:.12g}" for i, s in enumerate(scores)
    ]
    Path(cfg["out"]).write_text("\n".join(lines) + "\n")
    _write_manifest(cfg["out"], cfg, {
        "scored": scores.shape[0],
        "mean_score": float(scores.mean()),
    })
    return {}


def read_scores_csv(path: str | Path) -> np.ndarray:
    lines = [l for l in read_utf8(path).splitlines() if l.strip()]
    if not lines or lines[0] != "index,score":
        raise FormatError(f"bad score CSV header in {path}")
    values = []
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        try:
            index, value = int(parts[0]), float(parts[-1])
        except ValueError:
            index = None
        if len(parts) != 2 or index != i:
            raise FormatError(f"bad score CSV row {i}: {line!r}")
        values.append(value)
    return np.array(values)


_EVAL_HEADER = "in_dist,out_dist,method,auroc,tnr95,det_acc,fpr95"


def cmd_eval(cfg: dict) -> dict:
    id_scores = read_scores_csv(cfg["id-scores"])
    ood_files = cfg["ood-scores"]
    names = (cfg["ood-names"].split(",") if cfg.get("ood-names")
             else [Path(f).stem for f in ood_files])
    if len(names) != len(ood_files):
        raise ConfigError(
            f"{len(names)} names for {len(ood_files)} OOD score files"
        )
    id_name = cfg.get("id-name") or Path(cfg["id-scores"]).stem
    rows = []
    table = np.empty((len(ood_files), 4))
    for i, (ood_file, name) in enumerate(zip(ood_files, names)):
        ood = read_scores_csv(ood_file)
        scores = np.concatenate([id_scores, ood])
        is_id = np.concatenate(
            [np.ones(id_scores.shape[0], bool), np.zeros(ood.shape[0], bool)]
        )
        table[i] = (
            metrics.auroc(scores, is_id),
            metrics.tnr_at_95tpr(scores, is_id),
            metrics.detection_accuracy(scores, is_id),
            metrics.fpr_at_95tpr(scores, is_id),
        )
        rows.append(
            f"{id_name},{name},{cfg['method']},"
            + ",".join(f"{v:.6f}" for v in table[i])
        )
    if len(ood_files) > 1:
        rows.append(
            f"{id_name},average,{cfg['method']},"
            + ",".join(f"{v:.6f}" for v in table.mean(axis=0))
        )
    out = Path(cfg["out"])
    if cfg["append"] and out.is_file():
        existing = read_utf8(out).rstrip("\n")
        out.write_text(existing + "\n" + "\n".join(rows) + "\n")
    else:
        _ensure_writable(cfg["out"], cfg["force"])
        out.write_text(_EVAL_HEADER + "\n" + "\n".join(rows) + "\n")
    _write_manifest(cfg["out"], cfg, {"rows": len(rows)})
    return {}


def cmd_bench(cfg: dict) -> dict:
    net = load_network(cfg["model"])
    ds = _load_dataset(cfg["images"])
    images = ds.images
    batch = cfg["batch-size"]

    def baseline():
        # plain classification, no feature extraction
        for start in range(0, images.shape[0], batch):
            forward_with_taps(net, images[start : start + batch])

    stats = {"baseline": metrics.time_call(baseline, cfg["repeats"])}
    for key in ("detector-m", "detector-l"):
        if cfg.get(key):
            bundle = pipeline.load_bundle(cfg[key])

            def scored(b=bundle):
                pipeline.score_images(b, net, images, batch)

            stats[f"xood-{key[-1]}"] = metrics.time_call(scored, cfg["repeats"])
    base_mean = stats["baseline"].mean
    lines = ["method,mean_seconds,ci99_seconds,overhead"]
    for name, st in stats.items():
        rel = metrics.overhead(st.mean, base_mean)
        lines.append(
            f"{name},{st.mean:.6f},{st.ci99:.6f},{metrics.format_overhead(rel)}"
        )
    _ensure_writable(cfg["out"], cfg["force"])
    Path(cfg["out"]).write_text("\n".join(lines) + "\n")
    _write_manifest(cfg["out"], cfg, {
        "images": images.shape[0],
        "baseline_mean_seconds": base_mean,
    })
    return {}


def cmd_distort(cfg: dict) -> dict:
    kind = cfg["kind"]
    if kind not in DISTORTION_FAMILIES:
        raise ConfigError(
            f"unknown distortion {kind!r}; choose from {list(DISTORTION_FAMILIES)}"
        )
    ds = _load_dataset(cfg["images"], cfg.get("labels"))
    distorted = DISTORTION_FAMILIES[kind](
        ds, derive_seed(cfg["seed"], f"distort-{kind}")
    )
    _save_images(distorted, cfg)
    _write_manifest(cfg["images-out"], cfg, {"distorted": len(distorted)})
    return {}


def cmd_hist(cfg: dict) -> dict:
    net = load_network(cfg["model"])
    id_ds = _load_dataset(cfg["id-images"])
    ood_ds = _load_dataset(cfg["ood-images"])
    id_feats = pipeline.run_network(
        net, id_ds.images, FeatureKind.MINMAX, cfg["batch-size"]
    ).features
    ood_feats = pipeline.run_network(
        net, ood_ds.images, FeatureKind.MINMAX, cfg["batch-size"]
    ).features
    out_dir = Path(cfg["out"])
    _ensure_writable(cfg["out"], cfg["force"])
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = ["layer,stat,id_p01,id_p99,ood_outside_fraction"]
    num_layers = net.num_activation_layers
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
    _write_manifest(cfg["out"], cfg, {
        "layers": num_layers,
        "id_images": len(id_ds),
        "ood_images": len(ood_ds),
    })
    return {}


_HANDLERS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "extract": cmd_extract,
    "fit-m": cmd_fit_m,
    "fit-l": cmd_fit_l,
    "score": cmd_score,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "distort": cmd_distort,
    "hist": cmd_hist,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(args, _SCHEMAS[args.command])
        _HANDLERS[args.command](cfg)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, ContractError, DimensionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except XoodError as exc:  # any remaining package error is a data problem
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
