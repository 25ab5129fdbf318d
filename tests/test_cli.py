import re
import struct
from pathlib import Path

import numpy as np
import pytest

from xood import cli, logistic, pipeline
from xood.features import LAMBDA_LO, LAMBDA_TOL
from xood.cli import main, read_scores_csv
from xood.datasets import Dataset, load_images_any, load_labels_any
from xood.distortions import DISTORTION_FAMILIES
from xood.network import load_network, save_network
from xood.rng import derive_seed
from xood.xten import read_tensor, write_tensor

from helpers import read_feature_csv


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A workspace with the full artifact chain built through the CLI."""
    root = tmp_path_factory.mktemp("cli")

    def run(*args):
        return main([str(a) for a in args])

    assert run(
        "gen", "--kind", "blobs", "--count", 240, "--classes", 3,
        "--side", 16, "--seed", 7,
        "--images-out", root / "train.xten", "--labels-out", root / "labels.xten",
    ) == 0
    assert run(
        "gen", "--kind", "uniform", "--count", 60, "--side", 16, "--seed", 99,
        "--images-out", root / "noise.xten",
    ) == 0
    assert run(
        "train", "--images", root / "train.xten", "--labels", root / "labels.xten",
        "--epochs", 2, "--batch-size", 32, "--seed", 7, "--min-accuracy", 0.8,
        "--out", root / "model.xnet",
    ) == 0
    assert run(
        "fit-m", "--model", root / "model.xnet", "--images", root / "train.xten",
        "--labels", root / "labels.xten", "--seed", 7, "--out", root / "mdet",
    ) == 0
    assert run(
        "fit-l", "--model", root / "model.xnet", "--images", root / "train.xten",
        "--labels", root / "labels.xten", "--seed", 7,
        "--lambda-grid", "0.01,1.0", "--out", root / "ldet",
    ) == 0
    assert run(
        "score", "--model", root / "model.xnet", "--detector", root / "mdet",
        "--images", root / "train.xten", "--out", root / "id_scores.csv",
    ) == 0
    assert run(
        "score", "--model", root / "model.xnet", "--detector", root / "mdet",
        "--images", root / "noise.xten", "--out", root / "ood_scores.csv",
    ) == 0
    return root, run


def manifest(path) -> dict[str, str]:
    entries = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition("=")
        entries[key] = value
    return entries


def test_gen_writes_manifest(ws):
    root, _ = ws
    m = manifest(str(root / "train.xten") + ".manifest")
    assert m["kind"] == "blobs" and m["generated"] == "240"
    assert m["seed"] == "7"


def test_train_manifest_reports_accuracy_and_split(ws):
    root, _ = ws
    m = manifest(str(root / "model.xnet") + ".manifest")
    assert float(m["train_accuracy"]) >= 0.8
    assert int(m["train_images"]) == 192 and int(m["calibration_images"]) == 48


def test_train_is_deterministic(ws, tmp_path):
    root, run = ws
    assert run(
        "train", "--images", root / "train.xten", "--labels", root / "labels.xten",
        "--epochs", 2, "--batch-size", 32, "--seed", 7,
        "--out", tmp_path / "again.xnet",
    ) == 0
    assert (tmp_path / "again.xnet").read_bytes() == (root / "model.xnet").read_bytes()


def test_overwrite_needs_force(ws, tmp_path):
    root, run = ws
    args = (
        "gen", "--kind", "uniform", "--count", 5, "--side", 16,
        "--images-out", tmp_path / "n.xten",
    )
    assert run(*args) == 0
    assert run(*args) == 2  # refuses silently clobbering
    assert run(*args, "--force") == 0


@pytest.mark.parametrize("kind, count, side", [
    ("uniform", 10**12, 28),
    ("uniform", 10**20, 28),
    ("blobs", 10, 3 * 10**9),
])
def test_oversized_gen_is_config_error(tmp_path, monkeypatch, capsys, kind, count, side):
    def generate(*args, **kwargs):
        raise AssertionError("generated before checking the size")

    for name in ("gen_noise", "make_blobs", "make_gratings"):
        monkeypatch.setattr(cli, name, generate)
    out = tmp_path / "x.xten"
    assert main(["gen", "--kind", kind, "--count", str(count), "--classes", "2",
                 "--side", str(side), "--images-out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "pixel values" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_memory_error_exits_3(tmp_path, monkeypatch, capsys):
    def gen(cfg):
        raise MemoryError()

    monkeypatch.setitem(cli._HANDLERS, "gen", gen)
    out = tmp_path / "x.xten"
    assert main(["gen", "--kind", "uniform", "--count", "5",
                 "--images-out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error: out of memory\n"
    assert list(tmp_path.iterdir()) == []


def test_existing_output_is_refused_before_any_work(ws, monkeypatch):
    root, run = ws

    def train(*args, **kwargs):
        raise AssertionError("trained before checking the output")

    monkeypatch.setattr(cli, "train_reference_cnn", train)
    assert run(
        "train", "--images", root / "train.xten", "--labels", root / "labels.xten",
        "--out", root / "model.xnet",
    ) == 2


def test_extract_writes_feature_table(ws, tmp_path):
    root, run = ws
    out = tmp_path / "feats.csv"
    assert run(
        "extract", "--model", root / "model.xnet", "--images", root / "noise.xten",
        "--feature-kind", "minmax", "--out", out,
    ) == 0
    names, values = read_feature_csv(out)
    assert names == [
        "layer1_min", "layer1_max", "layer2_min", "layer2_max",
        "layer3_min", "layer3_max",
    ]
    assert values.shape == (60, 6)
    net = load_network(root / "model.xnet")
    want = pipeline.run_network(net, read_tensor(root / "noise.xten")).features
    assert np.array_equal(values.view(np.uint32), want.view(np.uint32))
    m = manifest(str(out) + ".manifest")
    assert m["rows"] == "60" and m["width"] == "6"


def test_fit_manifests_record_derived_stats(ws):
    root, _ = ws
    m = manifest(root / "mdet" / "run.manifest")
    assert m["dim"] == "6"
    float(m["threshold"])  # parseable
    l = manifest(root / "ldet" / "run.manifest")
    assert float(l["selected_lambda"]) in (0.01, 1.0)
    assert l["folds"] == "5"
    assert l["pinned_split_columns"] == ""
    for m, bundle in ((m, "mdet"), (l, "ldet")):
        pt = pipeline.load_bundle(root / bundle).transform
        assert m["power_lambdas_at_edge"] == ",".join(map(str, pt.lambdas_at_edge))


@pytest.mark.parametrize("command", ["fit-m", "fit-l"])
def test_fit_manifests_list_power_lambdas_at_edge(ws, tmp_path, monkeypatch, command):
    root, run = ws
    fit = pipeline.fit_power_transform
    edges = []

    def edge_at_columns_2_and_4(features):
        pt = fit(features)
        pt.lambdas[[2, 4]] = LAMBDA_LO + 0.5 * LAMBDA_TOL, 4.99995
        edges.append(pt.lambdas_at_edge)
        return pt

    monkeypatch.setattr(pipeline, "fit_power_transform", edge_at_columns_2_and_4)
    assert run(
        command, "--model", root / "model.xnet", "--images", root / "train.xten",
        "--labels", root / "labels.xten", "--seed", 7, "--out", tmp_path / "det",
        *(["--lambda-grid", "1.0"] if command == "fit-l" else []),
    ) == 0
    (listed,) = edges
    assert {2, 4} <= set(listed)
    m = manifest(tmp_path / "det" / "run.manifest")
    assert m["power_lambdas_at_edge"] == ",".join(map(str, listed))


def test_fit_l_manifest_lists_pinned_split_columns(ws, tmp_path, monkeypatch):
    root, run = ws
    fit = logistic.fit_l_detector

    def split_below_every_row(training, grid):
        # every value sits above the split point 0, so each "below" column
        # (odd index) is constant 0 and has its std pinned
        shifted = training.features - training.features.min(axis=0) + 1.0
        return fit(
            logistic.LabeledFeatureSet(shifted, training.labels, training.fold_ids),
            grid,
        )

    monkeypatch.setattr(logistic, "fit_l_detector", split_below_every_row)
    assert run(
        "fit-l", "--model", root / "model.xnet", "--images", root / "train.xten",
        "--labels", root / "labels.xten", "--seed", 7,
        "--lambda-grid", "1.0", "--out", tmp_path / "ldet",
    ) == 0
    m = manifest(tmp_path / "ldet" / "run.manifest")
    assert m["pinned_split_columns"] == "1,3,5,7,9,11"


def test_fit_l_manifest_lists_fold_positive_rates(ws, tmp_path, monkeypatch):
    root, run = ws
    fit = logistic.fit_l_detector
    seen = []

    def recording(training, grid):
        seen.append(training)
        return fit(training, grid)

    monkeypatch.setattr(logistic, "fit_l_detector", recording)
    assert run(
        "fit-l", "--model", root / "model.xnet", "--images", root / "train.xten",
        "--labels", root / "labels.xten", "--seed", 7,
        "--lambda-grid", "1.0", "--out", tmp_path / "ldet",
    ) == 0
    (training,) = seen
    want = [training.labels[training.fold_ids == fold].mean() for fold in range(5)]
    m = manifest(tmp_path / "ldet" / "run.manifest")
    assert [float(r) for r in m["fold_positive_rates"].split(",")] == want


def test_scores_file_shape(ws):
    root, _ = ws
    scores = read_scores_csv(root / "id_scores.csv")
    assert scores.shape == (240,)
    assert np.isfinite(scores).all()
    want = pipeline.score_images(
        pipeline.load_bundle(root / "mdet"), load_network(root / "model.xnet"),
        read_tensor(root / "train.xten"),
    )
    assert np.array_equal(scores.view(np.uint64), want.view(np.uint64))


def test_eval_table_and_append(ws, tmp_path):
    root, run = ws
    out = tmp_path / "metrics.csv"
    assert run(
        "eval", "--id-scores", root / "id_scores.csv",
        "--ood-scores", root / "ood_scores.csv",
        "--method", "xood-m", "--id-name", "blobs", "--ood-names", "uniform",
        "--out", out,
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "in_dist,out_dist,method,auroc,tnr95,det_acc,fpr95"
    assert len(lines) == 2
    first = lines[1].split(",")
    assert first[:3] == ["blobs", "uniform", "xood-m"]
    auroc = float(first[3])
    assert 0.9 <= auroc <= 1.0  # uniform noise is easy
    assert float(first[6]) == pytest.approx(1.0 - float(first[4]), abs=1e-6)

    assert run(
        "eval", "--id-scores", root / "id_scores.csv",
        "--ood-scores", root / "ood_scores.csv",
        "--method", "msp", "--out", out, "--append",
    ) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3 and lines[2].split(",")[2] == "msp"


def test_eval_average_row_for_multiple_ood_sets(ws, tmp_path):
    root, run = ws
    out = tmp_path / "metrics.csv"
    assert run(
        "eval", "--id-scores", root / "id_scores.csv",
        "--ood-scores", root / "ood_scores.csv",
        "--ood-scores", root / "ood_scores.csv",
        "--method", "xood-m", "--out", out,
    ) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[3].split(",")[1] == "average"
    # average of two identical rows equals the row
    assert lines[3].split(",")[3] == lines[1].split(",")[3]


def test_eval_name_count_mismatch_is_config_error(ws, tmp_path):
    root, run = ws
    assert run(
        "eval", "--id-scores", root / "id_scores.csv",
        "--ood-scores", root / "ood_scores.csv",
        "--ood-names", "a,b", "--out", tmp_path / "m.csv",
    ) == 2


def test_distort_round_trip(ws, tmp_path):
    root, run = ws
    assert run(
        "distort", "--kind", "mixup", "--images", root / "train.xten",
        "--labels", root / "labels.xten", "--seed", 5,
        "--images-out", tmp_path / "mix.xten", "--labels-out", tmp_path / "mix_l.xten",
    ) == 0
    ds = load_images_any(tmp_path / "mix.xten")
    assert ds.images.shape == (240, 1, 16, 16)
    labels = load_labels_any(tmp_path / "mix_l.xten", 240)
    assert labels.min() >= 0 and labels.max() <= 2
    # unknown family is a config error
    assert run(
        "distort", "--kind", "wobble", "--images", root / "train.xten",
        "--images-out", tmp_path / "w.xten",
    ) == 2


@pytest.mark.parametrize("kind", list(DISTORTION_FAMILIES))
def test_distort_writes_fit_ls_fold(ws, tmp_path, kind):
    """``xood distort --seed s`` and fit-l's fold of the same images and
    seed are one function of them, bit for bit."""
    root, run = ws
    ds = Dataset(load_images_any(root / "train.xten").images,
                 load_labels_any(root / "labels.xten", 240))
    fold = pipeline.distortion_fold(ds, kind, 5)
    want = DISTORTION_FAMILIES[kind](ds, derive_seed(5, f"distort-{kind}"))
    assert fold.images.tobytes() == want.images.tobytes()
    assert fold.labels.tobytes() == want.labels.tobytes()
    assert run(
        "distort", "--kind", kind, "--images", root / "train.xten",
        "--labels", root / "labels.xten", "--seed", 5,
        "--images-out", tmp_path / "d.xten",
    ) == 0
    assert read_tensor(tmp_path / "d.xten").tobytes() == fold.images.tobytes()


def test_hist_outputs(ws, tmp_path):
    root, run = ws
    out = tmp_path / "hists"
    assert run(
        "hist", "--model", root / "model.xnet", "--id-images", root / "train.xten",
        "--ood-images", root / "noise.xten", "--bins", 10, "--out", out,
    ) == 0
    summary = (out / "hist_summary.csv").read_text().splitlines()
    assert summary[0] == "layer,stat,id_p01,id_p99,ood_outside_fraction"
    assert len(summary) == 7  # 3 layers x (min, max)
    for layer in (1, 2, 3):
        lines = (out / f"hist_layer{layer}.csv").read_text().splitlines()
        assert lines[0] == "stat,population,bin_left,bin_right,count"
        assert len(lines) == 1 + 2 * 2 * 10  # stats x populations x bins
        counts = sum(int(l.split(",")[4]) for l in lines[1:])
        assert counts == 2 * (240 + 60)  # every image once per stat


def test_config_file_defaults_cli_overrides(ws, tmp_path):
    root, run = ws
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=1\nbatch-size=16\n# comment\n\nseed=7\n")
    out = tmp_path / "m.xnet"
    assert run(
        "train", "--config", cfg, "--images", root / "train.xten",
        "--labels", root / "labels.xten", "--epochs", 2, "--out", out,
    ) == 0
    m = manifest(str(out) + ".manifest")
    assert m["epochs"] == "2"  # CLI wins
    assert m["batch-size"] == "16"  # config fills the gap
    cfg.write_text("nonsense=1\n")
    assert run(
        "train", "--config", cfg, "--images", root / "train.xten",
        "--labels", root / "labels.xten", "--out", tmp_path / "m2.xnet",
    ) == 2


def test_config_file_may_supply_required_options(ws, tmp_path):
    root, run = ws
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        f"images={root / 'train.xten'}\nlabels={root / 'labels.xten'}\n"
        f"out={tmp_path / 'm.xnet'}\nepochs=1\nbatch-size=32\n"
    )
    assert run("train", "--config", cfg) == 0
    assert manifest(str(tmp_path / "m.xnet") + ".manifest")["epochs"] == "1"


@pytest.mark.parametrize("flag", ["--ood-scores", "--ood-sc", "--ood-scores="])
def test_config_repeatable_option_is_replaced_by_flags(ws, tmp_path, flag):
    root, run = ws
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"ood-scores={root / 'id_scores.csv'}\n")
    out = tmp_path / "m.csv"
    ood = root / "ood_scores.csv"
    given = [f"{flag}{ood}"] if flag.endswith("=") else [flag, ood]
    assert run(
        "eval", "--config", cfg, "--id-scores", root / "id_scores.csv",
        *given, "--out", out,
    ) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].split(",")[1] == "ood_scores"
    assert manifest(str(out) + ".manifest")["ood-scores"] == str(
        root / "ood_scores.csv"
    )


def test_config_with_an_ambiguous_flag_prefix_exits_2(ws, tmp_path):
    # --ood is a prefix of both --ood-scores and --ood-names
    root, run = ws
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"ood-scores={root / 'id_scores.csv'}\n")
    assert run(
        "eval", "--config", cfg, "--id-scores", root / "id_scores.csv",
        "--ood", root / "ood_scores.csv", "--out", tmp_path / "m.csv",
    ) == 2
    assert not (tmp_path / "m.csv").exists()


_MODEL = ("--model", "{root}/model.xnet")
_LABELED = ("--images", "{root}/train.xten", "--labels", "{root}/labels.xten")
_GEN = ("gen", "--kind", "blobs", "--count", 5, "--images-out", "{out}")
_TRAIN = ("train", *_LABELED, "--out", "{out}")
_FIT_M = ("fit-m", *_MODEL, *_LABELED, "--out", "{out}")
_FIT_L = ("fit-l", *_MODEL, *_LABELED, "--out", "{out}")
_HIST = ("hist", *_MODEL, "--id-images", "{root}/train.xten",
         "--ood-images", "{root}/noise.xten", "--out", "{out}")


@pytest.mark.parametrize(
    "args",
    [
        ("gen", "--kind", "nope", "--count", 5, "--images-out", "{out}"),
        ("gen", "--kind", "uniform", "--count", 5, "--format", "nope",
         "--images-out", "{out}"),
        (*_GEN, "--classes", 0),
        (*_GEN, "--classes", 1),
        ("gen", "--kind", "blobs", "--count", 3, "--classes", 5,
         "--images-out", "{out}"),
        (*_TRAIN, "--epochs", -1),
        (*_TRAIN, "--learning-rate", 0),
        (*_TRAIN, "--learning-rate", "nan"),
        (*_TRAIN, "--batch-size", 0),
        (*_TRAIN, "--min-accuracy", "nan"),
        (*_FIT_M, "--reg-c", "nan"),
        (*_FIT_L, "--lambda-grid", "nan"),
        (*_FIT_L, "--lambda-grid", "inf"),
        (*_FIT_L, "--lambda-grid=-1"),
        (*_HIST, "--bins", -3),
        (*_HIST, "--bins", 0),
        # rules that handlers checked before argparse did
        (*_GEN, "--side", 0),
        (*_FIT_M, "--holdout-fraction", 1),
    ],
    ids=["gen-kind", "format", "classes-0", "classes-1", "count-below-classes",
         "epochs-negative", "learning-rate-0", "learning-rate-nan",
         "batch-size-0", "min-accuracy-nan", "reg-c-nan", "lambda-nan",
         "lambda-inf", "lambda-negative", "bins-negative",
         "bins-0", "side-0", "holdout-1"],
)
def test_unknown_choice_exits_2(ws, tmp_path, args):
    """An unknown choice or an out-of-range number exits 2 before any work.
    An unknown distortion family is checked in test_distort_round_trip."""
    root, run = ws
    out = tmp_path / "out"
    assert run(*(str(arg).format(root=root, out=out) for arg in args)) == 2
    assert not out.exists()


def test_missing_required_option_is_config_error(ws):
    _, run = ws
    assert run("gen", "--kind", "blobs", "--count", 5) == 2


def test_unreadable_inputs_are_data_errors(ws, tmp_path):
    import shutil

    root, run = ws
    junk = tmp_path / "junk.xten"
    junk.write_bytes(b"ZZZZ")
    assert run(
        "extract", "--model", root / "model.xnet", "--images", junk,
        "--out", tmp_path / "f.csv",
    ) == 3
    assert run(
        "score", "--model", root / "model.xnet", "--detector", root / "mdet",
        "--images", tmp_path / "does-not-exist.xten", "--out", tmp_path / "s.csv",
    ) == 3
    # hostile models: stride 0, a blob name that is not UTF-8, a rank-2
    # conv kernel and a 63-entry dense bias
    raw = (root / "model.xnet").read_bytes()
    models = [raw.replace(b"layer0.stride=1", b"layer0.stride=0"),
              raw.replace(b"layer0.weight", b"\xffayer0.weight")]
    for index, part, cut in ((0, "weight", lambda w: w.reshape(8, 9)),
                             (7, "bias", lambda b: b[:63])):
        net = load_network(root / "model.xnet")
        setattr(net.layers[index], part, cut(getattr(net.layers[index], part)))
        save_network(net, tmp_path / "bad.xnet")
        models.append((tmp_path / "bad.xnet").read_bytes())
    for model in models:
        (tmp_path / "bad.xnet").write_bytes(model)
        assert run(
            "extract", "--model", tmp_path / "bad.xnet", "--images",
            root / "noise.xten", "--out", tmp_path / "f.csv", "--force",
        ) == 3
    # a power transform and a score CSV that are not UTF-8
    det = tmp_path / "mdet"
    shutil.copytree(root / "mdet", det)
    (det / "power_transform.txt").write_bytes(b"\xff")
    assert run(
        "score", "--model", root / "model.xnet", "--detector", det,
        "--images", root / "noise.xten", "--out", tmp_path / "s.csv",
    ) == 3
    (tmp_path / "bad.csv").write_bytes(b"index,score\n0,0.\xff\n")
    assert run(
        "eval", "--id-scores", root / "id_scores.csv",
        "--ood-scores", tmp_path / "bad.csv", "--out", tmp_path / "m.csv",
    ) == 3


@pytest.mark.parametrize("command", ["score", "extract", "hist"])
def test_empty_idx_image_file_is_data_error(ws, tmp_path, command):
    # a well-formed IDX image header that declares zero images
    root, run = ws
    empty = tmp_path / "empty.idx"
    empty.write_bytes(struct.pack(">IIII", 0x00000803, 0, 16, 16))
    args = {
        "score": ("--detector", root / "mdet", "--images", empty),
        "extract": ("--images", empty),
        "hist": ("--id-images", empty, "--ood-images", root / "noise.xten"),
    }[command]
    out = tmp_path / "out"
    assert run(command, "--model", root / "model.xnet", *args, "--out", out) == 3
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract", "hist"])
def test_non_finite_features_are_data_errors(ws, tmp_path, capsys, command):
    """A network whose weights are all 1e20 overflows its later taps to inf:
    extract and hist exit 3 naming the cell, and write nothing."""
    root, run = ws
    net = load_network(root / "model.xnet")
    for layer in net.layers:
        if layer.weight is not None:
            layer.weight[...] = 1e20
    save_network(net, tmp_path / "big.xnet")
    images = ("--images", root / "noise.xten")
    if command == "hist":
        images = ("--id-images", root / "train.xten",
                  "--ood-images", root / "noise.xten")
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(command, "--model", tmp_path / "big.xnet", *images, "--out", out)
    assert code == 3
    where = {"extract": out, "hist": "ID features"}[command]
    err = capsys.readouterr().err
    assert f"{where}: row 0, column 'layer2_min' is not finite" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "big.xnet"]


def test_accuracy_floor_is_numerical_error(ws, tmp_path):
    root, run = ws
    # epochs=0 keeps the random initialization, far below the floor
    assert run(
        "train", "--images", root / "train.xten", "--labels", root / "labels.xten",
        "--epochs", 0, "--min-accuracy", 0.9, "--out", tmp_path / "bad.xnet",
    ) == 4


def test_unconverged_fit_l_is_numerical_error(ws, tmp_path, monkeypatch, capsys):
    root, run = ws
    monkeypatch.setattr(logistic, "MAX_NEWTON_ITER", 1)
    out = tmp_path / "ldet"
    assert run(
        "fit-l", "--model", root / "model.xnet", "--images", root / "train.xten",
        "--labels", root / "labels.xten", "--seed", 7,
        "--lambda-grid", "1.0", "--out", out,
    ) == 4
    err = capsys.readouterr().err
    assert "Newton steps without convergence" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_unknown_flag_exits_2(ws, tmp_path):
    root, run = ws
    assert run("gen", "--wat", "7") == 2
    assert run(
        "fit-m", "--model", root / "model.xnet", "--images", root / "train.xten",
        "--labels", root / "labels.xten", "--distortion-seed", 3,
        "--out", tmp_path / "m2",
    ) == 2
    # inference batches are fixed; only train takes --batch-size
    model, images = root / "model.xnet", root / "train.xten"
    labeled = ("--images", images, "--labels", root / "labels.xten")
    for args in (
        ("extract", "--model", model, "--images", images),
        ("fit-m", "--model", model, *labeled),
        ("fit-l", "--model", model, *labeled),
        ("score", "--model", model, "--detector", root / "mdet", "--images", images),
        ("hist", "--model", model, "--id-images", images,
         "--ood-images", root / "noise.xten"),
    ):
        assert run(*args, "--batch-size", 256, "--out", tmp_path / "x") == 2
    assert not (tmp_path / "x").exists()


def test_readme_names_exactly_the_cli_commands(tmp_path):
    assert set(cli._SCHEMAS) == set(cli._HANDLERS)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    prose = readme.replace("from xood import", "")
    named = set(re.findall(r"(?<![\w-])xood ([a-z][\w-]*)", prose))
    assert named == set(cli._SCHEMAS)
    # a command missing from the schema table exits 2 and writes nothing
    out = tmp_path / "bench.csv"
    assert main(["bench", "--out", str(out)]) == 2
    assert not out.exists()


def test_readme_lists_the_tensor_files_of_each_bundle(ws):
    root, _ = ws
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    adds = r"xood-([ml])\s+bundle\s+adds\s+(.*?)(?:;|\.\s)"
    listed = dict(re.findall(adds, readme, re.S))
    assert set(listed) == {"m", "l"}
    for method in listed:
        named = set(re.findall(r"`(\w+\.xten)`", listed[method]))
        written = {p.name for p in (root / f"{method}det").glob("*.xten")}
        assert named == written


def test_misfit_feature_kind_fails_before_the_forward_pass(
    ws, tmp_path, monkeypatch, capsys
):
    import shutil

    root, run = ws
    det = tmp_path / "mdet"
    shutil.copytree(root / "mdet", det)
    text = (det / "bundle.txt").read_text()
    (det / "bundle.txt").write_text(
        text.replace("feature_kind=minmax", "feature_kind=min")
    )

    def forward(*args, **kwargs):
        raise AssertionError("ran the network before checking the bundle")

    monkeypatch.setattr(pipeline, "run_network", forward)
    assert run(
        "score", "--model", root / "model.xnet", "--detector", det,
        "--images", root / "noise.xten", "--out", tmp_path / "s.csv",
    ) == 3
    err = capsys.readouterr().err
    assert "'min' gives 3 columns" in err and "3 activation layers" in err
    assert "has 6" in err


@pytest.mark.parametrize(
    "bundle, edit",
    [
        ("mdet", lambda text: text.replace("reg_c=", "# reg_c=")),
        ("ldet", lambda text: text.replace("reg_lambda=", "# reg_lambda=")),
        ("mdet", lambda text: text.split("threshold=")[0] + "threshold=abc\n"),
        ("ldet", lambda text: text.split("threshold=")[0] + "threshold=abc\n"),
        ("mdet", lambda text: text + "reg_c=1.0\n"),
        ("mdet", lambda text: text + "no separator\n"),
        ("mdet", lambda text: text.split("threshold=")[0] + "threshold=nan\n"),
        # one byte of a real threshold overwritten: "." -> "e" overflows to -inf
        ("mdet", lambda text: text.split("threshold=")[0]
         + "threshold=-1e084545344292156\n"),
        ("mdet", lambda text: re.sub("reg_c=.*", "reg_c=nan", text)),
        ("ldet", lambda text: re.sub("reg_lambda=.*", "reg_lambda=-1", text)),
    ],
    ids=["m-no-reg_c", "l-no-reg_lambda", "m-bad-threshold", "l-bad-threshold",
         "m-duplicate-key", "m-no-equals", "m-nan-threshold", "m-overflow-threshold",
         "m-nan-reg_c", "l-negative-reg_lambda"],
)
def test_mutated_detector_manifest_is_data_error(ws, tmp_path, bundle, edit):
    import shutil

    root, run = ws
    det = tmp_path / bundle
    shutil.copytree(root / bundle, det)
    text = (det / "detector.txt").read_text()
    (det / "detector.txt").write_text(edit(text))
    assert run(
        "score", "--model", root / "model.xnet", "--detector", det,
        "--images", root / "noise.xten", "--out", tmp_path / "s.csv",
    ) == 3


def _with(values, index, value):
    values = values.copy()
    values[index] = value
    return values


@pytest.mark.parametrize(
    "bundle, name, edit",
    [
        ("ldet", "scale_means", lambda v: np.append(v, 0.0)),
        ("ldet", "scale_stds", lambda v: v[:-1]),
        ("mdet", "factor", lambda v: _with(v, (0, 0), 0.0)),
        ("mdet", "mean", lambda v: _with(v, 0, np.nan)),
        # passes every entry check, but has no finite inverse
        ("mdet", "factor",
         lambda v: _with(_with(v, (0, 0), 5.7e-216), (1, 0), -5.9e266)),
    ],
    ids=["l-long-scale_means", "l-short-scale_stds", "m-zero-diagonal", "m-nan-mean",
         "m-singular-factor"],
)
def test_mutated_detector_tensor_is_data_error(ws, tmp_path, bundle, name, edit):
    import shutil

    root, run = ws
    det = tmp_path / bundle
    shutil.copytree(root / bundle, det)
    path = det / f"{name}.xten"
    write_tensor(path, edit(read_tensor(path)))
    assert run(
        "score", "--model", root / "model.xnet", "--detector", det,
        "--images", root / "noise.xten", "--out", tmp_path / "s.csv",
    ) == 3
    assert not (tmp_path / "s.csv").exists()


def test_missing_detector_tensor_is_data_error(ws, tmp_path, capsys):
    import shutil

    root, run = ws
    det = tmp_path / "ldet"
    shutil.copytree(root / "ldet", det)
    (det / "weights.xten").unlink()
    assert run(
        "score", "--model", root / "model.xnet", "--detector", det,
        "--images", root / "noise.xten", "--out", tmp_path / "s.csv",
    ) == 3
    assert "weights.xten is missing" in capsys.readouterr().err


def _set_cell(col, value):
    def edit(rows):
        rows[1][col] = value
    return edit


@pytest.mark.parametrize(
    "edit",
    [_set_cell(3, "0.0"), _set_cell(3, "nan"), _set_cell(1, "nan"),
     _set_cell(4, "7"), lambda rows: rows.insert(1, rows.pop(2))],
    ids=["std-0", "std-nan", "lambda-nan", "flagged-7", "reordered-dims"],
)
def test_mutated_power_transform_is_data_error(ws, tmp_path, edit):
    import shutil

    root, run = ws
    det = tmp_path / "mdet"
    shutil.copytree(root / "mdet", det)
    path = det / "power_transform.txt"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    edit(rows)
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    assert run(
        "score", "--model", root / "model.xnet", "--detector", det,
        "--images", root / "noise.xten", "--out", tmp_path / "s.csv",
    ) == 3
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "row", ["x,0.5", "0,abc", "0", "0,0.5,1", "0,nan", "0,-inf", "1,0.5"]
)
def test_malformed_score_csv_is_data_error(ws, tmp_path, row):
    root, run = ws
    bad = tmp_path / "bad.csv"
    bad.write_text(f"index,score\n{row}\n")
    assert run(
        "eval", "--id-scores", root / "id_scores.csv", "--ood-scores", bad,
        "--out", tmp_path / "m.csv",
    ) == 3


def test_malformed_config_file_is_config_error(ws, tmp_path):
    root, run = ws
    cfg = tmp_path / "train.cfg"
    for text in ("epochs=1\nepochs=2\n", "epochs\n", b"epochs=\xff\n"):
        if isinstance(text, bytes):
            cfg.write_bytes(text)
        else:
            cfg.write_text(text)
        assert run(
            "train", "--config", cfg, "--images", root / "train.xten",
            "--labels", root / "labels.xten", "--out", tmp_path / "m.xnet",
        ) == 2
