"""Metric names, units and how each value is computed.

``BENCHMARK.json`` lists the same names; ``smoke.py`` checks the two agree.
Per-layer names follow the ``src/xood`` modules. Suffixes: ``self_ms`` is
run-total self time, ``ms`` run-total inclusive time, ``calls`` call count,
``gflop``/``mbytes`` work computed from array shapes (not measured).
"""

from __future__ import annotations

# name, unit, better, bound (share of the parent's median). Stage times are
# each run's floor and request latencies its p10 and p90: on a shared
# machine whose speed flips between a fast and a slow state for seconds at a
# time, medians move with the share of slow time in a run, floors do not.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train_s", "s", "lower", 0.25),
    ("fit_m_s", "s", "lower", 0.25),
    ("fit_l_s", "s", "lower", 0.25),
    ("train_accuracy", "1", "higher", 0.15),
    ("auroc_m", "1", "higher", 0.15),
    ("auroc_l", "1", "higher", 0.25),
    ("forward_p10_ms", "ms", "lower", 0.25),
    ("score_m_p10_ms", "ms", "lower", 0.25),
    ("score_l_p10_ms", "ms", "lower", 0.25),
    ("score_m_p90_ms", "ms", "lower", 0.25),
    ("score_l_p90_ms", "ms", "lower", 0.25),
)


def _timed(base: str) -> list[tuple[str, str, str]]:
    return [(f"{base}.self_ms", "ms", "lower"),
            (f"{base}.calls", "count", "lower")]


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    out = []
    for op in ("conv2d", "maxpool2d"):
        for layer in ("l1", "l2"):
            base = f"tensor_ops.{op}.{layer}"
            out += _timed(base)
            out += [(f"{base}.gflop", "gflop_computed", "lower"),
                    (f"{base}.mbytes", "mbytes_computed", "lower")]
    for op in ("relu", "dense", "softmax"):
        out += _timed(f"tensor_ops.{op}")
    for op in ("conv2d_backward", "maxpool2d_backward"):
        for layer in ("l1", "l2"):
            out += _timed(f"tensor_ops.{op}.{layer}")
    for op in ("dense_backward", "relu_backward"):
        out += _timed(f"tensor_ops.{op}")
    out += [
        ("tensor_ops.conv2d.l1.tap_mbytes_per_call", "mbytes_computed", "lower"),
        ("tensor_ops.conv2d.l1.tap_over_l2", "1", "lower"),
    ]
    out += _timed("network.forward_with_taps")
    out += _timed("network.train_reference_cnn")
    out += _timed("network.evaluate_accuracy")
    out += [("network.evaluate_accuracy.images", "count", "lower"),
            ("network.save_network.ms", "ms", "lower"),
            ("network.load_network.ms", "ms", "lower")]
    out += _timed("features.reduce_tap")
    out += _timed("features.apply_power_transform")
    out += [("features.fit_power_transform.ms", "ms", "lower"),
            ("features.yeo_johnson.calls", "count", "lower")]
    out += _timed("mahalanobis.confidence")
    out += [("mahalanobis.fit_mahalanobis.ms", "ms", "lower")]
    out += _timed("logistic.score_l")
    out += [("logistic.build_training_set.self_ms", "ms", "lower"),
            ("logistic.fit_l_detector.self_ms", "ms", "lower"),
            ("logistic.cross_validate.ms", "ms", "lower"),
            ("logistic.fit_logreg.calls", "count", "lower"),
            ("logistic.newton_steps", "count", "lower"),
            ("logistic.loss_evals", "count", "lower"),
            ("logistic.step_accept_ratio", "1", "higher")]
    for family in ("geometric", "mixup", "noise", "blur"):
        out += [(f"distortions.{family}.ms", "ms", "lower")]
    out += [("distortions.images", "count", "lower")]
    out += [("pipeline.run_network.self_ms", "ms", "lower"),
            ("pipeline.images_forwarded", "count", "lower"),
            ("pipeline.forward_reuse_ratio", "1", "higher")]
    out += _timed("pipeline.score_images")
    out += [("pipeline.fit_m_bundle.self_ms", "ms", "lower"),
            ("pipeline.fit_l_bundle.self_ms", "ms", "lower"),
            ("pipeline.save_bundle.ms", "ms", "lower"),
            ("pipeline.load_bundle.ms", "ms", "lower")]
    for op in ("read_tensor", "write_tensor"):
        out += [(f"xten.{op}.ms", "ms", "lower"), (f"xten.{op}.mbytes", "MB", "lower")]
    out += [("datasets.self_ms", "ms", "lower")]
    out += [("trace.coverage", "1", "higher"), ("trace.spans", "count", "lower")]
    out += [(f"trace.overhead.{name}", unit, "lower") for name, unit, _, _ in END_TO_END]
    out += [("detector_overhead.m", "1", "lower"), ("detector_overhead.l", "1", "lower")]
    return tuple(out)


PER_LAYER = _per_layer()


def per_layer_values(tracer, untraced: dict, traced: dict, p50: dict, l2_bytes: int) -> dict:
    """Per-layer values from the tracer's aggregates, plus trace accounting:
    traced minus untraced end-to-end values, and detector overhead: score p50
    over forward p50 (``p50``, untraced requests, ms) minus 1."""
    counts = tracer.counts
    conv1_calls = tracer.calls.get("tensor_ops.conv2d.l1", 0)
    tap_bytes = counts["tensor_ops.conv2d.l1.tap_bytes"] / conv1_calls if conv1_calls else 0.0
    grads = counts["logistic.logreg_gradient"]
    losses = counts["logistic.logreg_loss"]
    forwarded = counts["pipeline.images_forwarded"]
    explicit = {
        "tensor_ops.conv2d.l1.tap_mbytes_per_call": tap_bytes / 1e6,
        "tensor_ops.conv2d.l1.tap_over_l2": tap_bytes / l2_bytes if l2_bytes else 0.0,
        "logistic.newton_steps": grads,
        "logistic.loss_evals": losses,
        "logistic.step_accept_ratio":
            (grads - counts["logistic.converged_checks"]) / losses if losses else 0.0,
        "pipeline.forward_reuse_ratio":
            counts["pipeline.images_distinct"] / forwarded if forwarded else 0.0,
        "datasets.self_ms": 1e3 * sum(v for k, v in tracer.self_s.items()
                                      if k.startswith("datasets.")),
        "trace.coverage": tracer.coverage(),
        "trace.spans": len(tracer.span_id),
        "detector_overhead.m": p50["m"] / p50["forward"] - 1.0,
        "detector_overhead.l": p50["l"] / p50["forward"] - 1.0,
    }
    for name in untraced:
        explicit[f"trace.overhead.{name}"] = traced[name] - untraced[name]
    out = {}
    for name, _, _ in PER_LAYER:
        if name in explicit:
            out[name] = explicit[name]
            continue
        base, _, suffix = name.rpartition(".")
        if suffix == "self_ms":
            out[name] = 1e3 * tracer.self_s.get(base, 0.0)
        elif suffix == "ms":
            out[name] = 1e3 * tracer.total_s.get(base, 0.0)
        elif suffix == "calls":
            out[name] = tracer.calls.get(base, 0) or counts.get(base, 0)
        elif suffix == "gflop":
            out[name] = counts.get(base + ".flop", 0) / 1e9
        elif suffix == "mbytes":
            out[name] = counts.get(base + ".bytes", 0) / 1e6
        else:
            out[name] = counts.get(name, 0)
    return out
