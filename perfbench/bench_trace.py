"""Span recorder and the wrappers that attach it to xood from outside.

Nothing under ``src/`` knows about tracing. ``Instrumentation`` finds every
place a traced function can be looked up at call time (module attributes,
including names other modules imported with ``from .x import f``, and the
``DISTORTION_FAMILIES`` table) and swaps a wrapper in; ``uninstall`` puts
the originals back, so traced and untraced calls can alternate in one run.

Spans are kept in memory as compact arrays and written out once, when the
benchmark ends. A span's self time is its duration minus the time its child
spans cover. The benchmark opens one root span per operation; the share of
root wall time covered by child spans is the trace coverage.
"""

from __future__ import annotations

import contextlib
import math
import time
from array import array
from collections import defaultdict

import numpy as np

_clock = time.perf_counter

# (module, function) pairs timed as spans; the metric name is
# "<module>.<function>", with a layer label for the conv and pool kernels.
SPANNED = {
    "tensor_ops": ("conv2d", "conv2d_backward", "maxpool2d", "maxpool2d_backward",
                   "relu", "relu_backward", "dense", "dense_backward", "softmax",
                   "flatten"),
    "network": ("forward_with_taps", "train_reference_cnn", "evaluate_accuracy",
                "save_network", "load_network"),
    "features": ("reduce_tap", "apply_power_transform", "fit_power_transform"),
    "mahalanobis": ("confidence", "fit_mahalanobis", "calibrate"),
    "logistic": ("score_l", "build_training_set", "cross_validate",
                 "fit_l_detector"),
    "pipeline": ("run_network", "score_images", "fit_m_bundle", "fit_l_bundle",
                 "save_bundle", "load_bundle"),
    "xten": ("read_tensor", "write_tensor"),
    "datasets": ("make_blobs", "make_gratings", "gen_noise", "split",
                 "load_images_any", "load_labels_any", "save_dataset"),
}
# Functions only counted: they run inside hot loops, where a span per call
# would cost more than the work it measures.
COUNTED = {
    "features": ("yeo_johnson",),
    "logistic": ("fit_logreg", "logreg_gradient", "logreg_loss"),
}
LABELED = ("conv2d", "conv2d_backward", "maxpool2d", "maxpool2d_backward")
# Spans whose forward passes count toward pipeline.images_forwarded.
DETECTOR_CALLERS = ("pipeline.run_network", "logistic.build_training_set")


class Tracer:
    """In-memory span store with per-name self-time aggregation."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: [span id, name id, start, child seconds]
        self.stack: list[list] = []
        self._next = 0
        self.op = -1
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self.root_self_s = 0.0
        self._distinct: set | None = None

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> list:
        frame = [self._next, nid, _clock(), 0.0]
        self._next += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> float:
        end = _clock()
        self.stack.pop()
        span, nid, start, child = frame
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        self.span_id.append(span)
        self.span_parent.append(-1 if parent is None else parent[0])
        self.span_op.append(self.op)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)
        name = self.names[nid]
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        return duration

    def inside(self, names: tuple[str, ...]) -> bool:
        return any(self.names[f[1]] in names for f in self.stack)

    @contextlib.contextmanager
    def operation(self, kind: str):
        """Root span for one benchmark operation; nested calls add nothing."""
        if self.stack:
            yield
            return
        self.op += 1
        frame = self.open(self.name_id(f"op.{kind}"))
        try:
            yield
        finally:
            duration = self.close(frame)
            self.root_s += duration
            self.root_self_s += duration - frame[3]

    @contextlib.contextmanager
    def fitting(self):
        """Scope of one CLI flow: detector forward passes inside it count
        toward pipeline.images_forwarded, and repeats of an image within it
        lower pipeline.forward_reuse_ratio."""
        self._distinct = set()
        try:
            yield
        finally:
            self.counts["pipeline.images_distinct"] += len(self._distinct)
            self._distinct = None

    def note_forwarded(self, batch: np.ndarray) -> None:
        if self._distinct is None:
            return
        flat = np.ascontiguousarray(batch).reshape(batch.shape[0], -1)
        self.counts["pipeline.images_forwarded"] += flat.shape[0]
        self._distinct.update(hash(row.tobytes()) for row in flat)

    def coverage(self) -> float:
        """Share of operation wall time covered by program spans."""
        if self.root_s == 0.0:
            return 0.0
        return 1.0 - self.root_self_s / self.root_s

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _layer_label(x: np.ndarray, side: int) -> str:
    """l1 for tensors at full image resolution, l2 after one 2x pool, ..."""
    return f"l{1 + int(round(math.log2(side / x.shape[2])))}"


def _arg(args, kwargs, index: int, name: str, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _kernel_work(tracer: Tracer, name: str, fn_name: str, args, kwargs, out) -> None:
    """Computed flops and bytes of forward conv and pool calls."""
    x = args[0]
    if fn_name == "conv2d":
        kernel = args[1]
        n, f, ho, wo = out.shape
        c, kh, kw = kernel.shape[1:]
        flops = 2 * n * f * ho * wo * c * kh * kw + n * f * ho * wo
        nbytes = 4 * (x.size + kernel.size + f + out.size)
        if name.endswith(".l1"):
            tracer.counts["tensor_ops.conv2d.l1.tap_bytes"] += out.nbytes
    elif fn_name == "maxpool2d":
        window = _arg(args, kwargs, 1, "window", 2)
        flops = out.size * (window * window - 1)
        nbytes = 4 * (x.size + out.size)
    else:
        return
    tracer.counts[name + ".flop"] += flops
    tracer.counts[name + ".bytes"] += nbytes


class Instrumentation:
    """Wrappers for the xood modules, installable and removable at will."""

    def __init__(self, tracer: Tracer, side: int):
        import xood
        from xood import (cli, datasets, distortions, features, logistic,
                          mahalanobis, network, pipeline, tensor_ops, xten)

        self.tracer = tracer
        self.side = side
        self.logistic = logistic
        modules = {
            "tensor_ops": tensor_ops, "network": network, "features": features,
            "mahalanobis": mahalanobis, "logistic": logistic,
            "pipeline": pipeline, "xten": xten, "datasets": datasets,
            "distortions": distortions,
        }
        wrappers: dict[int, object] = {}
        for mod_name, fns in SPANNED.items():
            for fn_name in fns:
                fn = getattr(modules[mod_name], fn_name)
                wrappers[id(fn)] = self._spanned(f"{mod_name}.{fn_name}", fn_name, fn)
        for fn_name, fn in distortions.DISTORTION_FAMILIES.items():
            wrappers[id(fn)] = self._spanned(f"distortions.{fn_name}", "distortion", fn)
        for mod_name, fns in COUNTED.items():
            for fn_name in fns:
                fn = getattr(modules[mod_name], fn_name)
                wrappers[id(fn)] = self._counted(f"{mod_name}.{fn_name}", fn)
        # every binding a caller can look up at call time
        self._patches: list[tuple[object, str, object, object]] = []
        for module in (*modules.values(), cli, xood):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._patches.append((module, attr, value, wrappers[id(value)]))
        table = distortions.DISTORTION_FAMILIES
        self._table_patches = [(table, key, fn, wrappers[id(fn)])
                               for key, fn in table.items()]

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        for table, key, _, wrapper in self._table_patches:
            table[key] = wrapper

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        for table, key, original, _ in self._table_patches:
            table[key] = original

    @contextlib.contextmanager
    def active(self, on: bool):
        if on:
            self.install()
        try:
            yield
        finally:
            if on:
                self.uninstall()

    def _spanned(self, name: str, fn_name: str, fn):
        tracer = self.tracer
        side = self.side
        labeled = fn_name in LABELED

        def wrapper(*args, **kwargs):
            span_name = name
            if labeled:
                if (fn_name == "conv2d" and tracer.stack and tracer.names[
                        tracer.stack[-1][1]].startswith("tensor_ops.conv2d_backward")):
                    # the input-gradient correlation inside conv2d_backward
                    # belongs to the backward kernel
                    return fn(*args, **kwargs)
                span_name = f"{name}.{_layer_label(args[0], side)}"
            if fn_name == "forward_with_taps" and tracer.inside(DETECTOR_CALLERS):
                tracer.note_forwarded(np.asarray(args[1]))
            elif fn_name == "evaluate_accuracy":
                tracer.counts["network.evaluate_accuracy.images"] += len(args[1])
            elif fn_name == "distortion":
                tracer.counts["distortions.images"] += len(args[0])
            frame = tracer.open(tracer.name_id(span_name))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if fn_name in ("conv2d", "maxpool2d"):
                _kernel_work(tracer, span_name, fn_name, args, kwargs, out)
            elif fn_name == "read_tensor":
                tracer.counts["xten.read_tensor.bytes"] += 4 * out.size
            elif fn_name == "write_tensor":
                tracer.counts["xten.write_tensor.bytes"] += 4 * np.asarray(args[1]).size
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        tracer = self.tracer
        if name == "logistic.logreg_gradient":
            tol = self.logistic.GRAD_TOL

            def wrapper(*args, **kwargs):
                tracer.counts[name] += 1
                grad = fn(*args, **kwargs)
                if float(np.max(np.abs(grad))) < tol:
                    # the Newton loop stops here instead of taking a step
                    tracer.counts["logistic.converged_checks"] += 1
                return grad
        else:
            def wrapper(*args, **kwargs):
                tracer.counts[name] += 1
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper
