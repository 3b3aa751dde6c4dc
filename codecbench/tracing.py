"""Span tracer for the traced run, wrapped around bnvc from the outside.

`Tracer.install()` replaces each hooked function or method with a wrapper
that records a span (layer, parent span, start, end) and, for a few
layers, a work count. Module-level functions are replaced in their
defining module and in every bnvc module that imported them by name, so
calls through either binding are seen. `uninstall()` restores the
originals.

A hook whose target no longer exists (renamed or removed by a later
change) is skipped with a note; its layer metrics are then left out of
the result and the run still completes.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict

# (layer, module, attribute path). Several hooks may feed one layer.
HOOKS = (
    ("codec.encode_sequence", "bnvc.codec", "encode_sequence"),
    ("codec.decode_sequence", "bnvc.codec", "decode_sequence"),
    ("codec.encode_frame", "bnvc.codec", "encode_frame"),
    ("codec.decode_frame", "bnvc.codec", "decode_frame"),
    ("motion.estimate_motion", "bnvc.motion", "estimate_motion"),
    ("motion.compose_flows", "bnvc.motion", "compose_flows"),
    ("model.extract_feature", "bnvc.model", "CodecModel.extract_feature"),
    ("model.mv_analyze", "bnvc.model", "CodecModel.mv_analyze"),
    ("model.mv_hyper", "bnvc.model", "CodecModel.mv_hyper_analyze"),
    ("model.mv_hyper", "bnvc.model", "CodecModel.mv_hyper_synthesize"),
    ("model.mv_synthesize", "bnvc.model", "CodecModel.mv_synthesize"),
    ("model.ctx_analyze", "bnvc.model", "CodecModel.ctx_analyze"),
    ("model.ctx_hyper", "bnvc.model", "CodecModel.ctx_hyper_analyze"),
    ("model.ctx_hyper", "bnvc.model", "CodecModel.ctx_hyper_synthesize"),
    ("model.ctx_synthesize", "bnvc.model", "CodecModel.ctx_synthesize"),
    ("model.generate_frame", "bnvc.model", "CodecModel.generate_frame"),
    ("fusion.total", "bnvc.fusion", "MultiRefFusion.__call__"),
    ("fusion.down", "bnvc.fusion", "DownsampleStage.__call__"),
    ("fusion.grid", "bnvc.fusion", "GridFuse.__call__"),
    ("fusion.up", "bnvc.fusion", "_SharedUPath.__call__"),
    ("tensor.conv2d", "bnvc.tensor", "conv2d"),
    ("tensor.warp_bilinear", "bnvc.tensor", "warp_bilinear"),
    ("tensor.bilinear_resize", "bnvc.tensor", "bilinear_resize"),
    ("tensor.backward", "bnvc.tensor", "backward"),
    ("network.weights_hash", "bnvc.network", "ParamStore.weights_hash"),
    ("network.fnv1a64", "bnvc.network", "fnv1a64"),
    ("network.snap_to_f32", "bnvc.network", "ParamStore.snap_to_f32"),
    ("entropy.cdf_build", "bnvc.entropy", "build_gaussian_cdf_rows"),
    ("entropy.cdf_build", "bnvc.entropy", "build_logistic_cdf_rows"),
    ("entropy.range_encode", "bnvc.entropy", "range_encode"),
    ("entropy.range_decode", "bnvc.entropy", "range_decode"),
    ("bitstream.write", "bnvc.bitstream", "BitstreamWriter.add_intra"),
    ("bitstream.write", "bnvc.bitstream", "BitstreamWriter.add_inter"),
    ("bitstream.write", "bnvc.bitstream", "BitstreamWriter.getvalue"),
    ("bitstream.read", "bnvc.bitstream", "BitstreamReader.__init__"),
    ("bitstream.read", "bnvc.bitstream", "BitstreamReader.next_record"),
    ("training.train_toy", "bnvc.training", "train_toy"),
    ("training.forward", "bnvc.training", "rollout_loss"),
    ("training.optimizer", "bnvc.training", "Adam.step"),
    ("training.optimizer", "bnvc.training", "Adam.clip_global_norm"),
    ("training.optimizer", "bnvc.training", "Adam.zero_grad"),
)

# Modules whose spans make up the per-module self-time split.
MODULES = ("codec", "motion", "model", "fusion", "tensor", "network", "entropy", "bitstream", "training")

# Layers reported as <layer>.ms: time inside their outermost calls, children included.
TIMED = (
    "fusion.total", "fusion.down", "fusion.grid", "fusion.up",
    "tensor.conv2d", "tensor.warp_bilinear", "tensor.bilinear_resize", "tensor.backward",
    "entropy.cdf_build", "entropy.range_encode", "entropy.range_decode",
    "network.fnv1a64", "network.snap_to_f32",
    "motion.estimate_motion", "motion.compose_flows",
    "model.extract_feature", "model.mv_analyze", "model.mv_hyper", "model.mv_synthesize",
    "model.ctx_analyze", "model.ctx_hyper", "model.ctx_synthesize", "model.generate_frame",
    "bitstream.write", "bitstream.read",
    "training.forward", "training.optimizer",
)


def _conv_work(counts, args, kwargs, out):
    """FLOPs and im2col bytes of one forward conv2d, from its shapes."""
    weight = args[1] if len(args) > 1 else kwargs["weight"]
    c_out, c_in, k, _ = weight.shape
    _, out_h, out_w = out.shape
    cols = c_in * k * k * out_h * out_w
    counts["tensor.conv2d.gflop"] += 2.0 * c_out * cols / 1e9
    counts["tensor.conv2d.im2col_mb"] += 8.0 * cols / 1e6


def _rows_built(counts, args, kwargs, out):
    counts["entropy.cdf_build.rows"] += len(out)


def _symbols_encoded(counts, args, kwargs, out):
    counts["entropy.symbols"] += len(args[0] if args else kwargs["symbols"])


def _symbols_decoded(counts, args, kwargs, out):
    counts["entropy.symbols"] += len(out)


COUNTERS = {
    "tensor.conv2d": _conv_work,
    "entropy.cdf_build": _rows_built,
    "entropy.range_encode": _symbols_encoded,
    "entropy.range_decode": _symbols_decoded,
}


def _resolve(module_name: str, path: str):
    """(owner object, attribute name, current value) or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Records nested spans of the hooked bnvc layers while installed."""

    def __init__(self, hooks=HOOKS) -> None:
        self.hooks = hooks
        self.notes: list[str] = []
        self.layers: set[str] = set()  # layers with at least one hook installed
        # span: [layer, parent index, start, end, outermost-of-its-layer]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._counters = dict(COUNTERS)

    def _wrap(self, layer: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        counters, counts, notes = self._counters, self.counts, self.notes

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, stack[-1] if stack else -1, time.perf_counter(), 0.0, active[layer] == 0]
            spans.append(span)
            stack.append(idx)
            active[layer] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                active[layer] -= 1
                stack.pop()
                span[3] = time.perf_counter()
            counter = counters.get(layer)
            if counter is not None:
                try:
                    counter(counts, args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as err:
                    notes.append(f"{layer}: work count unavailable ({err!r}); its count metrics are absent")
                    del counters[layer]
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def install(self) -> None:
        for layer, module_name, path in self.hooks:
            found = _resolve(module_name, path)
            if found is None:
                self.notes.append(f"{layer}: {module_name}.{path} not found; its metrics are absent")
                continue
            owner, attr, original = found
            wrapped = self._wrap(layer, original)
            self._patch(owner, attr, original, wrapped)
            if not isinstance(owner, type):
                # rebind copies imported by name into sibling modules
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("bnvc.") and mod is not owner and getattr(mod, attr, None) is original:
                        self._patch(mod, attr, original, wrapped)
            self.layers.add(layer)

    def _patch(self, owner, attr, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the time its direct child spans cover.

        Calls run on one thread and children end before their parent,
        so the children of a span never overlap and their union is
        their sum.
        """
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[3] - s[2]
        return own

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics (ms unless named otherwise) and accounting errors."""
        errors: list[str] = []
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        durations: dict[str, list[float]] = defaultdict(list)
        module_self: dict[str, float] = dict.fromkeys(MODULES, 0.0)
        root_total = 0.0
        for span, own in zip(self.spans, self.self_times()):
            layer, parent, start, end, outermost = span
            calls[layer] += 1
            durations[layer].append(end - start)
            if outermost:
                inclusive[layer] += end - start
            if parent < 0:
                root_total += end - start
            module_self[layer.split(".", 1)[0]] += own
        self_sum = sum(module_self.values())
        if abs(self_sum - root_total) > 1e-6 * max(root_total, 1e-9):
            errors.append(f"self times sum to {self_sum:.6f} s but root spans cover {root_total:.6f} s")

        out: dict[str, float] = {}
        for layer in TIMED:
            if layer in self.layers:
                out[f"{layer}.ms"] = 1e3 * inclusive[layer]
        if "tensor.backward" in self.layers:
            out["training.backward.ms"] = 1e3 * inclusive["tensor.backward"]
        for layer in ("tensor.conv2d", "network.weights_hash", "network.fnv1a64"):
            if layer in self.layers:
                out[f"{layer}.calls"] = calls[layer]
        counted = [layer for layer in self._counters if layer in self.layers]
        for name in ("tensor.conv2d.gflop", "tensor.conv2d.im2col_mb", "entropy.cdf_build.rows"):
            if name.rsplit(".", 1)[0] in counted:
                out[name] = self.counts[name]
        if "entropy.range_encode" in counted and "entropy.range_decode" in counted:
            out["entropy.symbols"] = self.counts["entropy.symbols"]
        if "entropy.cdf_build.rows" in out and "entropy.symbols" in out:
            symbols = out["entropy.symbols"]
            out["entropy.cdf_build.rows_per_symbol"] = out["entropy.cdf_build.rows"] / symbols if symbols else 0.0
        for layer in ("codec.encode_frame", "codec.decode_frame"):
            if layer in self.layers:
                samples = durations[layer]
                out[f"{layer}.ms_p50"] = 1e3 * statistics.median(samples) if samples else 0.0
        for module, own in module_self.items():
            out[f"{module}.self.ms"] = 1e3 * own
        out["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s
        out["trace.accounted_share"] = root_total / traced_wall_s
        return out, errors

