"""Span recorder that times hurstmodes layers from outside the package.

The pipeline binds names at import (``from .synth import gen_panel`` in the
harness, ``from .ingest import read_panel_csv`` in the CLI, ...), so patching
only the defining module records nothing.  ``Instrumentation`` wraps each
function at every module that looks it up: the sites listed in ``SITES``
must resolve to the original object or installation fails, and any other
``hurstmodes`` module binding the same object is wrapped too, so a new
import site is timed without a change here.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

# function key -> modules (under hurstmodes) that look the function up by name;
# a dotted key below the module ("synth.MixingMatrix.haar") is a class attribute
SITES: dict[str, tuple[str, ...]] = {
    "synth.gen_panel": ("harness",),
    "synth.fbm_path": ("synth",),
    "synth.MixingMatrix.haar": (),
    "wavelet.decompose": ("harness",),
    "wavelet.daubechies": ("harness",),
    "scaling.wavelet_random_matrix": ("harness", "scaling"),
    "scaling.log_eigen_multiscale": ("harness",),
    "scaling.log_eigen": ("harness",),
    "scaling.heuristic_m": ("harness",),
    "cluster.estimate_at_epsilon": ("selection",),
    "cluster.epsilon_graph": ("cluster",),
    "cluster.laplacian_spectrum": ("cluster",),
    "cluster.kmeans": ("cluster",),
    "selection.select_scheme": ("harness", "cli"),
    "gmm.select_gmm": ("harness",),
    "gmm.fit_gmm": ("gmm",),
    "harness.run_sweep": ("harness", "cli"),
    "harness.run_rep": ("harness",),
    "harness.log_eigen_set": ("harness", "cli"),
    "ingest.read_panel_csv": ("cli",),
    "ingest.standardize": ("cli",),
    "cli.main": ("cli",),
}

PACKAGE = "hurstmodes"
LAYERS = ("synth", "wavelet", "scaling", "cluster", "selection", "gmm", "harness", "ingest", "cli")


class InstrumentationError(RuntimeError):
    """A wrapped name no longer resolves, or a layer that must run recorded nothing."""


def layer_of(key: str) -> str:
    return key.split(".", 1)[0]


def _resolve(key: str):
    """(owner, attribute, original function, is_classmethod) for a function key."""
    parts = key.split(".")
    module = sys.modules.get(f"{PACKAGE}.{parts[0]}")
    if module is None:
        raise InstrumentationError(f"module {PACKAGE}.{parts[0]} is not imported")
    owner = module
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise InstrumentationError(f"{PACKAGE}.{key}: {part!r} no longer resolves")
    attr = parts[-1]
    raw = vars(owner).get(attr)
    if raw is None:
        raise InstrumentationError(f"{PACKAGE}.{key} no longer resolves")
    if isinstance(raw, classmethod):
        return owner, attr, raw.__func__, True
    if not callable(raw):
        raise InstrumentationError(f"{PACKAGE}.{key} is not callable")
    return owner, attr, raw, False


class Recorder:
    """In-memory spans: (name, start, end, parent index), parent -1 for a root.

    Each thread keeps its own stack of open spans, so a threaded sweep still
    nests its spans correctly.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent)


class Instrumentation:
    """Wraps every function of ``SITES`` where it is looked up.

    With a recorder, each call becomes a span and the key's ``COUNTERS`` hook
    (if any) runs on the result.  ``checks`` maps a function key to a callable
    ``(args, kwargs, result)`` that raises when an output is wrong; it runs in
    traced and untraced runs alike, outside the span.  Untraced runs wrap only
    the checked functions.
    """

    def __init__(self, recorder: Recorder | None = None, checks: dict | None = None):
        self.recorder = recorder
        self.checks = checks or {}
        self.patched: list[tuple[object, str, object]] = []  # (owner, attr, previous value)
        self.sites: dict[str, list[str]] = {}

    def _wrapper(self, key, fn):
        recorder = self.recorder
        check = self.checks.get(key)
        count = COUNTERS.get(key) if recorder is not None else None

        def wrapped(*args, **kwargs):
            if recorder is None:
                out = fn(*args, **kwargs)
            else:
                out = recorder.call(key, fn, args, kwargs)
                if count is not None:
                    count(recorder.counts, args, kwargs, out)
            if check is not None:
                check(args, kwargs, out)
            return out

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", key)
        return wrapped

    def install(self) -> "Instrumentation":
        keys = list(SITES) if self.recorder is not None else [k for k in SITES if k in self.checks]
        plan = []
        for key in keys:  # resolve everything before patching anything
            owner, attr, fn, is_cm = _resolve(key)
            for site in SITES[key]:
                module = sys.modules.get(f"{PACKAGE}.{site}")
                if module is None or getattr(module, attr, None) is not fn:
                    raise InstrumentationError(f"{PACKAGE}.{site}.{attr} no longer resolves to {PACKAGE}.{key}")
            plan.append((key, owner, attr, fn, is_cm))
        for key, owner, attr, fn, is_cm in plan:
            wrapped = self._wrapper(key, fn)
            if is_cm:
                self._patch(owner, attr, classmethod(wrapped))
                self.sites[key] = [f"{owner.__module__}.{owner.__qualname__}"]
                continue
            bound = []
            for name, module in sorted(sys.modules.items()):
                if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                    continue
                for var, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, var, wrapped)
                        bound.append(f"{name}.{var}")
            self.sites[key] = bound
        return self

    def _patch(self, owner, attr, value):
        self.patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, previous in reversed(self.patched):
            setattr(owner, attr, previous)
        self.patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def span_cost_s(n: int = 20000) -> float:
    """Time one recorded span adds to a call, measured on a no-op function."""
    recorder = Recorder()
    noop = lambda: None  # noqa: E731
    start = time.perf_counter()
    for _ in range(n):
        recorder.call("noop", noop, (), {})
    return (time.perf_counter() - start) / n


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_stats(spans) -> dict[str, dict]:
    """Per layer: calls and busy time of the spans that enter the layer (whose
    parent lies in another layer), and self time summed over all its spans.
    Self time is a span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    stats = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for index, (name, start, end, parent) in enumerate(spans):
        layer = layer_of(name)
        entry = stats[layer]
        entry["self_s"] += (end - start) - _covered(children.get(index, ()))
        if parent < 0 or layer_of(spans[parent][0]) != layer:
            entry["calls"] += 1
            entry["busy_s"] += end - start
    return stats


def function_stats(spans) -> dict[str, dict]:
    """Calls, total and median duration per wrapped function."""
    durations = defaultdict(list)
    for name, start, end, _parent in spans:
        durations[name].append(end - start)
    return {name: {"calls": len(ds), "total_s": sum(ds), "ms_p50": 1e3 * statistics.median(ds)}
            for name, ds in sorted(durations.items())}


def _count_panel(counts, args, kwargs, panel_and_h):
    counts["synth.samples"] += panel_and_h[0].data.size


def _count_decompose(counts, args, kwargs, decomp):
    p = next(iter(decomp.details.values())).shape[0]
    counts["wavelet.bytes_in"] += 8 * p * decomp.source_n


def _count_wrm(counts, args, kwargs, wrm):
    p = wrm.matrix.shape[0]
    counts["scaling.gram_flop"] += p * p * wrm.effective_count


def _count_selection(counts, args, kwargs, est):
    counts["selection.grid_points"] += len(est.trace.grid)
    counts["selection.excluded"] += int(est.trace.excluded.sum())


def _count_fit(counts, args, kwargs, fit):
    counts["gmm.collapsed"] += bool(fit.collapsed)


def _count_rep(counts, args, kwargs, rep):
    counts["harness.failures"] += rep["failure"] is not None


def _count_csv(counts, args, kwargs, panel):
    counts["ingest.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


# work counts taken from arguments and results at the layer boundaries; the
# byte and flop figures are computed from array sizes, not measured
COUNTERS = {
    "synth.gen_panel": _count_panel,
    "wavelet.decompose": _count_decompose,
    "scaling.wavelet_random_matrix": _count_wrm,
    "selection.select_scheme": _count_selection,
    "gmm.fit_gmm": _count_fit,
    "harness.run_rep": _count_rep,
    "ingest.read_panel_csv": _count_csv,
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = tuple(
    (f"{layer}.{metric}", unit, "lower")
    for layer in LAYERS
    for metric, unit in (("calls", "count"), ("share", "fraction"), ("self_share", "fraction"))
) + (
    ("synth.msamples_per_s", "Msample/s", "higher"),
    ("wavelet.mb_in_per_s", "MB/s", "higher"),
    ("scaling.gram_gflop_per_item", "GFLOP", "lower"),
    ("cluster.kmeans_share", "fraction", "lower"),
    ("selection.excluded_share", "fraction", "lower"),
    ("selection.ident_rate", "fraction", "higher"),
    ("gmm.collapsed_share", "fraction", "lower"),
    ("gmm.ident_rate", "fraction", "higher"),
    ("harness.failures", "count", "lower"),
    ("ingest.mb_per_s", "MB/s", "higher"),
    ("trace.items_per_s", "1/s", "higher"),
    ("trace.item_cost_ref", "ref", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(spans, counts, wall_s, items, done, gmm_ident_rate, span_cost) -> dict[str, float]:
    """Values of ``PER_LAYER`` for one traced run; a layer that did not run
    reads 0.  ``items`` were timed and ``done`` completed in ``wall_s`` spent
    in items; ``span_cost`` is the time one span adds, from ``span_cost_s``."""
    layers = layer_stats(spans)
    funcs = function_stats(spans)
    calls = {name: f["calls"] for name, f in funcs.items()}
    out = {}
    for layer, st in layers.items():
        out[f"{layer}.calls"] = st["calls"]
        out[f"{layer}.share"] = _ratio(st["busy_s"], wall_s)
        out[f"{layer}.self_share"] = _ratio(st["self_s"], wall_s)
    out["synth.msamples_per_s"] = 1e-6 * _ratio(counts["synth.samples"], layers["synth"]["busy_s"])
    out["wavelet.mb_in_per_s"] = 1e-6 * _ratio(counts["wavelet.bytes_in"], layers["wavelet"]["busy_s"])
    out["scaling.gram_gflop_per_item"] = 1e-9 * _ratio(counts["scaling.gram_flop"], items)
    out["cluster.kmeans_share"] = _ratio(calls.get("cluster.kmeans", 0),
                                         calls.get("cluster.estimate_at_epsilon", 0))
    out["selection.excluded_share"] = _ratio(counts["selection.excluded"], counts["selection.grid_points"])
    out["gmm.collapsed_share"] = _ratio(counts["gmm.collapsed"], calls.get("gmm.fit_gmm", 0))
    out["gmm.ident_rate"] = gmm_ident_rate
    out["harness.failures"] = counts["harness.failures"]
    out["ingest.mb_per_s"] = 1e-6 * _ratio(counts["ingest.bytes"], layers["ingest"]["busy_s"])
    out["trace.items_per_s"] = _ratio(done, wall_s)
    out["trace.wall_s"] = wall_s
    out["trace.spans"] = len(spans)
    out["trace.overhead_share"] = _ratio(len(spans) * span_cost, wall_s)
    return out


def write_spans(path, spans, origin: float) -> None:
    """One span per line as ``name start_s end_s parent``, times from origin."""
    with open(path, "w") as fh:
        fh.write("# name start_s end_s parent\n")
        for name, start, end, parent in spans:
            fh.write(f"{name} {start - origin:.9f} {end - origin:.9f} {parent}\n")
