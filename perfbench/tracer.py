"""Outside-in span tracer for zoocast.

`Tracer.install()` replaces each public function listed in `TARGETS` with a
timing wrapper: in its defining module, in every zoocast module that
re-binds it (`from .core import normalize`), in module-level dicts that
hold it (`bench.METRIC_FNS`), and on the `Zoo` class for
`Zoo.forecaster`. `Tracer.remove()` puts every original object back, so
an untraced run calls the unmodified program.

Spans are kept in memory per request (one benchmark op) and folded into
per-name totals when the request ends. Each span records its id, its
parent span's id, its name, start and end (`perf_counter_ns`) and the
request id.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("core", "forecasters", "extractor", "zoo", "fusion", "bench", "cli")

TARGETS = {
    "core": ("normalize", "load_csv", "mse"),
    "forecasters": ("forecast", "forecast_batch", "train", "loss_and_grad", "extract_windows", "save", "load"),
    "extractor": ("encode", "encode_batch", "cosine", "train_extractor", "combined_loss_and_grad", "save", "load"),
    "zoo": ("load_zoo", "compute_transfer_matrix", "compute_model_representation", "build_zoo", "Zoo.forecaster"),
    "fusion": ("forecast_multivariate", "match", "sequential_forecast"),
    "bench": ("run_benchmark", "evaluation_windows"),
    "cli": ("main", "build_parser"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


class Tracer:
    def __init__(self):
        self._patches = []  # (setter, original) pairs, undone in reverse
        self._stack = []
        self._spans = []  # (span_id, parent_id, name, t0, t1, request_id)
        self._next_id = 0
        self._request_id = None
        self._last_error = {}
        self._keys = []  # matched-forecast keys issued under bench.run_benchmark
        self._bench_depth = 0
        self.last_spans = []
        self.requests = 0
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.errors = defaultdict(int)
        self.blocks = 0
        self.forecaster_misses = 0
        self.matched_runs = 0
        self.matched_distinct = 0
        self.top_ns = 0

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, module: str, fn):
        perf = time.perf_counter_ns
        spans, stack = self._spans, self._stack
        keyed = name == "fusion.forecast_multivariate"
        bench_root = name == "bench.run_benchmark"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            if keyed and self._bench_depth:
                self._keys.append(_eval_key(args, kwargs))
            self._bench_depth += bench_root
            stack.append(span_id)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if self._last_error.get(module) is not exc:
                    self._last_error[module] = exc
                    self.errors[module] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                self._bench_depth -= bench_root
                spans.append((span_id, parent, name, t0, t1, self._request_id))

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for module_name, names in TARGETS.items():
            module = importlib.import_module(f"zoocast.{module_name}")
            for name in names:
                owner, attr = module, name
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(module, cls_name)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(module, attr)
                wrapped = self._wrap(f"{module_name}.{name}", module_name, original)
                originals[id(original)] = (original, wrapped)
        for module_name in MODULES:
            module = importlib.import_module(f"zoocast.{module_name}")
            for key, value in list(vars(module).items()):
                self._patch_if_target(originals, _attr_setter(module, key), value)
                if isinstance(value, type) and value.__module__ == module.__name__:
                    for attr, member in list(vars(value).items()):
                        self._patch_if_target(originals, _attr_setter(value, attr), member)
                elif isinstance(value, dict):
                    for item_key, item in list(value.items()):
                        self._patch_if_target(originals, _item_setter(value, item_key), item)
        return self

    def _patch_if_target(self, originals: dict, setter, value):
        found = originals.get(id(value))
        if found is not None and found[0] is value:
            setter(found[1])
            self._patches.append((setter, value))

    def remove(self):
        while self._patches:
            setter, original = self._patches.pop()
            setter(original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    # -- requests -------------------------------------------------------------

    @contextmanager
    def request(self):
        """Group the spans of one benchmark op and fold them in at its end."""
        self._request_id = self.requests
        try:
            yield
        finally:
            self._fold()
            self._request_id = None
            self.requests += 1

    def _fold(self):
        spans, self._spans[:] = list(self._spans), []
        self.last_spans = spans
        names = {span_id: name for span_id, _, name, _, _, _ in spans}
        self_ns = self_times(spans)
        for span_id, parent, name, t0, t1, _ in spans:
            dur = t1 - t0
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += self_ns[span_id]
            parent_name = names.get(parent)
            if parent is None:
                self.top_ns += dur
            elif name == "forecasters.forecast" and parent_name == "fusion.sequential_forecast":
                self.blocks += 1
            elif name == "forecasters.load" and parent_name == "zoo.Zoo.forecaster":
                self.forecaster_misses += 1
        matched = [key for key in self._keys if key is not None]
        self.matched_runs += len(matched)
        self.matched_distinct += len(set(matched))
        self._keys.clear()
        self._last_error.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-op span metrics: calls, total and self ms of every traced
        function, blocks, cache misses, errors and the distinct share of
        evaluations."""
        n = max(self.requests, 1)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name] / n
            out[f"{name}.total_ms"] = self.total_ns[name] / 1e6 / n
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6 / n
        out["fusion.blocks"] = self.blocks / n
        calls = self.calls["zoo.Zoo.forecaster"]
        out["zoo.Zoo.forecaster.miss_share"] = self.forecaster_misses / calls if calls else 0.0
        runs = self.matched_runs
        out["bench.unique_eval_share"] = self.matched_distinct / runs if runs else 0.0
        for module in MODULES:
            out[f"{module}.errors"] = self.errors[module] / n
        return out


def self_times(spans) -> dict:
    """Self time in ns per span id: the span's duration minus its child
    spans' durations (children of one span never overlap here, since the
    program is single-threaded)."""
    child_ns = defaultdict(int)
    for _, parent, _, t0, t1, _ in spans:
        if parent is not None:
            child_ns[parent] += t1 - t0
    return {span_id: (t1 - t0) - child_ns[span_id] for span_id, _, _, t0, t1, _ in spans}


def _attr_setter(owner, attr):
    return lambda value: setattr(owner, attr, value)


def _item_setter(mapping, key):
    return lambda value: mapping.__setitem__(key, value)


def _eval_key(args, kwargs):
    """Identity of a matched (not forced-model) forecast issued by the
    evaluation harness: the window bytes, horizon and top-k. None for other
    calls."""
    params = dict(zip(("zoo", "series", "cfg"), args), **kwargs)
    cfg, series = params.get("cfg"), params.get("series")
    if cfg is None or series is None or cfg.forced_model_ids:
        return None
    return (series.values.tobytes(), series.values.shape, cfg.horizon, cfg.top_k)
