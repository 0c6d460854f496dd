"""Outside-in tracing of the spkdeid layers.

The tracer wraps functions of ``spkdeid`` from outside the package: it
replaces each function's binding in every ``spkdeid`` module that holds
it (a function imported by name lives in several module namespaces) and
restores every binding on exit.  Each call into a wrapped function
records a span (function, start, end, parent span) plus a few work counts
taken from the call's arguments and result.  Spans stay in memory.

A span's self time is its duration minus the durations of the wrapped
calls made directly inside it, so the self times of one traced interval
are disjoint and sum to no more than its wall time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

PACKAGE = "spkdeid"
LAYERS = ("dataset", "neural", "aan", "anonymize", "metrics", "cli")

# Methods traced alongside the modules' public functions.
METHODS = {
    "dataset": {"Corpus": ("matrix", "label_indices")},
    "aan": {"AanModel": ("snapshot",)},
}

# The cli layer is traced at its entry point and its manifest writer; the
# cmd_* handlers are the body of main, so their time stays in main's self
# time.
CLI_FUNCTIONS = ("main", "write_manifest")

# Adam reads the gradient and the two moments and reads and writes the
# parameters and both moments: about 7 f64 arrays of the parameter count.
ADAM_ARRAYS_TOUCHED = 7


class TraceError(RuntimeError):
    """A traced function is missing or a workload did not exercise it."""


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs[name]


def _size(params) -> int:
    if hasattr(params, "values"):
        return int(sum(np.size(p) for p in params.values()))
    return int(np.size(params))


def _dense_forward_counts(args, kwargs, result):
    layer = _arg(args, kwargs, 0, "layer")
    rows = result[0].shape[0]
    return {"flop": 2 * rows * layer.weights.size, "layer": id(layer)}


def _dense_backward_counts(args, kwargs, result):
    layer = _arg(args, kwargs, 0, "layer")
    rows = _arg(args, kwargs, 1, "cache").x.shape[0]
    # weight gradient plus input gradient, each one (rows x in x out) matmul
    return {"flop": 4 * rows * layer.weights.size}


def _aan_forward_counts(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    useful = frozenset(id(layer) for layer in list(model.encoder) + list(model.decoder))
    return {"rows": x.shape[0] if x.ndim == 2 else 1, "useful_layers": useful}


def _baseline_counts(args, kwargs, result):
    pool = len(_arg(args, kwargs, 0, "pool"))
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    queries = x.shape[0] if x.ndim == 2 else 1
    # every call ranks each query against the whole pool and computes the
    # pool norms once
    return {"pool_rows_scanned": queries * pool, "pool_norms": pool, "pool": pool}


def _write_manifest_counts(args, kwargs, result):
    paths = list(_arg(args, kwargs, 2, "inputs")) + list(_arg(args, kwargs, 3, "outputs"))
    return {"bytes_hashed": sum(os.path.getsize(p) for p in paths)}


def _train_counts(args, kwargs, result):
    requested = _arg(args, kwargs, 3, "config").epochs
    return {"epochs_lost": requested - len(result[1])}


COUNTERS = {
    "dataset.read_corpus": lambda a, k, r: {"rows": len(r)},
    "dataset.write_corpus": lambda a, k, r: {"rows": len(_arg(a, k, 0, "corpus"))},
    "dataset.Corpus.matrix": lambda a, k, r: {"rows": r.shape[0]},
    "neural.dense_forward": _dense_forward_counts,
    "neural.dense_backward": _dense_backward_counts,
    "neural.adam_step": lambda a, k, r: {"params": _size(_arg(a, k, 0, "params"))},
    "aan.aan_forward": _aan_forward_counts,
    "aan.train": _train_counts,
    "anonymize.baseline_anonymize": _baseline_counts,
    "anonymize.anonymize_corpus": lambda a, k, r: {"rows": len(_arg(a, k, 0, "corpus"))},
    "metrics.score_trials": lambda a, k, r: {"trials": len(_arg(a, k, 0, "trials"))},
    "cli.write_manifest": _write_manifest_counts,
}


def _targets():
    """(traced name, class holding the method or None, attribute, function)."""
    found = []
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        if layer == "cli":
            names = CLI_FUNCTIONS
        else:
            names = [name for name, obj in vars(module).items()
                     if not name.startswith("_") and inspect.isfunction(obj)
                     and obj.__module__ == module.__name__]
        for name in names:
            fn = getattr(module, name, None)
            if not inspect.isfunction(fn):
                raise TraceError(f"{PACKAGE}.{layer}.{name} is missing")
            found.append((f"{layer}.{name}", None, name, fn))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name, None)
            for name in methods:
                fn = vars(cls).get(name) if isinstance(cls, type) else None
                if not inspect.isfunction(fn):
                    raise TraceError(f"{PACKAGE}.{layer}.{cls_name}.{name} is missing")
                found.append((f"{layer}.{cls_name}.{name}", cls, name, fn))
    return found


class Tracer:
    """Context manager that traces the spkdeid layers while it is open.

    ``required`` names functions ("<layer>.<qualname>") that must exist;
    entering fails if one of them is missing.

    Spans are kept in ``self.spans`` as [function index, start ns, end ns,
    parent span index, counts or None]; ``self.names`` maps a function
    index to its traced name.
    """

    def __init__(self, required=()):
        self.required = set(required)
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [fid, start, end, parent, None]
            if counter is not None:
                spans[index][4] = counter(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        targets = _targets()
        missing = self.required - {name for name, _, _, _ in targets}
        if missing:
            raise TraceError(f"traced functions missing: {sorted(missing)}")
        try:
            for name, cls, attr, fn in targets:
                fid = len(self.names)
                self.names.append(name)
                wrapper = self._wrap(fid, fn, COUNTERS.get(name))
                if cls is not None:
                    self._patch(cls, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, key, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._restore()
        if self._stack:
            raise TraceError(f"{len(self._stack)} spans still open at trace end")

    def summary(self) -> dict[str, dict]:
        """Per traced name: calls, self ns, span durations and summed counts."""
        child_ns = [0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: {"calls": 0, "self_ns": 0, "durations_ns": [], "counts": {}}
               for name in self.names}
        aan_forward = self.names.index("aan.aan_forward")
        dense_forward = self.names.index("neural.dense_forward")
        flop = {"useful": 0, "all": 0}
        for i, (fid, start, end, parent, counts) in enumerate(self.spans):
            entry = out[self.names[fid]]
            entry["calls"] += 1
            entry["self_ns"] += end - start - child_ns[i]
            entry["durations_ns"].append(end - start)
            if counts:
                for key, value in counts.items():
                    if isinstance(value, (int, float)) and key != "layer":
                        entry["counts"][key] = entry["counts"].get(key, 0) + value
            if fid == dense_forward and parent >= 0 and self.spans[parent][0] == aan_forward:
                flop["all"] += counts["flop"]
                if counts["layer"] in self.spans[parent][4]["useful_layers"]:
                    flop["useful"] += counts["flop"]
        out["aan.aan_forward"]["counts"].update(
            useful_flop=flop["useful"], child_flop=flop["all"])
        return out


def _stat(entry: dict, stat: str) -> float:
    calls = entry["calls"]
    self_s = entry["self_ns"] / 1e9
    counts = entry["counts"]
    if stat == "calls":
        return calls
    if stat == "self_s":
        return self_s
    if stat in ("p50_us", "p99_us"):
        if calls == 0:
            return 0.0
        q = 50 if stat == "p50_us" else 99
        return float(np.percentile(entry["durations_ns"], q)) / 1e3
    if stat == "gflop":
        return counts.get("flop", 0) / 1e9
    if stat == "gflop_per_s":
        return counts.get("flop", 0) / 1e9 / self_s if self_s > 0 else 0.0
    if stat == "params_per_call":
        return counts.get("params", 0) / calls if calls else 0.0
    if stat == "gb_per_s":
        moved = ADAM_ARRAYS_TOUCHED * 8 * counts.get("params", 0)
        return moved / 1e9 / self_s if self_s > 0 else 0.0
    if stat == "norm_reuse_ratio":
        return counts["pool"] / calls / counts["pool_norms"] if calls else 0.0
    if stat == "useful_flop_ratio":
        if counts.get("child_flop", 0) == 0:
            raise TraceError("aan.aan_forward made no traced dense_forward calls")
        return counts["useful_flop"] / counts["child_flop"]
    if stat in ("rows", "trials", "bytes_hashed", "pool_rows_scanned", "epochs_lost"):
        return counts.get(stat, 0)
    raise TraceError(f"unknown per-layer statistic {stat!r}")


def layer_metrics(summary: dict[str, dict], names: list[str]) -> dict[str, float]:
    """Values of the per-layer metrics ``names`` ("<layer>.<function>.<stat>")."""
    values = {}
    for metric in names:
        function, _, stat = metric.rpartition(".")
        if function.split(".")[0] not in LAYERS:
            continue
        if function not in summary:
            raise TraceError(f"metric {metric}: {function} is not traced")
        values[metric] = _stat(summary[function], stat)
    return values


def total_self_s(summary: dict[str, dict]) -> float:
    return sum(entry["self_ns"] for entry in summary.values()) / 1e9
