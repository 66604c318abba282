"""Spans around the public functions of each biphoton_sim layer, from outside.

`Tracer.install` wraps every function named in a layer module's `__all__`,
and the methods of `BlockMatrix`, and swaps each wrapper in wherever a
package module holds a reference to the original (`cli`, for example, imports
`gain_for_mean_pairs` by name).  Nothing under `src/` is edited.  Each span
records its name, start, end and parent; spans stay in memory until the run
writes them out.  `uninstall` puts every original back.

Some wrappers also compute counts from the arguments or results they see at
the boundary (dense block products, moment-recursion flops, operand size);
these repeat exactly from run to run and are labelled as computed.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "biphoton_sim"

# module name in the package -> layer name in metric names (which may not
# start with "_")
LAYERS = {
    "spectral": "spectral",
    "covariance": "covariance",
    "_blocks": "blocks",
    "transforms": "transforms",
    "detection": "detection",
    "bounds": "bounds",
    "cli": "cli",
}

COMPUTED = (
    "covariance.spectra_built",
    "blocks.dense_products",
    "blocks.dense_flops",
    "detection.moment_flops",
    "detection.moment_bytes",
    "transforms.operand_dim",
)


def _dense_products(args):
    """Products of two dense (2-D) blocks in `BlockMatrix @ BlockMatrix`,
    and their flops at 8 m k n per complex product."""
    left, right = args[0], args[1]
    count = flops = 0
    for row in left.blocks:
        for k, a in enumerate(row):
            if getattr(a, "ndim", 0) != 2:
                continue
            for b in right.blocks[k]:
                if getattr(b, "ndim", 0) == 2:
                    count += 1
                    flops += 8 * a.shape[0] * a.shape[1] * b.shape[1]
    return count, flops


def _moment_cost(args, kwargs):
    """Flops and the 2 GiB-guard byte estimate of `log_series_gf(parts, order)`.

    Step n of the recursion multiplies every matrix of multidegree n - 1
    (C(n + d - 2, d - 1) of them for d parts) by each of the d parts.
    """
    parts = args[0] if args else kwargs["parts"]
    order = args[1] if len(args) > 1 else kwargs["order"]
    d = len(parts)
    dim = parts[0].shape[0]
    products = sum(math.comb(n + d - 2, d - 1) * d for n in range(2, order + 1))
    est_bytes = 2 * (order + 1) ** max(d - 1, 1) * dim * dim * 16
    return products * 8 * dim**3, est_bytes


class Tracer:
    def __init__(self):
        self._stack: list = []
        self._patches: list = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Drop the recorded spans and counts; wrappers stay installed."""
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: dict = defaultdict(int)

    def _wrap(self, name, fn):
        tracer = self
        before = after = None
        if name == "blocks.matmul":
            def before(args, kwargs):
                count, flops = _dense_products(args)
                tracer.counts["blocks.dense_products"] += count
                tracer.counts["blocks.dense_flops"] += flops
        elif name == "detection.log_series_gf":
            def before(args, kwargs):
                flops, est_bytes = _moment_cost(args, kwargs)
                tracer.counts["detection.moment_flops"] += flops
                m = tracer.maxima
                m["detection.moment_bytes"] = max(m["detection.moment_bytes"], est_bytes)
        elif name == "transforms.compressed_determinant_operand":
            def after(result):
                m = tracer.maxima
                m["transforms.operand_dim"] = max(m["transforms.operand_dim"], result.shape[0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        replacements = {}
        for modname, layer in LAYERS.items():
            try:
                mod = importlib.import_module(f"{PACKAGE}.{modname}")
            except ImportError:
                continue
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replacements[obj] = self._wrap(f"{layer}.{attr}", obj)
            if modname == "_blocks" and hasattr(mod, "BlockMatrix"):
                self._wrap_methods(mod.BlockMatrix, layer)
            if modname == "covariance" and hasattr(mod, "SqueezingSpectrum"):
                self._count_constructions(mod.SqueezingSpectrum, "covariance.spectra_built")
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._patch(mod, attr, replacements[value])

    def _wrap_methods(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__matmul__":
                continue
            name = f"{layer}.{attr.strip('_')}"
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))

    def _count_constructions(self, cls, counter):
        original = cls.__dict__.get("__post_init__")
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def counted(obj):
            tracer.counts[counter] += 1
            return original(obj)

        self._patch(cls, "__post_init__", counted)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summarizing -------------------------------------------------------

    def summary(self, labels=()) -> dict:
        """Self time and call count per span name (with total time too), per
        layer, and per layer within each labelled part.

        Self time is a span's duration minus the time its child spans cover;
        calls run serially, so children never overlap.  `labels[k]` names the
        part that the k-th top-level span and everything under it belong to.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        root = [0] * len(spans)
        roots = 0
        for i, (_, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = roots
                roots += 1
        by_name: dict = defaultdict(lambda: [0.0, 0, 0.0])
        by_layer: dict = defaultdict(lambda: [0.0, 0])
        by_part: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for i, (name, start, end, _) in enumerate(spans):
            own = end - start - child[i]
            layer = name.split(".", 1)[0]
            entries = [by_name[name], by_layer[layer]]
            if root[i] < len(labels):
                entries.append(by_part[labels[root[i]]][layer])
            for entry in entries:
                entry[0] += own
                entry[1] += 1
            by_name[name][2] += end - start

        def table(d):
            return {k: {"self_s": v[0], "calls": v[1]} for k, v in sorted(d.items())}

        return {
            "functions": {k: {"self_s": v[0], "calls": v[1], "total_s": v[2]}
                          for k, v in sorted(by_name.items())},
            "layers": table(by_layer),
            "parts": {part: table(layers) for part, layers in by_part.items()},
            "computed": {k: self.counts.get(k, self.maxima.get(k, 0)) for k in COMPUTED},
        }
