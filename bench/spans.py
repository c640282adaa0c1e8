"""Per-layer spans for the traced run, installed from outside the package.

The layers are the six szego_lab modules.  A span wraps each public
function of a layer (the functions its ``__all__`` names), each private
function that another module imports across a layer boundary (such as
``measure_opuc._trig_moments``), and the few private functions named in
EXTRA_PRIVATE whose calls are counted.  Installing rebinds the wrapper in
every szego_lab namespace that holds the original, so calls from inside the
defining module are traced too; restore() puts every original back.

Each span records its parent, so a layer's self time is its spans' time
minus their child spans.  A span's self time also goes to the nearest
function metric among itself and its same-layer callers (FUNCTION_METRICS);
unnamed helpers count toward the named function that called them.
Single-threaded: the span stack is one list.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("cli", "blaschke", "circle_fourier", "xlinalg", "measure_opuc",
          "asymptotics")

EXTRA_PRIVATE = {"measure_opuc": ("_gram_from_exponents",)}

FUNCTION_METRICS = {
    ("blaschke", "eval_B_phi"): "blaschke.eval_B_phi_s",
    ("blaschke", "derivative_sup"): "blaschke.derivative_sup_s",
    ("blaschke", "taylor_coeffs"): "blaschke.taylor_coeffs_s",
    ("circle_fourier", "besov_seminorm"): "circle_fourier.besov_seminorm_s",
    ("xlinalg", "cholesky"): "xlinalg.cholesky_s",
    ("measure_opuc", "_trig_moments"): "measure_opuc.trig_moments_s",
    ("measure_opuc", "_gram_from_exponents"): "measure_opuc.gram_s",
    ("measure_opuc", "gram_polynomial"): "measure_opuc.gram_s",
    ("measure_opuc", "gram_laurent"): "measure_opuc.gram_s",
    ("measure_opuc", "residue_identity_check"): "measure_opuc.residue_s",
    ("asymptotics", "vp_approximant"): "asymptotics.vp_s",
    ("asymptotics", "taylor_approximant"): "asymptotics.taylor_s",
}

COUNT_METRICS = ("cli.exit_nonzero", "blaschke.eval_points",
                 "blaschke.factor_evals", "circle_fourier.convolve_calls",
                 "xlinalg.cholesky_work", "xlinalg.not_pd",
                 "measure_opuc.gram_builds", "measure_opuc.escalations",
                 "measure_opuc.residue_nodes")


def _count_main(counts, a, out):
    if out != 0:
        counts["cli.exit_nonzero"] += 1


def _count_eval_blaschke(counts, a, out):
    points = int(np.size(a["z"]))
    counts["blaschke.eval_points"] += points
    counts["blaschke.factor_evals"] += points * a["b"].degree


def _count_convolve(counts, a, out):
    counts["circle_fourier.convolve_calls"] += 1


def _count_cholesky(counts, a, out):
    counts["xlinalg.cholesky_work"] += a["g"].dim ** 3 / 6.0


def _count_gram(counts, a, out):
    counts["measure_opuc.gram_builds"] += 1
    if a["bits"] > a["mu"].precision:
        counts["measure_opuc.escalations"] += 1


def _count_residue(counts, a, out):
    counts["measure_opuc.residue_nodes"] += out["grid"]


# a counter gets the call's arguments by parameter name, and its result
COUNTERS = {
    ("cli", "main"): _count_main,
    ("blaschke", "eval_blaschke"): _count_eval_blaschke,
    ("circle_fourier", "convolve"): _count_convolve,
    ("xlinalg", "cholesky"): _count_cholesky,
    ("measure_opuc", "_gram_from_exponents"): _count_gram,
    ("measure_opuc", "residue_identity_check"): _count_residue,
}


def layer_modules() -> dict:
    return {name: importlib.import_module(f"szego_lab.{name}") for name in LAYERS}


def traced_functions(modules: dict) -> dict:
    """{(layer, name): function} for every function that gets a span."""
    home = {mod.__name__: layer for layer, mod in modules.items()}
    out = {}
    for layer, mod in modules.items():
        names = list(mod.__all__) + list(EXTRA_PRIVATE.get(layer, ()))
        for name in names:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out[layer, name] = fn
        # private functions this module imports from another layer
        for name, fn in vars(mod).items():
            if (name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ in home and fn.__module__ != mod.__name__):
                out[home[fn.__module__], name] = fn
    return out


class Tracer:
    """Spans and counts for the requests run while installed.

    A span is [layer, metric, parent index, start, end, request].
    """

    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.request = -1
        self._stack: list = []
        self._patched: list = []  # (namespace, attribute, original)

    def install(self) -> None:
        import szego_lab

        modules = layer_modules()
        namespaces = [szego_lab] + list(modules.values())
        for (layer, name), fn in traced_functions(modules).items():
            wrapper = self._wrap(layer, name, fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._patched.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)

    def restore(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    @property
    def patched(self) -> list:
        return list(self._patched)

    def _wrap(self, layer: str, name: str, fn):
        metric = FUNCTION_METRICS.get((layer, name))
        counter = COUNTERS.get((layer, name))
        bind = inspect.signature(fn).bind
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        from szego_lab.xlinalg import NotPositiveDefinite

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            target = metric
            if target is None and parent >= 0 and spans[parent][0] == layer:
                target = spans[parent][1]
            rec = [layer, target, parent, clock(), 0.0, self.request]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except NotPositiveDefinite:
                # count once, where the failure leaves the xlinalg layer
                if layer == "xlinalg" and (parent < 0 or spans[parent][0] != "xlinalg"):
                    self.counts["xlinalg.not_pd"] += 1
                raise
            finally:
                rec[4] = clock()
                stack.pop()
            if counter is not None:
                counter(self.counts, bind(*args, **kwargs).arguments, out)
            return out

        return wrapper

    def self_times(self) -> tuple[dict, dict]:
        """({layer: self seconds}, {function metric: self seconds})."""
        child = [0.0] * len(self.spans)
        for layer, _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        layers = dict.fromkeys(LAYERS, 0.0)
        functions = dict.fromkeys(FUNCTION_METRICS.values(), 0.0)
        for (layer, target, _, t0, t1, _), c in zip(self.spans, child):
            own = (t1 - t0) - c
            layers[layer] += own
            if target is not None:
                functions[target] += own
        return layers, functions

    def root_seconds(self) -> float:
        """Total time of the outermost spans (one cli.main per request)."""
        return sum(t1 - t0 for _, _, parent, t0, t1, _ in self.spans
                   if parent < 0)
