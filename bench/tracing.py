"""Spans around hdcca's public functions, recorded from benchmark code.

Nothing under ``src/`` changes: :class:`Tracer` replaces every public
module-level function of each layer module with a timing wrapper, in
every ``hdcca`` namespace that holds it (so ``from .x import f`` bindings
are caught too), and puts the originals back on :meth:`Tracer.uninstall`.
Untraced runs never install it.

A span is ``[layer, name, start, end, parent, info]``; ``info`` carries the
few argument facts the per-layer metrics need (draw counts, panel sizes,
file sizes).  A layer's self time is the time of its spans minus the part
their child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time

LAYERS = ("cli", "dataio", "hyptest", "ensembles", "cointegration", "cca_core", "spike", "wachter")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _info(key, args, kwargs):
    """Argument facts recorded for the functions the per-layer metrics split."""
    if key == "ensembles.manova_spectra":
        return {"draws": int(_arg(args, kwargs, 3, "n"))}
    if key == "cca_core.sample_cca":
        U, V = _arg(args, kwargs, 0, "U"), _arg(args, kwargs, 1, "V")
        return {"k": min(U.rows, V.rows), "m": max(U.rows, V.rows)}
    if key == "cointegration.simulate_var1":
        pi = _arg(args, kwargs, 0, "model").pi
        return {"pi": bool(pi.any()), "k": pi.shape[0]}
    if key.startswith("dataio.load_") or key.startswith("dataio.save_"):
        path = _arg(args, kwargs, 0, "path")
        return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}
    return None


class Tracer:
    """Records one span per call into a layer's public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [layer, name, clock(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                span[5] = _info(key, args, kwargs)
                return result
            except BaseException:
                span[5] = {"raised": True}
                raise
            finally:
                span[3] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer module."""
        modules = [importlib.import_module(f"hdcca.{layer}") for layer in LAYERS]
        namespaces = [m for n, m in list(sys.modules.items()) if n == "hdcca" or n.startswith("hdcca.")]
        for layer, module in zip(LAYERS, modules):
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(layer, name, fn)
                for ns in namespaces:
                    if vars(ns).get(name) is fn:
                        self._patched.append((ns, name, fn))
                        setattr(ns, name, wrapped)
        # Table reads happen through a classmethod, not a module function.
        table_cls = importlib.import_module("hdcca.hyptest").QuantileTable
        load = vars(table_cls)["load"]
        self._patched.append((table_cls, "load", load))
        wrapped = self._wrap("hyptest", "QuantileTable.load", load.__func__)
        table_cls.load = classmethod(wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def _outermost(spans, pred):
    """Spans matching ``pred`` whose ancestors do not match it (no double count)."""
    keep = []
    for i, s in enumerate(spans):
        if not pred(s):
            continue
        p = s[4]
        while p >= 0 and not pred(spans[p]):
            p = spans[p][4]
        if p < 0:
            keep.append(i)
    return keep


def _inclusive(spans, pred) -> float:
    return sum(spans[i][3] - spans[i][2] for i in _outermost(spans, pred))


def layer_metrics(spans) -> dict:
    """Per-layer figures from one traced unit of work, as ``{name: value}``.

    Times are seconds summed over the unit.  ``sample_cca`` is split by
    size: ``small`` is K, M <= 3, ``large`` is K, M >= 100; other sizes
    count in neither.  ``simulate_var1`` counts K >= 100 only, split into
    random walks (``rw``) and Pi != 0 (``pi``).
    """
    selfs = self_times(spans)
    named = lambda layer, *names: lambda s: s[0] == layer and s[1] in names  # noqa: E731
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s, t in zip(spans, selfs):
        m[f"{s[0]}.self_s"] += t

    dataio_read = lambda s: s[0] == "dataio" and s[1].startswith("load_")  # noqa: E731
    dataio_write = lambda s: s[0] == "dataio" and s[1].startswith("save_")  # noqa: E731
    m["dataio.read_s"] = _inclusive(spans, dataio_read)
    m["dataio.write_s"] = _inclusive(spans, dataio_write)
    m["dataio.bytes_read"] = sum((s[5] or {}).get("bytes", 0) for s in spans if dataio_read(s))
    m["dataio.bytes_written"] = sum((s[5] or {}).get("bytes", 0) for s in spans if dataio_write(s))

    m["hyptest.table_load_s"] = _inclusive(spans, named("hyptest", "QuantileTable.load"))
    m["hyptest.tabulate_s"] = _inclusive(spans, lambda s: s[1].startswith("tabulate_"))
    m["hyptest.test_s"] = _inclusive(
        spans,
        lambda s: s[1] in ("independence_test_small", "independence_test_large", "coint_test_small", "coint_test_large"),
    )

    manova = [s for s in spans if s[0] == "ensembles" and s[1] == "manova_spectra"]
    m["ensembles.manova_spectra.s"] = sum(s[3] - s[2] for s in manova)
    draws = sum(s[5]["draws"] for s in manova if s[5] and "draws" in s[5])
    m["ensembles.manova_spectra.draws"] = draws
    m["ensembles.manova_spectra.ms_per_draw"] = 1e3 * m["ensembles.manova_spectra.s"] / draws if draws else 0.0
    m["ensembles.laguerre_spectra.s"] = _inclusive(spans, named("ensembles", "laguerre_spectra"))

    m["cointegration.simulate_brownian_null.s"] = _inclusive(spans, named("cointegration", "simulate_brownian_null"))
    for kind, flag in (("rw", False), ("pi", True)):
        sel = [
            s for s in spans
            if s[0] == "cointegration" and s[1] == "simulate_var1" and s[5] and s[5].get("pi") is flag and s[5]["k"] >= 100
        ]
        total = sum(s[3] - s[2] for s in sel)
        m[f"cointegration.simulate_var1.{kind}.s"] = total
        m[f"cointegration.simulate_var1.{kind}.ms_per_call"] = 1e3 * total / len(sel) if sel else 0.0
    detrend = [i for i, s in enumerate(spans) if s[0] == "cointegration" and s[1] in ("modified_lambdas", "johansen_lambdas")]
    m["cointegration.detrend_s"] = sum(selfs[i] for i in detrend)
    mod = [s for s in spans if s[0] == "cointegration" and s[1] == "modified_lambdas"]
    m["cointegration.modified_lambdas.ms_per_call"] = 1e3 * sum(s[3] - s[2] for s in mod) / len(mod) if mod else 0.0

    cca = [s for s in spans if s[0] == "cca_core" and s[1] == "sample_cca"]
    for size, pick in (("small", lambda i: i["m"] <= 3), ("large", lambda i: i["k"] >= 100)):
        sel = [s for s in cca if s[5] and "k" in s[5] and pick(s[5])]
        total = sum(s[3] - s[2] for s in sel)
        m[f"cca_core.sample_cca.{size}.s"] = total
        m[f"cca_core.sample_cca.{size}.calls"] = len(sel)
        m[f"cca_core.sample_cca.{size}.ms_per_call"] = 1e3 * total / len(sel) if sel else 0.0
    m["cca_core.sample_cca.failures"] = sum(1 for s in cca if s[5] and s[5].get("raised"))

    m["spike.simulate_spiked_panels.s"] = _inclusive(spans, named("spike", "simulate_spiked_panels"))
    m["spike.estimate_signals.s"] = _inclusive(spans, named("spike", "estimate_signals"))
    m["wachter.s"] = _inclusive(spans, lambda s: s[0] == "wachter")
    return m
