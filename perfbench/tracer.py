"""Traced-run recorder: spans around every public function of the library,
installed from outside it.

`Tracer.install` replaces each public function of the measured modules at
every module attribute bound to it (``incewave.cli.eigen_decompose``,
``incewave.verify.eigen_decompose``, ``incewave.eigensolver.eigen_decompose``
and the package re-export are one function with four bindings), so calls
made through any import path are seen. Spans stay in memory with their parent
and op index; self time is a span's duration minus that of its children.

Two kinds of call are folded instead of recorded one by one:

* ddcore primitives call each other and run ~10^4 times per op, so only the
  outermost entry into ddcore is timed, and those entries are summed into one
  ``ddcore`` child per parent span (calls, seconds, array elements);
* ``cli.render_json`` recurses once per value, so only its outermost call
  gets a span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

import numpy as np

# Layers, named after the modules of src/incewave. spinor is on no CLI path.
LAYERS = ("cli", "eigensolver", "ddcore", "polynomials", "verify", "bessel",
          "physics", "wavefunction", "ince_matrix")
PACKAGE = "incewave"  # re-exports the public functions

PER_LAYER = (
    ("eigensolver.eigen_decompose.self_s", "s"),
    ("eigensolver.eigen_decompose.calls", "count"),
    ("eigensolver.eigen_decompose.failed", "count"),
    ("eigensolver.eigen_decompose.double_s", "s"),
    ("eigensolver.eigen_decompose.extended_s", "s"),
    ("ddcore.s", "s"),
    ("ddcore.calls", "count"),
    ("ddcore.elements", "count"),
    ("polynomials.evaluate.s", "s"),
    ("polynomials.evaluate.calls", "count"),
    ("polynomials.evaluate.points", "count"),
    ("polynomials.ode_residual.s", "s"),
    ("polynomials.ode_residual.calls", "count"),
    ("verify.verification_report.self_s", "s"),
    ("verify.gram_matrices.s", "s"),
    ("verify.oracle_eigenvalues.s", "s"),
    ("verify.oracle_eigenvalues.calls", "count"),
    ("verify.oracle_eigenvalues.failed", "count"),
    ("bessel.bilinear_weight_kernel.s", "s"),
    ("bessel.bilinear_weight_kernel.calls", "count"),
    ("bessel.modified_bessel_i.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.render_json.s", "s"),
    ("cli.render_json.bytes", "count"),
    ("physics.momentum_spectrum.s", "s"),
    ("wavefunction.prefactor.s", "s"),
    ("ince_matrix.build.s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end, self_s, failed, extra)
        self.op = -1
        self._stack: list[list] = []  # [id, name, start, child_s, ddcore_calls, ddcore_s, ddcore_elems]
        self._next_id = 0
        self._in_ddcore = False
        self._patched: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0, 0, 0.0, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, end: float, failed: bool, extra):
        self._stack.pop()
        sid, name, start, child_s, dd_calls, dd_s, dd_elems = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        pid = parent[0] if parent is not None else None
        self.spans.append((self.op, sid, pid, name, start, end,
                           duration - child_s, failed, extra))
        if dd_calls:
            self.spans.append((self.op, self._next_id, sid, "ddcore", None, None,
                               dd_s, False, {"calls": dd_calls, "elements": dd_elems}))
            self._next_id += 1

    def _wrap(self, fn, name: str):
        extra_of = _EXTRA.get(name)

        def traced(*args, **kwargs):
            frame = self._enter(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                extra = None
                if extra_of is not None:
                    extra = extra_of(args, kwargs, None if failed else result)
                self._exit(frame, end, failed, extra)

        return traced

    def _wrap_outermost(self, fn, name: str):
        recorded = self._wrap(fn, name)

        def traced(*args, **kwargs):
            if self._stack and self._stack[-1][1] == name:
                return fn(*args, **kwargs)
            return recorded(*args, **kwargs)

        return traced

    def _wrap_ddcore(self, fn):
        def traced(*args, **kwargs):
            if self._in_ddcore:
                return fn(*args, **kwargs)
            self._in_ddcore = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._in_ddcore = False
                if self._stack:
                    frame = self._stack[-1]
                    frame[3] += elapsed
                    frame[4] += 1
                    frame[5] += elapsed
                    frame[6] += max((np.size(x) for x in args), default=0)

        return traced

    # -- installation ---------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"incewave.{layer}") for layer in LAYERS}
        bindings = list(modules.values())
        bindings.append(importlib.import_module(PACKAGE))
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if layer == "ddcore":
                    wrapper = self._wrap_ddcore(fn)
                elif name == "cli.render_json":
                    wrapper = self._wrap_outermost(fn, name)
                else:
                    wrapper = self._wrap(fn, name)
                for site in bindings:
                    for site_attr, value in list(vars(site).items()):
                        if value is fn:
                            setattr(site, site_attr, wrapper)
                            self._patched.append((site, site_attr, fn))

    def uninstall(self):
        for site, attr, fn in reversed(self._patched):
            setattr(site, attr, fn)
        self._patched.clear()

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, pid, name, start, end, self_s, failed, extra in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": pid, "name": name,
                                     "start": start, "end": end, "self_s": self_s,
                                     "failed": failed, "extra": extra}) + "\n")

    # -- aggregation ----------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        m = {name: 0 for name, _ in PER_LAYER}

        def add(key, value):
            m[key] += value

        for _op, _sid, _pid, name, start, end, self_s, failed, extra in self.spans:
            layer, _, func = name.partition(".")
            add(f"{layer}.self_s", self_s)
            if name == "ddcore":
                add("ddcore.s", self_s)
                add("ddcore.calls", extra["calls"])
                add("ddcore.elements", extra["elements"])
                continue
            duration = end - start
            if name == "eigensolver.eigen_decompose":
                add(name + ".self_s", self_s)
                add(name + ".calls", 1)
                add(name + ".failed", int(failed))
                add(f"{name}.{extra}_s", self_s)
            elif name == "polynomials.evaluate":
                add(name + ".s", duration)
                add(name + ".calls", 1)
                add(name + ".points", extra)
            elif name in ("polynomials.ode_residual", "bessel.bilinear_weight_kernel"):
                add(name + ".s", duration)
                add(name + ".calls", 1)
            elif name == "verify.oracle_eigenvalues":
                add(name + ".s", duration)
                add(name + ".calls", 1)
                add(name + ".failed", int(failed))
            elif name == "bessel.modified_bessel_i":
                add(name + ".calls", 1)
            elif name == "cli.render_json":
                add(name + ".s", duration)
                add(name + ".bytes", extra or 0)
            elif layer == "cli":  # main, build_parser and the cmd_* handlers
                add("cli.main.self_s", self_s)
            elif name == "verify.verification_report":
                add(name + ".self_s", self_s)
            elif name in ("verify.gram_matrices", "physics.momentum_spectrum",
                          "wavefunction.prefactor"):
                add(name + ".s", duration)
            elif name in ("ince_matrix.build_even_matrix", "ince_matrix.build_odd_matrix"):
                add("ince_matrix.build.s", duration)
        return m


def _tier(args, kwargs, _result):
    tier = args[1] if len(args) > 1 else kwargs.get("tier")
    return "double" if tier is None else tier.value


# Extra per-span numbers: the tier of a solve, the points of an evaluation
# and the bytes of serialised JSON.
_EXTRA = {
    "eigensolver.eigen_decompose": _tier,
    "polynomials.evaluate": lambda args, kwargs, _r: int(np.size(args[1] if len(args) > 1 else kwargs["xi"])),
    "cli.render_json": lambda _a, _k, result: None if result is None else len(result),
}
