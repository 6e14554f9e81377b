"""Span tracer that instruments singeq from outside.

The tracer replaces every binding of the instrumented functions: the
attribute on the defining module and each ``from ... import`` alias held by
another ``singeq`` module.  Methods are replaced on their class, which every
alias shares.  Spans measure process CPU time, are kept in memory in
column arrays and are written out once, by ``dump``, when the run ends.

A span's self time is its duration minus the time covered by its child
spans; the per-layer ``self_s`` metrics sum self time by layer (the module
that defines the function).  Hot accessors get count-only wrappers, which
record calls but open no span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array

# Methods instrumented as spans, by layer.  Module-level public functions
# of every layer are discovered and instrumented automatically.
METHODS = {
    "modules": ["Module.validate", "ModuleMap.validate", "ModuleMap.compose",
                "ModuleMap.is_injective", "ModuleMap.is_surjective",
                "ModuleMap.is_invertible"],
    "complexes": ["Complex.build", "Complex.validate", "ChainMap.validate",
                  "ChainMap.is_mono", "ChainMap.is_epi", "ChainMap.is_zero"],
    "solver": ["FoldedSystem.solve", "FoldedSystem.kernel",
               "FoldedSystem.add_equation", "FoldedSystem.require_module_map"],
    "functors": ["AdjunctionWitness.forward", "AdjunctionWitness.backward"],
}

LAYERS = ("linalg", "modules", "complexes", "solver", "homotopy", "functors",
          "modelcat", "approx", "equiv", "formats", "cli")

# Called so often that a span would cost more than the work it measures.
COUNT_ONLY = {"modules.zero_module"}

# Element constructors cheaper than a span; their time stays with the caller.
UNWRAPPED = {"linalg.zeros", "linalg.eye", "linalg.reduce_mod",
             "linalg.inv_mod"}

# Module-level caches read from outside: (layer, dict name, reader function).
CACHES = [
    ("functors", "_OMEGA_CACHE", "omega_data"),
    ("functors", "_THETA_CACHE", "theta_data"),
    ("approx", "_REPLACEMENT_CACHE", "stalk_replacement"),
]


class Tracer:
    """Collects spans and counters for the instrumented singeq functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {}
        self.check = -1  # index of the check in progress, recorded per span
        self.paused = False  # set while oracles run between checks
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_check = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []  # indices of open spans, innermost last
        self._child: list[float] = []  # child time covered, per open span
        self._restore: list[tuple] = []  # (owner, attribute, original)
        self.missing: list[str] = []  # instrumentation targets not found

    # -- names and counters ---------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return i

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrappers -------------------------------------------------------

    def span_wrapper(self, name: str, fn, before=None, after=None):
        """A function that runs ``fn`` inside a span named ``name``.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        passed to ``after(token, args, kwargs, result)`` on return.
        """
        i = self._id(name)
        clock = time.process_time
        calls, self_s = self.calls, self.self_s
        opened, child = self._open, self._child
        s_name, s_parent, s_check = self.span_name, self.span_parent, self.span_check
        s_start, s_end = self.span_start, self.span_end
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            idx = len(s_start)
            s_name.append(i)
            s_parent.append(opened[-1] if opened else -1)
            s_check.append(tracer.check)
            s_end.append(0.0)
            opened.append(idx)
            child.append(0.0)
            start = clock()
            s_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                covered = child.pop()
                s_end[idx] = end
                dur = end - start
                self_s[i] += dur - covered
                calls[i] += 1
                if child:
                    child[-1] += dur
            if after is not None:
                after(token, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name: str, fn):
        i = self._id(name)
        calls = self.calls
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.paused:
                calls[i] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Replace every module-level binding of ``original`` in singeq."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "singeq" or modname.startswith("singeq.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _hooks(self, name: str):
        """(before, after) observers that turn a call into counters."""
        if name == "linalg.rref":
            def before(args, kwargs):
                A = args[0] if args else kwargs["A"]
                shape = getattr(A, "shape", (0, 0))
                self.count("linalg.rref.cells",
                           int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0)
            return before, None
        if name in ("solver.FoldedSystem.solve", "solver.FoldedSystem.kernel"):
            def before(args, kwargs):
                sys_ = args[0]
                self.count("solver.unknowns", sys_.total)
                self.count("solver.rows", sum(b.shape[0] for b in sys_.rows))
            after = None
            if name.endswith(".solve"):
                def after(token, args, kwargs, result):
                    self.count("solver.solve.consistent", result is not None)
            return before, after
        if name == "homotopy.null_homotopy":
            def after(token, args, kwargs, result):
                key = result.strategy.replace("+", "_") or "none"
                self.count(f"homotopy.strategy.{key}")
            return None, after
        if name == "homotopy.search_periodic_homotopy":
            def after(token, args, kwargs, result):
                self.count("homotopy.periodic.found", result is not None)
            return None, after
        if name == "modelcat.orthogonal_certificate":
            def after(token, args, kwargs, result):
                cert = result.certificate
                self.count("modelcat.orthogonal_certificate.pairs",
                           len(cert.payload["pairs"]) if cert is not None else 0)
            return None, after
        for layer, dict_name, reader in CACHES:
            if name == f"{layer}.{reader}":
                mod = sys.modules[f"singeq.{layer}"]
                cache = getattr(mod, dict_name, None)
                if not isinstance(cache, dict):
                    return None, None

                def before(args, kwargs, cache=cache):
                    return len(cache)

                def after(token, args, kwargs, result, cache=cache,
                          key=f"{layer}.{dict_name}"):
                    grew = len(cache) - token
                    self.count(f"{key}.reads")
                    self.count(f"{key}.misses", grew > 0)
                return before, after
        return None, None

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self.count_wrapper(name, fn)
        before, after = self._hooks(name)
        return self.span_wrapper(name, fn, before, after)

    def install(self) -> None:
        """Instrument every layer of the singeq package."""
        for layer in LAYERS:
            mod = importlib.import_module(f"singeq.{layer}")
            for attr, value in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != mod.__name__ or name in UNWRAPPED):
                    continue
                self._rebind(value, self._wrap(name, value))
            for qual in METHODS.get(layer, []):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if raw is None:
                    self.missing.append(f"{layer}.{qual}")
                    continue
                name = f"{layer}.{qual}"
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)

    def uninstall(self) -> None:
        """Restore every binding replaced by ``install``."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------

    def calls_of(self, name: str) -> int:
        i = self._ids.get(name)
        return self.calls[i] if i is not None else 0

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in zip(self.names, self.self_s):
            out[name.split(".", 1)[0]] += s
        return out

    def self_of(self, names) -> float:
        return sum(self.self_s[self._ids[n]] for n in names if n in self._ids)

    def dump(self, path: str, meta: dict) -> None:
        """Write the spans to an .npz file: a name table and span columns.

        ``name`` indexes ``names``; ``parent`` is the index of the enclosing
        span or -1; ``check`` is the index of the check; ``start`` and
        ``end`` are process CPU seconds.
        """
        import numpy as np

        np.savez(path, names=np.array(self.names), meta=np.array(json.dumps(meta)),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 check=np.frombuffer(self.span_check, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
