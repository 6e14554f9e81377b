"""JSON input formats for algebras, modules, complexes and chain maps.

One self-describing textual format; matrices are row-major integer
arrays reduced mod p on load.  References to other documents may be a
file path (resolved relative to the referring file), a built-in fixture
name, or an inline document.

Parsed modules, complexes and chain maps are memoized by content on
their algebra, with read-only arrays (see modules), so equal loads share
one object and its memos.  Every check on the text runs on every load; a
hit skips only the object check that identical content already passed.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import fixtures, modules
from .algebra import Algebra, Field
from .complexes import ChainMap, Complex, Tail, chain_map
from .errors import ParseError
from .modules import Module


def _fail(msg: str, path: str | None = None) -> ParseError:
    return ParseError(msg, line=1, column=1, path=path)


_INT64 = np.iinfo(np.int64)


def _bad_number(value) -> bool:
    """Whether value is a bool, a fractional or non-finite float, or a
    number outside int64: a JSON number that is no integer of ours."""
    if isinstance(value, bool):
        return True
    if isinstance(value, float) and not value.is_integer():
        return True
    return isinstance(value, (int, float)) and not _INT64.min <= value <= _INT64.max


def _int(value, field: str, path=None) -> int:
    """An integer within int64, from a JSON integer, an integral float or
    a digit string (as the keys of a JSON object are)."""
    try:
        n = None if _bad_number(value) else int(value)
    except (TypeError, ValueError):
        n = None
    if n is None or _bad_number(n):
        raise _fail(f"field {field!r} must be an integer within int64, not {value!r}", path)
    return n


def _mat(data, p: int, field: str, path=None, shape=None) -> np.ndarray:
    """An integer array mod p.  A matrix with no entries is written [],
    which loads with shape (0,); given its shape, it gets that shape.
    Entries must be integers within int64 (_bad_number)."""
    try:
        bad = [x for x in np.asarray(data, dtype=object).flat if _bad_number(x)]
        m = None if bad else np.asarray(data, dtype=np.int64) % p
    except (TypeError, ValueError):
        raise _fail(f"field {field!r} must be a rectangular integer array", path) from None
    if bad:
        raise _fail(f"field {field!r} must hold integers within int64, not {bad[0]!r}", path)
    return m.reshape(shape) if shape is not None and m.size == 0 and 0 in shape else m


def _list(doc: dict, field: str, path=None) -> list:
    if not isinstance(doc[field], list):
        raise _fail(f"field {field!r} must be a list", path)
    return doc[field]


def _ints(doc: dict, field: str, path=None) -> tuple:
    return tuple(_int(i, field, path) for i in _list(doc, field, path))


def _name(doc: dict, default, path=None) -> str:
    if isinstance(name := doc.get("name", default), str):
        return name
    raise _fail(f"field 'name' must be a string, not {name!r}", path)


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(str(exc), line=0, column=0, path=path) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno,
                         path=path) from exc
    except UnicodeDecodeError as exc:
        raise _fail(f"not UTF-8 text (byte {exc.start})", path) from None
    except RecursionError:
        raise _fail("JSON nested too deeply", path) from None
    if not isinstance(doc, dict):
        raise _fail("top-level document must be a JSON object", path)
    return doc


def _require(doc: dict, keys, path=None, field=None) -> dict:
    """doc, which must be a JSON object (field names it) holding keys."""
    if not isinstance(doc, dict):
        raise _fail(f"field {field!r} must be an object", path)
    for key in keys:
        if key not in doc:
            raise _fail(f"missing required field {key!r}", path)
    return doc


# Algebras compare by identity, so identical presentations loaded from
# different parts of a document must resolve to one shared object.
_ALGEBRA_INTERN: dict = {}


def algebra_from_doc(doc: dict, path=None) -> Algebra:
    _require(doc, ("p", "basis", "mul", "unit", "idempotents", "radical"), path)
    p = _int(doc["p"], "p", path)
    mul, unit = _mat(doc["mul"], p, "mul", path), _mat(doc["unit"], p, "unit", path)
    idempotents, radical = _ints(doc, "idempotents", path), _ints(doc, "radical", path)
    name = _name(doc, path or "algebra", path)
    basis = _list(doc, "basis", path)
    # everything the algebra reports, so two documents share one object
    # only when they describe the same algebra under the same names
    key = (name, json.dumps(basis), p, _content(mul), _content(unit), idempotents, radical)
    if key in _ALGEBRA_INTERN:
        return _ALGEBRA_INTERN[key]
    alg = Algebra(
        field=Field(p),
        dim=len(basis),
        basis_labels=tuple(basis),
        mul=mul,
        unit=unit,
        idempotents=idempotents,
        radical_basis=radical,
        name=name,
    )
    alg.validate()
    _ALGEBRA_INTERN[key] = alg
    return alg


def algebra_to_doc(alg: Algebra) -> dict:
    return {
        "p": alg.field.p,
        "basis": list(alg.basis_labels),
        "mul": alg.mul.tolist(),
        "unit": alg.unit.tolist(),
        "idempotents": list(alg.idempotents),
        "radical": list(alg.radical_basis),
        "name": alg.name,
    }


def _resolve(ref, loader, builtin, base=None):
    """Reference: inline dict, builtin fixture name, or file path."""
    if isinstance(ref, dict):
        return loader(ref, None)
    if not isinstance(ref, str):
        raise _fail(f"bad reference {ref!r}", base)
    try:
        return builtin(ref)
    except KeyError:
        pass
    path = ref if os.path.isabs(ref) or base is None else \
        os.path.join(os.path.dirname(base), ref)
    return loader(load_json(path), path)


def _builtin_algebra(name: str) -> Algebra:
    return fixtures.BUILTIN_ALGEBRAS[name]()


def load_algebra(ref, base=None) -> Algebra:
    return _resolve(ref, algebra_from_doc, _builtin_algebra, base)


def _content(x):
    """x as a hashable key: an array by dtype, shape and bytes, a Tail, a
    dict (sorted) or a sequence item by item, and an int, a string, None or
    an interned module or complex as itself."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (Tail, dict)):
        x = (x.period, x.terms, x.diffs) if isinstance(x, Tail) else sorted(x.items())
    return tuple(map(_content, x)) if isinstance(x, (tuple, list)) else x


def _parsed(alg: Algebra, build, *args):
    """build(*args), which checks what it builds, memoized on alg by the
    content of args; a call that raises stores nothing."""
    return modules._memo(alg, ("parsed", build, _content(args)), lambda: build(*args))


def _module(alg, dim, action, name) -> Module:
    mod = Module(alg, dim, action, name=name)
    mod.validate()
    return mod


def module_from_doc(doc: dict, path=None) -> Module:
    _require(doc, ("algebra", "dim", "action"), path)
    alg = load_algebra(doc["algebra"], path)
    p = alg.field.p
    dim = _int(doc["dim"], "dim", path)
    action = tuple(_mat(m, p, "action", path, (dim, dim)) for m in _list(doc, "action", path))
    return _parsed(alg, _module, alg, dim, action, _name(doc, path or "module", path))


def module_to_doc(mod: Module, algebra_ref=None) -> dict:
    return {
        "algebra": algebra_ref if algebra_ref is not None
        else algebra_to_doc(mod.algebra),
        "dim": mod.dim,
        "action": [m.tolist() for m in mod.action],
        "name": mod.name,
    }


def load_module(ref, base=None) -> Module:
    return _resolve(ref, module_from_doc, fixtures.builtin_module, base)


def _tail_from_doc(doc, alg, path, edge, side):
    """(Tail, seam) of the negative (side -1) or positive (side 1) tail,
    whose seam meets the window term edge; each block gets its shape by
    the indexing convention of Complex._blocks."""
    if doc is None:
        return None, None
    _require(doc, ("period", "terms", "diffs"), path, "neg_tail" if side < 0 else "pos_tail")
    p = alg.field.p
    period = _int(doc["period"], "period", path)
    terms = tuple(load_module(t, path) for t in _list(doc, "terms", path))
    raw = _list(doc, "diffs", path)
    if len(terms) != period or len(raw) != period:
        raise _fail("tail terms/diffs length must equal the period", path)
    if not period:  # no blocks: an absent tail, as Complex.build drops it
        return None, None
    dims = [t.dim for t in terms]
    if side < 0:  # diffs[i]: block i -> block i + 1; seam: X_lo -> block 0
        shapes = [(dims[(i + 1) % period], dims[i]) for i in range(period)]
        seam_shape = (dims[0], edge.dim)
    else:  # diffs[i]: block i -> block i - 1 (mod period); seam: block 0 -> X_hi
        shapes = [(dims[i - 1], dims[i]) for i in range(period)]
        seam_shape = (edge.dim, dims[0])
    diffs = tuple(_mat(d, p, "diffs", path, shape) for d, shape in zip(raw, shapes))
    seam = _mat(doc["seam"], p, "seam", path, seam_shape) if "seam" in doc else None
    return Tail(period, terms, diffs), seam


def complex_from_doc(doc: dict, path=None) -> Complex:
    _require(doc, ("window",), path)
    _name(doc, "", path)
    win = _require(doc["window"], ("lo", "hi", "terms", "diffs"), path, "window")
    lo, hi = _int(win["lo"], "lo", path), _int(win["hi"], "hi", path)
    terms = [load_module(t, path) for t in _list(win, "terms", path)]
    if len(terms) != hi - lo + 1:
        raise _fail("window terms must cover lo..hi", path)
    if not terms:
        raise _fail("empty window", path)
    alg = terms[0].algebra
    p = alg.field.p
    raw = _list(win, "diffs", path)
    if len(raw) != max(hi - lo, 0):
        raise _fail("window needs one differential per adjacent pair", path)
    diffs = [_mat(d, p, "diffs", path, (t.dim, s.dim)) for d, t, s in zip(raw, terms, terms[1:])]
    neg_tail, neg_seam = _tail_from_doc(doc.get("neg_tail"), alg, path, terms[0], -1)
    pos_tail, pos_seam = _tail_from_doc(doc.get("pos_tail"), alg, path, terms[-1], 1)
    return _parsed(
        alg, Complex.build, alg, lo, hi,
        {lo + i: t for i, t in enumerate(terms)},
        {lo + 1 + i: d for i, d in enumerate(diffs)},
        neg_tail, pos_tail, neg_seam, pos_seam)


def complex_to_doc(cx: Complex, algebra_ref=None) -> dict:
    mdoc = lambda m: module_to_doc(m, algebra_ref)
    doc = {
        "window": {
            "lo": cx.lo,
            "hi": cx.hi,
            "terms": [mdoc(cx.term(n)) for n in range(cx.lo, cx.hi + 1)],
            "diffs": [cx.diff(n).tolist() for n in range(cx.lo + 1, cx.hi + 1)],
        }
    }
    if cx.neg_tail is not None:
        doc["neg_tail"] = {
            "period": cx.neg_tail.period,
            "terms": [mdoc(t) for t in cx.neg_tail.terms],
            "diffs": [d.tolist() for d in cx.neg_tail.diffs],
            "seam": cx.diff(cx.lo).tolist(),
        }
    if cx.pos_tail is not None:
        doc["pos_tail"] = {
            "period": cx.pos_tail.period,
            "terms": [mdoc(t) for t in cx.pos_tail.terms],
            "diffs": [d.tolist() for d in cx.pos_tail.diffs],
            "seam": cx.diff(cx.hi + 1).tolist(),
        }
    return doc


def load_complex(ref, base=None) -> Complex:
    return _resolve(ref, complex_from_doc, fixtures.builtin_complex, base)


def chain_map_from_doc(doc: dict, path=None) -> ChainMap:
    _require(doc, ("source", "target", "components"), path)
    src = load_complex(doc["source"], path)
    tgt = load_complex(doc["target"], path)
    p = src.algebra.p
    shape = lambda n: (tgt.term(n).dim, src.term(n).dim)
    comps = {}
    for key, m in _require(doc["components"], (), path, "components").items():
        n = _int(key, "components", path)
        comps[n] = _mat(m, p, "components", path, shape(n))
    degs = sorted(comps) or [0]
    clo, chi = degs[0], degs[-1]
    # the map's table spans its window and the complexes' ones, one block
    # per degree, so a gap in or beside the components would be stored
    gap = next(((a + 1, b - 1) for a, b in zip(degs, degs[1:]) if b > a + 1), None)
    if gap:
        raise _fail(f"components skip degrees {gap[0]}..{gap[1]}", path)
    lo, hi = min(src.lo, tgt.lo), max(src.hi, tgt.hi)
    if clo > hi + 1 or chi < lo - 1:
        a, b = (hi + 1, clo - 1) if clo > hi + 1 else (chi + 1, lo - 1)
        raise _fail(f"components at {clo}..{chi} leave degrees {a}..{b} between them and "
                    f"the complexes' windows {lo}..{hi}", path)
    tails = _require(doc.get("tail_components") or {}, (), path, "tail_components")
    unknown = sorted(set(tails) - {"neg", "pos"})
    if unknown:
        raise _fail(f"unknown tail_components key {unknown[0]!r} (expected neg or pos)", path)

    def tail(side, degree):
        """(period, blocks) of one tail, block i at degree(i); with period 0
        it has no blocks, and the map no tail there (GradedMap)."""
        _require(tails[side], ("period", "blocks"), path, side)
        period = _int(tails[side]["period"], "period", path)
        raw = _list(tails[side], "blocks", path)
        if len(raw) != period:
            raise _fail("tail blocks length must equal the period", path)
        return period, tuple(_mat(b, p, "blocks", path, shape(degree(i)))
                             for i, b in enumerate(raw))

    neg = tail("neg", lambda i: clo - 1 - i) if "neg" in tails else None
    pos = tail("pos", lambda i: chi + 1 + i) if "pos" in tails else None
    return _parsed(src.algebra, chain_map, src, tgt, comps, clo, chi, neg, pos)


def chain_map_to_doc(f: ChainMap, source_ref=None, target_ref=None) -> dict:
    doc = {
        "source": source_ref if source_ref is not None
        else complex_to_doc(f.source),
        "target": target_ref if target_ref is not None
        else complex_to_doc(f.target),
        "components": {str(n): m.tolist() for n, m in f.components.items()},
    }
    tails = {side: {"period": t[0], "blocks": [b.tolist() for b in t[1]]}
             for side, t in (("neg", f.neg), ("pos", f.pos)) if t}
    if tails:
        doc["tail_components"] = tails
    return doc


def load_chain_map(ref, base=None) -> ChainMap:
    def _no_builtin(name):
        raise KeyError(name)
    return _resolve(ref, chain_map_from_doc, _no_builtin, base)


_KIND_KEYS = (
    ("mul", "algebra"),
    ("action", "module"),
    ("window", "complex"),
    ("components", "map"),
)


def detect_kind(doc: dict) -> str:
    for key, kind in _KIND_KEYS:
        if key in doc:
            return kind
    raise _fail("cannot determine document kind "
                "(expected one of: mul, action, window, components)")


def load_any(path: str):
    doc = load_json(path)
    kind = detect_kind(doc)
    loader = {"algebra": algebra_from_doc, "module": module_from_doc,
              "complex": complex_from_doc, "map": chain_map_from_doc}[kind]
    return kind, loader(doc, path)
