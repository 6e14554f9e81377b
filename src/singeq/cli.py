"""Command-line driver: parse inputs, run checks, emit a structured report.

Exit codes: 0 on overall YES, 1 if any check answers NO, 2 if a required
check stays UNKNOWN or a search runs out of its Options bound, 64 on usage
errors, 65 on invalid or unsupported input (a parse error, or any other
package error such as a ValidationError or NotGorensteinError, named on
stderr), 70 on internal errors.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

import click
import numpy as np

from . import approx, equiv, fixtures, formats, functors, homotopy, modelcat, modules
from .complexes import ChainMap, Complex, GradedMap
from .config import default_options
from .errors import (AlgebraMismatch, IsomorphismUndecided, LiftError, ParseError,
                     PeriodicityError, SingeqError)
from .homotopy import NO, UNKNOWN, YES, Certificate
from .modules import Module, ModuleMap


# -- report ------------------------------------------------------------


def _digest_bytes(obj, h) -> None:
    if obj is None:
        h.update(b"none")
    elif isinstance(obj, np.ndarray):
        h.update(obj.astype(np.int64).tobytes())
    elif isinstance(obj, Certificate):
        h.update(obj.kind.encode())
        _digest_bytes(obj.payload, h)
    elif isinstance(obj, ModuleMap):
        _digest_bytes(obj.matrix, h)
    elif isinstance(obj, Module):
        h.update(str(obj.dim).encode())
        for a in obj.action:
            _digest_bytes(a, h)
    elif isinstance(obj, GradedMap):
        for n in range(obj.clo, obj.chi + 1):
            _digest_bytes(obj.component(n), h)
        for tail in (obj.neg, obj.pos):
            if tail is not None:
                for b in tail[1]:
                    _digest_bytes(b, h)
    elif isinstance(obj, Complex):
        for n in range(obj.lo, obj.hi + 1):
            _digest_bytes(obj.term(n), h)
            _digest_bytes(obj.diff(n), h)
    elif isinstance(obj, dict):
        for k in sorted(obj, key=str):
            h.update(str(k).encode())
            _digest_bytes(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            _digest_bytes(x, h)
    else:
        h.update(repr(obj).encode())


def digest(obj) -> str:
    if obj is None:
        return "-"
    h = hashlib.sha256()
    _digest_bytes(obj, h)
    return h.hexdigest()[:12]


@dataclass
class Entry:
    name: str
    verdict: str  # YES | NO | UNKNOWN
    digest: str = "-"
    seconds: float = 0.0
    detail: str = ""
    required: bool = True


@dataclass
class Report:
    """A command's entries; each entry's time runs from the previous add,
    the first's from the report's creation at the command's start."""

    command: str
    seed: int
    entries: list = field(default_factory=list)
    # the clock at the last add; looked up per report, as add looks it up
    mark: float = field(default_factory=lambda: time.perf_counter())

    def add(self, name, verdict, evidence=None, detail="", required=True):
        self.entries.append(Entry(name, verdict, digest(evidence),
                                  (now := time.perf_counter()) - self.mark, detail, required))
        self.mark = now

    @property
    def overall(self) -> str:
        if any(e.verdict == NO for e in self.entries):
            return NO
        if any(e.verdict == UNKNOWN and e.required for e in self.entries):
            return UNKNOWN
        return YES

    @property
    def exit_code(self) -> int:
        return {YES: 0, NO: 1, UNKNOWN: 2}[self.overall]

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "seed": self.seed,
            "entries": [
                {"name": e.name, "verdict": e.verdict, "digest": e.digest,
                 "time": round(e.seconds, 6), "detail": e.detail,
                 "required": e.required}
                for e in self.entries
            ],
            "overall": self.overall,
        }

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.to_dict(), indent=2)
        lines = [f"command: {self.command}", f"seed: {self.seed}"]
        for e in self.entries:
            extra = f"  [{e.detail}]" if e.detail else ""
            lines.append(f"{e.name}: {e.verdict}"
                         f" (digest {e.digest}, {e.seconds:.3f}s){extra}")
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines)


def _emit(ctx, report: Report) -> int:
    click.echo(report.render(ctx.obj["format"]))
    return report.exit_code


# -- command group -----------------------------------------------------


@click.group()
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True,
              help="Report rendering on standard output.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed echoed into the report; it changes no computation (the "
                   "random isomorphism search is always seeded with 0).")
@click.pass_context
def cli(ctx, fmt, seed):
    """Verification toolkit for exact complexes over small algebras."""
    ctx.ensure_object(dict)
    ctx.obj["format"] = fmt
    ctx.obj["seed"] = seed
    ctx.obj["options"] = default_options()


def _report(ctx, command: str) -> Report:
    return Report(command, ctx.obj["seed"])


def _describe(obj) -> str:
    if isinstance(obj, Module):
        return f"module of dim {obj.dim} over {obj.algebra.name or 'algebra'}"
    if isinstance(obj, Complex):
        dims = ",".join(str(obj.term(n).dim) for n in range(obj.lo, obj.hi + 1))
        tails = ("" if obj.bounded() else
                 f", tail periods ({obj.neg_period},{obj.pos_period})")
        return (f"complex over {obj.algebra.name or 'algebra'}, window "
                f"{obj.lo}..{obj.hi} with dims [{dims}]{tails}")
    if isinstance(obj, ChainMap):
        return f"chain map: {_describe(obj.source)} -> {_describe(obj.target)}"
    return f"algebra {obj.name or ''} of dim {obj.dim}".strip()


@cli.command()
@click.argument("file", type=click.Path())
@click.pass_context
def validate(ctx, file):
    """Check an algebra/module/complex/map file for well-formedness."""
    report = _report(ctx, f"validate {file}")
    kind, obj = formats.load_any(file)
    report.add(f"{kind} well-formed", YES, obj, detail=_describe(obj))
    return _emit(ctx, report)


_FUNCTORS = {"F": functors.apply_F, "G": functors.apply_G,
             "omega": functors.omega, "theta": functors.theta}


@cli.command()
@click.argument("which", type=click.Choice(list(_FUNCTORS)))
@click.argument("file", type=click.Path())
@click.pass_context
def functor(ctx, which, file):
    """Apply a degree-zero functor to the complex in FILE."""
    report = _report(ctx, f"functor {which} {file}")
    out = _FUNCTORS[which](formats.load_complex(file))
    report.add(f"{which} applied", YES, out, detail=_describe(out))
    return _emit(ctx, report)


def _load_family(path, algebra, options):
    if path is None:
        return modelcat.default_family(algebra, options)
    doc = {"generators": [], "shift_range": options.shift_range, **formats.load_json(path)}
    gens = tuple(formats.load_complex(ref, path)
                 for ref in formats._list(doc, "generators", path))
    for i, T in enumerate(gens):  # else a check fails deep inside, or passes
        if T.algebra is not algebra:
            raise AlgebraMismatch(
                f"{path}: generator {i} lives over {_describe(T.algebra)}"
                + " (another algebra of that name)" * (T.algebra.name == algebra.name)
                + f", but the input over {_describe(algebra)}")
    return modelcat.GeneratorFamily(
        gens, formats._int(doc["shift_range"], "shift_range", path))


@cli.command()
@click.argument("file", type=click.Path())
@click.option("--structure", type=click.Choice(["ctr", "co"]), required=True,
              help="Which of the two model structures to classify against.")
@click.option("--family", "family_path", type=click.Path(), default=None,
              help="Generator-family file; defaults to the built-in family.")
@click.pass_context
def classify(ctx, file, structure, family_path):
    """Classify the chain map in FILE within one model structure."""
    options = ctx.obj["options"]
    report = _report(ctx, f"classify {file} --structure {structure}")
    f = formats.load_chain_map(file)
    fam = _load_family(family_path, f.source.algebra, options)
    cls = modelcat.classify_map(f, structure, fam, options)
    # the entry verdict records whether the class was decided; the decision
    # itself ("is"/"is not") is the detail, since a map failing to be a
    # cofibration is an answer, not a failed check
    for name, flag in (("cofibration", cls.cofibration),
                       ("trivial cofibration", cls.trivial_cofibration),
                       ("fibration", cls.fibration),
                       ("trivial fibration", cls.trivial_fibration)):
        decided = flag.verdict in (YES, NO)
        detail = ("undecided against family" if not decided else
                  ("is" if flag.verdict == YES else "is not")
                  + (f" ({flag.reason})" if flag.reason else ""))
        report.add(name, YES if decided else UNKNOWN, flag.certificate,
                   detail=detail, required=False)
    return _emit(ctx, report)


@cli.command()
@click.argument("file", type=click.Path())
@click.option("--which", type=click.Choice(["cofibrant-ctr", "fibrant-co"]),
              required=True, help="Replacement direction.")
@click.option("--family", "family_path", type=click.Path(), default=None)
@click.pass_context
def replace(ctx, file, which, family_path):
    """Replace the stalk complex in FILE by a certified (co)fibrant object."""
    options = ctx.obj["options"]
    report = _report(ctx, f"replace {file} --which {which}")
    S = formats.load_complex(file)
    fam = _load_family(family_path, S.algebra, options)
    rep = approx.stalk_replacement(S, which.replace("-", "_"), fam, options)
    report.add("replacement built", YES, rep.object, detail=_describe(rep.object))
    member = homotopy.is_exP if which == "cofibrant-ctr" else homotopy.is_exI
    ok = member(rep.object, options)
    report.add("membership", YES if ok else NO)
    surj = rep.map.is_epi() if which == "cofibrant-ctr" else rep.map.is_mono()
    report.add("comparison map mono/epi", YES if surj else NO, rep.map)
    report.add("upper piece orthogonal", _orth_verdict(rep.upper),
               rep.upper.certificate)
    report.add("lower piece orthogonal", _orth_verdict(rep.lower),
               rep.lower.certificate)
    return _emit(ctx, report)


def _orth_verdict(res) -> str:
    return {modelcat.CERTIFIED: YES, modelcat.REFUTED: NO}.get(
        res.verdict, UNKNOWN)


@cli.command("verify-equivalence")
@click.argument("file", type=click.Path())
@click.option("--side", type=click.Choice(["auto", "P", "I"]), default="auto",
              show_default=True,
              help="Round-trip direction; auto picks from membership.")
@click.pass_context
def verify_equivalence(ctx, file, side):
    """Run the round-trip equivalence check on the complex in FILE."""
    options = ctx.obj["options"]
    report = _report(ctx, f"verify-equivalence {file}")
    X = formats.load_complex(file)
    if side == "auto":
        if homotopy.is_exP(X, options):
            side = "P"
        elif homotopy.is_exI(X, options):
            side = "I"
        else:
            report.add("membership", NO,
                       detail="input is neither an exact complex of "
                              "projectives nor of injectives")
            return _emit(ctx, report)
    report.add("membership", YES, detail=f"side {side}")
    rt = equiv.verify_round_trip(X, side, options=options)
    report.add("round trip", rt.verdict, rt.certificate)
    report.add("composite weak equivalence", rt.composite_check)
    return _emit(ctx, report)


_DEMO_FIXTURES = {"D2-Tper": fixtures.t_per}


@cli.command()
@click.argument("name", type=click.Choice(sorted(_DEMO_FIXTURES)))
@click.pass_context
def demo(ctx, name):
    """Run the full verification pipeline on a named built-in fixture."""
    options = ctx.obj["options"]
    report = _report(ctx, f"demo {name}")
    X = _DEMO_FIXTURES[name]()
    d = modules.gorenstein_dimension(X.algebra, options.gorenstein_bound)
    report.add("gorenstein base algebra", NO if d is None else YES, detail=f"dimension {d}")
    flags = modelcat.membership_flags(X, options)
    report.add("input in exP and exI", YES if flags.in_exP and flags.in_exI else NO)
    eps = functors.counit(X)
    wk = modelcat.is_weak_equivalence(eps, "co", options=options)
    report.add("counit weak equivalence", wk.verdict, wk.certificate)
    rep = approx.stalk_replacement(functors.apply_F(X), "cofibrant_ctr",
                                   options=options)
    report.add("cofibrant stalk replacement", rep.verdict, rep.object)
    for side in ("P", "I"):
        rt = equiv.verify_round_trip(X, side, options=options)
        report.add(f"verify_round_trip side {side}", rt.verdict, rt.certificate)
        report.add(f"composite check side {side}", rt.composite_check)
    return _emit(ctx, report)


def main(argv=None) -> int:
    try:
        code = cli.main(args=argv, prog_name="singeq", standalone_mode=False)
    except click.exceptions.Exit as exc:
        code = exc.exit_code
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        code = 64
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        code = 65
    except (PeriodicityError, LiftError, IsomorphismUndecided) as exc:
        # a search ran out of its bound: the answer is UNKNOWN, not bad input
        click.echo(f"unknown: {exc}", err=True)
        code = 2
    except SingeqError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        code = 65
    except Exception as exc:
        click.echo(f"internal error: {exc!r}", err=True)
        code = 70
    if argv is None:
        sys.exit(code or 0)
    return code or 0


if __name__ == "__main__":
    main()
