"""The three benchmark workloads: inputs, the timed check, and its oracle.

Each workload has ``setup(seed)`` (input generation, outside the timed
phase), ``run(spec)`` (one check, timed), ``oracle(spec, result)`` (run
after the timed phase, returns a failure reason or None) and
``final_oracle()`` (whole-run checks).  ``key(spec)`` identifies the input,
to report how often an input repeats an earlier one.  Every check passes
``Options()`` explicitly.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time

import numpy as np

import inputs
from singeq import (algebra, approx, cli, complexes, equiv, fixtures, functors,
                    homotopy, modelcat, modules, solver)
from singeq.config import Options

YES, NO, UNKNOWN = homotopy.YES, homotopy.NO, homotopy.UNKNOWN
OPTIONS = Options()


def _arr(rows, r, c):
    return np.array(rows, dtype=np.int64).reshape(r, c)


# -- htpy-dn --------------------------------------------------------------


def truncated_polynomial_algebra(n: int, p: int) -> algebra.Algebra:
    """D_n = F_p[x]/(x^n) in the basis 1, x, ..., x^(n-1)."""
    mul = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n - i):
            mul[i, j, i + j] = 1
    unit = np.zeros(n, dtype=np.int64)
    unit[0] = 1
    alg = algebra.Algebra(algebra.Field(p), n, tuple(f"x^{i}" for i in range(n)),
                          mul, unit, (0,), tuple(range(1, n)), name=f"D{n}/F{p}")
    alg.validate()
    return alg


def periodic_complex(alg: algebra.Algebra, j: int) -> complexes.Complex:
    """T_j = (... -> A -x^j-> A -x^(n-j)-> A -> ...), d_even = x^j."""
    n = alg.dim
    A = modules.regular_module(alg)
    xj, xnj = alg.left_multiplication(j), alg.left_multiplication(n - j)
    return complexes.complex_from_callable(
        alg, 0, 1, lambda d: A, lambda d: xj if d % 2 == 0 else xnj, 2, 2)


class HtpyDn:
    """Null-homotopy decisions between the periodic complexes over D_n.

    Varies the size of the dense systems (n and p) and the verdict.  Each
    stratum fixes (n, p, verdict); the random combination of the basis is
    drawn until the closed form gives that verdict, so the share of
    expensive YES decisions (periodic search) does not depend on the seed.
    """

    name = "htpy-dn"
    # (n, p, verdict) -> checks per block of 40.  NO is refuted by the
    # stable criterion (about 0.04 s at n = 3, 0.09 s at n = 4); YES needs
    # the periodic search (0.14 s for D3/F2, 0.27 s for D3/F3, 0.4 s for
    # D4/F2, 0.9 s for D4/F3).  The weights put p50 mid-way into the n = 4
    # NO decisions and p90 mid-way into the D4/F2 YES decisions, away from
    # cost steps, so that both percentiles follow one kind of decision.
    weights = {(3, 2, NO): 6, (3, 3, NO): 6, (4, 2, NO): 8, (4, 3, NO): 8,
               (3, 2, YES): 2, (3, 3, YES): 3, (4, 2, YES): 6, (4, 3, YES): 1}
    shifts = (0, 1)
    max_checks = 2000
    checks_per_s = 5  # about how many checks a reference second holds
    cross_checks = 2  # NO verdicts re-searched for a periodic homotopy
    max_draws = 1000

    def setup(self, seed: int, count: int):
        rng = random.Random(seed)
        self.T = {}
        self.shifted = {}
        for n, p in sorted({(n, p) for n, p, _ in self.weights}):
            alg = truncated_polynomial_algebra(n, p)
            for j in range(1, n):
                self.T[n, p, j] = periodic_complex(alg, j)
                for s in self.shifts:
                    self.shifted[n, p, j, s] = complexes.reindex(self.T[n, p, j], s)
        # Warm-up, so that the first decision on each complex does not also
        # pay for its membership and syzygy caches: decide the identity of
        # every T_j (an oracle: it must be NO) and classify every shift.
        self.identity_failures = []
        for (n, p, j), T in self.T.items():
            res = homotopy.null_homotopy(complexes.identity_chain_map(T), OPTIONS)
            if res.verdict != NO:
                self.identity_failures.append(
                    f"identity of T_{j} over D{n}/F{p}: {res.verdict}")
        for Y in self.shifted.values():
            homotopy.is_exP(Y, OPTIONS)
            functors.omega_data(Y)
        # every (i, j, s) of a stratum comes once before any comes again
        cycles = {key: inputs.Cycle(rng, [(i, j, s) for i in range(1, key[0])
                                          for j in range(1, key[0])
                                          for s in self.shifts])
                  for key in self.weights}
        specs = []
        for n, p, verdict in inputs.blocks(rng, self.weights, count):
            i, j, s = cycles[n, p, verdict].next()
            specs.append((n, p, i, j, s, verdict, rng.getrandbits(32)))
        self.deferred = []
        return specs

    def key(self, spec):
        return spec

    def run(self, spec):
        n, p, i, j, s, verdict, coeff_seed = spec
        X, Y = self.T[n, p, i], self.shifted[n, p, j, s]
        basis, _ = solver.chain_map_space_basis(X, Y, OPTIONS)
        t0 = time.process_time()
        coeffs = self.coefficients(spec, basis)
        untimed = time.process_time() - t0
        f = complexes.zero_chain_map(X, Y)
        for b, c in zip(basis, coeffs):
            if c:
                f = complexes.add_maps(f, b, sign=c)
        res = homotopy.null_homotopy(f, OPTIONS)
        return {"verdict": res.verdict, "map": f, "homotopy": res.homotopy,
                "untimed_s": untimed}

    def coefficients(self, spec, basis):
        """Random coefficients whose combination has the stratum's verdict."""
        n, p, i, j, s, verdict, coeff_seed = spec
        rng = random.Random(coeff_seed)
        cut = self.cut(n, i, j, s)
        low = [b.component(0)[:cut, 0] for b in basis]
        for _ in range(self.max_draws):
            c = [rng.randrange(p) for _ in basis]
            g = sum((ck * lk for ck, lk in zip(c, low)), np.zeros(cut, dtype=np.int64)) % p
            if (not g.any()) == (verdict == YES):
                return c
        raise ValueError(f"no combination of the basis gives {verdict}")

    @staticmethod
    def cut(n, i, j, s) -> int:
        """Omega(T_i) = A/(x^(n-i)), Omega(T_j[s]) = A/(x^b), b = n-j for
        even s and j for odd s; Omega(f) factors through A iff x^min(i, b)
        divides the element g by which f_0 multiplies."""
        return min(i, n - j if s % 2 == 0 else j)

    @classmethod
    def stably_zero(cls, spec, f) -> bool:
        """Closed form (Buchweitz): f ~ 0 iff Omega(f) factors through A."""
        n, p, i, j, s = spec[:5]
        return not (f.component(0)[: cls.cut(n, i, j, s), 0] % p).any()

    def oracle(self, spec, result):
        f, verdict = result["map"], result["verdict"]
        zero = self.stably_zero(spec, f)
        if verdict == NO and zero:
            return "NO for a stably zero map"
        if verdict in (YES, UNKNOWN) and not zero:
            return f"{verdict} for a stably nonzero map"
        if verdict == YES and not homotopy.verify_null_homotopy(f, result["homotopy"]):
            return "YES homotopy does not verify"
        if verdict == NO and len(self.deferred) < self.cross_checks:
            self.deferred.append((spec, f))
        return None

    def final_oracle(self):
        failures = []
        # criterion 7's cross-check; kept out of the timed loop because its
        # systems are the largest of the run and would set the peak RSS
        for spec, f in self.deferred:
            for m in range(1, OPTIONS.homotopy_period_bound + 1):
                if homotopy.search_periodic_homotopy(f, m) is not None:
                    failures.append(f"{spec}: NO but a periodic homotopy "
                                    f"exists at m={m}")
        return failures + self.identity_failures


# -- pipeline-d2 ----------------------------------------------------------


def d2_module(kinds_and_x) -> modules.Module:
    _, x = kinds_and_x
    d = len(x)
    return modules.Module(fixtures.D2(), d, (np.eye(d, dtype=np.int64), _arr(x, d, d)))


def d2_complex(spec) -> complexes.Complex:
    terms = {}
    for n, (d, x) in spec["terms"].items():
        terms[n] = modules.Module(fixtures.D2(), d,
                                  (np.eye(d, dtype=np.int64), _arr(x, d, d)))
    diffs = {n: _arr(m, terms[n - 1].dim, terms[n].dim)
             for n, m in spec["diffs"].items()}
    return complexes.Complex.build(fixtures.D2(), 0, len(terms) - 1, terms, diffs)


def _freeze(obj):
    if isinstance(obj, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(v) for v in obj)
    return obj


class PipelineD2:
    """Fixture-scale checks over D2 and T2, a new input object per check.

    Varies the kind of check across four pipelines on many small objects.
    Every check brings new complex objects, so the id-keyed caches grow
    with every check; module presentations and round-trip stalks repeat,
    so the replacement cache also hits.
    """

    name = "pipeline-d2"
    # checks per block of 20.  Adjunctions and cache-hit replacements take
    # a few ms, classifications 0.05-0.2 s, round trips 0.05-1.2 s: p50 falls
    # inside the classifications and p90 inside the round trips.
    weights = {"adjunction": 3, "cofibration": 10, "replacement": 3,
               "round_trip": 4}
    targets = ("T_per[-1]", "T_per", "T_per[1]", "k", "A")
    max_checks = 1500
    checks_per_s = 10

    def setup(self, seed: int, count: int):
        rng = random.Random(seed)
        targets = inputs.Cycle(rng, self.targets)
        replacements = inputs.Cycle(rng, [(m, w) for m in ("k", "A", "A2", "S2")
                                          for w in ("cofibrant_ctr", "fibrant_co")])
        round_trips = inputs.Cycle(rng, (-2, -1, 0, 1, 2, "cone"))
        specs = []
        for kind in inputs.blocks(rng, self.weights, count):
            if kind == "adjunction":
                spec = (kind, inputs.random_d2_complex(rng, 4, 3), targets.next())
            elif kind == "cofibration":
                shifts = (rng.randint(-2, 2),) + (
                    (rng.randint(0, 1),) if rng.random() < 1 / 3 else ())
                spec = (kind, inputs.random_d2_complex(rng, 3, 2), shifts)
            elif kind == "replacement":
                module, which = replacements.next()
                if module != "S2":
                    module = inputs.random_d2_module(rng, module)
                spec = (kind, module, which)
            else:
                spec = (kind, round_trips.next(), "P")
            specs.append(spec)
        return specs

    def key(self, spec):
        return _freeze(spec)

    def run(self, spec):
        kind = spec[0]
        return getattr(self, "_" + kind)(*spec[1:])

    def _target(self, name):
        if name == "k":
            return functors.stalk(fixtures.simple_k())
        if name == "A":
            return functors.stalk(fixtures.regular_D2())
        shift = {"T_per[-1]": -1, "T_per": 0, "T_per[1]": 1}[name]
        return complexes.reindex(fixtures.t_per(), shift)

    def _adjunction(self, cx, target):
        X, Y = d2_complex(cx), self._target(target)
        left, complete_l = solver.chain_map_space_basis(functors.apply_F(X), Y, OPTIONS)
        right, complete_r = solver.chain_map_space_basis(X, functors.apply_G(Y), OPTIONS)
        w = functors.AdjunctionWitness(X, Y)
        return {"verdict": YES, "w": w, "left": left, "right": right,
                "forward": [w.forward(f) for f in left],
                "backward": [w.backward(g) for g in right],
                "complete": complete_l and complete_r}

    def _cofibration(self, cx, shifts):
        X = d2_complex(cx)
        C = complexes.reindex(fixtures.contractible_AA(), shifts[0])
        if len(shifts) > 1:
            C = complexes.direct_sum_complex(
                C, complexes.reindex(fixtures.contractible_AA(), shifts[1]))[0]
        _, iX, _, _, _ = complexes.direct_sum_complex(X, C)
        fam = modelcat.default_family(fixtures.D2(), OPTIONS)
        out = {tag: modelcat.classify_map(iX, tag, fam, OPTIONS)
               for tag in modelcat.TAGS}
        out["verdict"] = YES
        return out

    def _replacement(self, module, which):
        if module == "S2":
            S = functors.stalk(fixtures.S2())
        else:
            S = functors.stalk(d2_module(module))
        rep = approx.stalk_replacement(S, which, None, OPTIONS)
        return {"verdict": rep.verdict, "rep": rep}

    def _round_trip(self, shift, side):
        if shift == "cone":
            AT2 = modules.regular_module(fixtures.T2())
            X = complexes.cone(complexes.identity_chain_map(functors.stalk(AT2)))
        else:
            X = complexes.reindex(fixtures.t_per(), shift)
        rt = equiv.verify_round_trip(X, side, None, OPTIONS)
        return {"verdict": rt.verdict, "rt": rt}

    # expected (cofibration, trivial cofibration, fibration, trivial
    # fibration) for X -> X + C with C contractible and nonzero
    EXPECTED_CLASS = (YES, YES, NO, NO)

    def oracle(self, spec, r):
        kind = spec[0]
        if kind == "adjunction":
            if not r["complete"] or len(r["left"]) != len(r["right"]):
                return "adjunction hom spaces differ in dimension"
            w = r["w"]
            for f, g in zip(r["left"], r["forward"]):
                if not complexes.add_maps(w.backward(g), f, sign=-1).is_zero():
                    return "backward(forward(f)) != f"
            for g, f in zip(r["right"], r["backward"]):
                if not complexes.add_maps(w.forward(f), g, sign=-1).is_zero():
                    return "forward(backward(g)) != g"
            return None
        if kind == "cofibration":
            for tag in modelcat.TAGS:
                cls = r[tag]
                flags = (cls.cofibration, cls.trivial_cofibration,
                         cls.fibration, cls.trivial_fibration)
                got = tuple(fl.verdict for fl in flags)
                if got != self.EXPECTED_CLASS:
                    return f"{tag} classification {got}"
                for fl in flags:
                    cert = fl.certificate
                    if isinstance(cert, homotopy.Certificate) and \
                            not homotopy.verify_certificate(cert):
                        return f"{tag} certificate does not verify"
            return None
        if kind == "replacement":
            rep = r["rep"]
            if rep.verdict != YES:
                return f"replacement verdict {rep.verdict}"
            for piece in (rep.upper, rep.lower):
                if piece.certificate is None or \
                        not homotopy.verify_certificate(piece.certificate):
                    return "orthogonality certificate does not verify"
            if spec[2] == "cofibrant_ctr":
                ok = (homotopy.is_exP(rep.object, OPTIONS) and rep.map.is_epi()
                      and rep.witness.is_invertible())
            else:
                ok = (homotopy.is_exI(rep.object, OPTIONS) and rep.map.is_mono()
                      and rep.witness.is_injective())
            return None if ok else "replacement object or map has the wrong class"
        rt = r["rt"]
        if rt.verdict != YES or rt.composite_check != YES:
            return f"round trip {rt.verdict}/{rt.composite_check}"
        if not homotopy.verify_certificate(rt.certificate):
            return "round-trip certificate does not verify"
        return None

    def final_oracle(self):
        return []


# -- cli-session ----------------------------------------------------------


class CliSession:
    """A session of singeq commands on the shipped fixtures, one process.

    Most commands repeat, so this is the workload where the caches are
    read more often than written, and the only one through formats and cli.
    """

    name = "cli-session"
    max_checks = 20000
    checks_per_s = 5
    # stratum -> (checks per block of 20, argv tails).  Warm costs: validate,
    # functor, classify and replace 1-10 ms, verify-equivalence 0.1-0.2 s,
    # demo 0.3-0.5 s.  p50 falls inside verify-equivalence and p90 inside
    # demo: a median of checks that take a few ms jumps between the host's
    # fast and slow states, while longer checks average over them.
    # The tails of a stratum are cycled: each comes once before any repeats.
    commands = {
        "validate": (2, [["validate", f"fixtures/{f}"] for f in (
            "d2.alg", "t2.alg", "f2.alg", "k.mod", "a.mod", "s1.mod", "s2.mod",
            "tper.cx", "kstalk.cx", "contractible.cx", "xid.map")]),
        "functor": (2, [["functor", w, f"fixtures/{f}"]
                        for w in ("F", "G", "omega", "theta")
                        for f in ("tper.cx", "kstalk.cx", "contractible.cx")]),
        "classify-ctr": (1, [["classify", "fixtures/xid.map", "--structure", "ctr"]]),
        "classify-co": (1, [["classify", "fixtures/xid.map", "--structure", "co"]]),
        "replace-ctr": (1, [["replace", "fixtures/kstalk.cx", "--which", "cofibrant-ctr"]]),
        "replace-co": (1, [["replace", "fixtures/kstalk.cx", "--which", "fibrant-co"]]),
        "verify-equivalence": (6, [["verify-equivalence", "fixtures/tper.cx",
                                    "--side", s] for s in ("auto", "P", "I")]),
        "demo": (6, [["demo", "D2-Tper"]]),
    }

    def __init__(self, root: str):
        self.root = root

    def setup(self, seed: int, count: int):
        rng = random.Random(seed)
        weights = {k: w for k, (w, _) in self.commands.items()}
        tails = {k: inputs.Cycle(rng, t) for k, (_, t) in self.commands.items()}
        specs = []
        for stratum in inputs.blocks(rng, weights, count):
            argv = ["--format", "json", "--seed", str(seed)]
            specs.append(tuple(argv + [os.path.join(self.root, a)
                                       if a.startswith("fixtures/") else a
                                       for a in tails[stratum].next()]))
        return specs

    def key(self, spec):
        return spec

    def run(self, spec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(spec))
        verdict = {0: YES, 1: NO, 2: UNKNOWN}.get(code, "ERROR")
        return {"verdict": verdict, "code": code,
                "stdout": out.getvalue(), "stderr": err.getvalue()}

    def oracle(self, spec, r):
        if r["code"] != 0:
            return f"exit code {r['code']}: {r['stderr'].strip()[:200]}"
        try:
            report = json.loads(r["stdout"])
        except ValueError:
            return "report is not JSON"
        bad = [e["name"] for e in report["entries"] if e["verdict"] != YES]
        if bad or report["overall"] != YES or not report["entries"]:
            return f"entries not YES: {bad}"
        return None

    def final_oracle(self):
        return []


def make(name: str, root: str):
    if name == HtpyDn.name:
        return HtpyDn()
    if name == PipelineD2.name:
        return PipelineD2()
    if name == CliSession.name:
        return CliSession(root)
    raise KeyError(name)

