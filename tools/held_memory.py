"""Memory a round trip on a complete resolution leaves held, and its peak;
or the memory a run of classifications leaves held.

    python3 tools/held_memory.py DN SIDE     # e.g. D12 P, D12 I
    python3 tools/held_memory.py T2D2 SIDE   # T2D2 P or T2D2 I
    python3 tools/held_memory.py classify N  # e.g. classify 100

DN SIDE builds D_n = F_2[x]/(x^n) (fixtures.truncated_polynomial), its
simple module k (modules.simple_modules) and k's complete resolution T
(approx.complete_resolution), then runs equiv.verify_round_trip(T, SIDE),
all under tracemalloc in a fresh process.  T2D2 SIDE runs it on the
first generator of the default family over T_2(D_2) =
fixtures.upper_triangular(D2), 1-Gorenstein and not self-injective: on
side P a complete resolution, on side I a generator of the injective
family (GeneratorFamily.injective), whose fibrant replacements are asked
over the opposite algebra against GeneratorFamily.opposite.  It prints the verdict, the
CPU seconds, the traced memory still held once the round trip has
returned (the report, T and the memos kept on them) and the traced
peak, both in MB of 2^20 bytes, then how many graded maps (chain maps
and homotopies) the round trip leaves alive and how many of them hold a
block table.  CPU time includes tracemalloc's own overhead, which
charges every small allocation, so compare it only between runs of this
script; tools/round_trip_cpu.py times the same round trip untraced.

classify N classifies, under both structure tags and the default family
of the built-in D2, N inclusions X -> X + C: X a new T_per each time and
C one of ten complexes, the shifts -2..2 of contractible_AA and of T_per,
in turn (fixtures).  The cokernel of an inclusion is C itself, so the
remembered orthogonality certificates grow with the distinct C, not with
N, and what X brings is freed with it.  It prints the CPU seconds, the
held and peak traced memory and how many orthogonality results the
complexes remember (modelcat.orthogonal_certificate)."""

import gc
import os
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from singeq import approx, complexes, equiv, fixtures, modelcat, modules  # noqa: E402
from singeq.errors import ValidationError  # noqa: E402


def round_trip(argv: list):
    """The report of the round trip that argv (DN SIDE) names, built and
    run as the module docstring says; exits with the usage or the
    validation error on bad arguments."""
    if len(argv) != 2 or argv[1] not in ("P", "I") or argv[0] != "T2D2" and (
            not argv[0].startswith("D") or not argv[0][1:].isdigit()):
        sys.exit(f"usage: python3 {sys.argv[0]} DN SIDE or T2D2 SIDE, e.g. D12 P or T2D2 I")
    if argv[0] == "T2D2":
        fam = modelcat.default_family(fixtures.upper_triangular(fixtures.D2(), "T2(D2)"))
        X = (fam.generators if argv[1] == "P" else fam.injective.generators)[0]
        return equiv.verify_round_trip(X, argv[1])
    try:
        alg = fixtures.truncated_polynomial(int(argv[0][1:]), 2, argv[0])
    except ValidationError as exc:
        sys.exit(f"{argv[0]}: {exc}")
    k = modules.simple_modules(alg)[0]
    T, _ = approx.complete_resolution(k)
    return equiv.verify_round_trip(T, argv[1])


def classify(argv: list) -> int:
    """Classifies the N maps that argv (classify N) names, as the module
    docstring says, and returns how many complexes were C."""
    if len(argv) != 2 or not argv[1].isdigit():
        sys.exit(f"usage: python3 {sys.argv[0]} classify N, e.g. classify 100")
    fam = modelcat.default_family(fixtures.D2())
    bases = (fixtures.contractible_AA(), fixtures.t_per())
    Cs = [complexes.reindex(C, k) for C in bases for k in range(-2, 3)]
    for i in range(int(argv[1])):
        X = fixtures.t_per.__wrapped__()  # the fixture's builder, past its cache
        inclusion = complexes.direct_sum_complex(X, Cs[i % len(Cs)])[1]
        for tag in modelcat.TAGS:
            modelcat.classify_map(inclusion, tag, fam)
    return len(Cs)


def remembered() -> int:
    """How many orthogonality results the live complexes remember, each
    under a generator family in their _solved store."""
    return sum(len(entries) for o in gc.get_objects()
               if isinstance(o, complexes.Complex) and "_solved" in vars(o)
               for key, entries in o._solved.items()
               if isinstance(key, modelcat.GeneratorFamily))


def main(argv: list) -> int:
    run = classify if argv[:1] == ["classify"] else round_trip
    tracemalloc.start()
    start = time.process_time()
    result = run(argv)
    cpu = time.process_time() - start
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    memory = f"cpu {cpu:.2f} s, held {held / 2**20:.1f} MB, peak {peak / 2**20:.1f} MB"
    if run is classify:
        print(f"classify {argv[1]}: {memory}, "
              f"{remembered()} orthogonality results remembered for {result} distinct C")
        return 0
    maps = [o for o in gc.get_objects() if isinstance(o, complexes.GradedMap)]
    tables = sum("_blocks" in vars(o) for o in maps)
    print(f"{argv[0]} {argv[1]}: verdict {result.verdict}, {memory}, "
          f"{len(maps)} graded maps alive, {tables} with a table")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
