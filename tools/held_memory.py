"""Memory a round trip on a complete resolution leaves held, and its peak.

    python3 tools/held_memory.py DN SIDE     # e.g. D12 P, D12 I

builds D_n = F_2[x]/(x^n) (fixtures.truncated_polynomial), its simple
module k (modules.simple_modules) and k's complete resolution T
(approx.complete_resolution), then runs equiv.verify_round_trip(T, SIDE),
all under tracemalloc in a fresh process.  It prints the verdict, the
CPU seconds, the traced memory still held once the round trip has
returned (the report, T and the memos kept on them) and the traced
peak, both in MB of 2^20 bytes, then how many graded maps (chain maps
and homotopies) the round trip leaves alive and how many of them hold a
block table.  CPU time includes tracemalloc's own overhead, which
charges every small allocation, so compare it only between runs of this
script; tools/round_trip_cpu.py times the same round trip untraced."""

import gc
import os
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from singeq import approx, complexes, equiv, fixtures, modules  # noqa: E402
from singeq.errors import ValidationError  # noqa: E402


def round_trip(argv: list):
    """The report of the round trip that argv (DN SIDE) names, built and
    run as the module docstring says; exits with the usage or the
    validation error on bad arguments."""
    if len(argv) != 2 or not argv[0].startswith("D") or not argv[0][1:].isdigit() \
            or argv[1] not in ("P", "I"):
        sys.exit(f"usage: python3 {sys.argv[0]} DN SIDE, e.g. D12 P or D12 I")
    try:
        alg = fixtures.truncated_polynomial(int(argv[0][1:]), 2, argv[0])
    except ValidationError as exc:
        sys.exit(f"{argv[0]}: {exc}")
    k = modules.simple_modules(alg)[0]
    T, _ = approx.complete_resolution(k)
    return equiv.verify_round_trip(T, argv[1])


def main(argv: list) -> int:
    tracemalloc.start()
    start = time.process_time()
    report = round_trip(argv)
    cpu = time.process_time() - start
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    maps = [o for o in gc.get_objects() if isinstance(o, complexes.GradedMap)]
    tables = sum("_blocks" in vars(o) for o in maps)
    print(f"{argv[0]} {argv[1]}: verdict {report.verdict}, cpu {cpu:.2f} s, "
          f"held {held / 2**20:.1f} MB, peak {peak / 2**20:.1f} MB, "
          f"{len(maps)} graded maps alive, {tables} with a table")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
