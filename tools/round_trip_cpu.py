"""CPU time of a round trip on a complete resolution, untraced.

    python3 tools/round_trip_cpu.py DN SIDE     # e.g. D12 P, D16 P

builds and runs the round trip that tools/held_memory.py measures (D_n =
F_2[x]/(x^n), its simple module k, k's complete resolution T and
equiv.verify_round_trip(T, SIDE)) in a fresh process without
tracemalloc, and prints the verdict and the process CPU seconds from the
build to the verdict."""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from held_memory import round_trip  # noqa: E402


def main(argv: list) -> int:
    start = time.process_time()
    report = round_trip(argv)
    cpu = time.process_time() - start
    print(f"{argv[0]} {argv[1]}: verdict {report.verdict}, untraced cpu {cpu:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
