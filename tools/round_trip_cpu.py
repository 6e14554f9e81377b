"""CPU time of a round trip, untraced, over 5 fresh processes.

    python3 tools/round_trip_cpu.py DN SIDE     # e.g. D12 P, D16 P
    python3 tools/round_trip_cpu.py T2D2 SIDE   # T2D2 P or T2D2 I

builds and runs the round trip that tools/held_memory.py measures (for
DN, D_n = F_2[x]/(x^n), its simple module k, k's complete resolution T
and equiv.verify_round_trip(T, SIDE); for T2D2, the first generator of
the default family over T_2(D_2) on that side) in each of 5 fresh
processes without tracemalloc, one after another, and prints the
verdicts and the minimum, median and maximum of the process CPU seconds
from the build to the verdict.  One run on a shared host can read a
third above the minimum."""

import os
import subprocess
import sys

RUNS = 5
HERE = os.path.dirname(os.path.abspath(__file__))
RUN = ("import sys, time; sys.argv[0] = {prog!r}; sys.path.insert(0, {here!r}); "
       "from held_memory import round_trip; start = time.process_time(); "
       "verdict = round_trip({argv!r}).verdict; print(verdict, time.process_time() - start)")


def main(argv: list) -> int:
    verdicts, cpus = set(), []
    for _ in range(RUNS):
        out = subprocess.run([sys.executable, "-c", RUN.format(prog=sys.argv[0], here=HERE, argv=argv)],
                             capture_output=True, text=True)
        if out.returncode:
            sys.exit(out.stderr.strip())
        verdict, cpu = out.stdout.split()
        verdicts.add(verdict)
        cpus.append(float(cpu))
    cpus.sort()
    print(f"{argv[0]} {argv[1]}: verdict {'/'.join(sorted(verdicts))}, untraced cpu over "
          f"{RUNS} fresh processes: min {cpus[0]:.2f} s, median {cpus[RUNS // 2]:.2f} s, "
          f"max {cpus[-1]:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
