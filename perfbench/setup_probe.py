"""Time one cold set-up of mscache in a fresh interpreter.

Set-up is what a run pays before its first trial: importing the package
(and numpy), building the field context, and building the row plan of
every table row. Prints the elapsed seconds on one line.

Usage: python3 perfbench/setup_probe.py N L MODE
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mscache  # noqa: E402


def main(argv) -> None:
    N, L, mode = int(argv[0]), int(argv[1]), argv[2]
    mscache.make_field(mode, 65537)
    if mscache.regime(N, L) == "reduced":
        for i in range(N):
            mscache.build_row_plan_reduced(i, N, L)
    print(f"{time.perf_counter() - T0:.9f}")


if __name__ == "__main__":
    main(sys.argv[1:])
