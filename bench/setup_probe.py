"""Time one set-up in a fresh interpreter: ``import schubcalc``, then a workload's inputs.

    python3 bench/setup_probe.py WORKLOAD SEED SIZE

The caller puts the checkout's ``src`` on ``PYTHONPATH``.  Prints the
seconds taken by the import plus the input generation; the benchmark
runs this several times per run and reports the median as ``setup_s``.
"""

import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    start = perf_counter()
    import schubcalc  # noqa: F401

    imported = perf_counter() - start
    import workloads

    start = perf_counter()
    workloads.make(name, size, seed, Path(__file__).resolve().parent.parent)
    print(imported + perf_counter() - start)


if __name__ == "__main__":
    main()
