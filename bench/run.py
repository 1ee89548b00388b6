"""Benchmark of the hettomo pipeline from shots to Wigner function.

Run from the root of a checkout:

    python3 bench/run.py --workload full-run-superposition --seed 1 --seconds 20 --trace 0

See bench/README.md for the workloads, metrics and reference figures.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hetbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], root=HERE.parent))
