"""Set-up step of one benchmark run, in a fresh interpreter.

    python3 bench/inputs.py <workload> <seed> <work_dir> <size_json>

Imports emitterforge and writes the workload's inputs into ``work_dir``.
``run.py`` times this whole process, so ``setup_s`` is interpreter start,
package import and input generation.
"""
import sys
from pathlib import Path

import emitterforge  # noqa: F401  (the import is part of what set-up measures)
from workloads import WORKLOADS, size_from_json


def main(argv: list[str]) -> int:
    name, seed, work, size = argv
    WORKLOADS[name].make_inputs(Path(work), int(seed), size_from_json(size))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
