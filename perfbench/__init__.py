"""Same-host benchmark for the fleet, analysis and serve workloads.

Run it from the repository root::

    python3 perfbench/run.py --workload fleet-benign --seed 1 --seconds 15 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and what
each per-layer number is expected to move.
"""

from __future__ import annotations

import pathlib
import sys

#: The checkout the benchmark measures: the directory holding ``perfbench``.
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
#: Working files: cache directories, daemon state and trace files.
WORK_DIR = REPO_ROOT / ".perfbench_work"


def ensure_program_importable() -> None:
    """Put the program's ``src`` tree on ``sys.path``.

    Raises ``FileNotFoundError`` when the checkout has no program
    sources, so the benchmark fails instead of measuring nothing.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
