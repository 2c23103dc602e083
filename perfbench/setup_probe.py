"""Set-up probe: a fresh interpreter, from start to ready-to-sweep.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED``.  Imports the
CLI (which builds the experiment registry), computes the cache's code
version (a sha256 over every source file) and generates the workload's
point list, then prints one JSON line with the phase times and the point
list's digest.  ``run.py`` times it from spawn to that line.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import repro.experiments.cli  # noqa: F401  (builds the registry)

    imported = time.perf_counter()
    from repro.experiments.service import cache

    cache.code_version()
    versioned = time.perf_counter()
    import workloads

    digest = workloads.points_digest(workloads.points_for(sys.argv[1], int(sys.argv[2])))
    print(json.dumps({
        "import_ms": (imported - start) * 1e3,
        "code_version_ms": (versioned - imported) * 1e3,
        "points_digest": digest,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
