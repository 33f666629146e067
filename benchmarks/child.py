"""Fresh-process helper of the benchmark.

    python3 benchmarks/child.py setup '<argv as JSON>'
        imports the package and parses the workload's arguments, then exits;
    python3 benchmarks/child.py run '<argv as JSON>'
        also runs them once through ``entrybounds.cli.main`` and prints
        ``{"rc": ..., "maxrss_kb": ...}`` as its last line.
"""

import json
import resource
import sys
from pathlib import Path

if __name__ == "__main__":
    mode, argv = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from entrybounds import cli

    cli.build_parser().parse_args(argv)
    if mode == "run":
        rc = cli.main(argv)
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"rc": rc, "maxrss_kb": maxrss}))
