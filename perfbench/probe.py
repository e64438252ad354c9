"""Cold start of one workload: import the library and the CLI, build the inputs.

Run by ``run.py`` in a fresh interpreter (with ``src`` on PYTHONPATH), which
times the whole process.  Prints {"import_s": ...}, the time the imports of
``apportion`` and ``apportion.cli`` took.

    python3 perfbench/probe.py <workload> <seed> [--tiny]
"""

import json
import sys
import time

started = time.perf_counter()
import apportion  # noqa: E402
import apportion.cli  # noqa: E402

import_s = time.perf_counter() - started

from jobs import build_jobs  # noqa: E402

build_jobs(sys.argv[1], int(sys.argv[2]), "--tiny" in sys.argv[3:])
print(json.dumps({"import_s": import_s}))
