"""The command line, traced: wraps the package's public functions and
then calls ``branetile.cli.main`` with the remaining arguments.

    python3 perfbench/cli_child.py TRACE_FILE VERB ARGS...

Stdout and the exit code are the command's own.  The spans go to
TRACE_FILE, and their summary, with the start-up CPU time up to the end
of ``import branetile.cli``, to TRACE_FILE with ``.summary`` appended.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    trace_file, argv = Path(sys.argv[1]), sys.argv[2:]
    sys.path.insert(0, str(HERE.parent / "src"))
    import branetile.cli
    startup_s = time.process_time()

    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    with tracer.op(0):
        code = branetile.cli.main(argv)
    sys.stdout.flush()
    summary = tracer.finish(trace_file)
    summary["startup_s"] = startup_s
    Path(f"{trace_file}.summary").write_text(json.dumps(summary), "utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
