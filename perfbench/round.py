"""One round of a library workload, in a fresh process.

    python3 perfbench/round.py --workload W --seed S --round K \
        [--setup-only] [--trace FILE]

Times are CPU seconds of this process, scaled to reference seconds by
``calibrate.py``.  Set-up time covers interpreter start, import,
document generation and the up-front ``validate`` of every document.
Prints one JSON line: set-up time, then per op its label, scaled and
raw CPU time and error (null when the op passed).  With ``--trace`` the
package's public functions are wrapped after set-up, spans go to FILE
and their summary is added to the line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import branetile as bt
    import workloads
    from calibrate import Sampler, scale
    from tracer import Tracer

    ops = workloads.plan(args.workload, args.seed, args.round, ROOT)
    for op in ops:
        workloads.set_up(bt, op)
    setup_cpu_s = time.process_time()
    sampler = Sampler()
    result = {"setup_s": scale(setup_cpu_s, sampler.passes), "ops": []}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace is not None:
        tracer = Tracer()
        tracer.install()
    for index, op in enumerate(ops):
        span = tracer.op(index) if tracer else contextlib.nullcontext()
        error = None
        with sampler.measure() as reading:
            try:
                with span:
                    workloads.run(bt, op)
            except workloads.CheckFailed as exc:
                error = f"wrong result: {exc}"
            except Exception as exc:  # the op's failure is the measurement
                traceback.print_exc()
                error = f"raised {type(exc).__name__}: {exc}"
        result["ops"].append({"label": op.label, "seconds": reading.seconds,
                              "cpu_s": reading.cpu_s, "error": error})
    if tracer is not None:
        result["trace"] = tracer.finish(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
