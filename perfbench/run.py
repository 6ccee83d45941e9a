"""The branetile benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there.  Every workload is a closed loop: one client, one op at
a time, and never more than this process and one child alive.  A run
is a whole number of rounds, ``max(1, round(S / NOMINAL_ROUND_S[W]))``,
so its op count is fixed by ``--seconds`` and not by how fast the
machine is; ``peak_rss_mb`` grows with the op count.  Each library
round runs in a fresh process (``round.py``); each ``cli-fixtures`` op
is a fresh ``branetile`` process.  Times are CPU times scaled by the
machine's current speed (``calibrate.py``).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones, from one round
with the public functions wrapped (``tracer.py``) and one untraced
round for the tracing overhead.  See README.md for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibrate import calibrate, scale  # noqa: E402

OUT_DIR = ".perfbench_out"

# Seconds of --seconds that one round stands for: about a round's wall
# time on the reference machine, rounded so that 20 seconds gives two
# rounds (one on orbifold-chambers, whose round is the longest).  See
# README.md.
NOMINAL_ROUND_S = {"cli-fixtures": 10.0, "orbifold-matchings": 10.0,
                   "orbifold-chambers": 15.0, "fan-routes": 10.0}
MIN_SETUPS = 5

# Times are CPU seconds (user plus system) of the process that does the
# work, scaled to reference seconds by calibrate.py: on a shared host
# both the wall and the CPU time of a fixed op drift by tens of percent
# with the neighbours' load.  For this single-threaded program wall and
# CPU time agree on an idle machine.
END_TO_END = {"setup_s": "s", "ops_per_cpu_s": "1/s", "op_p50_cpu_s": "s",
              "op_tail_cpu_s": "s", "peak_rss_mb": "MB"}

MODULES = ("cli", "tiling", "lattice", "matchings", "stability", "rational",
           "fan", "polyhedra", "tilting", "svg")
LAYER_FUNCTIONS = (
    "cli.main", "tiling.load_document", "tiling.validate",
    "svg.render_diagram_svg",
    "matchings.matching_arrow_sets", "matchings.enumerate_perfect_matchings",
    "matchings.toric_diagram",
    "lattice.build_lattice_tower", "lattice.smith_normal_form",
    "stability.is_generic", "stability.is_theta_stable",
    "stability.submodule_supports", "stability.enumerate_stable_subsets",
    "stability.chamber_decomposition",
    "rational.strict_feasible_point", "rational.dual_cone",
    "fan.moduli_fan", "fan.validate_fan", "fan.git_equivalence_classes",
    "polyhedra.cone_of_arrow_weights", "polyhedra.polyhedron_from_inequalities",
    "polyhedra.quotient_fan", "polyhedra.descend_linear_functional",
    "tilting.tilting_collection", "tilting.graded_sections_count",
)


def per_layer_units() -> dict:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    units.update({
        "matchings.found": "count", "stability.chambers": "count",
        "rational.dual_cone.candidates": "count",
        "rational.dual_cone.rays": "count", "rational.dual_cone.yield": "ratio",
        "cli.startup_s": "s",
    })
    for module in MODULES:
        units[f"{module}.raised"] = "count"
        units[f"{module}.self_share"] = "%"
    units.update({"trace.ops_per_cpu_s": "1/s",
                  "trace.untraced_ops_per_cpu_s": "1/s",
                  "trace.overhead": "%", "failed_ratio": "ratio"})
    return units


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Child:
    code: int
    stdout: bytes
    maxrss_mb: float
    cpu_s: float


def spawn(argv: list, cwd: Path, stderr=None) -> Child:
    """Run a child to completion; its exit code, stdout, peak RSS and
    CPU time (user plus system)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=stderr)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out, usage.ru_maxrss / 1024,
                 usage.ru_utime + usage.ru_stime)


def cli_command(argv: list, trace_file) -> list:
    """How a user runs the command line, or its traced stand-in."""
    if trace_file is None:
        return [sys.executable, "-c",
                "import sys; from branetile.cli import main; sys.exit(main())",
                *argv]
    return [sys.executable, str(HERE / "cli_child.py"), str(trace_file),
            *argv]


def round_command(workload: str, seed: int, round_no: int, trace_file=None,
                  setup_only: bool = False) -> list:
    argv = [sys.executable, str(HERE / "round.py"), "--workload", workload,
            "--seed", str(seed), "--round", str(round_no)]
    if setup_only:
        argv.append("--setup-only")
    if trace_file is not None:
        argv += ["--trace", str(trace_file)]
    return argv


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def svg_digest(argv: list):
    if "--svg" not in argv:
        return None
    path = ROOT / argv[argv.index("--svg") + 1]
    return sha256(path.read_bytes()) if path.is_file() else None


# ---------------------------------------------------------------------------
# running the workloads
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Results:
    setups: list = dataclasses.field(default_factory=list)
    op_seconds: list = dataclasses.field(default_factory=list)
    round_rates: list = dataclasses.field(default_factory=list)
    rss_mb: list = dataclasses.field(default_factory=list)
    traced_seconds: list = dataclasses.field(default_factory=list)
    untraced_seconds: list = dataclasses.field(default_factory=list)
    summaries: list = dataclasses.field(default_factory=list)
    startups: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def record(self, seconds: float, error, label: str, traced) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAILED {label}: {error}", flush=True)
        {None: self.op_seconds, True: self.traced_seconds,
         False: self.untraced_seconds}[traced].append(seconds)

    def close_round(self, ops: int) -> None:
        """Record the rate of the last ``ops`` untraced ops, one round."""
        self.round_rates.append(rate(self.op_seconds[-ops:]))


def _setup(workload: str, seed: int, round_no: int, log,
           res: Results) -> None:
    child = spawn(round_command(workload, seed, round_no, setup_only=True),
                  ROOT, log)
    if child.code != 0:
        raise RuntimeError(f"set-up of {workload} failed; see {log.name}")
    res.setups.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])


def run_cli(seed: int, rounds: int, trace: bool, out: Path, log) -> Results:
    calls = workloads.load_goldens()["cli"]
    res = Results()
    for sweep in range(rounds + trace):
        traced = (sweep < rounds) if trace else None
        order = list(range(len(calls)))
        random.Random(f"cli-fixtures:{seed}:{sweep}").shuffle(order)
        before = calibrate()
        for index in order:
            call = calls[index]
            argv = call["argv"]
            if "--svg" in argv:
                (ROOT / argv[argv.index("--svg") + 1]).unlink(missing_ok=True)
            trace_file = out / f"spans-{sweep}-{index}.json" if traced else None
            child = spawn(cli_command(argv, trace_file), ROOT, log)
            after = calibrate()
            error = None
            if child.code != call["exit"]:
                error = f"exit code {child.code}, expected {call['exit']}"
            elif sha256(child.stdout) != call["stdout_sha256"]:
                error = "stdout differs from the golden"
            elif svg_digest(argv) != call["svg_sha256"]:
                error = "SVG differs from the golden"
            res.record(scale(child.cpu_s, [before, after]), error,
                       " ".join(argv), traced)
            before = after
            if traced is None:
                res.rss_mb.append(child.maxrss_mb)
            elif traced and Path(f"{trace_file}.summary").is_file():
                summary = json.loads(
                    Path(f"{trace_file}.summary").read_text("utf-8"))
                res.startups.append(summary.pop("startup_s"))
                res.summaries.append(summary)
        if traced is None:
            res.close_round(len(calls))
    return res


def run_library(workload: str, seed: int, rounds: int, trace: bool, out: Path,
                log) -> Results:
    res = Results()
    for round_no in range(rounds + trace):
        traced = (round_no < rounds) if trace else None
        trace_file = out / f"spans-{round_no}.json" if traced else None
        child = spawn(round_command(workload, seed, round_no, trace_file),
                      ROOT, log)
        try:
            report = json.loads(child.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            report = None
        if traced is None:
            res.rss_mb.append(child.maxrss_mb)
        if child.code != 0 or report is None:
            ops = workloads.plan(workload, seed, round_no, ROOT)
            for op in ops:
                res.record(scale(child.cpu_s / len(ops), [calibrate()]),
                           f"round exited with code {child.code}",
                           op.label, traced)
            if traced is None:
                res.close_round(len(ops))
            continue
        res.setups.append(report["setup_s"])
        for op in report["ops"]:
            res.record(op["seconds"], op["error"], op["label"], traced)
        if traced is None:
            res.close_round(len(report["ops"]))
        if traced:
            res.summaries.append(report["trace"])
        print(f"round {round_no}: set-up {report['setup_s']:.3f} s, "
              + ", ".join(f"{op['label']} {op['seconds']:.3f} s "
                          f"({op['cpu_s']:.3f} s CPU)"
                          for op in report["ops"])
              + f", peak RSS {child.maxrss_mb:.1f} MB", flush=True)
    return res


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(values: list) -> tuple:
    """(percentile, value): the highest whole percentile with at least
    ten samples above it, by nearest rank.  Below twenty samples no
    percentile above the median qualifies, and the median rank is used."""
    xs = sorted(values)
    n = len(xs)
    p = 100 * (n - 10) // n if n >= 20 else 50
    return p, xs[-(-p * n // 100) - 1]


def rate(seconds: list) -> float:
    return len(seconds) / sum(seconds) if seconds and sum(seconds) else 0.0


def end_to_end(workload: str, res: Results) -> dict:
    p, tail_s = tail(res.op_seconds)
    print(f"op_tail_cpu_s is p{p} of {len(res.op_seconds)} ops; "
          f"setup_s is the median of {len(res.setups)} set-ups", flush=True)
    rss = max(res.rss_mb) if workload == "cli-fixtures" else statistics.median(
        res.rss_mb)
    values = {"setup_s": statistics.median(res.setups),
              "ops_per_cpu_s": statistics.median(res.round_rates),
              "op_p50_cpu_s": statistics.median(res.op_seconds),
              "op_tail_cpu_s": tail_s, "peak_rss_mb": rss}
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer(res: Results) -> dict:
    functions: dict = {}
    counts: dict = {}
    for summary in res.summaries:
        for name, entry in summary["functions"].items():
            total = functions.setdefault(
                name, {"calls": 0, "self_s": 0.0, "raised": 0})
            for key in total:
                total[key] += entry[key]
        for name, value in summary["counts"].items():
            counts[name] = counts.get(name, 0) + value
    values = {}
    for fn in LAYER_FUNCTIONS:
        entry = functions.get(fn, {"calls": 0, "self_s": 0.0})
        values[f"{fn}.calls"] = entry["calls"]
        values[f"{fn}.self_s"] = entry["self_s"]
    for name in ("matchings.found", "stability.chambers",
                 "rational.dual_cone.candidates", "rational.dual_cone.rays"):
        values[name] = counts.get(name, 0)
    candidates = counts.get("rational.dual_cone.candidates", 0)
    values["rational.dual_cone.yield"] = (
        counts.get("rational.dual_cone.rays", 0) / candidates
        if candidates else 0.0)
    values["cli.startup_s"] = (statistics.median(res.startups)
                               if res.startups else 0.0)
    op_total = sum(e["self_s"] for e in functions.values())
    for module in MODULES:
        mine = [e for name, e in functions.items()
                if name.split(".")[0] == module]
        values[f"{module}.raised"] = sum(e["raised"] for e in mine)
        values[f"{module}.self_share"] = (
            100 * sum(e["self_s"] for e in mine) / op_total if op_total else 0.0)
    traced, untraced = rate(res.traced_seconds), rate(res.untraced_seconds)
    values["trace.ops_per_cpu_s"] = traced
    values["trace.untraced_ops_per_cpu_s"] = untraced
    values["trace.overhead"] = 100 * (untraced / traced - 1) if traced else 0.0
    values["failed_ratio"] = res.failed / res.attempted if res.attempted else 0.0
    return {k: {"value": values[k], "unit": u}
            for k, u in per_layer_units().items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not ((ROOT / "src" / "branetile" / "__init__.py").is_file()
            and (ROOT / "fixtures").is_dir()):
        print(f"error: {ROOT} is not a branetile source checkout "
              "(needs src/branetile and fixtures/)", file=sys.stderr)
        return 2

    out = ROOT / OUT_DIR / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    # A traced run is one traced round and one untraced round.
    trace = bool(args.trace)
    rounds = 1 if trace else max(
        1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    with open(out / "stderr.log", "wb") as log:
        if args.workload == "cli-fixtures":
            res = run_cli(args.seed, rounds, trace, out, log)
        else:
            res = run_library(args.workload, args.seed, rounds, trace, out, log)
        for extra in range(len(res.setups), 0 if trace else MIN_SETUPS):
            _setup(args.workload, args.seed, rounds + trace + extra, log, res)
    metrics = per_layer(res) if trace else end_to_end(args.workload, res)
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
