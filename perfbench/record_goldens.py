"""Record the benchmark's goldens from the current program.

    python3 perfbench/record_goldens.py

Writes ``perfbench/goldens.json``: for every verb on every fixture,
the argument list the ``cli-fixtures`` workload runs, its exit code,
the SHA-256 of its stdout and of the SVG file it writes, if any.  Verbs
that take a stability parameter get the first chamber's representative.
For every orbifold size ``orbifold-matchings`` runs, the SHA-256 of the
canonical toric diagram of the generated document in generator order,
before renaming.

Outputs must stay byte-identical, so re-record only when a change to
the program's output is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import branetile as bt  # noqa: E402

import documents  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

VERBS = ("validate", "matchings", "diagram", "chambers", "fan", "tilting",
         "sections", "dump-lattice")
THETA_VERBS = ("diagram", "fan", "tilting", "sections")
SVG_VERBS = ("diagram", "tilting")


def cli_argv(verb: str, fixture: str, theta: tuple) -> list:
    argv = [verb, f"fixtures/{fixture}.json"]
    if verb in THETA_VERBS:
        argv.append("--theta=" + ",".join(str(t) for t in theta))
    if verb in SVG_VERBS:
        argv += ["--svg", f"{run.OUT_DIR}/cli-fixtures/{fixture}.{verb}.svg"]
    return argv


def main() -> int:
    (ROOT / run.OUT_DIR / "cli-fixtures").mkdir(parents=True, exist_ok=True)
    calls = []
    for fixture in workloads.FIXTURES:
        tiling = bt.load_document(
            (ROOT / "fixtures" / f"{fixture}.json").read_text("utf-8"))
        matchings = bt.enumerate_perfect_matchings(tiling)
        theta = bt.chamber_decomposition(tiling, matchings)[0].representative
        for verb in VERBS:
            argv = cli_argv(verb, fixture, theta)
            child = run.spawn(run.cli_command(argv, None), ROOT)
            calls.append({"argv": argv, "exit": child.code,
                          "stdout_sha256": run.sha256(child.stdout),
                          "svg_sha256": run.svg_digest(argv)})
            print(f"{child.code} {' '.join(argv)}", flush=True)
    canonical = {}
    for n, m in workloads.MATCHINGS:
        tiling = bt.load_document(documents.text(documents.orbifold(n, m)))
        diagram = bt.toric_diagram(tiling)
        canonical[f"{n}x{m}"] = workloads.canonical_digest(diagram.canonical)
    goldens = {"cli": calls, "canonical": canonical}
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1) + "\n",
                                       "utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
