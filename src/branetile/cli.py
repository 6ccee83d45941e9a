"""Command-line front end.

Eight verbs, each reading a quiver or dimer JSON document:

* ``validate`` — structural rules and an arrow-coverage probe;
* ``matchings`` — perfect matchings with their plane points;
* ``diagram`` — toric diagram (multiplicities, hull, canonical form),
  optional triangulation overlay and SVG output;
* ``chambers`` — chamber decomposition of the generic parameter locus;
* ``fan`` — moduli fan at one generic parameter;
* ``tilting`` — divisor classes of the default vertex paths;
* ``sections`` — per-height section counts vs path counts, all vertex
  pairs;
* ``dump-lattice`` — the weight lattice, degree map, and kernel basis.

All reports are aligned-column tables whose header lines start with
``#``; output is byte-stable for fixed input and options.  Errors print
a single machine-parsable stderr line ``error[<verb>:<class>] message``
and exit with a class-specific code (see ``--help``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (BraneTileError, ConsistencyError, DegenerateInputError,
                     TilingFormatError)
from .fan import check_smooth, git_equivalence_classes, moduli_fan, triangulation
from .lattice import build_lattice_tower
from .matchings import (enumerate_perfect_matchings, matching_id_key,
                        toric_diagram)
from .stability import chamber_decomposition
from .svg import render_diagram_svg
from .tiling import load_document, make_weak_path, validate
from .tilting import (default_paths, graded_sections_count, tilting_collection)

_EXIT_DOC = """\
exit codes:
  0  success
  1  unexpected internal error
  2  usage error or malformed input document
  3  validation failure (structural rules, or an arrow in no matching)
  4  degenerate input (parameter on a wall, or a singular fan)
  5  internal consistency violation
  6  input file unreadable

errors print one stderr line:  error[<verb>:<class>] message
"""

_RULES = ("arrow-face-incidence", "face-cycle", "euler", "face-length",
          "connected")


class _UsageError(Exception):
    pass


class _InvalidDocument(Exception):
    def __init__(self, report):
        super().__init__("document fails structural validation")
        self.report = report


# ---------------------------------------------------------------------------
# small formatting helpers
# ---------------------------------------------------------------------------

def _vec(v) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def _ids(ids) -> str:
    ordered = sorted(ids, key=matching_id_key)
    return ",".join(ordered) if ordered else "-"


def _path_str(path) -> str:
    if not path.steps:
        return "e"
    return ".".join(aid + ("" if e == 1 else "^-1") for aid, e in path.steps)


def _class_str(cls) -> str:
    free, torsion = cls
    text = _vec(free)
    if torsion:
        text += "+t" + _vec(torsion)
    return text


def _table(header, rows) -> list:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["# " + "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append(
            "  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def _emit(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _error(verb: str, kind: str, message) -> None:
    sys.stderr.write(f"error[{verb}:{kind}] {message}\n")


# ---------------------------------------------------------------------------
# option handling
# ---------------------------------------------------------------------------

def _load_tiling(args):
    text = Path(args.input).read_text(encoding="utf-8")
    tiling = load_document(text)
    report = validate(tiling, check_nondegeneracy=False)
    if not report.ok:
        raise _InvalidDocument(report)
    return tiling


def _parse_theta(args, tiling) -> tuple:
    if getattr(args, "theta", None) is None:
        raise _UsageError("this verb needs --theta")
    try:
        values = [int(p) for p in args.theta.split(",")]
    except ValueError:
        raise _UsageError(
            f"--theta must be comma-separated integers, got {args.theta!r}")
    order = list(tiling.vertices)
    if getattr(args, "vertex_order", None):
        order = args.vertex_order.split(",")
        if sorted(order) != sorted(tiling.vertices):
            raise _UsageError(
                "--vertex-order must be a permutation of the vertex ids")
    if len(values) != len(order):
        raise _UsageError(
            f"--theta has {len(values)} entries for {len(order)} vertices")
    by_vertex = dict(zip(order, values))
    return tuple(by_vertex[v] for v in tiling.vertices)


def _parse_base(args, tiling):
    base = getattr(args, "base", None)
    if base is not None and base not in tiling.vertices:
        raise _UsageError(f"--base {base!r} is not a vertex of the input")
    return base


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    tiling = load_document(text)
    report = validate(tiling)
    lines = [f"# validate {args.input}"]
    by_rule: dict = {}
    for rule, detail in report.violations:
        by_rule.setdefault(rule, []).append(detail)
    rows = []
    for rule in _RULES:
        if rule in by_rule:
            rows.append([rule, "FAIL: " + "; ".join(by_rule[rule])])
        else:
            rows.append([rule, "ok"])
    if report.ok:
        rows.append(["nondegenerate",
                     "ok" if report.nondegenerate
                     else "FAIL: some arrow lies in no perfect matching"])
    else:
        rows.append(["nondegenerate", "skipped"])
    lines += _table(["rule", "status"], rows)
    lines.append("# note: this certifies the structural rules above and "
                 "nothing more; algebraic")
    lines.append("# consistency is checked en route by the other verbs.")
    _emit(lines)
    if not report.ok:
        _error("validate", "invalid",
               f"{len(report.violations)} structural violations")
        return 3
    if not report.nondegenerate:
        _error("validate", "invalid", "some arrow lies in no perfect matching")
        return 3
    return 0


def _cmd_matchings(args) -> int:
    tiling = _load_tiling(args)
    matchings = enumerate_perfect_matchings(tiling)
    lines = [f"# matchings {args.input}"]
    rows = [[m.matching_id, _vec(m.point), ",".join(sorted(m.arrows))]
            for m in matchings]
    lines += _table(["id", "point", "arrows"], rows)
    lines.append(f"# total {len(matchings)}")
    _emit(lines)
    return 0


def _cmd_diagram(args) -> int:
    tiling = _load_tiling(args)
    tower = build_lattice_tower(tiling)
    matchings = enumerate_perfect_matchings(tiling, tower)
    diagram = toric_diagram(tiling, tower, matchings)
    lines = [f"# diagram {args.input}"]
    by_point: dict = {}
    for mid, p in diagram.points:
        by_point.setdefault(p, []).append(mid)
    hull_set = set(diagram.hull)
    rows = [[_vec(p), str(len(ids)), _ids(ids),
             "yes" if p in hull_set else "no"]
            for p, ids in sorted(by_point.items())]
    lines += _table(["point", "count", "matchings", "extremal"], rows)
    lines.append("# hull " + " ".join(_vec(p) for p in diagram.hull))
    lines.append("# canonical " + " ".join(_vec(p) for p in diagram.canonical))

    tri = None
    if args.theta is not None:
        theta = _parse_theta(args, tiling)
        fan = moduli_fan(tiling, theta, matchings)
        tri = triangulation(fan, diagram)
        lines.append(f"# triangulation for theta={_vec(theta)}")
        rows = [[str(n + 1), _ids(t)] for n, t in enumerate(tri.triangles)]
        lines += _table(["triangle", "rays"], rows)
        lines.append("# edges " + " ".join(_ids(e) for e in tri.edges))

    if args.svg is not None:
        doc = render_diagram_svg(diagram, triangulation=tri,
                                 title=Path(args.input).name)
        Path(args.svg).write_text(doc, encoding="utf-8")
        lines.append(f"# svg {args.svg}")
    _emit(lines)
    return 0


def _cmd_chambers(args) -> int:
    tiling = _load_tiling(args)
    matchings = enumerate_perfect_matchings(tiling)
    chambers = chamber_decomposition(tiling, matchings)
    lines = [f"# chambers {args.input}"]
    rows = []
    for c in chambers:
        pairs = ",".join("+".join(p) for p in c.stable_pairs) or "-"
        triples = ",".join("+".join(t) for t in c.stable_triples) or "-"
        rows.append([str(c.index), _vec(c.representative),
                     _ids(c.stable_matchings), pairs, triples])
    lines += _table(["index", "representative", "stable", "pairs", "triples"],
                    rows)
    lines.append(f"# {len(chambers)} chambers")
    if chambers:
        classes = git_equivalence_classes(tiling, chambers, matchings)
        lines.append("# equivalent fans: "
                     + " | ".join(",".join(str(i) for i in g)
                                  for g in classes))
    _emit(lines)
    return 0


def _cmd_fan(args) -> int:
    tiling = _load_tiling(args)
    matchings = enumerate_perfect_matchings(tiling)
    theta = _parse_theta(args, tiling)
    fan = moduli_fan(tiling, theta, matchings)
    lines = [f"# fan {args.input} theta={_vec(theta)}"]
    lines += _table(["ray", "vector"],
                    [[r.ray_id, _vec(r.vector)] for r in fan.rays])
    rows = [[str(n + 1), str(c.dim), _ids(c.ray_ids)]
            for n, c in enumerate(fan.cones)]
    lines += _table(["cone", "dim", "rays"], rows)
    lines.append(f"# smooth {'true' if check_smooth(fan) else 'false'}")
    _emit(lines)
    return 0


def _cmd_tilting(args) -> int:
    tiling = _load_tiling(args)
    tower = build_lattice_tower(tiling)
    matchings = enumerate_perfect_matchings(tiling, tower)
    theta = _parse_theta(args, tiling)
    base = _parse_base(args, tiling)
    coll = tilting_collection(tiling, tower, theta, matchings, base=base)
    lines = [f"# tilting {args.input} theta={_vec(theta)} base={coll.base}"]
    lines.append("# divisor coordinates " + ",".join(coll.ray_ids))
    divisors = dict(coll.divisors)
    classes = dict(coll.classes)
    paths = dict(coll.paths)
    rows = [[v, _path_str(paths[v]), _vec(divisors[v]),
             _class_str(classes[v])] for v in tiling.vertices]
    lines += _table(["vertex", "path", "divisor", "class"], rows)
    torsion = ",".join(str(mod) for _, mod in coll.presentation.torsion)
    lines.append(f"# picard rank {coll.presentation.rank}"
                 f" torsion {torsion or 'none'}")

    if args.svg is not None:
        diagram = toric_diagram(tiling, tower, matchings)
        fan = moduli_fan(tiling, theta, matchings)
        tri = triangulation(fan, diagram)
        annotations = {
            mid: "|".join(str(divisors[v][i]) for v in tiling.vertices)
            for i, mid in enumerate(coll.ray_ids)}
        doc = render_diagram_svg(diagram, triangulation=tri,
                                 annotations=annotations,
                                 title=Path(args.input).name)
        Path(args.svg).write_text(doc, encoding="utf-8")
        lines.append(f"# svg {args.svg}")
    _emit(lines)
    return 0


def _cmd_sections(args) -> int:
    tiling = _load_tiling(args)
    tower = build_lattice_tower(tiling)
    matchings = enumerate_perfect_matchings(tiling, tower)
    theta = _parse_theta(args, tiling)
    base = _parse_base(args, tiling)
    paths = default_paths(tiling, base)
    lines = [f"# sections {args.input} theta={_vec(theta)} "
             f"max-height={args.max_height}"]
    rows = []
    agree = True
    for src in tiling.vertices:
        back = [(aid, -e) for aid, e in reversed(paths[src].steps)]
        for tgt in tiling.vertices:
            steps = back + list(paths[tgt].steps)
            path = make_weak_path(tiling, steps, source=src)
            count = graded_sections_count(tiling, tower, theta, path,
                                          matchings,
                                          max_height=args.max_height)
            agree = agree and count.matches
            for h, lat, pat in count.heights:
                rows.append([src, tgt, str(h), str(lat), str(pat),
                             "yes" if lat == pat else "NO"])
    lines += _table(["from", "to", "height", "lattice", "paths", "equal"],
                    rows)
    lines.append(f"# all heights agree: {'true' if agree else 'false'}")
    _emit(lines)
    if not agree:
        _error("sections", "consistency",
               "lattice and path section counts disagree")
        return 5
    return 0


def _cmd_dump_lattice(args) -> int:
    tiling = _load_tiling(args)
    tower = build_lattice_tower(tiling)
    lines = [f"# dump-lattice {args.input}"]
    lines.append(f"# weight-lattice rank {tower.rank}")
    lines.append(f"# degree-lattice rank {tower.degree_rank}")
    lines.append(f"# kernel rank 3")
    lines.append("# vertices " + ",".join(tower.vertex_ids))
    lines.append("# face-cycle weight " + _vec(tower.face_cycle_weight))
    amap = tiling.arrow_map
    rows = [[aid, amap[aid].source, amap[aid].target, _vec(tower.weights[aid])]
            for aid in tower.arrow_ids]
    lines += _table(["arrow", "source", "target", "weight"], rows)
    rows = [[v, _vec(row)]
            for v, row in zip(tower.vertex_ids, tower.degree_matrix)]
    lines += _table(["vertex", "degree-row"], rows)
    rows = [[str(j + 1),
             _vec(tuple(tower.kernel_basis[i][j] for i in range(tower.rank)))]
            for j in range(3)]
    lines += _table(["kernel-column", "vector"], rows)
    _emit(lines)
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "matchings": _cmd_matchings,
    "diagram": _cmd_diagram,
    "chambers": _cmd_chambers,
    "fan": _cmd_fan,
    "tilting": _cmd_tilting,
    "sections": _cmd_sections,
    "dump-lattice": _cmd_dump_lattice,
}


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branetile",
        description="Toric geometry of quiver tilings of the torus.",
        epilog=_EXIT_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True,
                                metavar="<verb>")

    def add(verb: str, help_text: str, theta=False, base=False, svg=False,
            max_height=False):
        sp = sub.add_parser(verb, help=help_text)
        sp.add_argument("input", help="quiver or dimer JSON document")
        if theta:
            sp.add_argument("--theta", default=None,
                            help="stability parameter: comma-separated "
                                 "integers in the input's vertex order")
            sp.add_argument("--vertex-order", default=None,
                            help="read --theta entries in this vertex order "
                                 "(comma-separated permutation)")
        if base:
            sp.add_argument("--base", default=None,
                            help="base vertex for default paths")
        if svg:
            sp.add_argument("--svg", default=None, metavar="FILE",
                            help="also write an SVG rendering to FILE")
        if max_height:
            sp.add_argument("--max-height", type=int, default=4,
                            help="largest section height to count "
                                 "(default 4)")
        return sp

    add("validate", "check the structural rules of a document")
    add("matchings", "list the perfect matchings")
    add("diagram", "toric diagram, hull, and canonical form",
        theta=True, svg=True)
    add("chambers", "chamber decomposition of the generic locus")
    add("fan", "moduli fan at a generic parameter", theta=True)
    add("tilting", "divisor classes of the default vertex paths",
        theta=True, base=True, svg=True)
    add("sections", "graded section counts vs path counts",
        theta=True, base=True, max_height=True)
    add("dump-lattice", "weight lattice, degree map, kernel basis")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    verb = args.verb
    try:
        return _HANDLERS[verb](args)
    except _UsageError as exc:
        _error(verb, "usage", exc)
        return 2
    except TilingFormatError as exc:
        _error(verb, "format", exc)
        return 2
    except _InvalidDocument as exc:
        _error(verb, "invalid", exc)
        for rule, detail in exc.report.violations:
            _error(verb, "invalid", f"{rule}: {detail}")
        return 3
    except DegenerateInputError as exc:
        _error(verb, "degenerate", exc)
        return 4
    except ConsistencyError as exc:
        _error(verb, "consistency", exc)
        return 5
    except OSError as exc:
        _error(verb, "io", exc)
        return 6
    except ValueError as exc:
        _error(verb, "usage", exc)
        return 2
    except BraneTileError as exc:
        _error(verb, "internal", exc)
        return 1
    except Exception as exc:  # pragma: no cover - last-resort guard
        _error(verb, "internal", f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
