"""Data model and input handling for quiver tilings of the two-torus.

Two equivalent input forms are supported:

* a *quiver document*: vertices, arrows, and signed faces, where every
  arrow belongs to exactly one face of each sign;
* a *dimer document*: a bipartite graph (white/black nodes and edges)
  together with a cyclic edge order around every node, which determines
  an embedding in an oriented surface.  Dualizing it — tracing the
  oriented strips between edges — produces a quiver tiling; the surface
  must come out a torus.

The dual dictionary: edges become arrows, oriented strips (dart orbits)
become quiver vertices, white nodes become positively-signed faces read
along their cyclic order, black nodes become negatively-signed faces
read against it.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Iterable, Sequence

from .errors import ConsistencyError, TilingFormatError

# ---------------------------------------------------------------------------
# core data model
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Arrow:
    arrow_id: str
    source: str
    target: str


@dataclasses.dataclass(frozen=True)
class Face:
    """A signed face, stored as the cyclic tuple of its arrow ids."""

    sign: int  # +1 or -1
    arrows: tuple

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"face sign must be +1 or -1, got {self.sign!r}")


@dataclasses.dataclass(frozen=True)
class QuiverOnTorus:
    """A quiver with signed faces, as produced by a bipartite torus tiling."""

    vertices: tuple
    arrows: tuple
    faces: tuple

    @property
    def arrow_map(self) -> dict:
        return {a.arrow_id: a for a in self.arrows}

    def faces_of(self, arrow_id: str) -> tuple:
        """The faces containing an arrow, positive face first."""
        plus = [f for f in self.faces if f.sign == 1 and arrow_id in f.arrows]
        minus = [f for f in self.faces if f.sign == -1 and arrow_id in f.arrows]
        if len(plus) != 1 or len(minus) != 1:
            raise ConsistencyError(
                f"arrow {arrow_id!r} is not in exactly one face of each sign")
        return plus[0], minus[0]


@dataclasses.dataclass(frozen=True)
class WeakPath:
    """A formal composite of arrows and inverse arrows between two vertices.

    ``steps`` is a tuple of ``(arrow_id, exponent)`` with exponent +1 or
    -1; consecutive steps compose head to tail once inverses are taken
    into account.
    """

    source: str
    target: str
    steps: tuple

    def arrow_ids(self) -> tuple:
        return tuple(aid for aid, _ in self.steps)


def make_weak_path(tiling: QuiverOnTorus, steps: Sequence, source: str | None = None) -> WeakPath:
    """Build a weak path from ``(arrow_id, exponent)`` pairs, checking that
    consecutive steps compose.

    An empty path needs an explicit ``source`` (and ends there too).
    """
    amap = tiling.arrow_map
    norm = []
    for step in steps:
        aid, exp = step
        if aid not in amap:
            raise ValueError(f"unknown arrow {aid!r} in path")
        if exp not in (1, -1):
            raise ValueError(f"path exponent must be +1 or -1, got {exp!r}")
        norm.append((aid, exp))
    if not norm:
        if source is None:
            raise ValueError("empty path needs an explicit source vertex")
        if source not in tiling.vertices:
            raise ValueError(f"unknown vertex {source!r}")
        return WeakPath(source=source, target=source, steps=())

    def ends(aid: str, exp: int) -> tuple:
        a = amap[aid]
        return (a.source, a.target) if exp == 1 else (a.target, a.source)

    start, at = ends(*norm[0])
    if source is not None and source != start:
        raise ValueError(f"path starts at {start!r}, not {source!r}")
    for aid, exp in norm[1:]:
        s, t = ends(aid, exp)
        if s != at:
            raise ValueError(
                f"step {aid!r}^{exp} starts at {s!r} but the path is at {at!r}")
        at = t
    return WeakPath(source=start, target=at, steps=tuple(norm))


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------


def _fail(msg: str) -> TilingFormatError:
    return TilingFormatError(msg)


def _load_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _fail(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                    f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise _fail("top-level JSON value must be an object")
    return doc


def _string_list(doc: dict, key: str) -> list:
    value = doc.get(key)
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise _fail(f"{key!r} must be a list of strings")
    return value


def parse_tiling(text: str) -> QuiverOnTorus:
    """Parse a quiver document.

    Referential integrity (unique ids, no dangling references) is
    enforced here; the torus axioms are checked separately by
    :func:`validate`.
    """
    return _tiling_from_doc(_load_json(text))


def _tiling_from_doc(doc: dict) -> QuiverOnTorus:
    for key in ("vertices", "arrows", "faces"):
        if key not in doc:
            raise _fail(f"missing key {key!r}")

    vertices = _string_list(doc, "vertices")
    if len(set(vertices)) != len(vertices):
        raise _fail("duplicate vertex id")

    arrows = []
    seen = set()
    if not isinstance(doc["arrows"], list):
        raise _fail("'arrows' must be a list")
    for entry in doc["arrows"]:
        if not isinstance(entry, dict):
            raise _fail("each arrow must be an object")
        try:
            aid, src, tgt = entry["id"], entry["src"], entry["tgt"]
        except KeyError as exc:
            raise _fail(f"arrow missing key {exc.args[0]!r}") from exc
        if not all(isinstance(x, str) for x in (aid, src, tgt)):
            raise _fail("arrow fields must be strings")
        if aid in seen:
            raise _fail(f"duplicate arrow id {aid!r}")
        seen.add(aid)
        if src not in vertices or tgt not in vertices:
            raise _fail(f"arrow {aid!r} references an unknown vertex")
        arrows.append(Arrow(arrow_id=aid, source=src, target=tgt))

    faces = []
    if not isinstance(doc["faces"], list):
        raise _fail("'faces' must be a list")
    for n, entry in enumerate(doc["faces"]):
        if not isinstance(entry, dict):
            raise _fail("each face must be an object")
        sign = entry.get("sign")
        cycle = entry.get("cycle")
        if sign not in ("+", "-"):
            raise _fail(f"face {n} sign must be '+' or '-'")
        if (not isinstance(cycle, list) or not cycle
                or not all(isinstance(x, str) for x in cycle)):
            raise _fail(f"face {n} cycle must be a nonempty list of arrow ids")
        for aid in cycle:
            if aid not in seen:
                raise _fail(f"face {n} references unknown arrow {aid!r}")
        faces.append(Face(sign=1 if sign == "+" else -1, arrows=tuple(cycle)))

    return QuiverOnTorus(vertices=tuple(vertices), arrows=tuple(arrows),
                         faces=tuple(faces))


def serialize_tiling(tiling: QuiverOnTorus) -> str:
    """Serialize to the quiver document form; stable byte-for-byte."""
    doc = {
        "vertices": list(tiling.vertices),
        "arrows": [
            {"id": a.arrow_id, "src": a.source, "tgt": a.target}
            for a in tiling.arrows
        ],
        "faces": [
            {"sign": "+" if f.sign == 1 else "-", "cycle": list(f.arrows)}
            for f in tiling.faces
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# dimer documents
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DimerEdge:
    edge_id: str
    white: str
    black: str


@dataclasses.dataclass(frozen=True)
class DimerGraph:
    """A bipartite graph with a cyclic edge order around every node.

    ``rotation`` maps each node id to the tuple of its incident edge
    ids in counterclockwise order; it is what pins down the surface the
    graph is drawn on.
    """

    white: tuple
    black: tuple
    edges: tuple
    rotation: tuple  # tuple of (node_id, tuple_of_edge_ids), input order

    def rotation_map(self) -> dict:
        return {node: cycle for node, cycle in self.rotation}


def parse_dimer(text: str) -> DimerGraph:
    return _dimer_from_doc(_load_json(text))


def _dimer_from_doc(doc: dict) -> DimerGraph:
    for key in ("white", "black", "edges", "rotation"):
        if key not in doc:
            raise _fail(f"missing key {key!r}")

    white = _string_list(doc, "white")
    black = _string_list(doc, "black")
    nodes = white + black
    if len(set(nodes)) != len(nodes):
        raise _fail("duplicate node id")

    edges = []
    seen = set()
    if not isinstance(doc["edges"], list):
        raise _fail("'edges' must be a list")
    for entry in doc["edges"]:
        if not isinstance(entry, dict):
            raise _fail("each edge must be an object")
        try:
            eid, w, b = entry["id"], entry["white"], entry["black"]
        except KeyError as exc:
            raise _fail(f"edge missing key {exc.args[0]!r}") from exc
        if not all(isinstance(x, str) for x in (eid, w, b)):
            raise _fail("edge fields must be strings")
        if eid in seen:
            raise _fail(f"duplicate edge id {eid!r}")
        seen.add(eid)
        if w not in white:
            raise _fail(f"edge {eid!r}: unknown white node {w!r}")
        if b not in black:
            raise _fail(f"edge {eid!r}: unknown black node {b!r}")
        edges.append(DimerEdge(edge_id=eid, white=w, black=b))

    rotation_doc = doc["rotation"]
    if not isinstance(rotation_doc, dict):
        raise _fail("'rotation' must be an object")
    incident = {node: [] for node in nodes}
    for e in edges:
        incident[e.white].append(e.edge_id)
        incident[e.black].append(e.edge_id)
    rotation = []
    for node in nodes:
        cycle = rotation_doc.get(node)
        if cycle is None:
            raise _fail(f"rotation missing node {node!r}")
        if not isinstance(cycle, list) or not all(isinstance(x, str) for x in cycle):
            raise _fail(f"rotation at {node!r} must be a list of edge ids")
        if sorted(cycle) != sorted(incident[node]):
            raise _fail(
                f"rotation at {node!r} must list each incident edge exactly once")
        rotation.append((node, tuple(cycle)))
    extra = set(rotation_doc) - set(nodes)
    if extra:
        raise _fail(f"rotation lists unknown node {sorted(extra)[0]!r}")

    return DimerGraph(white=tuple(white), black=tuple(black),
                      edges=tuple(edges), rotation=tuple(rotation))


def dualize_dimer(graph: DimerGraph) -> QuiverOnTorus:
    """Dualize an embedded bipartite graph into a quiver tiling.

    Quiver vertices are the oriented strips of the embedding: orbits of
    the step ``(edge, entering node) -> (next edge around that node,
    its other endpoint)``.  Every edge crosses two strips and becomes an
    arrow from the one alongside its white end to the one alongside its
    black end.  The Euler count of the traced surface must vanish —
    otherwise the embedding is not on a torus and the dual is rejected.
    """
    rotation = graph.rotation_map()
    for node, cycle in rotation.items():
        if len(cycle) < 2:
            raise ConsistencyError(f"node {node!r} has degree < 2")
    by_id = {e.edge_id: e for e in graph.edges}
    whites = set(graph.white)

    # Darts: (edge_id, 'wb') runs white -> black, (edge_id, 'bw') back.
    # Stepping enters a node and leaves along the next edge around it.
    def step(dart: tuple) -> tuple:
        eid, direction = dart
        edge = by_id[eid]
        at = edge.black if direction == "wb" else edge.white
        cycle = rotation[at]
        nxt = cycle[(cycle.index(eid) + 1) % len(cycle)]
        return (nxt, "wb" if at in whites else "bw")

    orbit_of = {}
    n_orbits = 0
    for edge in graph.edges:
        for direction in ("wb", "bw"):
            dart = (edge.edge_id, direction)
            if dart in orbit_of:
                continue
            name = f"v{n_orbits + 1}"
            n_orbits += 1
            while dart not in orbit_of:
                orbit_of[dart] = name
                dart = step(dart)

    euler = (len(graph.white) + len(graph.black)) - len(graph.edges) + n_orbits
    if euler != 0:
        raise ConsistencyError(
            f"embedding is not toroidal (Euler count {euler}, expected 0)")

    vertices = []
    for edge in graph.edges:  # discovery order
        for direction in ("wb", "bw"):
            name = orbit_of[(edge.edge_id, direction)]
            if name not in vertices:
                vertices.append(name)
    arrows = tuple(
        Arrow(arrow_id=e.edge_id,
              source=orbit_of[(e.edge_id, "wb")],
              target=orbit_of[(e.edge_id, "bw")])
        for e in graph.edges
    )
    faces = []
    for node in graph.white:
        faces.append(Face(sign=1, arrows=tuple(rotation[node])))
    for node in graph.black:
        faces.append(Face(sign=-1, arrows=tuple(reversed(rotation[node]))))

    tiling = QuiverOnTorus(vertices=tuple(vertices), arrows=arrows,
                           faces=tuple(faces))
    report = validate(tiling, check_nondegeneracy=False)
    if report.violations:
        rule, detail = report.violations[0]
        raise ConsistencyError(f"dual of dimer fails {rule}: {detail}")
    return tiling


def extract_dimer(tiling: QuiverOnTorus) -> DimerGraph:
    """Inverse of :func:`dualize_dimer` up to relabeling of nodes."""
    whites = [f for f in tiling.faces if f.sign == 1]
    blacks = [f for f in tiling.faces if f.sign == -1]
    white_ids = [f"w{i + 1}" for i in range(len(whites))]
    black_ids = [f"b{i + 1}" for i in range(len(blacks))]

    white_of = {}
    black_of = {}
    for wid, face in zip(white_ids, whites):
        for aid in face.arrows:
            if aid in white_of:
                raise ConsistencyError(
                    f"arrow {aid!r} lies in two positive faces")
            white_of[aid] = wid
    for bid, face in zip(black_ids, blacks):
        for aid in face.arrows:
            if aid in black_of:
                raise ConsistencyError(
                    f"arrow {aid!r} lies in two negative faces")
            black_of[aid] = bid
    for a in tiling.arrows:
        if a.arrow_id not in white_of or a.arrow_id not in black_of:
            raise ConsistencyError(
                f"arrow {a.arrow_id!r} is missing a face of some sign")

    edges = tuple(
        DimerEdge(edge_id=a.arrow_id, white=white_of[a.arrow_id],
                  black=black_of[a.arrow_id])
        for a in tiling.arrows
    )
    rotation = (
        [(wid, tuple(face.arrows)) for wid, face in zip(white_ids, whites)]
        + [(bid, tuple(reversed(face.arrows))) for bid, face in zip(black_ids, blacks)]
    )
    return DimerGraph(white=tuple(white_ids), black=tuple(black_ids),
                      edges=edges, rotation=tuple(rotation))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple  # of (rule_id, detail)
    nondegenerate: bool


def validate(tiling: QuiverOnTorus, check_nondegeneracy: bool = True) -> ValidationReport:
    """Check the structural axioms of a quiver tiling.

    Rules checked, by id:

    * ``arrow-face-incidence`` — every arrow lies in exactly one face
      of each sign (counted with multiplicity along face cycles);
    * ``face-cycle`` — every face is a directed cycle in the quiver;
    * ``euler`` — #vertices - #arrows + #faces = 0;
    * ``face-length`` — total face length is twice the number of arrows;
    * ``connected`` — the underlying graph is connected.

    ``nondegenerate`` reports whether every arrow lies in at least one
    perfect matching; it is only computed when the structural rules all
    pass.  A passing report certifies these axioms and nothing more.
    """
    violations = []
    amap = {a.arrow_id: a for a in tiling.arrows}

    plus_count = {aid: 0 for aid in amap}
    minus_count = {aid: 0 for aid in amap}
    for face in tiling.faces:
        bucket = plus_count if face.sign == 1 else minus_count
        for aid in face.arrows:
            bucket[aid] += 1
    for aid in amap:
        if plus_count[aid] != 1 or minus_count[aid] != 1:
            violations.append((
                "arrow-face-incidence",
                f"arrow {aid!r} lies in {plus_count[aid]} positive and "
                f"{minus_count[aid]} negative faces (need one of each)"))

    for n, face in enumerate(tiling.faces):
        ok = True
        for aid, nxt in zip(face.arrows, face.arrows[1:] + face.arrows[:1]):
            if amap[aid].target != amap[nxt].source:
                ok = False
        if not ok:
            violations.append(("face-cycle",
                               f"face {n} is not a directed cycle"))

    euler = len(tiling.vertices) - len(tiling.arrows) + len(tiling.faces)
    if euler != 0:
        violations.append(("euler",
                           f"#vertices - #arrows + #faces = {euler}, expected 0"))

    total = sum(len(f.arrows) for f in tiling.faces)
    if total != 2 * len(tiling.arrows):
        violations.append((
            "face-length",
            f"total face length {total} differs from twice #arrows "
            f"{2 * len(tiling.arrows)}"))

    if tiling.vertices:
        adjacency = {v: set() for v in tiling.vertices}
        for a in tiling.arrows:
            adjacency[a.source].add(a.target)
            adjacency[a.target].add(a.source)
        seen = {tiling.vertices[0]}
        stack = [tiling.vertices[0]]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(tiling.vertices):
            violations.append(("connected",
                               "underlying graph is not connected"))

    nondegenerate = False
    if not violations and check_nondegeneracy:
        from .matchings import matching_arrow_sets

        covered = set()
        for arrows in matching_arrow_sets(tiling):
            covered |= arrows
        nondegenerate = covered == set(amap)

    return ValidationReport(ok=not violations, violations=tuple(violations),
                            nondegenerate=nondegenerate)


# ---------------------------------------------------------------------------
# input dispatch
# ---------------------------------------------------------------------------


def load_document(text: str) -> QuiverOnTorus:
    """Parse either document form; dimer documents are dualized."""
    doc = _load_json(text)
    if "vertices" in doc:
        return _tiling_from_doc(doc)
    if "white" in doc or "black" in doc:
        return dualize_dimer(_dimer_from_doc(doc))
    raise _fail("document is neither a quiver (no 'vertices' key) "
                "nor a dimer graph (no 'white'/'black' keys)")
