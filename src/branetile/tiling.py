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

import functools
import json
from typing import NamedTuple, Sequence

from .errors import ConsistencyError, TilingFormatError

# ---------------------------------------------------------------------------
# core data model
# ---------------------------------------------------------------------------


class Arrow(NamedTuple):
    arrow_id: str
    source: str
    target: str


class _FaceFields(NamedTuple):
    sign: int  # +1 or -1
    arrows: tuple


class Face(_FaceFields):
    """A signed face, stored as the cyclic tuple of its arrow ids."""

    __slots__ = ()

    def __new__(cls, sign: int, arrows: tuple) -> Face:
        if sign not in (1, -1):
            raise ValueError(f"face sign must be +1 or -1, got {sign!r}")
        return super().__new__(cls, sign, arrows)


class QuiverOnTorus:
    """A quiver with signed faces, as produced by a bipartite torus tiling.

    A plain class, not a named tuple: it keeps its indexes and stability
    record in its ``__dict__``.  Its three fields are read-only, and it
    compares and hashes by them as a frozen record would."""

    def __init__(self, vertices: tuple, arrows: tuple, faces: tuple) -> None:
        vars(self).update(vertices=vertices, arrows=arrows, faces=faces)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(
            f"cannot assign {type(value).__name__} to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not QuiverOnTorus:
            return NotImplemented
        return (self.vertices, self.arrows, self.faces) == (
            other.vertices, other.arrows, other.faces)

    def __hash__(self) -> int:
        return hash((self.vertices, self.arrows, self.faces))

    def __repr__(self) -> str:
        return (f"QuiverOnTorus(vertices={self.vertices!r}, "
                f"arrows={self.arrows!r}, faces={self.faces!r})")

    # Indexes and the stability record are built on first use and kept
    # on the instance, so they are freed with it and never shared between
    # equal tilings; equality still compares the fields.
    @functools.cached_property
    def arrow_map(self) -> dict:
        return {a.arrow_id: a for a in self.arrows}

    @functools.cached_property
    def arrow_bits(self) -> dict:  # arrow id -> its bit, in sorted id order
        return {aid: k for k, aid in enumerate(sorted(self.arrow_map))}

    @functools.cached_property
    def _arrow_ends(self) -> list:  # (source, target) indices by arrow bit
        index = {v: i for i, v in enumerate(self.vertices)}
        ends = [self.arrow_map[aid] for aid in self.arrow_bits]
        return [(index[a.source], index[a.target]) for a in ends]

    @functools.cached_property
    def lifted_cache(self) -> list:  # at most one: the last list's record
        return []

    @functools.cached_property
    def _faces_by_arrow(self) -> dict:
        """The one arrow-face index: arrow id -> ``(positive, negative)``
        face indices, one per occurrence along the cycles, in face
        order; an id of no arrow gets an entry too."""
        index: dict = {}
        for j, f in enumerate(self.faces):
            for aid in f.arrows:
                index.setdefault(aid, ([], []))[f.sign == -1].append(j)
        return index

    def faces_of(self, arrow_id: str) -> tuple:
        """The faces containing an arrow, positive face first."""
        plus, minus = self._faces_by_arrow.get(arrow_id, ((), ()))
        if len(plus) != 1 or len(minus) != 1:
            raise ConsistencyError(
                f"arrow {arrow_id!r} is not in exactly one face of each sign")
        return self.faces[plus[0]], self.faces[minus[0]]


class WeakPath(NamedTuple):
    """A formal composite of arrows and inverse arrows between two vertices.

    ``steps`` is a tuple of ``(arrow_id, exponent)`` with exponent +1 or
    -1; consecutive steps compose head to tail once inverses are taken
    into account.
    """

    source: str
    target: str
    steps: tuple


def make_weak_path(tiling: QuiverOnTorus, steps: Sequence,
                   source: str) -> WeakPath:
    """Build a weak path from ``source`` by ``(arrow_id, exponent)``
    pairs, checking that each step starts where the path is.  An empty
    path ends at its source.
    """
    if source not in tiling.vertices:
        raise ValueError(f"unknown vertex {source!r}")
    amap = tiling.arrow_map
    norm = []
    at = source
    for aid, exp in steps:
        if aid not in amap:
            raise ValueError(f"unknown arrow {aid!r} in path")
        if type(exp) is not int or exp not in (1, -1):
            raise ValueError(f"path exponent must be +1 or -1, got {exp!r}")
        a = amap[aid]
        s, t = (a.source, a.target) if exp == 1 else (a.target, a.source)
        if s != at:
            raise ValueError(
                f"step {aid!r}^{exp} starts at {s!r} but the path is at {at!r}")
        norm.append((aid, exp))
        at = t
    return WeakPath(source=source, target=at, steps=tuple(norm))


def default_paths(tiling: QuiverOnTorus, base: "str | None" = None) -> dict:
    """A deterministic weak path from the base to every vertex.

    Breadth-first: each layer is swept twice, first extending along
    forward arrows (in input order), then along backward ones, so
    inverse steps only appear when a vertex has no forward approach at
    its distance.  A step extends the path to its start, so the paths
    are returned as built, in vertex order.
    """
    if base is None:
        base = tiling.vertices[0]
    if base not in tiling.vertices:
        raise ValueError(f"unknown base vertex {base!r}")
    sweeps = ([(a.source, a.target, (a.arrow_id, 1)) for a in tiling.arrows],
              [(a.target, a.source, (a.arrow_id, -1)) for a in tiling.arrows])
    paths = {base: WeakPath(source=base, target=base, steps=())}
    frontier = [base]
    while frontier:
        fresh = []
        for sweep in sweeps:
            for v in frontier:
                for start, end, step in sweep:
                    if start == v and end not in paths:
                        paths[end] = WeakPath(base, end,
                                              paths[v].steps + (step,))
                        fresh.append(end)
        frontier = fresh
    if len(paths) != len(tiling.vertices):
        raise ConsistencyError("quiver is not connected")
    return {v: paths[v] for v in tiling.vertices}


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------


def _load_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TilingFormatError(f"invalid JSON at line {exc.lineno}, column "
                                f"{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise TilingFormatError("top-level JSON value must be an object")
    return doc


def _string_list(doc: dict, key: str) -> list:
    value = doc.get(key)
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise TilingFormatError(f"{key!r} must be a list of strings")
    return value


def _records(doc: dict, key: str, noun: str, *fields: str):
    """The field values of each record listed under ``key``, checked
    in order: the list, the object, its keys, that its fields are
    strings and that its id (the first field) is unique.  The caller
    checks each record's references as it is yielded."""
    if not isinstance(doc[key], list):
        raise TilingFormatError(f"{key!r} must be a list")
    seen = set()
    for entry in doc[key]:
        if not isinstance(entry, dict):
            raise TilingFormatError(f"each {noun} must be an object")
        try:
            values = tuple(entry[field] for field in fields)
        except KeyError as exc:
            raise TilingFormatError(
                f"{noun} missing key {exc.args[0]!r}") from exc
        if not all(isinstance(x, str) for x in values):
            raise TilingFormatError(f"{noun} fields must be strings")
        if values[0] in seen:
            raise TilingFormatError(f"duplicate {noun} id {values[0]!r}")
        seen.add(values[0])
        yield values


def _tiling_from_doc(doc: dict) -> QuiverOnTorus:
    """A quiver document's tiling, with unique ids and no dangling
    references; the torus axioms are left to :func:`validate`."""
    for key in ("arrows", "faces"):
        if key not in doc:
            raise TilingFormatError(f"missing key {key!r}")

    vertices = _string_list(doc, "vertices")
    if len(set(vertices)) != len(vertices):
        raise TilingFormatError("duplicate vertex id")

    arrows = []
    for aid, src, tgt in _records(doc, "arrows", "arrow", "id", "src", "tgt"):
        arrows.append(Arrow(arrow_id=aid, source=src, target=tgt))
        _check_arrow(arrows[-1], vertices)
    known = {a.arrow_id for a in arrows}

    faces = []
    if not isinstance(doc["faces"], list):
        raise TilingFormatError("'faces' must be a list")
    for n, entry in enumerate(doc["faces"]):
        if not isinstance(entry, dict):
            raise TilingFormatError("each face must be an object")
        sign = entry.get("sign")
        cycle = entry.get("cycle")
        if sign not in ("+", "-"):
            raise TilingFormatError(f"face {n} sign must be '+' or '-'")
        if (not isinstance(cycle, list) or not cycle
                or not all(isinstance(x, str) for x in cycle)):
            raise TilingFormatError(
                f"face {n} cycle must be a nonempty list of arrow ids")
        _check_cycle(n, cycle, known)
        faces.append(Face(sign=1 if sign == "+" else -1, arrows=tuple(cycle)))

    return QuiverOnTorus(vertices=tuple(vertices), arrows=tuple(arrows),
                         faces=tuple(faces))


def _check_arrow(arrow: Arrow, vertices) -> None:
    if arrow.source not in vertices or arrow.target not in vertices:
        raise TilingFormatError(
            f"arrow {arrow.arrow_id!r} references an unknown vertex")


def _check_cycle(n: int, cycle: Sequence, known) -> None:
    for aid in cycle:
        if aid not in known:
            raise TilingFormatError(
                f"face {n} references unknown arrow {aid!r}")


# ---------------------------------------------------------------------------
# dimer documents
# ---------------------------------------------------------------------------


class DimerEdge(NamedTuple):
    edge_id: str
    white: str
    black: str


class DimerGraph(NamedTuple):
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


def _dimer_from_doc(doc: dict) -> DimerGraph:
    for key in ("white", "black", "edges", "rotation"):
        if key not in doc:
            raise TilingFormatError(f"missing key {key!r}")

    white = _string_list(doc, "white")
    black = _string_list(doc, "black")
    nodes = white + black
    if len(set(nodes)) != len(nodes):
        raise TilingFormatError("duplicate node id")

    edges = []
    for eid, w, b in _records(doc, "edges", "edge", "id", "white", "black"):
        if w not in white:
            raise TilingFormatError(f"edge {eid!r}: unknown white node {w!r}")
        if b not in black:
            raise TilingFormatError(f"edge {eid!r}: unknown black node {b!r}")
        edges.append(DimerEdge(edge_id=eid, white=w, black=b))

    rotation_doc = doc["rotation"]
    if not isinstance(rotation_doc, dict):
        raise TilingFormatError("'rotation' must be an object")
    incident = {node: [] for node in nodes}
    for e in edges:
        incident[e.white].append(e.edge_id)
        incident[e.black].append(e.edge_id)
    rotation = []
    for node in nodes:
        cycle = rotation_doc.get(node)
        if cycle is None:
            raise TilingFormatError(f"rotation missing node {node!r}")
        if not isinstance(cycle, list) or not all(isinstance(x, str) for x in cycle):
            raise TilingFormatError(
                f"rotation at {node!r} must be a list of edge ids")
        if sorted(cycle) != sorted(incident[node]):
            raise TilingFormatError(
                f"rotation at {node!r} must list each incident edge exactly once")
        rotation.append((node, tuple(cycle)))
    extra = set(rotation_doc) - set(nodes)
    if extra:
        raise TilingFormatError(
            f"rotation lists unknown node {sorted(extra)[0]!r}")

    return DimerGraph(white=tuple(white), black=tuple(black),
                      edges=tuple(edges), rotation=tuple(rotation))


def dualize_dimer(graph: DimerGraph) -> QuiverOnTorus:
    """Dualize an embedded bipartite graph into a quiver tiling.

    Quiver vertices are the oriented strips of the embedding: orbits of
    the step ``(edge, entering node) -> (next edge around that node,
    its other endpoint)``.  Every edge crosses two strips and becomes an
    arrow from the one alongside its white end to the one alongside its
    black end.  A node of degree < 2 raises TilingFormatError.  As with a
    quiver document read by :func:`load_document`, the dual is returned
    unvalidated: the torus axioms, such as the traced surface's
    vanishing Euler count, are checked by :func:`validate`.
    """
    rotation = graph.rotation_map()
    for node, cycle in rotation.items():
        if len(cycle) < 2:
            raise TilingFormatError(f"node {node!r} has degree < 2")
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

    return QuiverOnTorus(vertices=tuple(vertices), arrows=arrows,
                         faces=tuple(faces))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


class ValidationReport(NamedTuple):
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
    * ``connected`` — the underlying graph is one component, so the
      empty quiver, with none, fails.

    ``nondegenerate`` reports whether every arrow lies in at least one
    perfect matching; it is only computed when the structural rules all
    pass, and without enumerating the matchings.  Each arrow is then one
    edge between its positive and its negative face, and a perfect
    matching is a perfect matching of that bipartite graph.  One is
    found by augmenting paths; an arrow outside it lies in some perfect
    matching iff its two faces are in the same strongly connected
    component of the graph orienting matched arrows from the positive
    to the negative face and all other arrows back (Dulmage and
    Mendelsohn).  A passing report certifies these axioms and nothing
    more.  A dangling reference raises TilingFormatError, as in
    :func:`load_document`.
    """
    for arrow in tiling.arrows:
        _check_arrow(arrow, tiling.vertices)
    amap = tiling.arrow_map
    for n, face in enumerate(tiling.faces):
        _check_cycle(n, face.arrows, amap)
    violations = []

    for aid in amap:
        plus, minus = tiling._faces_by_arrow.get(aid, ((), ()))
        if len(plus) != 1 or len(minus) != 1:
            violations.append((
                "arrow-face-incidence",
                f"arrow {aid!r} lies in {len(plus)} positive and "
                f"{len(minus)} negative faces (need one of each)"))

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

    # with each arrow both ways, connected is one strong component
    node = {v: n for n, v in enumerate(tiling.vertices)}
    succ = [[] for _ in tiling.vertices]
    for a in tiling.arrows:
        succ[node[a.source]].append(node[a.target])
        succ[node[a.target]].append(node[a.source])
    if len(set(_strong_components(succ))) != 1:
        violations.append(("connected", "underlying graph is not connected"))

    nondegenerate = False
    if not violations and check_nondegeneracy:
        nondegenerate = _nondegenerate(tiling)

    return ValidationReport(ok=not violations, violations=tuple(violations),
                            nondegenerate=nondegenerate)


def _nondegenerate(tiling: QuiverOnTorus) -> bool:
    """Whether every arrow lies in some perfect matching, for a tiling
    in which every arrow lies in one positive and one negative face.

    Nodes are the faces, positive ones first; each arrow is an edge
    ``(positive face, negative face)``.  With no perfect matching at
    all, only a tiling without arrows, where the claim is vacuous,
    counts as nondegenerate; no such tiling passes :func:`validate`'s
    rules.
    """
    plus = [j for j, f in enumerate(tiling.faces) if f.sign == 1]
    minus = [j for j, f in enumerate(tiling.faces) if f.sign == -1]
    node = {j: n for n, j in enumerate(plus + minus)}
    edges = [(aid, node[u], node[v])
             for aid, ([u], [v]) in tiling._faces_by_arrow.items()]

    mate = _perfect_matching(len(plus), len(minus), edges)
    if mate is None:
        return not tiling.arrows
    matched = set(mate)
    succ = [[] for _ in node]
    for aid, u, v in edges:
        if aid in matched:
            succ[u].append(v)
        else:
            succ[v].append(u)
    component = _strong_components(succ)
    return all(component[u] == component[v]
               for aid, u, v in edges if aid not in matched)


def _perfect_matching(n_left: int, n_right: int, edges: list):
    """The edge ids of a perfect matching of a bipartite multigraph, or
    None.  ``edges`` are ``(id, left node, right node)`` with left nodes
    ``0 .. n_left - 1`` and right nodes after them.  Each left node is
    matched in turn along an augmenting path, found by an iterative
    depth-first search."""
    if n_left != n_right:
        return None
    out = [[] for _ in range(n_left)]
    for eid, u, v in edges:
        out[u].append((eid, v))
    mate: dict = {}  # right node -> (left node, edge id)
    for root in range(n_left):
        seen = set()
        stack = [(root, iter(out[root]))]
        path = []  # path[i]: the edge taken from stack[i]
        while stack:
            for eid, v in stack[-1][1]:
                if v not in seen:
                    seen.add(v)
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
                continue
            path.append((eid, v))
            if v not in mate:
                for (u, _), (e, w) in zip(stack, path):
                    mate[w] = (u, e)
                break
            u = mate[v][0]
            stack.append((u, iter(out[u])))
        else:
            return None
    return [eid for _, eid in mate.values()]


def _strong_components(succ: list) -> list:
    """A component label per node of a directed graph given by its
    successor lists, by Kosaraju's two passes, without recursion."""
    order, seen = [], [False] * len(succ)
    for root in range(len(succ)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            node, rest = stack[-1]
            for w in rest:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                order.append(node)
    pred = [[] for _ in succ]
    for u, ws in enumerate(succ):
        for w in ws:
            pred[w].append(u)
    label = [-1] * len(succ)
    for root in reversed(order):
        if label[root] >= 0:
            continue
        label[root] = root
        stack = [root]
        while stack:
            for w in pred[stack.pop()]:
                if label[w] < 0:
                    label[w] = root
                    stack.append(w)
    return label


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
    raise TilingFormatError("document is neither a quiver (no 'vertices' key) "
                            "nor a dimer graph (no 'white'/'black' keys)")
