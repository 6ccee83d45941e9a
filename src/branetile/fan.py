"""Fans of rational cones in the plane-plus-height lattice.

The moduli fan of a generic stability parameter has one ray per stable
perfect matching — the matching's functional, a primitive vector at
height one over its toric-diagram point — and one cone per stable union
of matchings, spanned by the rays of the matchings the union contains.
Those cones are certified where ``stability`` builds them, so only the
quotient route (``polyhedra``) runs :func:`validate_fan`.

Validation is structural and complete for simplicial fans, which are
all the fans this package builds (every crepant resolution is smooth):
the rays of every maximal cone must be linearly independent, every cone
must be a face of a maximal cone whose faces are all listed, and every two
maximal cones must admit a separating functional vanishing exactly on
their shared rays — which, for a face-closed collection, is exactly
the condition that all pairwise intersections are common faces.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import NamedTuple, Sequence

from . import lattice, rational
from .errors import ConsistencyError, DegenerateInputError
from .matchings import (ToricDiagram, doubled_area, lattice_points_in_hull,
                        matching_id_key)
from .stability import _theta_check, enumerate_stable_subsets
from .tiling import QuiverOnTorus


class FanRay(NamedTuple):
    ray_id: str
    vector: tuple


class FanCone(NamedTuple):
    ray_ids: frozenset
    dim: int


class Fan(NamedTuple):
    rays: tuple
    cones: tuple

    def vector_map(self) -> dict:
        return {ray.ray_id: ray.vector for ray in self.rays}

    def max_cones(self) -> list:
        sets = [c.ray_ids for c in self.cones]
        return [c for c in self.cones
                if not any(c.ray_ids < other for other in sets)]

    def cone_sets(self) -> set:
        return {c.ray_ids for c in self.cones}


# ---------------------------------------------------------------------------
# construction from a stability parameter
# ---------------------------------------------------------------------------

def moduli_fan(tiling: QuiverOnTorus, theta: Sequence,
               matchings: Sequence) -> Fan:
    """The fan of stable unions of matchings at a generic parameter.

    Rays are the functionals of the stable matchings; on every call
    these must come out primitive and at height one, and no two stable
    matchings may share a point — violations raise ConsistencyError.
    The cones are those of :func:`stability.enumerate_stable_subsets`,
    certified there as a unimodular triangulation of the diagram and
    its faces, so they form a fan and :func:`validate_fan` is not run.
    """
    subsets = enumerate_stable_subsets(tiling, theta, matchings)
    vectors = _ray_vectors(subsets, {m.matching_id: m for m in matchings})
    return Fan(rays=tuple(FanRay(ray_id=mid, vector=vec)
                          for mid, vec in vectors.items()),
               cones=tuple(FanCone(ray_ids=frozenset(s.matching_ids),
                                   dim=s.dim) for s in subsets))


def _ray_vectors(subsets: Sequence, by_id: dict) -> dict:
    """Ray id to vector, in matching-id order, for every matching the
    subsets contain; raises ConsistencyError unless the vectors are at
    height one, hence primitive, and distinct."""
    stable_ids = sorted({mid for s in subsets for mid in s.matching_ids},
                        key=matching_id_key)
    vectors: dict = {}
    seen_vectors: dict = {}
    for mid in stable_ids:
        vec = by_id[mid].chi_kernel
        if vec[2] != 1:
            raise ConsistencyError(
                f"ray of stable matching {mid} is not at height one: {vec}")
        if vec in seen_vectors:
            raise ConsistencyError(
                f"stable matchings {seen_vectors[vec]} and {mid} share "
                f"the ray {vec}")
        seen_vectors[vec] = mid
        vectors[mid] = vec
    return vectors


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _meet_in_common_face(a: frozenset, b: frozenset, vectors: dict,
                         dim: int) -> bool:
    """Whether two cones (with extreme listed rays) intersect exactly
    in the cone of their shared rays, via the separation criterion: a
    functional zero on the shared rays, positive on the rest of the
    first cone and negative on the rest of the second exists iff the
    intersection is that common face."""
    common = a & b
    strict = [vectors[r] for r in sorted(a - common, key=matching_id_key)]
    strict += [tuple(-x for x in vectors[r])
               for r in sorted(b - common, key=matching_id_key)]
    eqs = [vectors[r] for r in sorted(common, key=matching_id_key)]
    return rational.strict_feasible_point(strict, eqs, dim) is not None


def validate_fan(fan: Fan) -> None:
    """Raise ConsistencyError unless the cones form a fan.

    Checks: distinct primitive nonzero rays of one length; per maximal
    cone, that its rays are linearly independent (a non-simplicial
    cone is refused) and each of its faces listed; every cone is a face
    of some maximal cone, of that face's dimension; and every two
    maximal cones meet in the cone of their shared rays (separation
    criterion).  For simplicial cones these are exactly the fan axioms;
    a face of a checked maximal cone needs no check of its own.
    """
    dim = len(fan.rays[0].vector) if fan.rays else 0
    vectors = {}
    for ray in fan.rays:
        if len(ray.vector) != dim:
            raise ConsistencyError(
                f"ray {ray.ray_id} has {len(ray.vector)} coordinates, "
                f"not the first ray's {dim}")
        if all(x == 0 for x in ray.vector):
            raise ConsistencyError(f"ray {ray.ray_id} is the zero vector")
        if gcd(*ray.vector) != 1:
            raise ConsistencyError(
                f"ray {ray.ray_id} is not primitive: {ray.vector}")
        if ray.vector in vectors.values():
            raise ConsistencyError(
                f"duplicate ray vector {ray.vector} ({ray.ray_id})")
        vectors[ray.ray_id] = ray.vector

    cone_sets = fan.cone_sets()
    if len(cone_sets) != len(fan.cones):
        raise ConsistencyError("fan lists a cone twice")
    if frozenset() not in cone_sets:
        raise ConsistencyError("fan is missing the zero cone")

    for cone in fan.cones:
        unknown = cone.ray_ids - vectors.keys()
        if unknown:
            raise ConsistencyError(
                f"cone uses unlisted ray {sorted(unknown)[0]!r}")

    face_dims = {}  # every face of a maximal cone -> its dimension
    max_sets = [c.ray_ids for c in fan.max_cones()]
    for m in max_sets:
        ids = sorted(m, key=matching_id_key)
        if rational.frank([vectors[i] for i in ids]) != len(ids):
            raise ConsistencyError(f"cone {sorted(m)} is not simplicial")
        # independent rays are extreme, the cone is strongly convex,
        # and its faces are exactly the subsets of its rays
        faces = {frozenset(sub): r for r in range(len(ids) + 1)
                 for sub in itertools.combinations(ids, r)}
        for face in faces:
            if face not in cone_sets:
                raise ConsistencyError(
                    f"face {sorted(face)} of cone {sorted(m)} "
                    f"is not a cone of the fan")
        face_dims.update(faces)
    for cone in fan.cones:
        if cone.ray_ids not in face_dims:
            raise ConsistencyError(
                f"cone {sorted(cone.ray_ids)} is not a face of any "
                f"maximal cone")
        if face_dims[cone.ray_ids] != cone.dim:
            raise ConsistencyError(
                f"cone {sorted(cone.ray_ids)} declares dimension "
                f"{cone.dim} but spans rank {face_dims[cone.ray_ids]}")
    for a, b in itertools.combinations(max_sets, 2):
        if not _meet_in_common_face(a, b, vectors, dim):
            raise ConsistencyError(
                f"cones {sorted(a)} and {sorted(b)} "
                f"overlap beyond a common face")


def fans_equal(first: Fan, second: Fan) -> bool:
    """Geometric equality: same ray vectors, same cones of vectors."""
    va, vb = first.vector_map(), second.vector_map()
    fa = {frozenset(va[i] for i in c.ray_ids) for c in first.cones}
    fb = {frozenset(vb[i] for i in c.ray_ids) for c in second.cones}
    return fa == fb


# ---------------------------------------------------------------------------
# smoothness and triangulations
# ---------------------------------------------------------------------------

def check_smooth(fan: Fan) -> bool:
    """Whether every maximal cone is unimodular (simplicial with its
    rays extendable to a lattice basis)."""
    vectors = fan.vector_map()
    for cone in fan.max_cones():
        vecs = [list(vectors[i])
                for i in sorted(cone.ray_ids, key=matching_id_key)]
        if not vecs:
            continue
        if len(vecs) != cone.dim:
            return False
        if any(d != 1 for d in lattice.invariant_factors(vecs)):
            return False
    return True


class Triangulation(NamedTuple):
    """The triangulation of the toric diagram induced by a smooth fan."""

    triangles: tuple  # of sorted ray-id triples
    edges: tuple      # of sorted ray-id pairs
    ray_points: tuple  # of (ray_id, (x, y))


def triangulation(fan: Fan, diagram: ToricDiagram) -> Triangulation:
    """Read off the diagram triangulation from a smooth fan.

    Raises DegenerateInputError when the fan is singular, and
    ConsistencyError when the fan does not triangulate the hull — the
    triangle count must equal the hull's doubled area and every lattice
    point of the hull must be hit by a ray.
    """
    if not check_smooth(fan):
        raise DegenerateInputError(
            "fan is singular; its cones do not induce a triangulation")
    vectors = fan.vector_map()
    pts = {rid: vec[:2] for rid, vec in vectors.items()}
    diagram_points = {p for _, p in diagram.points}
    for rid, p in pts.items():
        if p not in diagram_points:
            raise ConsistencyError(
                f"ray {rid} sits at {p}, which is not a diagram point")

    triangles = tuple(sorted(
        tuple(sorted(c.ray_ids, key=matching_id_key))
        for c in fan.cones if c.dim == 3))
    edges = tuple(sorted(
        tuple(sorted(c.ray_ids, key=matching_id_key))
        for c in fan.cones if c.dim == 2))

    area = doubled_area(list(diagram.hull))
    if len(triangles) != area:
        raise ConsistencyError(
            f"{len(triangles)} triangles cannot tile a hull of doubled "
            f"area {area}")
    used = {p for tri in triangles for p in (pts[r] for r in tri)}
    for point in lattice_points_in_hull(list(diagram.hull)):
        if point not in used:
            raise ConsistencyError(
                f"hull lattice point {point} is not a triangle vertex")
    return Triangulation(
        triangles=triangles, edges=edges,
        ray_points=tuple(sorted(pts.items(),
                                key=lambda kv: matching_id_key(kv[0]))))


# ---------------------------------------------------------------------------
# geometric grouping of chambers
# ---------------------------------------------------------------------------

def git_equivalence_classes(tiling: QuiverOnTorus, chambers: Sequence,
                            matchings: Sequence) -> list:
    """Group chambers whose moduli fans agree geometrically.

    Each chamber's representative must fit the tiling (ValueError
    otherwise).  Once per distinct stable structure, its fan is keyed by
    the sorted tuple of every cone's sorted ray vectors and dimension;
    :func:`_ray_vectors` makes ids to vectors injective, so equal keys
    are equal fans.  The fans are not validated.

    Returns a list of lists of chamber indices, sorted by first member.
    """
    by_id = {m.matching_id: m for m in matchings}
    group_of: dict = {}  # stable structure -> its geometry's group
    groups: dict = {}  # geometry key -> chamber indices
    for chamber in chambers:
        _theta_check(tiling.vertices, chamber.representative)
        structure = tuple((s.matching_ids, s.dim)
                          for s in chamber.stable_subsets)
        group = group_of.get(structure)
        if group is None:
            vectors = _ray_vectors(chamber.stable_subsets, by_id)
            key = tuple(sorted(
                (tuple(sorted(vectors[i] for i in s.matching_ids)), s.dim)
                for s in chamber.stable_subsets))
            group = group_of[structure] = groups.setdefault(key, [])
        group.append(chamber.index)
    return sorted(groups.values(), key=lambda g: g[0])
