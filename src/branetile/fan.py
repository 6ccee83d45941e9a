"""Fans of rational cones in the plane-plus-height lattice.

The moduli fan of a generic stability parameter has one ray per stable
perfect matching — the matching's functional, a primitive vector at
height one over its toric-diagram point — and one cone per stable union
of matchings, spanned by the rays of the matchings the union contains.

Validation is structural and complete for the fans this package
builds: every listed ray of a cone must be extreme, every cone must be
a face of a maximal cone whose faces are all listed, and every two
maximal cones must admit a separating functional vanishing exactly on
their shared rays — which, for a face-closed collection, is exactly
the condition that all pairwise intersections are common faces.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Sequence

from . import lattice, rational
from .errors import ConsistencyError, DegenerateInputError
from .matchings import (ToricDiagram, doubled_area, lattice_points_in_hull,
                        matching_id_key)
from .stability import enumerate_stable_subsets
from .tiling import QuiverOnTorus


@dataclasses.dataclass(frozen=True)
class FanRay:
    ray_id: str
    vector: tuple


@dataclasses.dataclass(frozen=True)
class FanCone:
    ray_ids: frozenset
    dim: int


@dataclasses.dataclass(frozen=True)
class Fan:
    rays: tuple
    cones: tuple

    def ray_vector(self, ray_id: str) -> tuple:
        for ray in self.rays:
            if ray.ray_id == ray_id:
                return ray.vector
        raise KeyError(ray_id)

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

    Rays are the functionals of the stable matchings; these must come
    out primitive and at height one, and no two stable matchings may
    share a point — violations raise ConsistencyError, as does any
    failure of the fan axioms.
    """
    return _fan_of_subsets(enumerate_stable_subsets(tiling, theta, matchings),
                           matchings)


def _fan_of_subsets(subsets: Sequence, matchings: Sequence) -> Fan:
    """The validated fan with one cone per stable subset."""
    by_id = {m.matching_id: m for m in matchings}

    stable_ids = sorted({mid for s in subsets for mid in s.matching_ids},
                        key=matching_id_key)
    rays = []
    seen_vectors: dict = {}
    for mid in stable_ids:
        vec = by_id[mid].chi_kernel
        if lattice.vec_gcd(vec) != 1:
            raise ConsistencyError(
                f"ray of stable matching {mid} is not primitive: {vec}")
        if vec[2] != 1:
            raise ConsistencyError(
                f"ray of stable matching {mid} is not at height one: {vec}")
        if vec in seen_vectors:
            raise ConsistencyError(
                f"stable matchings {seen_vectors[vec]} and {mid} share "
                f"the ray {vec}")
        seen_vectors[vec] = mid
        rays.append(FanRay(ray_id=mid, vector=vec))

    cones = tuple(FanCone(ray_ids=frozenset(s.matching_ids), dim=s.dim)
                  for s in subsets)
    fan = Fan(rays=tuple(rays), cones=cones)
    validate_fan(fan)
    return fan


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


def _cone_faces(vectors_by_id: dict) -> set:
    """Ray-id sets of all faces of the cone generated by the given
    rays (assumed extreme), via supporting-hyperplane incidence."""
    ids = sorted(vectors_by_id, key=matching_id_key)
    if not ids:
        return {frozenset()}
    dim = len(next(iter(vectors_by_id.values())))
    drays, dlin = rational.dual_cone([vectors_by_id[i] for i in ids], dim)
    facets = []
    for d in drays:
        facets.append(frozenset(
            i for i in ids if rational.fdot(d, vectors_by_id[i]) == 0))
    faces = {frozenset(ids)}
    frontier = {frozenset(ids)}
    while frontier:
        fresh = set()
        for face in frontier:
            for facet in facets:
                meet = face & facet
                if meet not in faces:
                    faces.add(meet)
                    fresh.add(meet)
        frontier = fresh
    faces.add(frozenset())  # the zero cone is a face of every pointed cone
    return faces


def validate_fan(fan: Fan) -> None:
    """Raise ConsistencyError unless the cones form a fan.

    Checks: distinct primitive nonzero rays; per cone, the declared
    dimension is the rank of its rays and every listed ray is extreme;
    every face of every maximal cone is listed and every cone is a face
    of some maximal cone; and every two maximal cones meet in the cone
    of their shared rays (separation criterion).  Together these are
    exactly the fan axioms.
    """
    vectors = {}
    for ray in fan.rays:
        if all(x == 0 for x in ray.vector):
            raise ConsistencyError(f"ray {ray.ray_id} is the zero vector")
        if lattice.vec_gcd(ray.vector) != 1:
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

    dim = len(fan.rays[0].vector) if fan.rays else 0
    faces_of = {}
    for cone in fan.cones:
        unknown = cone.ray_ids - set(vectors)
        if unknown:
            raise ConsistencyError(
                f"cone uses unlisted ray {sorted(unknown)[0]!r}")
        ids = sorted(cone.ray_ids, key=matching_id_key)
        vecs = [vectors[i] for i in ids]
        rk = rational.frank(vecs, dim) if vecs else 0
        if rk != cone.dim:
            raise ConsistencyError(
                f"cone {sorted(cone.ray_ids)} declares dimension "
                f"{cone.dim} but spans rank {rk}")
        if rk == len(vecs):
            # simplicial: independent rays are extreme, the cone is
            # strongly convex, and the faces are exactly the subsets
            faces = {frozenset(sub) for r in range(len(ids) + 1)
                     for sub in itertools.combinations(ids, r)}
        else:
            extreme, lineality = rational.extreme_rays(vecs, dim)
            if lineality:
                raise ConsistencyError(
                    f"cone {sorted(cone.ray_ids)} is not strongly convex")
            if set(extreme) != set(tuple(v) for v in vecs):
                raise ConsistencyError(
                    f"cone {sorted(cone.ray_ids)} lists a non-extreme ray")
            faces = _cone_faces({i: vectors[i] for i in cone.ray_ids})
        faces_of[cone.ray_ids] = faces

    max_sets = [c.ray_ids for c in fan.max_cones()]
    for m in max_sets:
        for face in faces_of[m]:
            if face not in cone_sets:
                raise ConsistencyError(
                    f"face {sorted(face)} of cone {sorted(m)} "
                    f"is not a cone of the fan")
    for cone in fan.cones:
        if not any(cone.ray_ids in faces_of[m] for m in max_sets
                   if cone.ray_ids <= m):
            raise ConsistencyError(
                f"cone {sorted(cone.ray_ids)} is not a face of any "
                f"maximal cone")
    for a, b in itertools.combinations(max_sets, 2):
        if not _meet_in_common_face(a, b, vectors, dim):
            raise ConsistencyError(
                f"cones {sorted(a)} and {sorted(b)} "
                f"overlap beyond a common face")


def fans_equal(first: Fan, second: Fan) -> bool:
    """Geometric equality: same ray vectors, same cones of vectors."""
    fa = {frozenset(first.vector_map()[i] for i in c.ray_ids)
          for c in first.cones}
    fb = {frozenset(second.vector_map()[i] for i in c.ray_ids)
          for c in second.cones}
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


@dataclasses.dataclass(frozen=True)
class Triangulation:
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

    Each fan is built from the stable subsets the chamber carries.
    Returns a list of lists of chamber indices, sorted by first member.
    """
    signatures = []
    for chamber in chambers:
        fan = _fan_of_subsets(chamber.stable_subsets, matchings)
        vm = fan.vector_map()
        signatures.append(
            frozenset(frozenset(vm[i] for i in c.ray_ids)
                      for c in fan.cones))
    groups: dict = {}
    for chamber, sig in zip(chambers, signatures):
        groups.setdefault(sig, []).append(chamber.index)
    return sorted(groups.values(), key=lambda g: g[0])
