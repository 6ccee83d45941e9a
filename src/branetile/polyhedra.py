"""Exact rational polyhedra and the quotient construction.

The cone spanned by the arrow weights of a tiling is full-dimensional
and pointed in the weight lattice; shifting it by a preimage of a
stability parameter under the degree map and slicing along the kernel
lattice produces a three-dimensional polyhedron whose normal fan — on
the faces that meet the slice transversally — is the quotient fan of
the parameter.  Support functions of weights descend along the same
slice, one integer functional per maximal cone, when the complementary
sublattice condition (free action on the stratum) holds.

Everything is exact: vertices are tuples of Fractions, rays and
normals are primitive integer tuples, inequalities are ``a . x >= b``.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction
from math import ceil, floor
from typing import Sequence
from weakref import WeakKeyDictionary

from . import lattice, rational
from .errors import ConsistencyError
from .fan import Fan, FanCone, FanRay, validate_fan
from .matchings import matching_id_key


@dataclasses.dataclass(frozen=True)
class Polyhedron:
    """A rational polyhedron carrying both of its descriptions.

    ``vertices`` lists one point per minimal face (honest vertices when
    there is no lineality), ``rays`` and ``lineality`` span the
    recession directions, and ``inequalities``/``equalities`` cut the
    same set out.  The inequality list is kept in the order it was
    built in — faces index into it.
    """

    ambient_dim: int
    vertices: tuple
    rays: tuple
    lineality: tuple
    inequalities: tuple  # of (normal tuple, offset Fraction)
    equalities: tuple

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def dim(self) -> int:
        if self.is_empty:
            return -1
        v0 = self.vertices[0]
        spanning = [tuple(Fraction(a) - Fraction(b) for a, b in zip(v, v0))
                    for v in self.vertices[1:]]
        spanning += [rational.fvec(r) for r in self.rays]
        spanning += [rational.fvec(l) for l in self.lineality]
        return rational.frank(spanning, self.ambient_dim)

    def contains(self, point: Sequence) -> bool:
        p = rational.fvec(point)
        return (all(rational.fdot(a, p) >= b for a, b in self.inequalities)
                and all(rational.fdot(a, p) == b for a, b in self.equalities))


def polyhedron_from_inequalities(inequalities: Sequence, ambient_dim: int,
                                 equalities: Sequence = ()) -> Polyhedron:
    """Build the polyhedron ``{x : a . x >= b, e . x == c}``.

    The generator description is derived by dualizing the homogenized
    constraint cone; the inequality list is stored as given (scaled row
    by row), so callers can keep using their own indices.
    """
    ineqs = tuple((tuple(a), Fraction(b)) for a, b in inequalities)
    eqs = tuple((tuple(a), Fraction(b)) for a, b in equalities)

    rows = [(-b,) + rational.fvec(a) for a, b in ineqs if any(a) or b != 0]
    rows.append((Fraction(1),) + (Fraction(0),) * ambient_dim)
    for a, b in eqs:
        row = (-b,) + rational.fvec(a)
        rows.append(row)
        rows.append(tuple(-x for x in row))
    # Unsatisfiable constant constraints (0 >= b with b > 0) poison the
    # homogenization unless handled: they force t <= 0.
    for a, b in ineqs:
        if not any(a) and b > 0:
            rows.append((Fraction(-1),) + (Fraction(0),) * ambient_dim)
            break

    krays, klin = rational.dual_cone(rows, ambient_dim + 1)
    vertices = []
    recession = []
    lin = []
    for v in klin:
        if v[0] != 0:
            raise ConsistencyError("homogenization produced a bad lineality")
        lin.append(rational.integerize(v[1:]))
    for r in krays:
        t = r[0]
        if t > 0:
            vertices.append(tuple(Fraction(x, t) for x in r[1:]))
        elif t == 0:
            if any(r[1:]):
                recession.append(rational.integerize(r[1:]))
        else:
            raise ConsistencyError("homogenization produced t < 0")
    if not vertices:
        return Polyhedron(ambient_dim=ambient_dim, vertices=(), rays=(),
                          lineality=(), inequalities=ineqs, equalities=eqs)
    return Polyhedron(
        ambient_dim=ambient_dim,
        vertices=tuple(sorted(vertices)),
        rays=tuple(sorted(set(recession))),
        lineality=tuple(lin),
        inequalities=ineqs,
        equalities=eqs,
    )


def polyhedron_from_generators(vertices: Sequence, ambient_dim: int,
                               rays: Sequence = (),
                               lineality: Sequence = ()) -> Polyhedron:
    """Build the polyhedron ``conv(vertices) + cone(rays) + span(lineality)``."""
    if not vertices:
        return Polyhedron(ambient_dim=ambient_dim, vertices=(), rays=(),
                          lineality=(), inequalities=(), equalities=())
    gens = [(Fraction(1),) + rational.fvec(v) for v in vertices]
    gens += [(Fraction(0),) + rational.fvec(r) for r in rays]
    for l in lineality:
        row = (Fraction(0),) + rational.fvec(l)
        gens.append(row)
        gens.append(tuple(-x for x in row))
    # the dual rays are primitive, so the constraints need no rescaling
    drays, dlin = rational.dual_cone(gens, ambient_dim + 1)
    inequalities = [(tuple(a), Fraction(-c)) for c, *a in drays if any(a)]
    equalities = [(tuple(a), Fraction(-c)) for c, *a in dlin if any(a)]
    return polyhedron_from_inequalities(inequalities, ambient_dim,
                                        equalities=equalities)


# ---------------------------------------------------------------------------
# face lattice
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PolyFace:
    """A face, identified by its maximal active inequality set."""

    active: tuple      # sorted indices into the inequality list
    vertex_ids: tuple  # sorted indices into poly.vertices
    ray_ids: tuple     # sorted indices into poly.rays
    dim: int


def enumerate_faces(poly: Polyhedron) -> list:
    """All nonempty faces, by meet-closure of facet incidences.

    Every nonempty face contains a minimal face, and minimal faces are
    listed among the generators, so faces correspond exactly to the
    closed incidence pairs with at least one vertex.  Sorted by
    (dimension, active set).
    """
    if poly.is_empty:
        return []
    nv, nr = len(poly.vertices), len(poly.rays)
    vert_inc = []
    ray_inc = []
    for a, b in poly.inequalities:
        vert_inc.append(frozenset(
            i for i, v in enumerate(poly.vertices)
            if rational.fdot(a, v) == b))
        ray_inc.append(frozenset(
            j for j, r in enumerate(poly.rays)
            if rational.fdot(a, r) == 0))

    full = (frozenset(range(nv)), frozenset(range(nr)))
    closed = {full}
    frontier = {full}
    while frontier:
        fresh = set()
        for vs, rs in frontier:
            for vi, ri in zip(vert_inc, ray_inc):
                pair = (vs & vi, rs & ri)
                if pair[0] and pair not in closed:
                    closed.add(pair)
                    fresh.add(pair)
        frontier = fresh

    faces = []
    for vs, rs in closed:
        active = tuple(sorted(
            i for i in range(len(poly.inequalities))
            if vs <= vert_inc[i] and rs <= ray_inc[i]))
        v0 = poly.vertices[sorted(vs)[0]]
        spanning = [tuple(Fraction(a) - Fraction(b)
                          for a, b in zip(poly.vertices[i], v0))
                    for i in sorted(vs)[1:]]
        spanning += [rational.fvec(poly.rays[j]) for j in sorted(rs)]
        spanning += [rational.fvec(l) for l in poly.lineality]
        dim = rational.frank(spanning, poly.ambient_dim)
        faces.append(PolyFace(active=active, vertex_ids=tuple(sorted(vs)),
                              ray_ids=tuple(sorted(rs)), dim=dim))
    return sorted(faces, key=lambda f: (f.dim, f.active))


def face_contains(big: PolyFace, small: PolyFace) -> bool:
    return (set(small.vertex_ids) <= set(big.vertex_ids)
            and set(small.ray_ids) <= set(big.ray_ids))


def normal_cone_generators(poly: Polyhedron, face: PolyFace) -> tuple:
    """Generators ``(cone part, lineality part)`` of the normal cone of
    a face — the functionals minimized on it."""
    gens = [poly.inequalities[i][0] for i in face.active]
    lin = [a for a, _ in poly.equalities]
    return gens, lin


def relint_point(poly: Polyhedron, face: PolyFace) -> tuple:
    """A relative-interior point: the vertex average plus the ray sum."""
    n = len(face.vertex_ids)
    coords = []
    for i in range(poly.ambient_dim):
        total = sum((Fraction(poly.vertices[v][i]) for v in face.vertex_ids),
                    start=Fraction(0)) / n
        total += sum((Fraction(poly.rays[j][i]) for j in face.ray_ids),
                     start=Fraction(0))
        coords.append(total)
    return tuple(coords)


def integer_points(poly: Polyhedron) -> list:
    """All lattice points of a bounded polyhedron."""
    if poly.rays or poly.lineality:
        raise ValueError("polyhedron is unbounded")
    if poly.is_empty:
        return []
    lo = [min(v[i] for v in poly.vertices) for i in range(poly.ambient_dim)]
    hi = [max(v[i] for v in poly.vertices) for i in range(poly.ambient_dim)]
    ranges = [range(ceil(a), floor(b) + 1) for a, b in zip(lo, hi)]

    points = []

    def walk(i: int, partial: tuple) -> None:
        if i == poly.ambient_dim:
            if poly.contains(partial):
                points.append(partial)
            return
        for x in ranges[i]:
            walk(i + 1, partial + (x,))

    walk(0, ())
    return points


# ---------------------------------------------------------------------------
# the weight cone and its stability shifts
# ---------------------------------------------------------------------------

_weight_cone_cache: "WeakKeyDictionary" = WeakKeyDictionary()


def cone_of_arrow_weights(tower) -> Polyhedron:
    """The cone spanned by all arrow weights, with the origin as its
    single vertex.  Pointedness is asserted: a lineality direction
    would need arrows missed by every perfect matching."""
    cached = _weight_cone_cache.get(tower)
    if cached is not None:
        return cached
    k = tower.rank
    gens = []
    for aid in tower.arrow_ids:
        w = lattice.primitive(tower.weights[aid])
        if w not in gens:
            gens.append(w)
    poly = polyhedron_from_generators([(0,) * k], k, rays=gens)
    if poly.lineality:
        raise ConsistencyError("the cone of arrow weights is not pointed")
    if poly.dim != k:
        raise ConsistencyError(
            f"the cone of arrow weights has dimension {poly.dim}, "
            f"expected {k}")
    _weight_cone_cache[tower] = poly
    return poly


def shift_by_stability(tower, theta: Sequence) -> tuple:
    """The weight cone translated by ``-preimage`` of the parameter
    under the degree map.  Returns ``(polyhedron, preimage)``."""
    if sum(theta) != 0:
        raise ValueError("stability parameter entries must sum to zero")
    degree = [list(row) for row in tower.degree_matrix]
    lam = lattice.solve_integer(degree, list(theta))
    if lam is None:
        raise ConsistencyError(
            "stability parameter is not a degree (the tiling should make "
            "the degree map surjective onto sum-zero vectors)")
    cone = cone_of_arrow_weights(tower)
    shift = tuple(-x for x in lam)
    vertices = tuple(
        tuple(Fraction(c) + s for c, s in zip(v, shift))
        for v in cone.vertices)
    inequalities = tuple(
        (a, b + rational.fdot(a, shift)) for a, b in cone.inequalities)
    shifted = Polyhedron(
        ambient_dim=cone.ambient_dim, vertices=vertices, rays=cone.rays,
        lineality=cone.lineality, inequalities=inequalities,
        equalities=cone.equalities)
    return shifted, tuple(lam)


def kernel_polytope(tower, shifted: Polyhedron) -> Polyhedron:
    """The slice of a shifted weight cone along the kernel lattice,
    in kernel-basis coordinates.

    The inequality list restricts the ambient one *in the same order*,
    so active sets of the slice and of the ambient polyhedron use the
    same indices.
    """
    basis = tower.kernel_basis  # k x 3
    restricted = []
    for a, b in shifted.inequalities:
        ak = tuple(
            sum(a[i] * basis[i][j] for i in range(tower.rank))
            for j in range(3))
        restricted.append((ak, b))
    return polyhedron_from_inequalities(restricted, 3)


# ---------------------------------------------------------------------------
# faces meeting the slice, and the quotient fan
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class LiftedFace:
    """A face of the kernel slice together with its ambient lift.

    ``active`` indexes the shared inequality list; the lift is the
    ambient face with that active set.  ``stable`` records whether the
    lift meets the slice transversally (equivalently, restricting the
    active normals to the kernel does not drop rank).
    """

    slice_face: PolyFace
    active: tuple
    ambient_dim: int
    stable: bool


def lift_slice_faces(tower, shifted: Polyhedron,
                     slice_poly: Polyhedron) -> list:
    k = tower.rank
    lifted = []
    for face in enumerate_faces(slice_poly):
        ambient_normals = [shifted.inequalities[i][0] for i in face.active]
        restricted = [slice_poly.inequalities[i][0] for i in face.active]
        ra = rational.frank(ambient_normals, k)
        rr = rational.frank(restricted, 3)
        if 3 - rr != face.dim:
            raise ConsistencyError(
                "slice face dimension disagrees with its active set")
        lifted.append(LiftedFace(
            slice_face=face, active=face.active, ambient_dim=k - ra,
            stable=(ra == rr)))
    return lifted


def m_stable_faces(tower, shifted: Polyhedron,
                   slice_poly: "Polyhedron | None" = None) -> list:
    """The lifted faces that meet the kernel slice transversally."""
    if slice_poly is None:
        slice_poly = kernel_polytope(tower, shifted)
    return [f for f in lift_slice_faces(tower, shifted, slice_poly)
            if f.stable]


def _named_fan(cones: Sequence, ray_labels: "dict | None") -> Fan:
    """The fan of ``(dim, rays)`` cones; ``ray_labels`` maps ray
    vectors to names and the other rays get ``r1``, ``r2``, ... in
    lexicographic order."""
    labels = ray_labels or {}
    names = {}
    counter = 0
    for vec in sorted({v for _, rays in cones for v in rays}):
        if vec in labels:
            names[vec] = labels[vec]
        else:
            counter += 1
            names[vec] = f"r{counter}"
    if len(set(names.values())) != len(names):
        raise ConsistencyError("ray labels collide")
    return Fan(
        rays=tuple(FanRay(ray_id=name, vector=vec)
                   for vec, name in names.items()),
        cones=tuple(FanCone(ray_ids=frozenset(names[v] for v in rays),
                            dim=dim) for dim, rays in cones))


# Callers pass one slice to quotient_fan and then to
# descend_linear_functional once per weight, so remembering the last
# slice is enough; a larger memo would only pin old towers.
@functools.lru_cache(maxsize=1)
def _slice_cones(tower, shifted: Polyhedron, slice_poly: Polyhedron) -> tuple:
    """The validated normal cones of the transversal faces of a slice.

    Returns ``(cones, splitters)``.  ``cones`` lists, per transversal
    face, its cone dimension and the extreme rays of its normal cone.
    ``splitters`` has one entry per vertex lift, ``(mat, width, rays,
    factors)``: the splitting matrix whose first ``width`` columns span
    the lift and whose last three columns are the kernel basis, the
    face's rays, and the matrix's invariant factors.  The fan these
    cones form is validated here, once, under the default ray names;
    labels only rename its rays.
    """
    k = tower.rank
    basis = tower.kernel_basis
    cones = []
    splitters = []
    for face in m_stable_faces(tower, shifted, slice_poly):
        rays, lineality = rational.extreme_rays(
            [slice_poly.inequalities[i][0] for i in face.active], 3)
        if lineality:
            raise ConsistencyError(
                "normal cone of a slice face is not pointed")
        rays = tuple(rays)
        cones.append((3 - face.slice_face.dim, rays))
        if face.slice_face.dim != 0:
            continue
        normals = [list(shifted.inequalities[i][0]) for i in face.active]
        columns = [list(col) for col in lattice.integer_kernel(normals)]
        mat = tuple(
            tuple(columns[j][i] for j in range(len(columns)))
            + tuple(basis[i][j] for j in range(3))
            for i in range(k))
        factors = lattice.invariant_factors([list(r) for r in mat])
        splitters.append((mat, len(columns), rays, factors))
    if len({frozenset(rays) for _, rays in cones}) != len(cones):
        raise ConsistencyError("two transversal faces share one normal cone")
    validate_fan(_named_fan(cones, None))
    return tuple(cones), tuple(splitters)


def quotient_fan(tower, shifted: Polyhedron,
                 slice_poly: "Polyhedron | None" = None,
                 ray_labels: "dict | None" = None) -> Fan:
    """Normal fan of the kernel slice, restricted to the transversal
    faces.  The fan is validated once per slice: the cones of the last
    slice are remembered, so ``descend_linear_functional`` on the same
    slice does not validate again.

    ``ray_labels`` maps primitive ray vectors to names (matching ids);
    unlabeled rays get ``r1``, ``r2``, ... in lexicographic order.
    """
    if slice_poly is None:
        slice_poly = kernel_polytope(tower, shifted)
    cones, _ = _slice_cones(tower, shifted, slice_poly)
    return _named_fan(cones, ray_labels)


# ---------------------------------------------------------------------------
# descent of support functions
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class DescendedSupport:
    """A support function on the quotient fan.

    One integer functional per maximal cone, expressed in kernel-basis
    coordinates; ``ray_values`` tabulates the (consistent) values on
    the fan's rays.
    """

    fan: Fan
    cone_functionals: tuple  # of (frozenset of ray ids, functional)
    ray_values: tuple        # of (ray_id, value)

    def value_on_ray(self, ray_id: str) -> int:
        for rid, value in self.ray_values:
            if rid == ray_id:
                return value
        raise KeyError(ray_id)


def descend_linear_functional(tower, shifted: Polyhedron, weight: Sequence,
                              slice_poly: "Polyhedron | None" = None,
                              ray_labels: "dict | None" = None) -> DescendedSupport:
    """Descend the globally-linear support function of a weight to the
    quotient fan.

    Per maximal cone — the normal cone of a transversal lift ``F`` of a
    slice vertex — the weight is split as a part along ``F`` plus a
    kernel part; the split exists and is unique modulo nothing exactly
    when the span of ``F`` and the kernel lattice together fill the
    weight lattice as a direct summand (checked via invariant factors;
    failure means the torus action on that stratum is not free, and
    raises ConsistencyError).  Values on shared rays must agree across
    cones and are returned per ray.  The quotient fan comes from the
    same validated slice cones as ``quotient_fan``'s, so descending
    many weights along one slice validates the fan once.
    """
    if len(weight) != tower.rank:
        raise ValueError(
            f"weight has {len(weight)} entries for a rank-{tower.rank} "
            "lattice")
    if slice_poly is None:
        slice_poly = kernel_polytope(tower, shifted)
    cones, splitters = _slice_cones(tower, shifted, slice_poly)
    fan = _named_fan(cones, ray_labels)
    vector_to_id = {ray.vector: ray.ray_id for ray in fan.rays}

    for _, _, _, factors in splitters:
        if len(factors) != tower.rank or any(d != 1 for d in factors):
            raise ConsistencyError(
                "face span and kernel lattice do not complement each "
                "other (the stratum action is not free); invariant "
                f"factors {factors}")
    functionals = []
    values: dict = {}
    for mat, width, rays, _ in splitters:
        sol = lattice.solve_integer([list(row) for row in mat], list(weight))
        if sol is None:
            raise ConsistencyError(
                "weight does not split along a transversal face")
        m = tuple(sol[width:])

        ids = frozenset(vector_to_id[vec] for vec in rays)
        functionals.append((ids, m))
        for vec in rays:
            rid = vector_to_id[vec]
            value = lattice.dot(m, vec)
            if rid in values and values[rid] != value:
                raise ConsistencyError(
                    f"descended functionals disagree on ray {rid}: "
                    f"{values[rid]} vs {value}")
            values[rid] = value

    ray_values = tuple(sorted(values.items(),
                              key=lambda kv: matching_id_key(kv[0])))
    return DescendedSupport(fan=fan, cone_functionals=tuple(functionals),
                            ray_values=ray_values)
