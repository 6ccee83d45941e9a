"""Exact rational polyhedra and the quotient construction.

The cone spanned by the arrow weights of a tiling is full-dimensional
and pointed in the weight lattice; shifting it by a preimage of a
stability parameter under the degree map and slicing along the kernel
lattice produces a three-dimensional polyhedron whose normal fan — on
the faces that meet the slice transversally — is the quotient fan of
the parameter.  Support functions of weights descend along the same
slice, one integer functional per maximal cone, when the complementary
sublattice condition (free action on the stratum) holds.

The slice is handled without cone duality.  Its face lattice comes
from integer incidences, with each face's dimension read from the
lattice's grading.  Because the slice is full-dimensional, the normal
cone of a face is pointed and its extreme rays are the normals of the
facets containing the face, each read once from the facet's active
rows.  Each vertex cone's splitting matrix is factored by one Smith
normal form; when it is unimodular its inverse splits every weight.

Everything is exact: vertices are tuples of Fractions, rays and
normals are primitive integer tuples, inequalities are ``a . x >= b``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor, lcm, prod
from operator import mul
from typing import NamedTuple, Sequence
from weakref import WeakKeyDictionary

from . import lattice, rational
from .errors import ConsistencyError, DegenerateInputError
from .fan import Fan, FanCone, FanRay, validate_fan
from .matchings import matching_id_key
from .stability import _theta_check


class Polyhedron(NamedTuple):
    """A rational polyhedron carrying both of its descriptions.

    ``vertices`` lists one point per minimal face (honest vertices when
    there is no lineality), ``rays`` and ``lineality`` span the
    recession directions, and ``inequalities`` cut the same set out.
    The inequality list is kept in the order it was built in — faces
    index into it.
    """

    ambient_dim: int
    vertices: tuple
    rays: tuple
    lineality: tuple
    inequalities: tuple  # of (normal tuple, offset Fraction)

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def dim(self) -> int:
        if self.is_empty:
            return -1
        return _affine_rank(self, range(len(self.vertices)),
                            range(len(self.rays)))

    def contains(self, point: Sequence) -> bool:
        if len(point) != self.ambient_dim:
            raise ValueError(f"point has {len(point)} entries, not "
                             f"ambient dimension {self.ambient_dim}")
        return all(lattice.dot(a, point) >= b for a, b in self.inequalities)


def _affine_rank(poly: Polyhedron, vertex_ids: Sequence,
                 ray_ids: Sequence) -> int:
    """Dimension of the hull of some vertices, plus the cone of some
    rays and the lineality space."""
    v0 = poly.vertices[vertex_ids[0]]
    spanning = [tuple(a - b for a, b in zip(poly.vertices[i], v0))
                for i in vertex_ids[1:]]
    spanning += [poly.rays[j] for j in ray_ids]
    spanning += poly.lineality
    return rational.frank(spanning)


def polyhedron_from_inequalities(inequalities: Sequence,
                                 ambient_dim: int) -> Polyhedron:
    """Build the polyhedron ``{x : a . x >= b}``.

    The generator description is derived by dualizing the homogenized
    constraint cone, its integer rows ``(-b, a)`` times b's denominator;
    the inequality list is stored as given, so callers can keep using
    their own indices.
    """
    ineqs = tuple((tuple(a), Fraction(b)) for a, b in inequalities)

    # t >= 0 first, which keeps the double description's cones small
    rows = [(1,) + (0,) * ambient_dim]
    rows += [(-b.numerator, *(x * b.denominator for x in a)) for a, b in ineqs]
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
            recession.append(rational.integerize(r[1:]))
        else:
            raise ConsistencyError("homogenization produced t < 0")
    if not vertices:
        return Polyhedron(ambient_dim=ambient_dim, vertices=(), rays=(),
                          lineality=(), inequalities=ineqs)
    return Polyhedron(
        ambient_dim=ambient_dim,
        vertices=tuple(sorted(vertices)),
        rays=tuple(sorted(set(recession))),
        lineality=tuple(lin),
        inequalities=ineqs,
    )


# ---------------------------------------------------------------------------
# face lattice
# ---------------------------------------------------------------------------

class PolyFace(NamedTuple):
    """A face, identified by its maximal active inequality set."""

    active: tuple      # sorted indices into the inequality list
    vertex_ids: tuple  # sorted indices into poly.vertices
    ray_ids: tuple     # sorted indices into poly.rays
    dim: int


def enumerate_faces(poly: Polyhedron) -> list:
    """All nonempty faces, from :func:`rational.face_lattice` on the
    facet incidences, vertex bits first and ray bits above them; each
    face's dimension adds the lineality's.  Incidences are tested on
    integers: each vertex is scaled once by the lcm of its
    denominators, and a ray is a generator of scale zero.  Sorted by
    (dimension, active set).
    """
    if poly.is_empty:
        return []
    gens = []  # (integer point, scale): vertex v is point / scale
    for v in poly.vertices:
        den = lcm(*(x.denominator for x in v))
        gens.append(([x.numerator * (den // x.denominator) for x in v], den))
    nv, nr = len(poly.vertices), len(poly.rays)
    gens += ((r, 0) for r in poly.rays)
    bits = range(nv + nr)
    incidences = [  # per inequality: the generators on it
        sum([1 << g for g, (num, den) in zip(bits, gens)
             if sum(map(mul, a, num)) * q == p * den])
        for a, p, q in [(a, b.numerator, b.denominator)
                        for a, b in poly.inequalities]]
    lineality_dim = rational.frank(poly.lineality)
    faces = []
    for face, dim in rational.face_lattice(
            incidences, (1 << nv + nr) - 1, (1 << nv) - 1).items():
        on = [g for g in bits if face >> g & 1]
        faces.append(PolyFace(
            tuple([i for i, c in enumerate(incidences) if face & c == face]),
            tuple([g for g in on if g < nv]),
            tuple([g - nv for g in on if g >= nv]), lineality_dim + dim))
    return sorted(faces, key=lambda f: (f.dim, f.active))


# Section polytopes' boxes grow with the cube of the height cap;
# 10**5 points are filtered in well under a second.
_MAX_BOX_POINTS = 10 ** 5


def integer_points(poly: Polyhedron) -> list:
    """All lattice points of a bounded polyhedron, filtered from its
    bounding box.  Raises DegenerateInputError, before any point is
    tried, when the box holds more than ``_MAX_BOX_POINTS`` points."""
    if poly.rays or poly.lineality:
        raise ValueError("polyhedron is unbounded")
    if poly.is_empty:
        return []
    ranges = [range(ceil(min(c)), floor(max(c)) + 1)
              for c in zip(*poly.vertices)]
    count = prod(max(0, r.stop - r.start) for r in ranges)
    if count > _MAX_BOX_POINTS:
        raise DegenerateInputError(
            f"the bounding box holds {count} lattice points; at most "
            f"{_MAX_BOX_POINTS} are enumerated")
    return [p for p in itertools.product(*ranges) if poly.contains(p)]


# ---------------------------------------------------------------------------
# the weight cone and its stability shifts
# ---------------------------------------------------------------------------

class _TowerRecord:
    """What the quotient route learns about one tower: the weight
    ``cone``, the degree matrix's Smith form ``degree_smith``, and what
    the stability shift does not change, keyed by value: ``ranks`` of
    the normal-row tuples ``lift_slice_faces`` ranks; ``splitters``,
    ``(kernel_rows, factors)`` by a vertex's ambient active normals;
    ``valid_fans``, the frozensets of ``(dim, rays)`` cones that passed
    ``validate_fan``.  Three entries hold one key, compared by equality:
    ``restricted``, ``(normals, rows)``, the kernel restrictions of the
    last shifted normals; ``face_ranks``, ``((ambient, slice normals),
    ranks by active set)``; and ``last``, the last ``_slice`` call's
    ``(key, (cones, splitters), labels, fan)``, its key that call's
    ``(shifted, slice_poly)`` and its fan the cones named by its labels.
    """

    def __init__(self) -> None:
        self.cone: "Polyhedron | None" = None
        self.degree_smith, self.restricted = None, (None, None)
        self.ranks, self.splitters, self.valid_fans = {}, {}, set()
        self.face_ranks, self.last = (None, None), (None,) * 4


# Towers compare by identity, so a record is freed with its tower.
_tower_records: "WeakKeyDictionary" = WeakKeyDictionary()


def _record(tower) -> _TowerRecord:
    record = _tower_records.get(tower)
    if record is None:
        record = _tower_records[tower] = _TowerRecord()
    return record


def cone_of_arrow_weights(tower) -> Polyhedron:
    """The cone spanned by all arrow weights, with the origin as its
    single vertex.  Its facets are the dual's rays, as ``a . x >= 0``
    in sorted order, and its rays the extreme weights, both from one
    :func:`rational.describe_cone`.  Pointedness is asserted: a
    lineality direction would need arrows missed by every perfect
    matching.  The cone is built once per tower and kept in the
    tower's record."""
    record = _record(tower)
    if record.cone is not None:
        return record.cone
    k = tower.rank
    facets, rays, lineality = rational.describe_cone(
        [tower.weights[aid] for aid in tower.arrow_ids], k)
    if lineality:
        raise ConsistencyError("the cone of arrow weights is not pointed")
    poly = Polyhedron(
        ambient_dim=k, vertices=((Fraction(0),) * k,), rays=tuple(rays),
        lineality=(), inequalities=tuple((a, Fraction(0)) for a in facets))
    if poly.dim != k:
        raise ConsistencyError(
            f"the cone of arrow weights has dimension {poly.dim}, "
            f"expected {k}")
    record.cone = poly
    return poly


def shift_by_stability(tower, theta: Sequence) -> tuple:
    """The weight cone translated by ``-preimage`` of the parameter
    under the degree map.  Returns ``(polyhedron, preimage)``; the
    preimage is an integer weight, so the parameter must be integral."""
    _theta_check(tower.vertex_ids, theta)
    if any(t.denominator != 1 for t in theta):
        raise ValueError(
            "the quotient route needs an integer stability parameter; "
            "a positive integer multiple gives the same fans")
    record = _record(tower)
    if record.degree_smith is None:
        record.degree_smith = lattice.smith_normal_form(tower.degree_matrix)
    lam = lattice._solve_by_smith(record.degree_smith, [int(t) for t in theta])
    if lam is None:
        raise ConsistencyError(
            "stability parameter is not a degree (the tiling should make "
            "the degree map surjective onto sum-zero vectors)")
    cone = cone_of_arrow_weights(tower)
    shift = tuple(-x for x in lam)
    # the cone's one vertex is the origin and its offsets are zero
    vertices = (tuple(map(Fraction, shift)),)
    inequalities = tuple(
        (a, Fraction(lattice.dot(a, shift))) for a, _ in cone.inequalities)
    shifted = Polyhedron(
        ambient_dim=cone.ambient_dim, vertices=vertices, rays=cone.rays,
        lineality=cone.lineality, inequalities=inequalities)
    return shifted, tuple(lam)


def kernel_polytope(tower, shifted: Polyhedron) -> Polyhedron:
    """The slice of a shifted weight cone along the kernel lattice,
    in kernel-basis coordinates.

    The inequality list restricts the ambient one *in the same order*,
    so active sets of the slice and of the ambient polyhedron use the
    same indices.  Raises ValueError when the polyhedron is not in the
    tower's weight lattice.
    """
    _check_ambient(tower, shifted)
    record = _record(tower)
    normals = tuple(a for a, _ in shifted.inequalities)
    if record.restricted[0] != normals:
        record.restricted = (normals, list(map(
            tuple, lattice.mat_mul(normals, tower.kernel_basis))))
    return polyhedron_from_inequalities(
        zip(record.restricted[1], (b for _, b in shifted.inequalities)), 3)


def _check_ambient(tower, shifted: Polyhedron) -> None:
    if shifted.ambient_dim != tower.rank:
        raise ValueError(
            f"shifted polyhedron has ambient dimension "
            f"{shifted.ambient_dim}, not the tower's rank {tower.rank}")


# ---------------------------------------------------------------------------
# faces meeting the slice, and the quotient fan
# ---------------------------------------------------------------------------

class LiftedFace(NamedTuple):
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
    """The faces of a slice with their ambient lifts.  The shift moves
    offsets, not normals, so each normal-row tuple is ranked once per
    tower, and each active set's ranks are kept under the normals they
    were read from.  Raises ValueError as :func:`kernel_polytope` does."""
    _check_ambient(tower, shifted)
    k = tower.rank
    record = _record(tower)
    normals = (tuple(a for a, _ in shifted.inequalities),
               tuple(a for a, _ in slice_poly.inequalities))
    if record.face_ranks[0] != normals:
        record.face_ranks = (normals, {})
    ranks, face_ranks = record.ranks, record.face_ranks[1]
    lifted = []
    for face in enumerate_faces(slice_poly):
        if face.active not in face_ranks:
            face_ranks[face.active] = tuple(
                ranks[r] if r in ranks
                else ranks.setdefault(r, rational.frank(r))
                for r in (tuple(n[i] for i in face.active) for n in normals))
        ra, rr = face_ranks[face.active]
        if 3 - rr != face.dim:
            raise ConsistencyError(
                "slice face dimension disagrees with its active set")
        lifted.append(LiftedFace(
            slice_face=face, active=face.active, ambient_dim=k - ra,
            stable=(ra == rr)))
    return lifted


def _named_fan(cones: Sequence, ray_labels: dict) -> Fan:
    """The fan of ``(dim, rays)`` cones; ``ray_labels`` maps ray
    vectors to names and the other rays get ``r1``, ``r2``, ... in
    lexicographic order.  Raises ValueError when two rays get one
    name."""
    names = {}
    owners = {}  # name -> its ray
    counter = 0
    for vec in sorted({v for _, rays in cones for v in rays}):
        if vec in ray_labels:
            name = ray_labels[vec]
        else:
            counter += 1
            name = f"r{counter}"
        if name in owners:
            raise ValueError(f"ray label {name!r} names two rays, "
                             f"{owners[name]} and {vec}")
        names[vec], owners[name] = name, vec
    return Fan(
        rays=tuple(FanRay(ray_id=name, vector=vec)
                   for vec, name in names.items()),
        cones=tuple(FanCone(ray_ids=frozenset(names[v] for v in rays),
                            dim=dim) for dim, rays in cones))


def _slice_cones(tower, shifted: Polyhedron, slice_poly: Polyhedron) -> tuple:
    """The validated normal cones of the transversal faces of a slice.

    Returns ``(cones, splitters)``.  ``cones`` lists, per transversal
    face, its cone dimension and the extreme rays of its normal cone.
    ``splitters`` has one entry per vertex lift, ``(kernel_rows, rays,
    factors)``, for the splitting matrix whose first columns span the
    lift and whose last three columns are the kernel basis: the last
    three rows of its inverse when it is unimodular (else None), the
    face's rays, and its invariant factors, from the Smith forms of the
    active normals and of one 3 x 3 block.  The fan these cones form is
    validated under the default ray names; labels only rename its rays.

    Normal cones need no cone duality.  A face's normal cone is the
    cone of its active normals, and it is pointed exactly when the
    slice is full-dimensional; then its extreme rays are the normals of
    the facets that contain the face, and a facet contains the face
    exactly when the facet's defining rows are active on it.  So each
    facet's primitive normal is read once, from its nonzero active
    rows, and a face's rays are the normals of its active
    facet-defining rows.

    Splitters and validated geometries are kept in the tower's record
    (``_TowerRecord``).  A geometry is the set of its cones, a sound key
    once no two cones share their rays.
    """
    record = _record(tower)
    k = tower.rank
    lifted = lift_slice_faces(tower, shifted, slice_poly)
    stable = [face for face in lifted if face.stable]
    # the last face is the slice itself
    if stable and lifted[-1].slice_face.dim != 3:
        raise ConsistencyError("normal cone of a slice face is not pointed")
    facet_normal = {}  # facet-defining row -> primitive facet normal
    for face in lifted:
        if face.slice_face.dim != 2:
            continue
        rows = [i for i in face.active if any(slice_poly.inequalities[i][0])]
        normals = {rational.integerize(slice_poly.inequalities[i][0])
                   for i in rows}
        if len(normals) != 1:
            raise ConsistencyError(
                f"a slice facet has {len(normals)} normals, expected one")
        (normal,) = normals
        facet_normal.update((i, normal) for i in rows)

    cones = []
    splitters = []
    for face in stable:
        rays = tuple(sorted({facet_normal[i] for i in face.active
                             if i in facet_normal}))
        cones.append((3 - face.slice_face.dim, rays))
        if face.slice_face.dim != 0:
            continue
        normals = tuple(shifted.inequalities[i][0] for i in face.active)
        if normals not in record.splitters:
            # N has rank 3: U N^T V = S puts a lift basis L in U[3:], so
            # W = (U^-1)^T has W [L | basis] = [[0, T], [I, *]] for
            # T = W[:3] basis, and inverse rows T^-1 W[:3], T^-1 = V' U'
            w = lattice._smith_form(list(zip(*normals)))[3][:3]
            u, s, v = lattice.smith_normal_form(
                lattice.mat_mul(w, tower.kernel_basis))
            factors = [1] * (k - 3) + [s[i][i] for i in range(3) if s[i][i]]
            kernel_rows = None
            if factors == [1] * k:
                kernel_rows = lattice.mat_mul(lattice.mat_mul(v, u), w)
            record.splitters[normals] = (kernel_rows, factors)
        kernel_rows, factors = record.splitters[normals]
        splitters.append((kernel_rows, rays, factors))
    if len({frozenset(rays) for _, rays in cones}) != len(cones):
        raise ConsistencyError("two transversal faces share one normal cone")
    geometry = frozenset(cones)
    if geometry not in record.valid_fans:
        validate_fan(_named_fan(cones, {}))
        record.valid_fans.add(geometry)
    return tuple(cones), tuple(splitters)


def _slice(tower, shifted: Polyhedron, slice_poly: Polyhedron,
           ray_labels: dict) -> tuple:
    """``(fan, splitters)`` of a slice, from :func:`_slice_cones` and
    :func:`_named_fan`, kept as the tower's one slice entry keyed by the
    slice arguments as given, so a repeated call computes nothing and a
    call with other labels only names the cones anew.  Raises
    ValueError as :func:`kernel_polytope` does."""
    record = _record(tower)
    key, labels = (shifted, slice_poly), dict(ray_labels)
    held, sliced, named, fan = record.last
    if held != key:
        sliced, named = _slice_cones(tower, shifted, slice_poly), None
    if named != labels:
        fan = _named_fan(sliced[0], labels)
        record.last = (key, sliced, labels, fan)
    return fan, sliced[1]


def quotient_fan(tower, shifted: Polyhedron, slice_poly: Polyhedron,
                 ray_labels: dict) -> Fan:
    """Normal fan of the kernel slice, restricted to the transversal
    faces.  Each cone's rays are the normals of the slice facets that
    contain its face (see ``_slice_cones``).  Each fan geometry is
    validated once per tower, and the tower keeps one slice entry (see
    ``_slice``), so ``quotient_fan`` and ``descend_linear_functional``
    on the same arguments with equal labels return one shared ``Fan``.

    ``slice_poly`` is ``kernel_polytope(tower, shifted)``, and
    ``ray_labels`` maps primitive ray vectors to names (matching ids);
    unlabeled rays get ``r1``, ``r2``, ... in lexicographic order.
    Raises ValueError when ``shifted`` is not in the tower's weight
    lattice.
    """
    return _slice(tower, shifted, slice_poly, ray_labels)[0]


# ---------------------------------------------------------------------------
# descent of support functions
# ---------------------------------------------------------------------------

class DescendedSupport(NamedTuple):
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
                              slice_poly: Polyhedron,
                              ray_labels: dict) -> DescendedSupport:
    """Descend the globally-linear support function of a weight to the
    quotient fan.

    Per maximal cone — the normal cone of a transversal lift ``F`` of a
    slice vertex — the weight is split as a part along ``F`` plus a
    kernel part; the split exists and is unique modulo nothing exactly
    when the span of ``F`` and the kernel lattice together fill the
    weight lattice as a direct summand (checked via invariant factors;
    failure means the torus action on that stratum is not free, and
    raises ConsistencyError).  Once every factor is 1, the square
    splitting matrix is unimodular, so every integer weight has exactly
    one integer preimage: the split cannot fail, and the kernel part is
    one product with the rows of the inverse that ``_slice_cones``
    factored once per vertex and tower.  The factors
    are checked on every call.  Values on shared rays must agree across
    cones and are returned per ray.  The quotient fan and the splitters
    come from the tower's one slice entry (see ``_slice``), shared with
    ``quotient_fan``, so descending many weights along one slice
    slices, validates, factors and names nothing after the first call.
    """
    tower.check_weight(weight)
    fan, splitters = _slice(tower, shifted, slice_poly, ray_labels)
    vector_to_id = {ray.vector: ray.ray_id for ray in fan.rays}

    for _, _, factors in splitters:
        if factors != [1] * tower.rank:
            raise ConsistencyError(
                "face span and kernel lattice do not complement each "
                "other (the stratum action is not free); invariant "
                f"factors {factors}")
    functionals = []
    values: dict = {}
    for kernel_rows, rays, _ in splitters:
        m = tuple(lattice.mat_vec(kernel_rows, weight))
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
