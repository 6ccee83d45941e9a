"""Exact polyhedra, the weight cone, slices, and functional descent."""

from __future__ import annotations

import functools
import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import branetile as bt
from branetile import lattice, polyhedra, rational
from branetile.matchings import matching_id_key

from conftest import ALL_FIXTURES, QUIVER_FIXTURES, fixture_text, orbifold_text

UNIT_SQUARE_INEQS = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)]


def document_id(document) -> str:
    return document if isinstance(document, str) else "%dx%d" % document


def first_chamber_shift(towers, chambers_by_name, name):
    tower = towers[name]
    theta = chambers_by_name[name][0].representative
    shifted, preimage = bt.shift_by_stability(tower, theta)
    return tower, theta, shifted, preimage


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_square_from_inequalities():
    poly = bt.polyhedron_from_inequalities(UNIT_SQUARE_INEQS, 2)
    assert sorted(poly.vertices) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert poly.rays == ()
    assert poly.lineality == ()
    assert poly.dim == 2
    assert poly.contains((Fraction(1, 2), Fraction(1, 2)))
    assert not poly.contains((2, 0))


@pytest.mark.parametrize("point", [(), (0,), (0, 0, 99)], ids=repr)
def test_contains_refuses_a_point_of_another_dimension(point):
    poly = bt.polyhedron_from_inequalities(UNIT_SQUARE_INEQS, 2)
    with pytest.raises(ValueError) as exc:
        poly.contains(point)
    assert str(exc.value) == (
        f"point has {len(point)} entries, not ambient dimension 2")


def test_quadrant_cone_from_inequalities():
    poly = bt.polyhedron_from_inequalities([((1, 0), 0), ((0, 1), 0)], 2)
    assert poly.vertices == ((0, 0),)
    assert sorted(poly.rays) == [(0, 1), (1, 0)]
    assert poly.lineality == ()


def test_halfplane_has_lineality():
    poly = bt.polyhedron_from_inequalities([((1, 0), 0)], 2)
    assert len(poly.vertices) == 1
    assert poly.rays == ((1, 0),)
    assert len(poly.lineality) == 1
    assert poly.lineality[0] in ((0, 1), (0, -1))


def test_empty_and_unsatisfiable_systems():
    empty = bt.polyhedron_from_inequalities([((1,), 1), ((-1,), 0)], 1)
    assert empty.is_empty
    assert empty.dim == -1
    assert bt.integer_points(empty) == []
    poisoned = bt.polyhedron_from_inequalities([((0, 0), 1)], 2)
    assert poisoned.is_empty


@pytest.mark.parametrize("offset", [-2, Fraction(-1, 2), 0, Fraction(1, 2), 1],
                         ids=str)
@pytest.mark.parametrize("position", [0, 1, 4])
def test_a_constant_row_cuts_nothing_or_everything(offset, position):
    # 0 >= b holds everywhere for b <= 0 and nowhere for b > 0
    for rows in (UNIT_SQUARE_INEQS, [((1, 0), 0)]):
        ineqs = list(rows)
        ineqs.insert(position, ((0, 0), offset))
        poly = bt.polyhedron_from_inequalities(ineqs, 2)
        assert poly.inequalities == tuple(
            (a, Fraction(b)) for a, b in ineqs)
        if offset > 0:
            assert poly.is_empty
            assert (poly.rays, poly.lineality) == ((), ())
        else:
            base = bt.polyhedron_from_inequalities(rows, 2)
            assert poly._replace(inequalities=()) \
                == base._replace(inequalities=())


def test_equalities_cut_a_segment():
    # an equality is a pair of opposite inequalities
    poly = bt.polyhedron_from_inequalities(
        [((1, 0), 0), ((0, 1), 0), ((1, 1), 1), ((-1, -1), -1)], 2)
    assert sorted(poly.vertices) == [(0, 1), (1, 0)]
    assert poly.rays == ()
    assert poly.dim == 1


def test_generators_round_trip_through_inequalities():
    # the unit square, homogenized: its generators (1, v) give facets
    # (-b, a) for a . v >= b, which give the vertices back
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    facets, rays, lineality = rational.describe_cone(
        [(1,) + v for v in square], 3)
    assert rays == sorted((1,) + v for v in square)
    assert lineality == []
    again = bt.polyhedron_from_inequalities(
        [(tuple(a), -c) for c, *a in facets], 2)
    assert sorted(again.vertices) == sorted(square)
    assert again.rays == ()


def test_generators_with_rays_and_lineality():
    facets, rays, lineality = rational.describe_cone(
        [(1, 0, 0), (0, 0, 1), (0, 0, -1)], 3)
    assert facets == [(1, 0, 0)]
    assert rays == []
    assert lineality == [(0, 0, 1)]
    poly = bt.polyhedron_from_inequalities([(a, 0) for a in facets], 3)
    assert poly.contains((5, 0, -7))
    assert not poly.contains((-1, 0, 0))


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

def test_square_face_lattice():
    poly = bt.polyhedron_from_inequalities(UNIT_SQUARE_INEQS, 2)
    faces = bt.enumerate_faces(poly)
    by_dim: dict = {}
    for f in faces:
        by_dim.setdefault(f.dim, []).append(f)
    assert {d: len(fs) for d, fs in sorted(by_dim.items())} \
        == {0: 4, 1: 4, 2: 1}
    top = by_dim[2][0]
    assert top.active == ()
    assert len(top.vertex_ids) == 4
    for edge in by_dim[1]:
        assert set(edge.vertex_ids) <= set(top.vertex_ids)
        assert set(edge.ray_ids) <= set(top.ray_ids)
        # a relative-interior point: the vertex average plus the ray sum
        point = tuple(
            sum((poly.vertices[v][i] for v in edge.vertex_ids), Fraction(0))
            / len(edge.vertex_ids)
            + sum(poly.rays[j][i] for j in edge.ray_ids)
            for i in range(poly.ambient_dim))
        assert poly.contains(point)
        # an edge midpoint activates exactly its one inequality
        active = [i for i, (a, b) in enumerate(poly.inequalities)
                  if lattice.dot(a, point) == b]
        assert tuple(active) == edge.active


def test_quadrant_cone_faces_carry_rays():
    poly = bt.polyhedron_from_inequalities([((1, 0), 0), ((0, 1), 0)], 2)
    faces = bt.enumerate_faces(poly)
    dims = sorted(f.dim for f in faces)
    assert dims == [0, 1, 1, 2]
    for f in faces:
        if f.dim == 1:
            assert len(f.ray_ids) == 1
    origin = [f for f in faces if f.dim == 0]
    assert len(origin) == 1
    # the normal cone is spanned by the active normals
    gens = [poly.inequalities[i][0] for i in origin[0].active]
    assert sorted(gens) == [(0, 1), (1, 0)]


# ---------------------------------------------------------------------------
# integer points
# ---------------------------------------------------------------------------

def test_integer_points_refuses_a_huge_box_before_walking_it():
    # a cube of side 47 has 103 823 points in its box
    cube = bt.polyhedron_from_inequalities(
        [(e, 0) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        + [(e, -46) for e in ((-1, 0, 0), (0, -1, 0), (0, 0, -1))], 3)
    with pytest.raises(bt.DegenerateInputError,
                       match="holds 103823 lattice points; at most 100000"):
        bt.integer_points(cube)


def test_integer_points_fixed_examples():
    square = bt.polyhedron_from_inequalities(UNIT_SQUARE_INEQS, 2)
    assert sorted(bt.integer_points(square)) \
        == [(0, 0), (0, 1), (1, 0), (1, 1)]
    cone = bt.polyhedron_from_inequalities([((1, 0), 0), ((0, 1), 0)], 2)
    with pytest.raises(ValueError):
        bt.integer_points(cone)


@given(st.lists(st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                          st.integers(-4, 4)),
                max_size=5))
def test_integer_points_match_a_box_filter(extra):
    bounds = [((1, 0), -4), ((0, 1), -4), ((-1, 0), -4), ((0, -1), -4)]
    poly = bt.polyhedron_from_inequalities(bounds + extra, 2)
    if poly.is_empty:
        return
    expected = [
        (x, y)
        for x in range(-4, 5)
        for y in range(-4, 5)
        if all(a[0] * x + a[1] * y >= b for a, b in bounds + extra)
    ]
    assert bt.integer_points(poly) == expected


# ---------------------------------------------------------------------------
# the weight cone and its slices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_weight_cone_is_pointed_and_full(name, towers):
    tower = towers[name]
    cone = bt.cone_of_arrow_weights(tower)
    assert cone.ambient_dim == tower.rank
    assert cone.vertices == ((0,) * tower.rank,)
    assert cone.lineality == ()
    assert cone.dim == tower.rank
    for aid in tower.arrow_ids:
        assert cone.contains(tower.weights[aid])


def homogenized_weight_cone(tower) -> bt.Polyhedron:
    """The weight cone by two dualities: the primitive arrow weights
    beside the homogenizing origin are dualized into facets, and
    ``polyhedron_from_inequalities`` dualizes the facets back."""
    k = tower.rank
    gens = [(1,) + (0,) * k]
    for aid in tower.arrow_ids:
        w = (0,) + rational.integerize(tower.weights[aid])
        if w not in gens:
            gens.append(w)
    drays, dlin = rational.dual_cone(gens, k + 1)
    assert dlin == []
    return bt.polyhedron_from_inequalities(
        [(tuple(a), Fraction(-c)) for c, *a in drays if any(a)], k)


WEIGHT_CONE_DOCUMENTS = ALL_FIXTURES + (
    (1, 2), (1, 3), (2, 2), (1, 4), (1, 5), (2, 3), (3, 3), (2, 5), (3, 4))


@pytest.mark.parametrize("document", WEIGHT_CONE_DOCUMENTS, ids=document_id)
def test_weight_cone_matches_the_homogenized_double_dual(document):
    text = (fixture_text(document) if isinstance(document, str)
            else orbifold_text(*document))
    tower = bt.build_lattice_tower(bt.load_document(text))
    cone = bt.cone_of_arrow_weights(tower)
    want = homogenized_weight_cone(tower)
    # repr compares every field with its types: Fraction offsets and
    # vertex coordinates, tuples of ints
    assert repr(cone) == repr(want)
    assert cone.dim == want.dim == tower.rank


def test_a_weight_cone_build_dualizes_once(monkeypatch):
    tower = bt.build_lattice_tower(bt.load_document(orbifold_text(2, 3)))
    calls = []
    real = rational.dual_cone

    def counting(gens, dim):
        calls.append(dim)
        return real(gens, dim)

    monkeypatch.setattr(rational, "dual_cone", counting)
    bt.cone_of_arrow_weights(tower)
    assert calls == [tower.rank]


class WeightTower:
    """Just enough of a lattice tower for the weight cone: its rank and
    one weight per arrow."""

    def __init__(self, weights):
        self.rank = len(weights[0])
        self.arrow_ids = tuple(f"a{i}" for i in range(len(weights)))
        self.weights = dict(zip(self.arrow_ids, weights))


@pytest.mark.parametrize("weights, message", [
    # full-dimensional, with a line through the origin
    ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)], "not pointed"),
    # a pointed quadrant in the plane z = 0
    ([(1, 0, 0), (0, 1, 0), (1, 1, 0)],
     "has dimension 2, expected 3"),
    # a line in the plane z = 0: both faults, pointedness named first
    ([(1, 0, 0), (-1, 0, 0), (0, 1, 0)], "not pointed"),
])
def test_weight_cone_faults_raise(weights, message):
    with pytest.raises(bt.ConsistencyError, match=message):
        bt.cone_of_arrow_weights(WeightTower(weights))


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_shift_by_stability_moves_the_cone(name, towers, chambers_by_name):
    tower, theta, shifted, preimage = first_chamber_shift(
        towers, chambers_by_name, name)
    assert tower.degree(preimage) == theta
    base_point = tuple(-x for x in preimage)
    assert shifted.contains(base_point)
    cone = bt.cone_of_arrow_weights(tower)
    assert shifted.rays == cone.rays
    assert [a for a, _ in shifted.inequalities] \
        == [a for a, _ in cone.inequalities]


def test_shift_by_stability_rejects_nonzero_sum(towers):
    with pytest.raises(ValueError):
        bt.shift_by_stability(towers["spp"], (1, 1, 1))


def test_shift_by_stability_rejects_a_parameter_of_the_wrong_length(towers):
    # spp has three vertices: (1, -1) sums to zero but is not (1, -1, 0)
    for theta in ((1, -1), (1, -1, 0, 0)):
        with pytest.raises(ValueError,
                           match=f"has {len(theta)} entries for 3 vertices"):
            bt.shift_by_stability(towers["spp"], theta)


def test_shift_by_stability_refuses_a_fractional_parameter(
        spp, towers, matchings_by_name):
    # the preimage is an integer weight; 2 theta has the same fans
    tower = towers["spp"]
    theta = (Fraction(-3, 2), Fraction(1, 2), 1)
    with pytest.raises(ValueError, match="integer stability parameter"):
        bt.shift_by_stability(tower, theta)
    doubled, preimage = bt.shift_by_stability(
        tower, tuple(2 * t for t in theta))
    assert tower.degree(preimage) == (-3, 1, 2)
    assert bt.fans_equal(
        bt.quotient_fan(tower, doubled),
        bt.moduli_fan(spp, theta, matchings_by_name["spp"]))
    # an integral Fraction is an integer parameter
    _, same = bt.shift_by_stability(tower, (Fraction(-3), 1, 2))
    assert same == preimage and all(type(x) is int for x in same)


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_kernel_polytope_is_a_three_dimensional_slice(
        name, towers, chambers_by_name):
    tower, _, shifted, _ = first_chamber_shift(towers, chambers_by_name, name)
    slice_poly = bt.kernel_polytope(tower, shifted)
    assert slice_poly.ambient_dim == 3
    assert slice_poly.dim == 3
    assert len(slice_poly.inequalities) == len(shifted.inequalities)
    # a slice point, pushed through the kernel basis, lands in the
    # ambient shifted cone
    for v in slice_poly.vertices:
        ambient = [
            sum(Fraction(x) * tower.kernel_basis[i][j]
                for j, x in enumerate(v))
            for i in range(tower.rank)]
        assert shifted.contains(ambient)


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_transversal_faces_have_matching_ranks(name, towers,
                                               chambers_by_name):
    tower, _, shifted, _ = first_chamber_shift(towers, chambers_by_name, name)
    slice_poly = bt.kernel_polytope(tower, shifted)
    lifted = bt.lift_slice_faces(tower, shifted, slice_poly)
    for f in lifted:
        ambient = [shifted.inequalities[i][0] for i in f.active]
        restricted = [slice_poly.inequalities[i][0] for i in f.active]
        ra = rational.frank(ambient)
        rr = rational.frank(restricted)
        assert f.stable == (ra == rr)
        assert f.ambient_dim == tower.rank - ra


# ---------------------------------------------------------------------------
# the quotient fan and functional descent
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_quotient_fan_validates_with_height_one_rays(
        name, towers, chambers_by_name):
    tower, _, shifted, _ = first_chamber_shift(towers, chambers_by_name, name)
    fan = bt.quotient_fan(tower, shifted)
    bt.validate_fan(fan)  # idempotent — already validated on the way out
    for ray in fan.rays:
        assert ray.vector[2] == 1
    assert any(c.dim == 3 for c in fan.cones)


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_descended_functionals_agree_on_shared_rays(
        name, tilings, towers, matchings_by_name, chambers_by_name):
    tiling, tower = tilings[name], towers[name]
    theta = chambers_by_name[name][0].representative
    shifted, _ = bt.shift_by_stability(tower, theta)
    paths = bt.default_paths(tiling)
    target = tiling.vertices[-1]
    weight = bt.tilting.weak_path_weight(tower, paths[target])
    support = bt.descend_linear_functional(tower, shifted, weight)
    values = dict(support.ray_values)
    vectors = support.fan.vector_map()
    assert set(values) == set(vectors)
    for ids, functional in support.cone_functionals:
        for rid in ids:
            from branetile.lattice import dot
            assert dot(functional, vectors[rid]) == values[rid]
    for rid, value in support.ray_values:
        assert support.value_on_ray(rid) == value
    with pytest.raises(KeyError):
        support.value_on_ray("ghost")


def test_descend_rejects_wrong_length_weights(towers, chambers_by_name):
    tower = towers["conifold"]
    theta = chambers_by_name["conifold"][0].representative
    shifted, _ = bt.shift_by_stability(tower, theta)
    with pytest.raises(ValueError):
        bt.descend_linear_functional(tower, shifted, (1, 2, 3))


def test_five_vertex_orbifold_fan_routes_agree():
    # C^3/Z_5: a 7-dimensional weight cone with 11 rays and 33 facets,
    # too big to build by trying all C(34, 7) subsets of constraint rows
    tiling = bt.load_document(orbifold_text(1, 5))
    tower = bt.build_lattice_tower(tiling)
    cone = bt.cone_of_arrow_weights(tower)
    assert cone.dim == tower.rank == 7
    assert len(cone.rays) == 11

    theta = (1, 2, 4, 8, -15)
    assert bt.is_generic(tiling, theta)
    matchings = bt.enumerate_perfect_matchings(tiling, tower)
    direct = bt.moduli_fan(tiling, theta, matchings)
    labels = {ray.vector: ray.ray_id for ray in direct.rays}
    shifted, _ = bt.shift_by_stability(tower, theta)
    quotient = bt.quotient_fan(tower, shifted, ray_labels=labels)
    assert bt.fans_equal(quotient, direct)
    assert sum(1 for c in direct.cones if c.dim == 3) == 5


# ---------------------------------------------------------------------------
# what the slice computations keep and repeat
# ---------------------------------------------------------------------------

def path_weights(tiling, tower) -> list:
    return [bt.tilting.weak_path_weight(tower, path)
            for path in bt.default_paths(tiling).values()]


def run_every_route(n: int, m: int) -> tuple:
    """Moduli fan, fan classes, quotient fan and descent on one
    orbifold; returns weak references to its tiling and tower."""
    tiling = bt.load_document(orbifold_text(n, m))
    tower = bt.build_lattice_tower(tiling)
    matchings = bt.enumerate_perfect_matchings(tiling, tower)
    chambers = bt.chamber_decomposition(tiling, matchings)
    bt.git_equivalence_classes(tiling, chambers, matchings)
    theta = chambers[0].representative
    direct = bt.moduli_fan(tiling, theta, matchings)
    labels = {ray.vector: ray.ray_id for ray in direct.rays}
    shifted, _ = bt.shift_by_stability(tower, theta)
    slice_poly = bt.kernel_polytope(tower, shifted)
    assert bt.fans_equal(
        bt.quotient_fan(tower, shifted, slice_poly, labels), direct)
    for weight in path_weights(tiling, tower):
        bt.descend_linear_functional(tower, shifted, weight, slice_poly,
                                     labels)
    return weakref.ref(tiling), weakref.ref(tower)


def test_nothing_keeps_a_tiling_once_the_next_slice_is_processed():
    tiling_ref, tower_ref = run_every_route(1, 3)
    run_every_route(1, 2)
    gc.collect()
    assert tiling_ref() is None
    assert tower_ref() is None


def test_one_slice_is_validated_once(monkeypatch):
    # a fresh tower, so no earlier test's slice can answer for this one
    tiling = bt.load_document(fixture_text("z2z2"))
    tower = bt.build_lattice_tower(tiling)
    theta = bt.chamber_decomposition(
        tiling, bt.enumerate_perfect_matchings(tiling, tower))[0].representative
    shifted, _ = bt.shift_by_stability(tower, theta)
    slice_poly = bt.kernel_polytope(tower, shifted)
    weights = path_weights(tiling, tower)
    assert len(weights) == 4

    calls = []
    real = polyhedra.validate_fan

    def counting(fan):
        calls.append(fan)
        return real(fan)

    monkeypatch.setattr(polyhedra, "validate_fan", counting)
    fan = bt.quotient_fan(tower, shifted, slice_poly)
    for weight in weights:
        support = bt.descend_linear_functional(tower, shifted, weight,
                                               slice_poly)
        assert support.fan == fan
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the slice route against its double-description and per-weight references
# ---------------------------------------------------------------------------

ROUTE_DOCUMENTS = ("conifold", "spp", "z2z2", (2, 2), (1, 4))


@functools.lru_cache(maxsize=len(ROUTE_DOCUMENTS))
def chamber_slices(document) -> tuple:
    """``(tiling, tower, shifted, slice)`` for every chamber of a
    fixture name or of an ``(n, m)`` orbifold."""
    text = (fixture_text(document) if isinstance(document, str)
            else orbifold_text(*document))
    tiling = bt.load_document(text)
    tower = bt.build_lattice_tower(tiling)
    found = bt.enumerate_perfect_matchings(tiling, tower)
    out = []
    for chamber in bt.chamber_decomposition(tiling, found):
        shifted, _ = bt.shift_by_stability(tower, chamber.representative)
        out.append((tiling, tower, shifted,
                    bt.kernel_polytope(tower, shifted)))
    return tuple(out)


@pytest.mark.parametrize("document", ROUTE_DOCUMENTS, ids=document_id)
def test_facet_normals_are_the_extreme_rays_of_the_active_normals(document):
    for _, tower, shifted, slice_poly in chamber_slices(document):
        cones, _ = polyhedra._slice_cones(tower, shifted, slice_poly)
        faces = [f for f in bt.lift_slice_faces(tower, shifted, slice_poly)
                 if f.stable]
        assert len(cones) == len(faces)
        for (dim, rays), face in zip(cones, faces):
            _, want, lineality = rational.describe_cone(
                [slice_poly.inequalities[i][0] for i in face.active], 3)
            assert lineality == []
            assert list(rays) == want
            assert dim == 3 - face.slice_face.dim


def assert_graded_dims_are_affine_ranks(poly) -> None:
    for face in bt.enumerate_faces(poly):
        assert face.dim == polyhedra._affine_rank(
            poly, face.vertex_ids, face.ray_ids)


@pytest.mark.parametrize("document", ROUTE_DOCUMENTS, ids=document_id)
def test_slice_face_dimensions_are_affine_ranks(document):
    for _, _, _, slice_poly in chamber_slices(document):
        assert_graded_dims_are_affine_ranks(slice_poly)


@st.composite
def generated_polyhedra(draw):
    """Random inequality systems through a drawn point, so nonempty.
    With fewer inequalities than dimensions there is lineality, and a
    system with no opposing pair is unbounded, so rays and lineality
    both show up."""
    dim = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-2, 2)] * dim)
    point = draw(vector)
    normals = draw(st.lists(vector, max_size=6))
    slacks = draw(st.lists(st.integers(0, 2), min_size=len(normals),
                           max_size=len(normals)))
    return bt.polyhedron_from_inequalities(
        [(a, lattice.dot(a, point) - s) for a, s in zip(normals, slacks)],
        dim)


@given(generated_polyhedra())
def test_graded_face_dimensions_are_affine_ranks(poly):
    assert_graded_dims_are_affine_ranks(poly)


def reference_descent(tower, shifted, slice_poly, weight):
    """The descent with rays by double description and one Smith form
    per weight and vertex cone, through ``lattice.solve_integer``."""
    fan = bt.quotient_fan(tower, shifted, slice_poly)
    vector_to_id = {ray.vector: ray.ray_id for ray in fan.rays}
    functionals, values = [], {}
    for face in bt.lift_slice_faces(tower, shifted, slice_poly):
        if not face.stable or face.slice_face.dim != 0:
            continue
        _, rays, _ = rational.describe_cone(
            [slice_poly.inequalities[i][0] for i in face.active], 3)
        normals = [list(shifted.inequalities[i][0]) for i in face.active]
        columns = lattice.integer_kernel(normals)
        mat = [[col[i] for col in columns] + list(tower.kernel_basis[i])
               for i in range(tower.rank)]
        assert lattice.invariant_factors(mat) == [1] * tower.rank
        m = tuple(lattice.solve_integer(mat, list(weight))[len(columns):])
        functionals.append((frozenset(vector_to_id[v] for v in rays), m))
        for v in rays:
            values.setdefault(vector_to_id[v], lattice.dot(m, v))
    return bt.DescendedSupport(
        fan=fan, cone_functionals=tuple(functionals),
        ray_values=tuple(sorted(values.items(),
                                key=lambda kv: matching_id_key(kv[0]))))


@pytest.mark.parametrize("document", ROUTE_DOCUMENTS, ids=document_id)
def test_descent_matches_the_per_weight_reference(document):
    for tiling, tower, shifted, slice_poly in chamber_slices(document):
        for weight in path_weights(tiling, tower):
            assert bt.descend_linear_functional(
                tower, shifted, weight, slice_poly) == reference_descent(
                    tower, shifted, slice_poly, weight)


# ---------------------------------------------------------------------------
# error paths and the work the slice route no longer does
# ---------------------------------------------------------------------------

class FlatTower:
    """Just enough of a lattice tower for a hand-built rank-3 slice."""

    rank = 3
    kernel_basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_a_slice_that_is_not_full_dimensional_is_not_pointed():
    # a quadrant in the plane z = 0: its origin meets the slice
    # transversally, and every normal cone contains (0, 0, +-1)
    flat = bt.polyhedron_from_inequalities(
        [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((0, 0, -1), 0)],
        3)
    assert flat.dim == 2
    tower = FlatTower()
    assert any(face.stable for face in bt.lift_slice_faces(tower, flat, flat))
    with pytest.raises(bt.ConsistencyError, match="not pointed"):
        bt.quotient_fan(tower, flat, flat)


class SlopedTower:
    """A rank-4 tower whose kernel is the hyperplane ``x4 = 0``."""

    rank = 4
    kernel_basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))


def test_faces_inside_a_facet_along_the_kernel_are_not_transversal():
    # the orthant of R^4 sliced along x4 = 0: its facet x4 >= 0 holds
    # the whole slice, so every lift drops one rank when restricted
    orthant = bt.polyhedron_from_inequalities(
        [(e, 0) for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                          (0, 0, 0, 1))], 4)
    tower = SlopedTower()
    slice_poly = bt.kernel_polytope(tower, orthant)
    lifted = bt.lift_slice_faces(tower, orthant, slice_poly)
    assert len(lifted) == 8
    for face in lifted:
        assert 3 in face.active
        assert not face.stable
        assert face.ambient_dim == face.slice_face.dim


def fresh_slice(name: str) -> tuple:
    """A tower no other test holds, so its record is empty and nothing
    remembered answers for it, with the slice of its first chamber."""
    tiling = bt.load_document(fixture_text(name))
    tower = bt.build_lattice_tower(tiling)
    theta = bt.chamber_decomposition(
        tiling, bt.enumerate_perfect_matchings(tiling, tower))[0].representative
    shifted, _ = bt.shift_by_stability(tower, theta)
    return tiling, tower, shifted, bt.kernel_polytope(tower, shifted)


def test_non_unit_factors_raise_from_descent_only(monkeypatch):
    tiling, tower, shifted, slice_poly = fresh_slice("spp")
    real = lattice.smith_normal_form

    def doubled_on_splitters(mat):
        u, s, v = real(mat)
        if [tuple(row[-3:]) for row in mat] == list(tower.kernel_basis):
            s[-1][-1] *= 2
        return u, s, v

    monkeypatch.setattr(lattice, "smith_normal_form", doubled_on_splitters)
    bt.quotient_fan(tower, shifted, slice_poly)
    with pytest.raises(bt.ConsistencyError,
                       match=r"do not complement.*factors \[1, .*2\]"):
        bt.descend_linear_functional(
            tower, shifted, path_weights(tiling, tower)[0], slice_poly)


def test_descent_after_the_fan_factors_no_matrix(monkeypatch):
    tiling, tower, shifted, slice_poly = fresh_slice("z2z2")
    bt.quotient_fan(tower, shifted, slice_poly)
    calls = []
    real = lattice.smith_normal_form

    def counting(mat):
        calls.append(mat)
        return real(mat)

    monkeypatch.setattr(lattice, "smith_normal_form", counting)
    for weight in path_weights(tiling, tower):
        bt.descend_linear_functional(tower, shifted, weight, slice_poly)
    assert calls == []


def test_a_smooth_slice_needs_no_extreme_rays(monkeypatch):
    # extreme rays come from a duality; a smooth slice's fan makes none
    _, tower, shifted, slice_poly = fresh_slice("z2z2")
    calls = []
    real = rational.dual_cone

    def counting(gens, dim):
        calls.append(gens)
        return real(gens, dim)

    monkeypatch.setattr(rational, "dual_cone", counting)
    fan = bt.quotient_fan(tower, shifted, slice_poly)
    assert bt.check_smooth(fan)
    assert calls == []


# ---------------------------------------------------------------------------
# the per-tower record of the quotient route
# ---------------------------------------------------------------------------

RECORD_DOCUMENTS = ("spp", "z2z2", (2, 2), (1, 4))


def document_tiling(document):
    return bt.load_document(fixture_text(document) if isinstance(document, str)
                            else orbifold_text(*document))


def routes_on(tiling, tower, theta, labels=None) -> tuple:
    """The quotient fan and every path weight's descent at one θ."""
    shifted, _ = bt.shift_by_stability(tower, theta)
    slice_poly = bt.kernel_polytope(tower, shifted)
    return bt.quotient_fan(tower, shifted, slice_poly, labels), [
        bt.descend_linear_functional(tower, shifted, weight, slice_poly,
                                     labels)
        for weight in path_weights(tiling, tower)]


def fresh_named_fan(tiling, theta, labels) -> bt.Fan:
    """The named fan of a slice, from a fresh tower's cones."""
    tower = bt.build_lattice_tower(tiling)
    shifted, _ = bt.shift_by_stability(tower, theta)
    cones, _ = polyhedra._slice_cones(tower, shifted,
                                      bt.kernel_polytope(tower, shifted))
    return polyhedra._named_fan(cones, labels)


@pytest.mark.parametrize("document", RECORD_DOCUMENTS, ids=document_id)
def test_one_shared_tower_answers_as_a_fresh_tower_per_chamber(document):
    tiling = document_tiling(document)
    shared = bt.build_lattice_tower(tiling)
    found = bt.enumerate_perfect_matchings(tiling, shared)
    for chamber in bt.chamber_decomposition(tiling, found):
        theta = chamber.representative
        direct = bt.moduli_fan(tiling, theta, found)
        for labels in (None, {ray.vector: ray.ray_id for ray in direct.rays}):
            fan, supports = routes_on(tiling, shared, theta, labels)
            want_fan, want_supports = routes_on(
                tiling, bt.build_lattice_tower(tiling), theta, labels)
            assert bt.fans_equal(fan, want_fan)
            assert supports == want_supports
            # one fan per slice and labels, equal to a fresh one
            assert fan == fresh_named_fan(tiling, theta, labels)
            assert all(support.fan is fan for support in supports)


def tower_and_chambers(document) -> tuple:
    tiling = document_tiling(document)
    tower = bt.build_lattice_tower(tiling)
    found = bt.enumerate_perfect_matchings(tiling, tower)
    return tiling, tower, found, bt.chamber_decomposition(tiling, found)


def test_the_quotient_side_validates_one_fan_per_git_class(monkeypatch):
    tiling, tower, found, chambers = tower_and_chambers((2, 2))
    classes = bt.git_equivalence_classes(tiling, chambers, found)
    calls = []
    real = polyhedra.validate_fan

    def counting(fan):
        calls.append(fan)
        return real(fan)

    monkeypatch.setattr(polyhedra, "validate_fan", counting)
    for chamber in chambers:
        routes_on(tiling, tower, chamber.representative)
    assert len(chambers) == 32
    assert len(calls) == len(classes) == 4


def test_switching_labels_only_renames_the_slice(monkeypatch):
    tiling, tower, found, chambers = tower_and_chambers("z2z2")
    calls = []
    real = polyhedra.lift_slice_faces

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polyhedra, "lift_slice_faces", counting)
    for chamber in chambers:
        theta = chamber.representative
        labels = {ray.vector: ray.ray_id
                  for ray in bt.moduli_fan(tiling, theta, found).rays}
        for switched in (None, labels, None):
            routes_on(tiling, tower, theta, switched)
    assert len(chambers) == len(calls) == 32


def test_lift_slice_faces_ranks_each_row_tuple_once(monkeypatch):
    _, tower, _, chambers = tower_and_chambers((2, 2))
    slices = []
    for chamber in chambers:
        shifted, _ = bt.shift_by_stability(tower, chamber.representative)
        slices.append((shifted, bt.kernel_polytope(tower, shifted)))

    # enumerate_faces ranks each slice's lineality; only the ranks of
    # active normals are lift_slice_faces' own
    ranked, in_faces = [], []
    real_faces, real_frank = polyhedra.enumerate_faces, rational.frank

    def faces(poly):
        in_faces.append(poly)
        try:
            return real_faces(poly)
        finally:
            in_faces.pop()

    def counting(rows):
        if not in_faces:
            ranked.append(tuple(map(tuple, rows)))
        return real_frank(rows)

    monkeypatch.setattr(polyhedra, "enumerate_faces", faces)
    monkeypatch.setattr(rational, "frank", counting)
    for shifted, slice_poly in slices:
        bt.lift_slice_faces(tower, shifted, slice_poly)
    assert ranked
    assert len(ranked) == len(set(ranked))


def test_a_dropped_tower_is_freed_after_its_slice_routes():
    tiling, tower, shifted, slice_poly = fresh_slice("spp")
    bt.quotient_fan(tower, shifted, slice_poly)
    bt.descend_linear_functional(
        tower, shifted, path_weights(tiling, tower)[0], slice_poly)
    tower_ref = weakref.ref(tower)
    del tiling, tower, shifted, slice_poly
    gc.collect()
    assert tower_ref() is None


@pytest.mark.parametrize("route", [
    lambda tower, shifted, slice_poly: bt.kernel_polytope(tower, shifted),
    lambda tower, shifted, slice_poly: bt.lift_slice_faces(
        tower, shifted, slice_poly),
    lambda tower, shifted, slice_poly: bt.quotient_fan(tower, shifted),
    lambda tower, shifted, slice_poly: bt.quotient_fan(
        tower, shifted, slice_poly),
    lambda tower, shifted, slice_poly: bt.descend_linear_functional(
        tower, shifted, (0,) * tower.rank, slice_poly),
], ids=["kernel_polytope", "lift_slice_faces", "quotient_fan",
        "quotient_fan_on_a_slice", "descend_linear_functional"])
def test_the_quotient_route_refuses_a_cone_of_another_tower(
        route, towers, chambers_by_name):
    # z2z2's rank-6 cone on spp's rank-5 tower: dot products would stop
    # at the shorter vector and slice a cone that is not spp's
    _, _, shifted, _ = first_chamber_shift(towers, chambers_by_name, "z2z2")
    slice_poly = bt.kernel_polytope(towers["z2z2"], shifted)
    with pytest.raises(ValueError) as exc:
        route(towers["spp"], shifted, slice_poly)
    assert str(exc.value) == ("shifted polyhedron has ambient dimension 6, "
                              "not the tower's rank 5")


def test_quotient_fan_refuses_ray_labels_that_name_two_rays(
        spp, matchings_by_name, chambers_by_name):
    tower = bt.build_lattice_tower(spp)
    theta = chambers_by_name["spp"][0].representative
    direct = bt.moduli_fan(spp, theta, matchings_by_name["spp"])
    first, *_, last = sorted(ray.vector for ray in direct.rays)
    shifted, _ = bt.shift_by_stability(tower, theta)
    # two labels alike, then a label that is the first default name
    for labels, name in (({first: "a", last: "a"}, "a"),
                         ({last: "r1"}, "r1")):
        with pytest.raises(ValueError) as exc:
            bt.quotient_fan(tower, shifted, ray_labels=labels)
        assert str(exc.value) == (f"ray label {name!r} names two rays, "
                                  f"{first} and {last}")
