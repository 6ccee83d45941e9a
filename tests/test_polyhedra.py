"""Exact polyhedra, the weight cone, slices, and functional descent."""

from __future__ import annotations

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import branetile as bt
from branetile import polyhedra, rational

from conftest import QUIVER_FIXTURES, fixture_text, orbifold_text

UNIT_SQUARE_INEQS = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)]


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


def test_equalities_cut_a_segment():
    poly = bt.polyhedron_from_inequalities(
        [((1, 0), 0), ((0, 1), 0)], 2, equalities=[((1, 1), 1)])
    assert sorted(poly.vertices) == [(0, 1), (1, 0)]
    assert poly.rays == ()
    assert poly.dim == 1


def test_generators_round_trip_through_inequalities():
    poly = bt.polyhedron_from_generators(
        [(0, 0), (1, 0), (1, 1), (0, 1)], 2)
    assert sorted(poly.vertices) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    again = bt.polyhedron_from_inequalities(poly.inequalities, 2)
    assert sorted(again.vertices) == sorted(poly.vertices)


def test_generators_with_rays_and_lineality():
    poly = bt.polyhedron_from_generators(
        [(0, 0, 0)], 3, rays=[(1, 0, 0)], lineality=[(0, 0, 1)])
    assert poly.rays == ((1, 0, 0),)
    assert len(poly.lineality) == 1
    assert poly.contains((5, 0, -7))
    assert not poly.contains((-1, 0, 0))
    assert poly.is_empty is False


def test_empty_generator_list_gives_the_empty_polyhedron():
    assert bt.polyhedron_from_generators([], 2).is_empty


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
        assert bt.polyhedra.face_contains(top, edge)
        point = bt.polyhedra.relint_point(poly, edge)
        assert poly.contains(point)
        # an edge midpoint activates exactly its one inequality
        active = [i for i, (a, b) in enumerate(poly.inequalities)
                  if rational.fdot(rational.fvec(a),
                                   rational.fvec(point)) == b]
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
    gens, lin = bt.polyhedra.normal_cone_generators(poly, origin[0])
    assert sorted(gens) == [(0, 1), (1, 0)]
    assert lin == []


# ---------------------------------------------------------------------------
# integer points
# ---------------------------------------------------------------------------

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
    stable = [f for f in lifted if f.stable]
    assert bt.m_stable_faces(tower, shifted, slice_poly) == stable
    for f in lifted:
        ambient = [rational.fvec(shifted.inequalities[i][0])
                   for i in f.active]
        restricted = [rational.fvec(slice_poly.inequalities[i][0])
                      for i in f.active]
        ra = rational.frank(ambient, tower.rank)
        rr = rational.frank(restricted, 3)
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
