"""Fan construction, validation, smoothness, and triangulations."""

from __future__ import annotations

import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import branetile as bt
from branetile import fan as fan_module, polyhedra, rational
from branetile.fan import Fan, FanCone, FanRay
from branetile.matchings import lattice_points_in_hull, matching_id_key

from conftest import (ALL_FIXTURES, QUIVER_FIXTURES, document_text,
                      orbifold_text, powers_of_two_orbifold,
                      reference_validate_fan)

EXPECTED_GIT_CLASSES = {
    "honeycomb": [[1]],
    "conifold": [[1], [2]],
    "spp": [[1, 6], [2, 3], [4, 5]],
    "z2z2": [[1, 6, 11, 12, 21, 22, 27, 32], [2, 3, 4, 5, 28, 29, 30, 31],
             [7, 8, 9, 10, 23, 24, 25, 26],
             [13, 14, 15, 16, 17, 18, 19, 20]],
}

# (rays, triangles, edges) of the first chamber's fan
EXPECTED_FAN_SHAPE = {
    "honeycomb": (3, 1, 3),
    "conifold": (4, 2, 5),
    "spp": (5, 3, 7),
    "z2z2": (6, 4, 9),
}


def make_fan(vectors: dict, maximal: list) -> Fan:
    """A fan from named ray vectors and maximal ray-id sets, with every
    subset listed as a face (all test cones are simplicial)."""
    cones = set()
    for ids in maximal:
        ids = tuple(sorted(ids))
        for mask in range(1 << len(ids)):
            sub = frozenset(ids[i] for i in range(len(ids))
                            if mask >> i & 1)
            cones.add(sub)
    rays = tuple(FanRay(ray_id=rid, vector=tuple(vec))
                 for rid, vec in sorted(vectors.items()))
    return Fan(rays=rays,
               cones=tuple(FanCone(ray_ids=c, dim=len(c))
                           for c in sorted(cones, key=lambda c: (len(c),
                                                                 sorted(c)))))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_accepts_a_complete_plane_fan():
    fan = make_fan({"a": (1, 0), "b": (0, 1), "c": (-1, -1)},
                   [("a", "b"), ("b", "c"), ("c", "a")])
    bt.validate_fan(fan)


def test_validate_accepts_an_incomplete_fan_and_mixed_dimensions():
    bt.validate_fan(make_fan({"a": (1, 0), "b": (0, 1), "c": (-1, -1)},
                             [("a", "b"), ("c",)]))


def test_validate_rejects_duplicate_ray_vectors():
    fan = make_fan({"a": (1, 0), "b": (1, 0)}, [("a",), ("b",)])
    with pytest.raises(bt.ConsistencyError):
        bt.validate_fan(fan)


@pytest.mark.parametrize("vectors, message", [
    ({"a": (1, 0), "b": (0, 1, 7)}, "ray b has 3 coordinates, not the "
     "first ray's 2"),
    ({"a": (1, 0, 0), "b": (0, 1), "c": (0, 0, 1)}, "ray b has 2 "
     "coordinates, not the first ray's 3"),
], ids=["longer", "shorter"])
def test_validate_rejects_rays_of_another_length(vectors, message):
    # a dot product stops at the shorter vector, so nothing else notices
    fan = make_fan(vectors, [(rid,) for rid in vectors])
    with pytest.raises(bt.ConsistencyError) as exc:
        bt.validate_fan(fan)
    assert str(exc.value) == message


def test_validate_rejects_non_primitive_and_zero_rays():
    with pytest.raises(bt.ConsistencyError):
        bt.validate_fan(make_fan({"a": (2, 0)}, [("a",)]))
    with pytest.raises(bt.ConsistencyError):
        bt.validate_fan(make_fan({"a": (0, 0)}, [("a",)]))


def test_validate_rejects_a_missing_zero_cone():
    fan = make_fan({"a": (1, 0)}, [("a",)])
    cones = tuple(c for c in fan.cones if c.ray_ids)
    with pytest.raises(bt.ConsistencyError):
        bt.validate_fan(Fan(rays=fan.rays, cones=cones))


def test_validate_rejects_duplicate_cones():
    fan = make_fan({"a": (1, 0)}, [("a",)])
    with pytest.raises(bt.ConsistencyError):
        bt.validate_fan(Fan(rays=fan.rays, cones=fan.cones + fan.cones[-1:]))


def test_validate_rejects_a_missing_face():
    fan = make_fan({"a": (1, 0), "b": (0, 1)}, [("a", "b")])
    cones = tuple(c for c in fan.cones if c.ray_ids != frozenset({"b"}))
    with pytest.raises(bt.ConsistencyError):
        bt.validate_fan(Fan(rays=fan.rays, cones=cones))


def test_validate_rejects_a_wrong_cone_dimension():
    fan = make_fan({"a": (1, 0), "b": (0, 1)}, [("a", "b")])
    cones = tuple(
        FanCone(ray_ids=c.ray_ids, dim=3) if c.ray_ids == {"a", "b"} else c
        for c in fan.cones)
    with pytest.raises(bt.ConsistencyError):
        bt.validate_fan(Fan(rays=fan.rays, cones=cones))


def test_validate_rejects_overlapping_cones():
    # cone(c, d) sweeps across cone(a, b) without sharing a face
    fan = make_fan({"a": (1, 0), "b": (0, 1), "c": (1, -1), "d": (2, 1)},
                   [("a", "b"), ("c", "d")])
    with pytest.raises(bt.ConsistencyError, match="overlap"):
        bt.validate_fan(fan)


def test_validate_rejects_a_ray_inside_another_cone():
    fan = make_fan({"a": (1, 0), "b": (0, 1), "m": (1, 1)},
                   [("a", "b"), ("m",)])
    with pytest.raises(bt.ConsistencyError):
        bt.validate_fan(fan)


def test_validate_rejects_a_non_extreme_listed_ray():
    fan = make_fan({"a": (1, 0), "b": (1, 1), "c": (0, 1)},
                   [("a", "b", "c")])
    with pytest.raises(bt.ConsistencyError):
        bt.validate_fan(fan)


def test_validate_refuses_a_non_extreme_ray_and_a_line_as_not_simplicial():
    # each cone is listed with exactly its faces; a cone with a
    # non-extreme ray or a line has dependent rays, so it is refused
    def listed(vectors: dict, cones: list) -> Fan:
        return Fan(rays=tuple(FanRay(i, v) for i, v in vectors.items()),
                   cones=tuple(FanCone(frozenset(c), d) for c, d in cones))

    inside = listed({"a": (1, 0), "b": (1, 1), "c": (0, 1)},
                    [("", 0), ("a", 1), ("c", 1), ("abc", 2)])
    line = listed({"a": (1, 0), "b": (-1, 0), "c": (0, 1)},
                  [("", 0), ("ab", 1), ("abc", 2)])
    for fan in (inside, line):
        with pytest.raises(bt.ConsistencyError, match=r"^cone "
                           r"\['a', 'b', 'c'\] is not simplicial$"):
            bt.validate_fan(fan)


def test_validate_rejects_a_cone_with_unknown_rays():
    fan = make_fan({"a": (1, 0)}, [("a",)])
    cones = fan.cones + (FanCone(ray_ids=frozenset({"ghost"}), dim=1),)
    with pytest.raises(bt.ConsistencyError):
        bt.validate_fan(Fan(rays=fan.rays, cones=cones))


# ---------------------------------------------------------------------------
# equality and smoothness
# ---------------------------------------------------------------------------

def test_fans_equal_ignores_ray_names():
    first = make_fan({"a": (1, 0), "b": (0, 1)}, [("a", "b")])
    second = make_fan({"x": (1, 0), "y": (0, 1)}, [("x", "y")])
    third = make_fan({"a": (1, 0), "b": (0, 1)}, [("a",), ("b",)])
    assert bt.fans_equal(first, second)
    assert not bt.fans_equal(first, third)


def test_check_smooth_fixed_examples():
    smooth = make_fan({"a": (1, 0), "b": (0, 1)}, [("a", "b")])
    assert bt.check_smooth(smooth)
    singular = make_fan({"a": (1, 0), "b": (1, 2)}, [("a", "b")])
    assert not bt.check_smooth(singular)
    # a zero cone has no rays to be unimodular, whatever its dimension
    zero = Fan(rays=(), cones=(FanCone(frozenset(), 1),))
    assert bt.check_smooth(zero)


def square_cone_fan() -> Fan:
    """Four rays over a square: a valid cone but not simplicial."""
    return Fan(
        rays=(FanRay("a", (1, 0, 1)), FanRay("b", (0, 1, 1)),
              FanRay("c", (-1, 0, 1)), FanRay("d", (0, -1, 1))),
        cones=(FanCone(frozenset(), 0),
               FanCone(frozenset({"a"}), 1), FanCone(frozenset({"b"}), 1),
               FanCone(frozenset({"c"}), 1), FanCone(frozenset({"d"}), 1),
               FanCone(frozenset({"a", "b"}), 2),
               FanCone(frozenset({"b", "c"}), 2),
               FanCone(frozenset({"c", "d"}), 2),
               FanCone(frozenset({"d", "a"}), 2),
               FanCone(frozenset({"a", "b", "c", "d"}), 3)))


def test_check_smooth_requires_simplicial_maximal_cones():
    assert not bt.check_smooth(square_cone_fan())


def test_a_non_simplicial_cone_is_refused_before_any_duality(monkeypatch):
    # every fan the package builds is simplicial, so a cone with
    # dependent rays is refused after one rank, with no dual
    calls = []
    real = rational.dual_cone

    def counting(gens, dim):
        calls.append(gens)
        return real(gens, dim)

    monkeypatch.setattr(rational, "dual_cone", counting)
    with pytest.raises(bt.ConsistencyError, match=r"^cone "
                       r"\['a', 'b', 'c', 'd'\] is not simplicial$"):
        bt.validate_fan(square_cone_fan())
    assert calls == []


def test_a_face_of_a_maximal_cone_keeps_its_dimension():
    fan = make_fan({"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1)},
                   [("a", "b", "c")])
    cones = tuple(
        FanCone(ray_ids=c.ray_ids, dim=1) if c.ray_ids == {"a", "b"} else c
        for c in fan.cones)
    with pytest.raises(bt.ConsistencyError,
                       match=r"^cone \['a', 'b'\] declares dimension 1 "
                             r"but spans rank 2$"):
        bt.validate_fan(Fan(rays=fan.rays, cones=cones))


def test_a_smooth_fan_takes_one_rank_per_maximal_cone(
        z2z2, matchings_by_name, chambers_by_name, monkeypatch):
    fan = bt.moduli_fan(z2z2, chambers_by_name["z2z2"][0].representative,
                        matchings_by_name["z2z2"])
    assert bt.check_smooth(fan)
    calls = []
    real = rational.frank

    def counting(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(rational, "frank", counting)
    bt.validate_fan(fan)
    assert len(fan.max_cones()) == 4 < len(fan.cones)
    assert len(calls) == 4


@st.composite
def small_fans(draw) -> Fan:
    """A random cone collection in 2 or 3 dimensions, often with its
    rays at height one and its maximal cones drawn as triangles, or
    now and then from four rays or more, which are never simplicial at
    height one: maximal cones of up to ``dim + 2`` rays, mostly cut to
    their extreme rays when pointed, and closed under faces (a subset
    is a face when a functional vanishes on it and is positive on the
    rest of the cone), each cone declaring its rank; then, sometimes, a
    face dropped, a dimension changed, an unknown ray used or a cone
    widened by one more ray."""
    dim = draw(st.sampled_from((2, 3)))
    coords = [st.integers(-2, 2)] * dim
    least, most = 1, dim + 2  # the fewest and most rays of a maximal cone
    if dim == 3 and draw(st.booleans()):
        coords[2] = st.just(1)
        least = most = 3
        if not draw(st.integers(0, 3)):
            least, most = 4, dim + 2
    vecs = draw(st.lists(
        st.tuples(*coords).filter(lambda v: math.gcd(*v) == 1),
        min_size=least, max_size=7, unique=True))
    ids = [f"r{i}" for i in range(len(vecs))]
    vector = dict(zip(ids, vecs))

    def is_face(sub, cone) -> bool:
        return rational.strict_feasible_point(
            [vector[i] for i in cone if i not in sub],
            [vector[i] for i in sub], dim) is not None

    cones = {frozenset()}
    for m in draw(st.lists(st.sets(st.sampled_from(ids),
                                   min_size=least, max_size=most),
                           min_size=1, max_size=3)):
        if is_face((), m) and draw(st.integers(0, 3)):
            m = {i for i in m if is_face((i,), m)}
        cones |= {frozenset(sub) for r in range(len(m) + 1)
                  for sub in itertools.combinations(sorted(m), r)
                  if is_face(sub, m)}
    listed = [FanCone(ray_ids=c, dim=rational.frank([vector[i] for i in c]))
              for c in sorted(cones, key=lambda c: (len(c), sorted(c)))]
    for fault in draw(st.lists(st.sampled_from(
            ("drop", "dim", "unknown", "widen")), max_size=2)):
        k = draw(st.integers(0, len(listed) - 1))
        cone = listed[k]
        if fault == "drop":
            del listed[k]
        elif fault == "dim":
            listed[k] = FanCone(cone.ray_ids,
                                cone.dim + draw(st.sampled_from((-1, 1))))
        elif fault == "unknown":
            listed.append(FanCone(cone.ray_ids | {"ghost"}, cone.dim + 1))
        else:
            wider = cone.ray_ids | {draw(st.sampled_from(ids))}
            listed.append(FanCone(wider, rational.frank(
                [vector[i] for i in wider if i in vector])))
        if not listed:
            break
    return Fan(rays=tuple(FanRay(i, v) for i, v in vector.items()),
               cones=tuple(listed))


def accepts(validate, fan: Fan) -> bool:
    try:
        validate(fan)
    except bt.ConsistencyError:
        return False
    return True


def simplicial(fan: Fan) -> bool:
    """Whether every maximal cone has independent, listed rays."""
    vector = fan.vector_map()
    return all(rational.frank([vector[i] for i in c.ray_ids if i in vector])
               == len(c.ray_ids) for c in fan.max_cones())


@settings(max_examples=300)
@given(small_fans())
def test_validation_accepts_the_fans_the_cone_by_cone_reference_accepts(fan):
    # only simplicial fans: a maximal cone with dependent rays is refused
    assert accepts(bt.validate_fan, fan) == (
        accepts(reference_validate_fan, fan) and simplicial(fan))


# ---------------------------------------------------------------------------
# moduli fans of the bundled tilings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_moduli_fan_shape_and_smoothness(name, tilings, towers,
                                         matchings_by_name,
                                         chambers_by_name):
    tiling = tilings[name]
    matchings = matchings_by_name[name]
    theta = chambers_by_name[name][0].representative
    fan = bt.moduli_fan(tiling, theta, matchings)
    assert bt.check_smooth(fan)
    diagram = bt.toric_diagram(tiling, towers[name], matchings)
    tri = bt.triangulation(fan, diagram)
    n_rays, n_triangles, n_edges = EXPECTED_FAN_SHAPE[name]
    assert len(fan.rays) == n_rays
    assert len(tri.triangles) == n_triangles
    assert len(tri.edges) == n_edges
    assert {rid for rid, _ in tri.ray_points} \
        == {r.ray_id for r in fan.rays}
    for rid, point in tri.ray_points:
        assert fan.vector_map()[rid] == point + (1,)


def test_moduli_fan_rejects_wall_parameters(spp, matchings_by_name):
    with pytest.raises(bt.DegenerateInputError):
        bt.moduli_fan(spp, (0, 1, -1), matchings_by_name["spp"])


def test_ray_vector_raises_on_unknown_id(honeycomb, matchings_by_name,
                                         chambers_by_name):
    fan = bt.moduli_fan(honeycomb,
                        chambers_by_name["honeycomb"][0].representative,
                        matchings_by_name["honeycomb"])
    with pytest.raises(KeyError):
        fan.vector_map()["ghost"]


# ---------------------------------------------------------------------------
# triangulations
# ---------------------------------------------------------------------------

def test_triangulation_rejects_singular_fans(spp, towers,
                                             matchings_by_name):
    diagram = bt.toric_diagram(spp, towers["spp"], matchings_by_name["spp"])
    singular = make_fan({"a": (1, 0, 1), "b": (1, 2, 1)}, [("a", "b")])
    with pytest.raises(bt.DegenerateInputError):
        bt.triangulation(singular, diagram)


def test_triangulation_rejects_rays_off_the_diagram(honeycomb, towers,
                                                    matchings_by_name):
    diagram = bt.toric_diagram(honeycomb, towers["honeycomb"],
                               matchings_by_name["honeycomb"])
    stray = make_fan({"a": (7, 7, 1)}, [("a",)])
    with pytest.raises(bt.ConsistencyError):
        bt.triangulation(stray, diagram)


def test_triangulation_rejects_wrong_triangle_counts(
        honeycomb, spp, towers, matchings_by_name, chambers_by_name):
    fan = bt.moduli_fan(honeycomb,
                        chambers_by_name["honeycomb"][0].representative,
                        matchings_by_name["honeycomb"])
    spp_diagram = bt.toric_diagram(spp, towers["spp"],
                                   matchings_by_name["spp"])
    # the one-triangle fan happens to sit on diagram points, but cannot
    # tile a hull of doubled area three
    with pytest.raises(bt.ConsistencyError):
        bt.triangulation(fan, spp_diagram)


# ---------------------------------------------------------------------------
# geometric grouping of chambers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_git_equivalence_classes_are_frozen(name, tilings,
                                            matchings_by_name,
                                            chambers_by_name):
    classes = bt.git_equivalence_classes(tilings[name],
                                         chambers_by_name[name],
                                         matchings_by_name[name])
    assert classes == EXPECTED_GIT_CLASSES[name]


@pytest.mark.parametrize("name", ("conifold", "spp", "z2z2"))
def test_chambers_in_one_class_have_equal_fans(name, tilings,
                                               matchings_by_name,
                                               chambers_by_name):
    tiling = tilings[name]
    matchings = matchings_by_name[name]
    chambers = {c.index: c for c in chambers_by_name[name]}
    classes = bt.git_equivalence_classes(tilings[name],
                                         chambers_by_name[name], matchings)
    fans = {i: bt.moduli_fan(tiling, chambers[i].representative, matchings)
            for group in classes for i in group}
    for group in classes:
        for i in group[1:]:
            assert bt.fans_equal(fans[group[0]], fans[i])
    for first, second in zip(classes, classes[1:]):
        assert not bt.fans_equal(fans[first[0]], fans[second[0]])


def vector_tuple_classes(chambers, matchings) -> list:
    """Chambers grouped by the sorted tuple of every cone's sorted ray
    vectors and dimension, computed apart from the geometry key of
    :func:`bt.git_equivalence_classes`."""
    vector = {m.matching_id: m.chi_kernel for m in matchings}
    groups: dict = {}
    for chamber in chambers:
        key = tuple(sorted(
            (tuple(sorted(vector[i] for i in frozenset(s.matching_ids))),
             s.dim) for s in chamber.stable_subsets))
        groups.setdefault(key, []).append(chamber.index)
    return sorted(groups.values(), key=lambda g: g[0])


@pytest.mark.parametrize("document", ALL_FIXTURES + ("2x2", "1x4", "1x5"))
def test_classes_match_the_vector_tuple_key(document):
    tiling = bt.load_document(document_text(document))
    matchings = bt.enumerate_perfect_matchings(tiling)
    chambers = bt.chamber_decomposition(tiling, matchings)
    assert bt.git_equivalence_classes(tiling, chambers, matchings) \
        == vector_tuple_classes(chambers, matchings)


def test_a_four_by_four_moduli_fan_is_pinned():
    # As built from the stable subsets of the search that tested every
    # stable pair against every stable matching.
    tiling = bt.load_document(orbifold_text(4, 4))
    matchings = bt.enumerate_perfect_matchings(tiling)
    theta = (659, 395, -222, 98, -944, 838, -6, -865, -858, -771, -414,
             -291, 869, 834, 763, -85)
    fan = bt.moduli_fan(tiling, theta, matchings)
    form = (tuple((r.ray_id, r.vector) for r in fan.rays),
            tuple((tuple(sorted(c.ray_ids, key=matching_id_key)), c.dim)
                  for c in fan.cones))
    assert (len(fan.rays), len(fan.cones)) == (15, 62)
    assert hashlib.sha256(repr(form).encode()).hexdigest() == (
        "1001fc5c80108167e52724cd58804d01760b1b05f6d90179a527666f2ae88d4f")


def test_a_four_by_five_moduli_fan_is_pinned(four_by_five):
    # As built when theta was read back out of the subset-sum table
    # and supports were tested against a set of every nonpositive
    # subset.
    tiling, _, matchings, theta = four_by_five
    fan = bt.moduli_fan(tiling, theta, matchings)
    form = (tuple((r.ray_id, r.vector) for r in fan.rays),
            tuple((tuple(sorted(c.ray_ids, key=matching_id_key)), c.dim)
                  for c in fan.cones))
    assert (len(fan.rays), len(fan.cones)) == (16, 72)
    assert hashlib.sha256(repr(form).encode()).hexdigest() == (
        "fefec84383eccbdc58d29890f44959720d206cd15ac73704b423c93344c32bbe")


def test_a_five_by_five_moduli_fan_is_pinned(five_by_five):
    # As built from one table of all 2^25 subset sums of theta.
    tiling, _, matchings, theta = five_by_five
    fan = bt.moduli_fan(tiling, theta, matchings)
    form = (tuple((r.ray_id, r.vector) for r in fan.rays),
            tuple((tuple(sorted(c.ray_ids, key=matching_id_key)), c.dim)
                  for c in fan.cones))
    assert (len(fan.rays), len(fan.cones)) == (21, 92)
    assert hashlib.sha256(repr(form).encode()).hexdigest() == (
        "b5458b7f7dc516dfd1de89c1412e3f84f0eea603ac12ecb8ae40f9d6a6ab29af")


def test_a_five_by_six_moduli_fan_triangulates_its_diagram():
    # 30 vertices: past the 25 that one table of all 2^n subset sums
    # allowed.
    tiling, tower, matchings, theta = powers_of_two_orbifold(5, 6)
    fan = bt.moduli_fan(tiling, theta, matchings)
    assert bt.check_smooth(fan)
    diagram = bt.toric_diagram(tiling, tower, matchings)
    tri = bt.triangulation(fan, diagram)
    assert len(tri.triangles) == 30
    assert {p for _, p in tri.ray_points} == set(
        lattice_points_in_hull(list(diagram.hull)))


@pytest.mark.parametrize("n, m, classes", [(2, 2, 4), (1, 5, 1)])
def test_only_the_quotient_route_validates_fans(n, m, classes, monkeypatch):
    # The moduli side's structures carry their own certificate, so
    # neither the moduli fan nor the grouping of chambers by fan runs
    # validate_fan; the quotient route still does.
    tiling = bt.load_document(orbifold_text(n, m))
    tower = bt.build_lattice_tower(tiling)
    matchings = bt.enumerate_perfect_matchings(tiling, tower)
    calls = []

    def counting(fan):
        calls.append(fan)
        return bt.validate_fan(fan)

    monkeypatch.setattr(fan_module, "validate_fan", counting)
    monkeypatch.setattr(polyhedra, "validate_fan", counting)
    chambers = bt.chamber_decomposition(tiling, matchings)
    assert len(bt.git_equivalence_classes(tiling, chambers, matchings)) \
        == classes
    for chamber in chambers:
        bt.moduli_fan(tiling, chamber.representative, matchings)
    assert calls == []
    shifted, _ = bt.shift_by_stability(tower, chambers[0].representative)
    bt.quotient_fan(tower, shifted, bt.kernel_polytope(tower, shifted), {})
    assert calls


def test_classes_refuse_chambers_of_another_tiling(
        z2z2, matchings_by_name, chambers_by_name):
    with pytest.raises(ValueError, match="3 entries for 4 vertices"):
        bt.git_equivalence_classes(z2z2, chambers_by_name["spp"],
                                   matchings_by_name["spp"])


def hand_matching(matching_id: str, chi_kernel: tuple):
    return bt.PerfectMatching(matching_id=matching_id, mask=0,
                              arrow_order=(), chi_kernel=chi_kernel)


@pytest.mark.parametrize("kernels, message", [
    # (0, 0, 2) is not primitive either: height one is checked first
    (((0, 0, 1), (0, 0, 2)),
     "ray of stable matching m2 is not at height one: (0, 0, 2)"),
    (((1, 0, 1), (1, 0, 1)),
     "stable matchings m1 and m2 share the ray (1, 0, 1)"),
])
def test_ray_vectors_refuse_bad_matching_points(kernels, message):
    matchings = [hand_matching(f"m{i + 1}", k) for i, k in enumerate(kernels)]
    subset = bt.StableSubset(arrows=frozenset(), matching_ids=("m1", "m2"),
                             dim=2)
    with pytest.raises(bt.ConsistencyError) as exc:
        fan_module._ray_vectors([subset],
                                {m.matching_id: m for m in matchings})
    assert str(exc.value) == message
