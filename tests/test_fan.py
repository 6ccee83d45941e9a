"""Fan construction, validation, smoothness, and triangulations."""

from __future__ import annotations

import pytest

import branetile as bt
from branetile.fan import Fan, FanCone, FanRay

from conftest import QUIVER_FIXTURES

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


def test_check_smooth_requires_simplicial_maximal_cones():
    # four rays over a square: a valid cone but not simplicial
    fan = Fan(
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
    bt.validate_fan(fan)
    assert not bt.check_smooth(fan)


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
        assert fan.ray_vector(rid)[:2] == point
        assert fan.ray_vector(rid)[2] == 1


def test_moduli_fan_rejects_wall_parameters(spp, matchings_by_name):
    with pytest.raises(bt.DegenerateInputError):
        bt.moduli_fan(spp, (0, 1, -1), matchings_by_name["spp"])


def test_ray_vector_raises_on_unknown_id(honeycomb, matchings_by_name,
                                         chambers_by_name):
    fan = bt.moduli_fan(honeycomb,
                        chambers_by_name["honeycomb"][0].representative,
                        matchings_by_name["honeycomb"])
    with pytest.raises(KeyError):
        fan.ray_vector("ghost")


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
