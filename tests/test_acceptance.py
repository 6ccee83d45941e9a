"""End-to-end acceptance checks on the bundled example tilings.

Every expected value below is frozen reference data, checked by hand
against the face cycles and the published geometry of the two named
singularities (the suspended pinch point and the abelian orbifold of
rank two).  Each test is independent and runs in well under ten
seconds; nothing here is tuned or tolerant — all comparisons are exact.
"""

from __future__ import annotations

import itertools

import pytest

import branetile as bt
from branetile import lattice, rational
from branetile.polyhedra import (descend_linear_functional, kernel_polytope,
                                 quotient_fan, shift_by_stability)
from branetile.tilting import stable_matchings, weak_path_weight

from conftest import ALL_FIXTURES, QUIVER_FIXTURES

# the six matchings of the suspended pinch point, in reference label
# order 1..6 (arrow ids are <source><target>)
SPP_REFERENCE_MATCHINGS = (
    frozenset({"12", "31"}),
    frozenset({"21", "13"}),
    frozenset({"32", "11"}),
    frozenset({"23", "11"}),
    frozenset({"12", "13"}),
    frozenset({"21", "31"}),
)

# one generic stability parameter per chamber, in reference label order
SPP_REFERENCE_THETAS = (
    (-2, 1, 1),
    (1, -2, 1),
    (1, 1, -2),
    (2, -1, -1),
    (-1, 2, -1),
    (-1, -1, 2),
)

# the diagram of the suspended pinch point in its classical coordinates
SPP_REFERENCE_DIAGRAM = ((0, 0), (2, 0), (1, 1), (0, 1), (1, 0), (1, 0))

# a fixed projection presenting the divisor class group of every
# moduli space of the suspended pinch point (rays in reference order)
PINNED_PROJECTION = ((1, 0, 1, -1, -1), (0, 1, -1, 1, -1))

# the nine matchings of the rank-two abelian orbifold, reference order
Z2Z2_REFERENCE_MATCHINGS = (
    frozenset({"cb", "0a", "0b", "ca"}),
    frozenset({"cb", "0a", "bc", "a0"}),
    frozenset({"cb", "ab", "c0", "a0"}),
    frozenset({"ac", "b0", "0b", "ca"}),
    frozenset({"ac", "b0", "bc", "a0"}),
    frozenset({"ac", "ab", "0b", "0c"}),
    frozenset({"ba", "b0", "c0", "ca"}),
    frozenset({"ba", "0a", "bc", "0c"}),
    frozenset({"ba", "ab", "c0", "0c"}),
)

# four times the matching functionals of the orbifold, in the ambient
# coordinates of the covering space (reference label order)
Z2Z2_REFERENCE_CHI4 = (
    (2, 2, 0), (4, 0, 0), (2, 0, 2), (0, 4, 0), (2, 2, 0),
    (0, 2, 2), (0, 2, 2), (2, 0, 2), (0, 0, 4),
)

# three stabilities of the orbifold, in vertex order 0,a,b,c
Z2Z2_REFERENCE_THETAS = ((-3, 1, 1, 1), (-3, -1, 2, 2), (-2, 3, 1, -2))


def spp_labels(matchings) -> dict:
    """matching id -> reference label, pinned by the arrow sets."""
    return {m.matching_id:
            1 + SPP_REFERENCE_MATCHINGS.index(frozenset(m.arrows))
            for m in matchings}


def z2z2_labels(matchings) -> dict:
    return {m.matching_id:
            1 + Z2Z2_REFERENCE_MATCHINGS.index(frozenset(m.arrows))
            for m in matchings}


def unimodular_2x2():
    """All 2x2 integer matrices with entries in [-3, 3] and det +-1."""
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        if a * d - b * c in (1, -1):
            yield a, b, c, d


def plane_symmetries(points) -> list:
    """All affine-unimodular self-maps of a plane point multiset,
    found by exhausting small matrices and all placements of one
    point."""
    pts = sorted(points)
    base = pts[0]
    syms = []
    for a, b, c, d in unimodular_2x2():
        for ix, iy in set(pts):
            tx = ix - (a * base[0] + b * base[1])
            ty = iy - (c * base[0] + d * base[1])
            mapped = sorted((a * x + b * y + tx, c * x + d * y + ty)
                            for x, y in pts)
            if mapped == pts:
                syms.append(((a, b, c, d), (tx, ty)))
    return syms


def triangle_signature(fan, diagram) -> frozenset:
    """A fan's triangulation as a set of point-set triangles."""
    tri = bt.triangulation(fan, diagram)
    pts = dict(tri.ray_points)
    return frozenset(frozenset(pts[r] for r in t) for t in tri.triangles)


# ---------------------------------------------------------------------------
# 1. matchings of the suspended pinch point
# ---------------------------------------------------------------------------

def test_01_spp_matchings_are_exactly_the_reference_six(spp):
    matchings = bt.enumerate_perfect_matchings(spp)
    assert len(matchings) == 6
    assert {frozenset(m.arrows) for m in matchings} \
        == set(SPP_REFERENCE_MATCHINGS)


# ---------------------------------------------------------------------------
# 2. lattice ranks and torsion-freeness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,ranks", [("spp", (2, 5, 3)),
                                        ("z2z2", (3, 6, 3))])
def test_02_lattice_ranks_and_freeness(name, ranks, tilings, towers):
    degree_rank, weight_rank, kernel_rank = ranks
    tiling, tower = tilings[name], towers[name]

    assert tower.rank == weight_rank
    assert tower.degree_rank == degree_rank
    assert rational.frank(tower.degree_matrix) == degree_rank
    kernel = [list(r) for r in tower.kernel_basis]
    assert len(kernel[0]) == kernel_rank
    assert rational.frank(kernel) == kernel_rank

    # independent presentation: one column per face relation over the
    # ambient generators (face-cycle symbol, then arrows)
    aids = [a.arrow_id for a in tiling.arrows]
    idx = {aid: i for i, aid in enumerate(aids)}
    presentation = [[0] * len(tiling.faces) for _ in range(1 + len(aids))]
    for j, face in enumerate(tiling.faces):
        presentation[0][j] = 1
        for aid in face.arrows:
            presentation[1 + idx[aid]][j] -= 1
    factors = lattice.invariant_factors(presentation)
    assert all(d == 1 for d in factors)            # weight lattice free
    assert 1 + len(aids) - len(factors) == weight_rank

    # the kernel is saturated and the degree image is saturated, so the
    # two quotients in the tower are torsion-free as well
    assert lattice.invariant_factors(kernel) == [1] * kernel_rank
    assert lattice.invariant_factors(
        [list(r) for r in tower.degree_matrix]) == [1] * degree_rank


# ---------------------------------------------------------------------------
# 3. the toric diagram of the suspended pinch point
# ---------------------------------------------------------------------------

def test_03_spp_diagram_canonical_form_and_extremals(spp, towers,
                                                     matchings_by_name):
    diagram = bt.toric_diagram(spp, towers["spp"], matchings_by_name["spp"])
    assert diagram.canonical \
        == bt.canonical_point_multiset(SPP_REFERENCE_DIAGRAM)
    assert len(diagram.extremal_ids) == 4


# ---------------------------------------------------------------------------
# 4. the chamber decomposition of the suspended pinch point
# ---------------------------------------------------------------------------

def test_04_spp_chambers_match_the_reference_parameters(
        spp, matchings_by_name):
    chambers = bt.chamber_decomposition(spp, matchings_by_name["spp"])
    assert len(chambers) == 6
    for chamber in chambers:
        assert bt.is_generic(spp, chamber.representative)
    located = [bt.find_chamber(spp, chambers, theta).index
               for theta in SPP_REFERENCE_THETAS]
    assert sorted(located) == [1, 2, 3, 4, 5, 6]


# ---------------------------------------------------------------------------
# 5. which matchings and pairs are stable where
# ---------------------------------------------------------------------------

def test_05_spp_stability_of_reference_matchings_and_pairs(spp):
    arrows_of = dict(enumerate(SPP_REFERENCE_MATCHINGS, start=1))
    stable_at = {
        label: {j for j, theta in enumerate(SPP_REFERENCE_THETAS, start=1)
                if bt.is_theta_stable(spp, arrows, theta)}
        for label, arrows in arrows_of.items()}
    assert stable_at[5] == {2, 3, 4}
    assert stable_at[6] == {1, 5, 6}
    # the other four matchings are extremal and everywhere stable
    for label in (1, 2, 3, 4):
        assert stable_at[label] == {1, 2, 3, 4, 5, 6}

    def pair_stable_at(first, second):
        union = arrows_of[first] | arrows_of[second]
        return {j for j, theta in enumerate(SPP_REFERENCE_THETAS, start=1)
                if bt.is_theta_stable(spp, union, theta)}

    assert pair_stable_at(1, 3) == {2, 6}
    assert pair_stable_at(2, 4) == {3, 5}


# ---------------------------------------------------------------------------
# 6. fans: five rays, smooth, and two triangulation shapes
# ---------------------------------------------------------------------------

def test_06_spp_fans_are_smooth_with_two_triangulation_shapes(
        spp, towers, matchings_by_name):
    matchings = matchings_by_name["spp"]
    diagram = bt.toric_diagram(spp, towers["spp"], matchings)

    signatures = []
    for theta in SPP_REFERENCE_THETAS:
        fan = bt.moduli_fan(spp, theta, matchings)
        assert len(fan.rays) == 5
        bt.validate_fan(fan)
        assert bt.check_smooth(fan)
        signature = triangle_signature(fan, diagram)
        assert len(signature) == 3
        signatures.append(signature)

    # three labeled shapes, pairing the parameters (1,4), (2,6), (3,5)
    groups: dict = {}
    for j, s in enumerate(signatures, start=1):
        groups.setdefault(s, set()).add(j)
    assert sorted(groups.values(), key=sorted) \
        == [{1, 4}, {2, 6}, {3, 5}]

    # exactly two shapes once the diagram's own symmetries act
    symmetries = plane_symmetries([p for _, p in diagram.points])

    def transformed(sym, signature):
        (a, b, c, d), (tx, ty) = sym
        return frozenset(
            frozenset((a * x + b * y + tx, c * x + d * y + ty)
                      for x, y in t) for t in signature)

    orbits: list = []
    for s in groups:
        for orbit in orbits:
            if any(transformed(g, s) == orbit[0] for g in symmetries):
                orbit.append(s)
                break
        else:
            orbits.append([s])
    assert len(orbits) == 2


# ---------------------------------------------------------------------------
# 7. the tilting table of the suspended pinch point
# ---------------------------------------------------------------------------

def test_07_spp_tilting_divisors_and_classes(spp, towers,
                                             matchings_by_name):
    tower = towers["spp"]
    matchings = matchings_by_name["spp"]
    label_of = spp_labels(matchings)
    paths = {
        "1": bt.make_weak_path(spp, [], source="1"),
        "2": bt.make_weak_path(spp, [("12", 1)], "1"),
        "3": bt.make_weak_path(spp, [("13", 1)], "1"),
    }

    for j, theta in enumerate(SPP_REFERENCE_THETAS, start=1):
        coll = bt.tilting_collection(spp, tower, theta, matchings, base="1")
        assert dict(coll.paths) == paths
        order = sorted(range(len(coll.ray_ids)),
                       key=lambda i: label_of[coll.ray_ids[i]])
        labels = tuple(label_of[coll.ray_ids[i]] for i in order)
        divisors = {v: tuple(d[i] for i in order) for v, d in coll.divisors}

        inner = j in (2, 3, 4)  # the shape with the inner vertex split off
        assert labels == ((1, 2, 3, 4, 5) if inner else (1, 2, 3, 4, 6))
        assert divisors["1"] == (0, 0, 0, 0, 0)
        assert divisors["2"] == ((1, 0, 0, 0, 1) if inner
                                 else (1, 0, 0, 0, 0))
        assert divisors["3"] == ((0, 1, 0, 0, 1) if inner
                                 else (0, 1, 0, 0, 0))
        assert coll.presentation.rank == 2
        assert coll.presentation.torsion == ()

        # the pinned projection genuinely presents the class group: it
        # is onto and kills exactly the globally-linear divisors
        stable = stable_matchings(spp, theta, matchings)
        by_id = {m.matching_id: m for m in stable}
        ordered = [by_id[coll.ray_ids[i]] for i in order]
        for coords in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            linear = [lattice.dot(m.chi_kernel, coords) for m in ordered]
            assert all(lattice.dot(row, linear) == 0
                       for row in PINNED_PROJECTION)
        assert lattice.invariant_factors(
            [list(r) for r in PINNED_PROJECTION]) == [1, 1]

        pinned = {v: tuple(lattice.dot(row, d) for row in PINNED_PROJECTION)
                  for v, d in divisors.items()}
        assert pinned == ({"1": (0, 0), "2": (0, -1), "3": (-1, 0)} if inner
                          else {"1": (0, 0), "2": (1, 0), "3": (0, 1)})

        # the computed classes agree up to one change of basis
        assert all(torsion == () for _, (_, torsion) in coll.classes)
        mine = {v: free for v, (free, _) in coll.classes}
        assert any(
            all((a * mine[v][0] + b * mine[v][1],
                 c * mine[v][0] + d * mine[v][1]) == pinned[v]
                for v in mine)
            for a, b, c, d in unimodular_2x2())


# ---------------------------------------------------------------------------
# 8. the rank-two abelian orbifold
# ---------------------------------------------------------------------------

def test_08_z2z2_matchings_stability_and_triangulations(
        z2z2, towers, matchings_by_name):
    tower = towers["z2z2"]
    matchings = matchings_by_name["z2z2"]
    assert len(matchings) == 9
    assert {frozenset(m.arrows) for m in matchings} \
        == set(Z2Z2_REFERENCE_MATCHINGS)
    label_of = z2z2_labels(matchings)

    # one affine-unimodular change of plane coordinates carries every
    # computed matching point to its reference functional
    my_point = {label_of[m.matching_id]: m.point for m in matchings}
    ref_point = {j: (x // 2, y // 2)
                 for j, (x, y, _) in enumerate(Z2Z2_REFERENCE_CHI4, start=1)}
    anchor = my_point[9]

    def carries_all(a, b, c, d):
        tx = ref_point[9][0] - (a * anchor[0] + b * anchor[1])
        ty = ref_point[9][1] - (c * anchor[0] + d * anchor[1])
        return all((a * x + b * y + tx, c * x + d * y + ty) == ref_point[j]
                   for j, (x, y) in my_point.items())

    assert any(carries_all(*m) for m in unimodular_2x2())

    diagram = bt.toric_diagram(z2z2, tower, matchings)
    extremal = set(diagram.extremal_ids)
    arrows_of = dict(enumerate(Z2Z2_REFERENCE_MATCHINGS, start=1))

    signatures = []
    for i, theta in enumerate(Z2Z2_REFERENCE_THETAS, start=1):
        stable = {m.matching_id for m in
                  stable_matchings(z2z2, theta, matchings)}
        non_extremal = {label_of[mid] for mid in stable - extremal}
        assert non_extremal == ({3, 5, 7} if i in (1, 2) else {3, 5, 6})

        fan = bt.moduli_fan(z2z2, theta, matchings)
        assert bt.check_smooth(fan)
        signature = triangle_signature(fan, diagram)
        assert len(signature) == 4
        signatures.append(signature)
    assert len(set(signatures)) == 3  # pairwise distinct

    assert not bt.is_theta_stable(z2z2, arrows_of[3] | arrows_of[5],
                                  Z2Z2_REFERENCE_THETAS[1])
    assert not bt.is_theta_stable(z2z2, arrows_of[3] | arrows_of[6],
                                  Z2Z2_REFERENCE_THETAS[2])
    # at the first parameter all three inner pairs stay stable
    for first, second in ((3, 5), (5, 7), (3, 7)):
        assert bt.is_theta_stable(z2z2, arrows_of[first] | arrows_of[second],
                                  Z2Z2_REFERENCE_THETAS[0])


# ---------------------------------------------------------------------------
# 9. the two constructions of the moduli fan agree everywhere
# ---------------------------------------------------------------------------

def test_09_quotient_and_moduli_fan_routes_agree(tilings, towers,
                                                 matchings_by_name,
                                                 chambers_by_name):
    for name in QUIVER_FIXTURES:
        tiling, tower = tilings[name], towers[name]
        matchings = matchings_by_name[name]
        for chamber in chambers_by_name[name]:
            theta = chamber.representative
            stable = stable_matchings(tiling, theta, matchings)
            labels = {m.chi_kernel: m.matching_id for m in stable}

            fan_direct = bt.moduli_fan(tiling, theta, matchings)
            shifted, _ = shift_by_stability(tower, theta)
            slice_poly = kernel_polytope(tower, shifted)
            fan_quotient = quotient_fan(tower, shifted, slice_poly, labels)
            assert bt.fans_equal(fan_quotient, fan_direct)

            coll = bt.tilting_collection(tiling, tower, theta, matchings)
            divisors = dict(coll.divisors)
            classes = dict(coll.classes)
            for v, path in coll.paths:
                weight = weak_path_weight(tower, path)
                descended = descend_linear_functional(
                    tower, shifted, weight, slice_poly, labels)
                values = tuple(descended.value_on_ray(mid)
                               for mid in coll.ray_ids)
                assert values == divisors[v]
                assert coll.presentation.class_of(values) == classes[v]


# ---------------------------------------------------------------------------
# 10. graded section counts
# ---------------------------------------------------------------------------

def test_10_section_counts_agree_and_are_eventually_positive(
        tilings, towers, matchings_by_name, chambers_by_name):
    for name in QUIVER_FIXTURES:
        tiling, tower = tilings[name], towers[name]
        matchings = matchings_by_name[name]
        for chamber in chambers_by_name[name]:
            paths = [bt.default_paths(tiling, u)[v]
                     for u in tiling.vertices for v in tiling.vertices]
            counts = bt.graded_sections_count(
                tiling, tower, chamber.representative, paths, matchings,
                max_height=4)
            assert [count.path for count in counts] == paths
            for count in counts:
                assert count.matches
                assert any(n >= 1 for _, n, _ in count.heights)


# ---------------------------------------------------------------------------
# 11. exhaustive brute-force oracles
# ---------------------------------------------------------------------------

def test_11_exhaustive_oracles_on_every_bundled_tiling(tilings):
    for name in ALL_FIXTURES:
        tiling = tilings[name]
        aids = [a.arrow_id for a in tiling.arrows]
        assert len(aids) <= 16

        found = set()
        for bits in itertools.product((0, 1), repeat=len(aids)):
            chosen = frozenset(aid for aid, b in zip(aids, bits) if b)
            if all(sum(f.arrows.count(aid) for aid in chosen) == 1
                   for f in tiling.faces):
                found.add(chosen)
        assert {frozenset(m.arrows)
                for m in bt.enumerate_perfect_matchings(tiling)} == found

        def brute_supports(arrows):
            chosen = set(arrows)
            outside = [a for a in tiling.arrows
                       if a.arrow_id not in chosen]
            out = []
            for r in range(1, len(tiling.vertices)):
                for combo in itertools.combinations(tiling.vertices, r):
                    s = set(combo)
                    if all(a.target in s for a in outside
                           if a.source in s):
                        out.append(frozenset(s))
            return sorted(out, key=lambda s: (len(s), sorted(s)))

        def brute_w_compatible(arrows):
            chosen = set(arrows)
            for a in tiling.arrows:
                plus, minus = tiling.faces_of(a.arrow_id)

                def rest_meets(face):
                    rest = list(face.arrows)
                    rest.remove(a.arrow_id)
                    return any(x in chosen for x in rest)

                if rest_meets(plus) != rest_meets(minus):
                    return False
            return True

        for bits in itertools.product((0, 1), repeat=len(aids)):
            chosen = frozenset(aid for aid, b in zip(aids, bits) if b)
            assert bt.is_w_compatible(tiling, chosen) \
                == brute_w_compatible(chosen)
            assert bt.submodule_supports(tiling, chosen) \
                == brute_supports(chosen)
