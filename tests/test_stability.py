"""Supports, stability, and the chamber decomposition."""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import branetile as bt
from branetile import rational, stability
from branetile.matchings import matching_id_key
from branetile.tilting import stable_matchings

from conftest import (ALL_FIXTURES, QUIVER_FIXTURES, canonical_structure,
                      document_text, orbifold_text, powers_of_two_theta,
                      recursion_headroom, reference_stable_subsets,
                      seeded_generic_thetas)

EXPECTED_CHAMBERS = {"honeycomb": 1, "conifold": 2, "spp": 6, "z2z2": 32}

# a generic parameter per fixture (checked by hand: no proper nonempty
# vertex subset sums to zero)
GENERIC_THETA = {
    "honeycomb": (0,),
    "conifold": (1, -1),
    "spp": (-2, 1, 1),
    "z2z2": (-3, 1, 1, 1),
}


def brute_force_supports(tiling, arrows):
    """Independent restatement: proper nonempty vertex subsets with no
    escaping arrow outside the given set."""
    chosen = set(arrows)
    outside = [a for a in tiling.arrows if a.arrow_id not in chosen]
    found = []
    vertices = list(tiling.vertices)
    for r in range(1, len(vertices)):
        for combo in itertools.combinations(vertices, r):
            s = set(combo)
            if all(a.target in s for a in outside if a.source in s):
                found.append(frozenset(s))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def brute_force_w_compatible(tiling, arrows):
    """Independent restatement, removing one occurrence from each face."""
    chosen = set(arrows)
    for a in tiling.arrows:
        plus, minus = tiling.faces_of(a.arrow_id)

        def rest_meets(face) -> bool:
            rest = list(face.arrows)
            rest.remove(a.arrow_id)
            return any(x in chosen for x in rest)

        if rest_meets(plus) != rest_meets(minus):
            return False
    return True


def some_arrow_sets(tiling, matchings) -> list:
    """A spread of arrow sets: empty, full, every matching, and the
    pairwise matching unions."""
    sets = [frozenset(), frozenset(a.arrow_id for a in tiling.arrows)]
    sets += [m.arrows for m in matchings]
    sets += [m1.arrows | m2.arrows
             for m1, m2 in itertools.combinations(matchings, 2)]
    return sets


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_supports_match_brute_force(name, tilings, matchings_by_name):
    tiling = tilings[name]
    for arrows in some_arrow_sets(tiling, matchings_by_name[name]):
        assert bt.submodule_supports(tiling, arrows) \
            == brute_force_supports(tiling, arrows)


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_supports_grow_with_the_arrow_set(name, tilings, matchings_by_name):
    tiling = tilings[name]
    matchings = matchings_by_name[name]
    for m1, m2 in itertools.combinations(matchings, 2):
        small = set(bt.submodule_supports(tiling, m1.arrows))
        large = set(bt.submodule_supports(tiling, m1.arrows | m2.arrows))
        assert small <= large


def test_full_arrow_set_supports_every_proper_subset(spp):
    arrows = frozenset(a.arrow_id for a in spp.arrows)
    supports = bt.submodule_supports(spp, arrows)
    assert len(supports) == 2 ** len(spp.vertices) - 2


def test_unknown_arrow_ids_are_refused(spp):
    known = spp.arrows[0].arrow_id
    checks = (lambda arrows: bt.submodule_supports(spp, arrows),
              lambda arrows: bt.is_w_compatible(spp, arrows),
              lambda arrows: bt.is_theta_stable(spp, arrows, (1, 2, -3)))
    for check in checks:
        for arrows in (["nope"], [known, "zz", "nope"]):
            with pytest.raises(ValueError, match="unknown arrow id 'nope'"):
                check(arrows)
        check([known])


def test_parameter_errors_come_before_unknown_arrow_ids(spp):
    with pytest.raises(ValueError, match="entries for 3 vertices"):
        bt.is_theta_stable(spp, ["nope"], (1, -1))
    with pytest.raises(ValueError, match="sum to zero"):
        bt.is_theta_stable(spp, ["nope"], (1, 1, 1))
    with pytest.raises(bt.DegenerateInputError):
        bt.is_theta_stable(spp, ["nope"], (0, 1, -1))


# ---------------------------------------------------------------------------
# W-compatibility
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ("honeycomb", "conifold", "spp",
                                  "square_dimer"))
def test_w_compatibility_matches_brute_force_exhaustively(name, tilings):
    tiling = tilings[name]
    aids = [a.arrow_id for a in tiling.arrows]
    for bits in itertools.product((0, 1), repeat=len(aids)):
        chosen = frozenset(aid for aid, b in zip(aids, bits) if b)
        assert bt.is_w_compatible(tiling, chosen) \
            == brute_force_w_compatible(tiling, chosen)


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_matchings_and_their_unions_are_w_compatible(name, tilings,
                                                     matchings_by_name):
    tiling = tilings[name]
    for m in matchings_by_name[name]:
        assert bt.is_w_compatible(tiling, m.arrows)
    for m1, m2 in itertools.combinations(matchings_by_name[name], 2):
        assert bt.is_w_compatible(tiling, m1.arrows | m2.arrows)


def test_w_compatible_counts_are_frozen(tilings):
    # every subset passes on the short-faced tilings; the three-vertex
    # and four-vertex ones have genuinely incompatible subsets
    expected = {"honeycomb": 8, "conifold": 16, "spp": 44,
                "square_dimer": 16}
    for name, count in expected.items():
        tiling = tilings[name]
        aids = [a.arrow_id for a in tiling.arrows]
        compatible = sum(
            1 for bits in itertools.product((0, 1), repeat=len(aids))
            if bt.is_w_compatible(
                tiling, {a for a, b in zip(aids, bits) if b}))
        assert compatible == count


def test_a_single_loop_is_not_w_compatible_in_the_three_vertex_tiling(spp):
    assert not bt.is_w_compatible(spp, {"11"})


# ---------------------------------------------------------------------------
# genericity and stability
# ---------------------------------------------------------------------------

def test_is_generic_fixed_examples(spp):
    assert bt.is_generic(spp, (-2, 1, 1))
    assert bt.is_generic(spp, (2, -1, -1))
    assert not bt.is_generic(spp, (0, 1, -1))  # {1} sums to zero
    assert not bt.is_generic(spp, (1, -1, 0))  # {3} sums to zero
    with pytest.raises(ValueError):
        bt.is_generic(spp, (1, 1, 1))  # parameters must sum to zero


# Every public entry point that takes a stability parameter or a
# weight, as a function of (tiling, tower, matchings, chambers, bad
# value); theta (1.0, -1.0, 0) and the weights are wrong only in type.
THETA_ENTRY_POINTS = {
    "is_generic": lambda t, tw, ms, cs, th: bt.is_generic(t, th),
    "is_theta_stable":
        lambda t, tw, ms, cs, th: bt.is_theta_stable(t, ms[0].arrows, th),
    "enumerate_stable_subsets":
        lambda t, tw, ms, cs, th: bt.enumerate_stable_subsets(t, th, ms),
    "moduli_fan": lambda t, tw, ms, cs, th: bt.moduli_fan(t, th, ms),
    "find_chamber": lambda t, tw, ms, cs, th: bt.find_chamber(t, cs, th),
    "shift_by_stability":
        lambda t, tw, ms, cs, th: bt.shift_by_stability(tw, th),
    "tilting_collection":
        lambda t, tw, ms, cs, th: bt.tilting_collection(t, tw, th, ms),
    "graded_sections_count": lambda t, tw, ms, cs, th:
        bt.graded_sections_count(t, tw, th, [bt.default_paths(t)["2"]], ms),
}
WEIGHT_ENTRY_POINTS = {
    "degree": lambda t, tw, ms, cs, w: tw.degree(w),
    "descend_linear_functional": lambda t, tw, ms, cs, w:
        bt.descend_linear_functional(
            tw, bt.shift_by_stability(tw, cs[0].representative)[0], w),
}


@pytest.mark.parametrize("entry, bad", [
    *((name, (1.0, -1.0, 0)) for name in THETA_ENTRY_POINTS),
    *((name, bad) for name in WEIGHT_ENTRY_POINTS
      for bad in ((1.0, 0, 0, 0, 0), (Fraction(1, 2), 0, 0, 0, 0))),
], ids=str)
def test_every_entry_point_refuses_a_value_of_the_wrong_type(
        entry, bad, spp, towers, matchings_by_name, chambers_by_name):
    call = {**THETA_ENTRY_POINTS, **WEIGHT_ENTRY_POINTS}[entry]
    with pytest.raises(ValueError, match="integers"):
        call(spp, towers["spp"], matchings_by_name["spp"],
             chambers_by_name["spp"], bad)


def test_stability_rejects_wall_parameters(spp, matchings_by_name):
    m = matchings_by_name["spp"][0]
    with pytest.raises(bt.DegenerateInputError):
        bt.is_theta_stable(spp, m.arrows, (0, 1, -1))


@pytest.mark.parametrize("check", [
    lambda tiling, theta: bt.is_generic(tiling, theta),
    lambda tiling, theta: bt.is_theta_stable(tiling, [], theta),
], ids=["is_generic", "is_theta_stable"])
def test_subset_sums_past_the_vertex_budget_are_refused(check):
    # 38 vertices: each half table would hold 2^19 sums
    tiling = bt.load_document(orbifold_text(2, 19))
    theta = (*range(1, 38), -sum(range(1, 38)))
    with pytest.raises(bt.DegenerateInputError,
                       match="at most 36 vertices; this tiling has 38"):
        check(tiling, theta)


@pytest.mark.parametrize("a, b", [(2, 20), (2, 5)],
                         ids=["across-the-halves", "inside-one-half"])
def test_a_planted_zero_sum_pair_is_a_wall_at_twenty_six_vertices(a, b):
    # The first 13 vertices make the low half, so a pair's sum is met in
    # the middle or found inside one half table.
    tiling = bt.load_document(orbifold_text(2, 13))
    theta = powers_of_two_theta(26)
    assert bt.is_generic(tiling, theta)
    head = list(theta[:-1])
    head[b] = -head[a]
    planted = (*head, -sum(head))
    assert not bt.is_generic(tiling, planted)
    with pytest.raises(bt.DegenerateInputError, match="wall"):
        bt.is_theta_stable(tiling, [], planted)


class GuardedTable(list):
    """A subset-sum table that refuses to be sliced or copied and counts
    the passes made over it."""

    def __init__(self, values):
        super().__init__(values)
        self.passes = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            raise AssertionError(f"the table was sliced: {key}")
        return super().__getitem__(key)

    def __iter__(self):
        self.passes += 1
        return super().__iter__()

    def __reversed__(self):
        self.passes += 1
        return super().__reversed__()

    def copy(self):
        raise AssertionError("the table was copied")


def test_a_stability_call_reads_its_table_in_place(monkeypatch, tilings,
                                                   towers):
    # The half tables of subset sums are the only structures of their
    # size a stability call holds: no call slices or copies one, and
    # none walks one twice.
    tables = []

    def guarded(values):
        tables.append(GuardedTable(real(values)))
        return tables[-1]

    real = stability.subset_sums
    monkeypatch.setattr(stability, "subset_sums", guarded)
    three = bt.load_document(orbifold_text(3, 3))
    cases = [(tilings["z2z2"], towers["z2z2"]),
             (three, bt.build_lattice_tower(three))]
    for tiling, tower in cases:
        matchings = bt.enumerate_perfect_matchings(tiling, tower)
        thetas = ([c.representative
                   for c in bt.chamber_decomposition(tiling, matchings)]
                  if len(tiling.vertices) <= 6
                  else seeded_generic_thetas(tiling, 2, seed=24))
        for theta in thetas:
            assert bt.is_generic(tiling, theta)
            bt.is_theta_stable(tiling, matchings[0].arrows, theta)
            bt.enumerate_stable_subsets(tiling, theta, matchings)
            bt.moduli_fan(tiling, theta, matchings)
            bt.tilting_collection(tiling, tower, theta, matchings)
    assert len(tables) > 32
    assert max(table.passes for table in tables) <= 1
    # no table holds more than a half's sums: 2^5 for 3x3's 9 vertices
    assert max(map(len, tables)) == 1 << 5


def test_stability_rejects_wrong_parameter_length(spp):
    with pytest.raises(ValueError):
        bt.is_theta_stable(spp, frozenset(), (1, -1))


def test_fraction_parameters_are_used_exactly(spp, matchings_by_name,
                                              chambers_by_name):
    chambers = chambers_by_name["spp"]
    integral = (3, 2, -5)
    for theta in [(Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6)),
                  (Fraction(3, 7), Fraction(2, 7), Fraction(-5, 7))]:
        assert bt.is_generic(spp, theta) and bt.is_generic(spp, integral)
        for m in matchings_by_name["spp"]:
            assert bt.is_theta_stable(spp, m.arrows, theta) \
                == bt.is_theta_stable(spp, m.arrows, integral)
        assert bt.find_chamber(spp, chambers, theta).index \
            == bt.find_chamber(spp, chambers, integral).index
    # a Fraction parameter on a wall is not rounded off it
    assert not bt.is_generic(spp, (Fraction(1, 2), Fraction(-1, 2), 0))
    with pytest.raises(ValueError):
        bt.is_generic(spp, (0.5, 0.5, -1.0))


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
@given(data=st.data())
def test_a_parameter_and_its_positive_multiples_agree(name, data, tilings,
                                                      matchings_by_name,
                                                      chambers_by_name):
    tiling = tilings[name]
    chambers = chambers_by_name[name]
    chamber = data.draw(st.sampled_from(chambers))
    divisor = data.draw(st.integers(1, 12))
    theta = chamber.representative
    scaled = tuple(Fraction(t, divisor) for t in theta)
    assert bt.is_generic(tiling, scaled)
    for m in matchings_by_name[name]:
        assert bt.is_theta_stable(tiling, m.arrows, scaled) \
            == bt.is_theta_stable(tiling, m.arrows, theta)
    assert bt.find_chamber(tiling, chambers, scaled).index == chamber.index
    assert bt.enumerate_stable_subsets(
        tiling, scaled, matchings_by_name[name]) == list(
            chamber.stable_subsets)


@functools.cache
def cyclic_orbifold(n: int) -> tuple:
    """C^3/Z_n with its chambers up to 5 vertices (6 vertices have
    11 292)."""
    tiling = bt.load_document(orbifold_text(1, n))
    if n > 5:
        return tiling, None
    matchings = bt.enumerate_perfect_matchings(tiling)
    return tiling, bt.chamber_decomposition(tiling, matchings)


def brute_force_signs(vertices, theta) -> tuple:
    """Sign of the sum over every proper nonempty vertex subset, ordered
    by (size, sorted ids); zero on a wall."""
    by_vertex = dict(zip(vertices, theta))
    signs = []
    for r in range(1, len(vertices)):
        for combo in itertools.combinations(vertices, r):
            total = sum(by_vertex[v] for v in combo)
            signs.append((tuple(sorted(combo)),
                          (total > 0) - (total < 0)))
    return tuple(sorted(signs, key=lambda entry: (len(entry[0]), entry[0])))


@pytest.mark.parametrize("n", range(1, 7))
@given(data=st.data())
def test_subset_sums_agree_with_brute_force_on_cyclic_orbifolds(n, data):
    # small entries put many parameters on walls
    bound = data.draw(st.sampled_from((2, 5, 40)))
    head = data.draw(st.lists(st.integers(-bound, bound),
                              min_size=n - 1, max_size=n - 1))
    theta = tuple(head) + (-sum(head),)
    tiling, chambers = cyclic_orbifold(n)
    signs = brute_force_signs(tiling.vertices, theta)
    generic = all(sign for _, sign in signs)
    assert bt.is_generic(tiling, theta) == generic

    arrows = data.draw(st.frozensets(
        st.sampled_from([a.arrow_id for a in tiling.arrows])))
    if not generic:
        with pytest.raises(bt.DegenerateInputError):
            bt.is_theta_stable(tiling, arrows, theta)
        if chambers is not None:
            with pytest.raises(bt.DegenerateInputError):
                bt.find_chamber(tiling, chambers, theta)
        return
    positive = {s for s, sign in signs if sign > 0}
    assert bt.is_theta_stable(tiling, arrows, theta) == all(
        tuple(sorted(s)) in positive
        for s in brute_force_supports(tiling, arrows))
    if chambers is not None:
        chamber = bt.find_chamber(tiling, chambers, theta)
        assert brute_force_signs(tiling.vertices,
                                 chamber.representative) == signs


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_stability_is_positivity_over_all_supports(name, tilings,
                                                   matchings_by_name):
    tiling = tilings[name]
    theta = GENERIC_THETA[name]
    by_vertex = dict(zip(tiling.vertices, theta))
    for arrows in some_arrow_sets(tiling, matchings_by_name[name]):
        expected = all(sum(by_vertex[v] for v in s) > 0
                       for s in brute_force_supports(tiling, arrows))
        assert bt.is_theta_stable(tiling, arrows, theta) == expected


# ---------------------------------------------------------------------------
# stable subsets
# ---------------------------------------------------------------------------

def direct_union_search(tiling, theta, matchings) -> set:
    """The empty set and every union of at most three stable matchings
    that :func:`bt.is_theta_stable` finds stable."""
    stable = [m for m in matchings
              if bt.is_theta_stable(tiling, m.arrows, theta)]
    found = {frozenset()}
    for r in (1, 2, 3):
        for combo in itertools.combinations(stable, r):
            union = frozenset().union(*(m.arrows for m in combo))
            if bt.is_theta_stable(tiling, union, theta):
                found.add(union)
    return found


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_stable_subsets_match_a_direct_union_search(name, tilings,
                                                    matchings_by_name):
    tiling = tilings[name]
    matchings = matchings_by_name[name]
    theta = GENERIC_THETA[name]
    subsets = bt.enumerate_stable_subsets(tiling, theta, matchings)
    assert {s.arrows for s in subsets} \
        == direct_union_search(tiling, theta, matchings)


@functools.cache
def loaded_with_matchings(document: str) -> tuple:
    """A document of :func:`document_text`, loaded, and its perfect
    matchings; shared between tests, which must not change them."""
    tiling = bt.load_document(document_text(document))
    return tiling, bt.enumerate_perfect_matchings(tiling)


@pytest.mark.parametrize("document", ALL_FIXTURES + (
    "2x2", "1x4", "1x5", "2x3", "3x3"))
@settings(max_examples=10)
@given(data=st.data())
def test_stable_subsets_match_a_direct_union_search_at_drawn_parameters(
        document, data):
    # The triples come only from pairs whose members each make a
    # stable pair with the third matching; the search tries them all.
    tiling, matchings = loaded_with_matchings(document)
    head = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                              min_size=len(tiling.vertices) - 1,
                              max_size=len(tiling.vertices) - 1))
    theta = (*head, -sum(head))
    assume(bt.is_generic(tiling, theta))
    subsets = bt.enumerate_stable_subsets(tiling, theta, matchings)
    expected = {union: tuple(sorted(
        (m.matching_id for m in matchings if m.arrows <= union),
        key=matching_id_key))
        for union in direct_union_search(tiling, theta, matchings)}
    assert {s.arrows: s.matching_ids for s in subsets} == expected
    assert len(subsets) == len(expected)


def test_stable_subsets_check_the_parameter_once_there_is_a_matching(
        spp, matchings_by_name):
    # and also with no matching: a wall, a wrong length and a float entry
    # are refused as by every other stability call
    refusals = [((0, 1, -1), bt.DegenerateInputError, "lies on a wall"),
                ((1, 2), ValueError, "has 2 entries for 3 vertices"),
                ((0.5, 0.5, -1.0), ValueError, "integers or Fractions")]
    for matchings in (matchings_by_name["spp"], []):
        for theta, error, message in refusals:
            with pytest.raises(error, match=message):
                bt.enumerate_stable_subsets(spp, theta, matchings)
            with pytest.raises(error, match=message):
                bt.moduli_fan(spp, theta, matchings)
    empty = bt.enumerate_stable_subsets(spp, (-2, 1, 1), [])
    assert [s.arrows for s in empty] == [frozenset()]


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_stable_subsets_record_their_member_matchings(name, tilings,
                                                      matchings_by_name):
    tiling = tilings[name]
    matchings = matchings_by_name[name]
    theta = GENERIC_THETA[name]
    subsets = bt.enumerate_stable_subsets(tiling, theta, matchings)
    assert len({s.arrows for s in subsets}) == len(subsets)
    for s in subsets:
        contained = [m.matching_id for m in matchings if m.arrows <= s.arrows]
        assert sorted(s.matching_ids) == sorted(contained)
        assert s.dim == len(s.matching_ids)


@pytest.mark.parametrize("document", ALL_FIXTURES + ("2x2", "1x4", "1x5"))
def test_stable_subsets_match_the_union_search_at_every_chamber(document):
    tiling, matchings = loaded_with_matchings(document)
    for chamber in bt.chamber_decomposition(tiling, matchings):
        theta = chamber.representative
        want = canonical_structure(
            reference_stable_subsets(tiling, theta, matchings))
        assert canonical_structure(chamber.stable_subsets) == want
        assert canonical_structure(bt.enumerate_stable_subsets(
            tiling, theta, matchings)) == want


@pytest.mark.parametrize("document", ("3x3", "2x4", "3x4"))
def test_stable_subsets_match_the_union_search_at_seeded_parameters(
        document):
    tiling, matchings = loaded_with_matchings(document)
    for theta in seeded_generic_thetas(tiling, 4, seed=len(matchings)):
        assert canonical_structure(bt.enumerate_stable_subsets(
            tiling, theta, matchings)) == canonical_structure(
                reference_stable_subsets(tiling, theta, matchings))


@pytest.mark.parametrize("document", ALL_FIXTURES + ("2x2", "1x4", "1x5"))
def test_the_least_lifted_matchings_are_the_stable_ones(document):
    # By definition, a matching is stable when its supports all have
    # positive parameter; the structure takes the least lifted matching
    # at each point and the lower hull, and stable_matchings reads it.
    # Its fan passes the general fan check, once per geometry.
    tiling, matchings = loaded_with_matchings(document)
    checked = set()
    for chamber in bt.chamber_decomposition(tiling, matchings):
        theta = chamber.representative
        subsets = bt.enumerate_stable_subsets(tiling, theta, matchings)
        stable = [m.matching_id for m in matchings
                  if bt.is_theta_stable(tiling, m.arrows, theta)]
        assert stable == sorted(
            (s.matching_ids[0] for s in subsets if s.dim == 1),
            key=matching_id_key)
        assert [m.matching_id for m in stable_matchings(
            tiling, theta, matchings)] == stable
        fan = bt.moduli_fan(tiling, theta, matchings)
        vectors = fan.vector_map()
        geometry = frozenset(frozenset(vectors[i] for i in c.ray_ids)
                             for c in fan.cones)
        if geometry not in checked:
            bt.validate_fan(fan)
            checked.add(geometry)


def test_the_lower_hull_refuses_a_tie_at_a_point():
    hull = stability._lower_hull([(0, 0), (1, 0), (0, 1), (0, 1)])
    assert hull([0, 0, 5, 6]) == ((0, 1, 2), ((0, 1, 2),))
    with pytest.raises(bt.ConsistencyError,
                       match=r"tie for the least height at \(0, 1\)"):
        hull([0, 0, 5, 5])


def test_the_lower_hull_refuses_a_flat_square():
    hull = stability._lower_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    least, triangles = hull([0, 0, 0, 1])
    assert least == (0, 1, 2, 3) and len(triangles) == 2
    with pytest.raises(bt.ConsistencyError,
                       match="0 unimodular lower triangles cannot tile a "
                             "hull of doubled area 2"):
        hull([0, 0, 0, 0])


def test_the_lower_hull_refuses_a_triangle_that_is_not_unimodular():
    with pytest.raises(bt.ConsistencyError,
                       match="0 unimodular lower triangles cannot tile a "
                             "hull of doubled area 2"):
        stability._lower_hull([(0, 0), (2, 0), (0, 1)])([0, 0, 0])


def test_a_list_without_a_least_matching_is_refused():
    # Without the least matching at a point, the least one left there
    # is not stable: lifted higher, it leaves the lower hull short, or
    # the hull passes and the support test fails.  Both are met here.
    seen = collections.Counter()
    for document in ("spp", "1x5", "2x3", "3x3"):
        tiling, matchings = loaded_with_matchings(document)
        shared = [p for p, count in collections.Counter(
            m.point for m in matchings).items() if count > 1]
        for theta in seeded_generic_thetas(tiling, 3, seed=7):
            stable = {s.matching_ids[0] for s in bt.enumerate_stable_subsets(
                tiling, theta, matchings) if s.dim == 1}
            for point in shared:
                without_least = [m for m in matchings if m.point != point
                                 or m.matching_id not in stable]
                with pytest.raises(bt.ConsistencyError) as refused:
                    bt.enumerate_stable_subsets(tiling, theta, without_least)
                seen["is not stable" in str(refused.value)] += 1
                # a point with two matchings is no corner, so without
                # any matching there the area falls short
                with pytest.raises(bt.ConsistencyError,
                                   match="lower triangles cannot tile"):
                    bt.enumerate_stable_subsets(
                        tiling, theta,
                        [m for m in matchings if m.point != point])
    assert seen[True] and seen[False]


def test_the_lower_hull_refuses_points_on_one_line():
    for points in ([(0, 0), (1, 0)], [(0, 0), (1, 1), (2, 2), (1, 1)]):
        with pytest.raises(bt.ConsistencyError,
                           match="the points lie on one line"):
            stability._lower_hull(points)
    assert stability._lower_hull([(3, 4), (3, 4)])([1, 0]) == ((1,), ())


def test_the_conifold_without_a_diagonal_corner_is_refused(
        conifold, matchings_by_name, chambers_by_name):
    # Without a corner of the diagonal the lower hull is the triangle
    # across it, whose far edge is not stable; without a corner off
    # it, the hull is a triangle of the full structure.
    matchings = matchings_by_name["conifold"]
    for chamber in chambers_by_name["conifold"]:
        theta = chamber.representative
        first, second = chamber.stable_triples
        diagonal = set(first) & set(second)
        for dropped in matchings:
            rest = [m for m in matchings if m is not dropped]
            if dropped.matching_id in diagonal:
                far = " + ".join(sorted(set(first) ^ set(second)))
                with pytest.raises(bt.ConsistencyError, match=re.escape(
                        f"{far} on the lower hull is not stable")):
                    bt.enumerate_stable_subsets(conifold, theta, rest)
            else:
                assert canonical_structure(bt.enumerate_stable_subsets(
                    conifold, theta, rest)) == canonical_structure(
                        reference_stable_subsets(conifold, theta, rest))


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_short_lists_are_refused_or_match_the_union_search(
        name, tilings, matchings_by_name, chambers_by_name):
    # A list without one corner, or of two matchings at different
    # points, is refused or gets the union search's structure.
    tiling, matchings = tilings[name], matchings_by_name[name]
    at_point = collections.Counter(m.point for m in matchings)
    shorts = [[m for m in matchings if m is not corner]
              for corner in matchings if at_point[corner.point] == 1]
    shorts += [list(pair) for pair in itertools.combinations(matchings, 2)
               if pair[0].point != pair[1].point]
    seen = collections.Counter()
    for chamber in chambers_by_name[name]:
        theta = chamber.representative
        for short in shorts:
            try:
                found = bt.enumerate_stable_subsets(tiling, theta, short)
            except bt.ConsistencyError:
                seen["refused"] += 1
                continue
            assert canonical_structure(found) == canonical_structure(
                reference_stable_subsets(tiling, theta, short))
            seen["searched"] += 1
    assert seen["refused"] and (seen["searched"] or name == "honeycomb")


MATCHING_CONSUMERS = {
    "moduli_fan": lambda t, tw, th, ms: bt.moduli_fan(t, th, ms),
    "enumerate_stable_subsets":
        lambda t, tw, th, ms: bt.enumerate_stable_subsets(t, th, ms),
    "chamber_decomposition":
        lambda t, tw, th, ms: bt.chamber_decomposition(t, ms),
    "tilting_collection":
        lambda t, tw, th, ms: bt.tilting_collection(t, tw, th, ms),
}


@pytest.mark.parametrize("entry", MATCHING_CONSUMERS)
def test_another_tilings_matchings_are_refused(entry, spp, towers,
                                               matchings_by_name):
    # the conifold's arrow ids are a1..a4, none of them an spp arrow
    other = matchings_by_name["conifold"]
    unknown = min(other[0].arrows, key=str)
    assert unknown not in spp.arrow_map
    with pytest.raises(ValueError, match=f"^unknown arrow id {unknown!r}$"):
        MATCHING_CONSUMERS[entry](spp, towers["spp"], (-2, 1, 1), other)


@pytest.mark.parametrize("entry", ["moduli_fan", "enumerate_stable_subsets",
                                   "chamber_decomposition"])
def test_masks_over_another_arrow_order_are_refused(entry, spp, towers,
                                                    matchings_by_name):
    # each matching's arrows are spp arrows, but its bits are read in an
    # order with one more arrow id
    ms = [m._replace(arrow_order=(*m.arrow_order, "99"))
          for m in matchings_by_name["spp"]]
    with pytest.raises(ValueError, match="^m1 is a matching of another "
                                         "tiling's arrow ids$"):
        MATCHING_CONSUMERS[entry](spp, towers["spp"], (-2, 1, 1), ms)


@pytest.mark.parametrize("entry", MATCHING_CONSUMERS)
def test_a_fresh_copys_matchings_give_the_same_answers(entry, spp, towers,
                                                       matchings_by_name):
    copy = bt.load_document(document_text("spp"))
    call = MATCHING_CONSUMERS[entry]
    assert call(spp, towers["spp"], (-2, 1, 1),
                bt.enumerate_perfect_matchings(copy)) \
        == call(spp, towers["spp"], (-2, 1, 1), matchings_by_name["spp"])


def test_arrow_masks_are_read_from_the_arrow_index(spp):
    ids = sorted(a.arrow_id for a in spp.arrows)
    assert spp.arrow_bits == {aid: k for k, aid in enumerate(ids)}
    for chosen in ([], ids, ids[::2], [ids[1], ids[1], ids[0]]):
        assert stability._arrow_mask(spp, iter(chosen)) \
            == sum(1 << ids.index(aid) for aid in set(chosen))


# ---------------------------------------------------------------------------
# chambers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_chamber_counts_are_frozen(name, chambers_by_name):
    assert len(chambers_by_name[name]) == EXPECTED_CHAMBERS[name]


def test_square_dimer_has_two_chambers(tilings):
    tiling = tilings["square_dimer"]
    matchings = bt.enumerate_perfect_matchings(tiling)
    assert len(bt.chamber_decomposition(tiling, matchings)) == 2


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_chamber_representatives_are_generic_and_sum_to_zero(
        name, tilings, chambers_by_name):
    tiling = tilings[name]
    for chamber in chambers_by_name[name]:
        assert sum(chamber.representative) == 0
        assert bt.is_generic(tiling, chamber.representative)


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_chambers_have_distinct_sign_vectors(name, tilings,
                                             chambers_by_name):
    vertices, chambers = tilings[name].vertices, chambers_by_name[name]
    assert len({brute_force_signs(vertices, c.representative)
                for c in chambers}) == len(chambers)
    assert [c.index for c in chambers] \
        == list(range(1, len(chambers) + 1))


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_chamber_stable_structure_matches_its_representative(
        name, tilings, matchings_by_name, chambers_by_name):
    tiling = tilings[name]
    matchings = matchings_by_name[name]
    for chamber in chambers_by_name[name]:
        assert chamber.stable_subsets == tuple(bt.enumerate_stable_subsets(
            tiling, chamber.representative, matchings))


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_find_chamber_round_trips_the_representatives(
        name, tilings, chambers_by_name):
    tiling = tilings[name]
    chambers = chambers_by_name[name]
    for chamber in chambers:
        found = bt.find_chamber(tiling, chambers, chamber.representative)
        assert found.index == chamber.index
        doubled = tuple(2 * x for x in chamber.representative)
        if any(doubled):
            assert bt.find_chamber(tiling, chambers, doubled).index \
                == chamber.index


@pytest.mark.parametrize("document", ["2x2", "1x4"])
def test_find_chamber_finds_the_chamber_with_the_parameters_signs(document):
    # every sign of every chamber, against find_chamber's comparison up to
    # the first sign that differs
    tiling, matchings = loaded_with_matchings(document)
    chambers = bt.chamber_decomposition(tiling, matchings)
    for chamber in chambers:
        assert bt.find_chamber(tiling, chambers,
                               chamber.representative).index == chamber.index
    representatives = {tuple(c.representative) for c in chambers}
    thetas = [theta for theta in seeded_generic_thetas(tiling, 20, 5)
              if tuple(theta) not in representatives]
    assert thetas
    for theta in thetas:
        signs = brute_force_signs(tiling.vertices, theta)
        [want] = [c.index for c in chambers if brute_force_signs(
            tiling.vertices, c.representative) == signs]
        assert bt.find_chamber(tiling, chambers, theta).index == want


@pytest.mark.parametrize("n", range(1, 9))
def test_positive_reads_the_sign_of_each_subset_sum(n):
    # find_chamber maps θ and every representative through _positive, so
    # a wrong reading that still separates chambers finds the same one;
    # only each mask's own subset sum tells a dropped vertex apart
    rng = random.Random(n)
    for _ in range(5):
        theta = [rng.randint(-50, 50) for _ in range(n)]
        want = [sum(x for i, x in enumerate(theta) if s >> i & 1) > 0
                for s in range(1, 2 ** n - 1)]
        assert list(stability._positive(stability._halves(theta))) == want


def test_find_chamber_rejects_wall_parameters(spp, chambers_by_name):
    with pytest.raises(bt.DegenerateInputError):
        bt.find_chamber(spp, chambers_by_name["spp"], (0, 1, -1))


def test_find_chamber_refuses_past_the_chamber_budget(monkeypatch):
    # seven vertices: no chamber list comes from chamber_decomposition,
    # so the refusal comes before any subset sign is read
    tiling = bt.load_document(orbifold_text(1, 7))
    monkeypatch.setattr(stability, "_positive", None)
    with pytest.raises(bt.DegenerateInputError,
                       match="at most 6 vertices; this tiling has 7"):
        bt.find_chamber(tiling, [], powers_of_two_theta(7))


def test_find_chamber_checks_each_representative(spp, chambers_by_name):
    chambers = chambers_by_name["spp"]
    short = chambers[0]._replace(representative=(1, -1))
    with pytest.raises(ValueError,
                       match="stability parameter has 2 entries for 3"):
        bt.find_chamber(spp, [short], chambers[0].representative)



def test_five_vertex_chamber_count_is_frozen():
    # the resonance arrangement of 5 vertices has 370 chambers (OEIS
    # A034997), and every one gives the same fan
    tiling, chambers = cyclic_orbifold(5)
    assert len(chambers) == 370
    matchings = bt.enumerate_perfect_matchings(tiling)
    assert bt.git_equivalence_classes(tiling, chambers, matchings) \
        == [list(range(1, 371))]


def stable_structures(chambers) -> list:
    """Each chamber's stable subsets as (matching ids, dim) pairs."""
    return [tuple((s.matching_ids, s.dim) for s in chamber.stable_subsets)
            for chamber in chambers]


def test_five_vertex_stable_structures_are_pinned():
    # As the search that tested every stable pair against every stable
    # matching found them.
    _, chambers = cyclic_orbifold(5)
    digest = hashlib.sha256(repr(stable_structures(chambers)).encode())
    assert digest.hexdigest() == (
        "fc301cf6eb1fb27668fa264912543ea33544ac6482f6fc9f46577303f3deb003")


def test_chamber_decomposition_refuses_a_tiling_with_no_vertex():
    with pytest.raises(bt.DegenerateInputError,
                       match="needs at least one vertex; this tiling has none"):
        bt.chamber_decomposition(bt.QuiverOnTorus((), (), ()), [])


def test_chamber_decomposition_needs_no_recursion():
    # Below the decomposition, the deepest calls (the cached stable
    # subsets and their sort keys) take up to 12 of these frames under
    # pytest, whatever the input.  A recursive walk of the 2^4 - 1 = 15
    # walls of 5 vertices would need 15 more on top of that.
    tiling = bt.load_document(orbifold_text(1, 5))
    matchings = bt.enumerate_perfect_matchings(tiling)
    with recursion_headroom(16):
        chambers = bt.chamber_decomposition(tiling, matchings)
    assert len(chambers) == 370


# ---------------------------------------------------------------------------
# the unpruned sign tree, as a reference
# ---------------------------------------------------------------------------

def reference_representatives(tiling) -> list:
    """The chamber representatives of the unpruned recursive sign tree,
    with one Fourier-Motzkin check per node: the reference for the
    pruned tree of :func:`bt.chamber_decomposition`."""
    n = len(tiling.vertices)
    t = n - 1
    if t == 0:
        return [(0,)]

    reps = sorted(
        (tuple(i for i in range(t) if mask >> i & 1)
         for mask in range(1, 1 << t)),
        key=lambda s: (len(s), s))
    functionals = [tuple(int(i in s) for i in range(t)) for s in reps]

    chambers = []

    def descend(idx: int, constraints: list, point: tuple) -> None:
        if idx == len(functionals):
            chambers.append(rational.integerize([-sum(point)] + list(point)))
            return
        for sign in (1, -1):
            row = tuple(sign * c for c in functionals[idx])
            cs = constraints + [row]
            witness = rational.strict_feasible_point(cs, [], t)
            if witness is not None:
                descend(idx + 1, cs, witness)

    descend(0, [], ())
    return chambers


def reference_chamber_decomposition(tiling, matchings) -> list:
    """Chambers from :func:`reference_representatives`, each with the
    stable subsets of a fresh :func:`bt.enumerate_stable_subsets`
    call."""
    if len(tiling.vertices) == 1:
        return [bt.Chamber(
            index=1, representative=(0,),
            stable_subsets=tuple(bt.enumerate_stable_subsets(
                tiling, (0,), matchings)))]
    return [bt.Chamber(
        index=i + 1, representative=theta,
        stable_subsets=tuple(bt.enumerate_stable_subsets(
            tiling, theta, matchings)))
        for i, theta in enumerate(reference_representatives(tiling))]


def counted_feasibility(monkeypatch) -> list:
    """Count the calls of ``rational.strict_feasible_point``."""
    calls = []
    original = rational.strict_feasible_point

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(rational, "strict_feasible_point", counting)
    return calls


@pytest.mark.parametrize("document", ALL_FIXTURES + ("2x2", "1x4"))
def test_pruned_sign_tree_matches_the_reference(document):
    tiling, matchings = loaded_with_matchings(document)
    assert bt.chamber_decomposition(tiling, matchings) \
        == reference_chamber_decomposition(tiling, matchings)


def test_five_vertex_sign_tree_matches_the_reference_with_fewer_checks(
        monkeypatch):
    tiling = bt.load_document(orbifold_text(1, 5))
    matchings = bt.enumerate_perfect_matchings(tiling)
    calls = counted_feasibility(monkeypatch)
    reference = reference_representatives(tiling)
    unpruned = len(calls)
    calls.clear()
    chambers = bt.chamber_decomposition(tiling, matchings)
    assert [c.representative for c in chambers] == reference
    assert unpruned == 3026
    assert len(calls) < unpruned


def counted_decisions(monkeypatch) -> list:
    """Count the walk's own feasibility decisions: the calls of
    ``rational.StrictElimination.point``, which back-substitutes a
    witness or reports an empty system."""
    calls = []
    original = rational.StrictElimination.point

    def counting(self):
        calls.append(None)
        return original(self)

    monkeypatch.setattr(rational.StrictElimination, "point", counting)
    return calls


@pytest.mark.parametrize("n, m, decisions",
                         [(2, 2, 74), (1, 4, 74), (1, 5, 864)])
def test_the_sign_tree_decides_only_the_open_signs(monkeypatch, n, m,
                                                   decisions):
    # The counts are those of the walk that called strict_feasible_point
    # at every node its split and witness rules left open; a walk that
    # lost either rule would decide more often.
    tiling = bt.load_document(orbifold_text(n, m))
    matchings = bt.enumerate_perfect_matchings(tiling)
    calls = counted_decisions(monkeypatch)
    chambers = bt.chamber_decomposition(tiling, matchings)
    assert len(chambers) == {4: 32, 5: 370}[n * m]
    assert len(calls) == decisions


def test_six_vertex_representatives_are_pinned():
    # The 2x3 representatives as the walk that re-eliminated every
    # wall row at each check found them, and their stable structures
    # as the search that tested every stable pair against every stable
    # matching found them.
    tiling = bt.load_document(orbifold_text(2, 3))
    matchings = bt.enumerate_perfect_matchings(tiling)
    chambers = bt.chamber_decomposition(tiling, matchings)
    reps = [c.representative for c in chambers]
    assert len(reps) == 11292
    assert hashlib.sha256(repr(reps).encode()).hexdigest() == (
        "6e867ac57293bb5b75a96daf0706ceafbf95ce88e7f8dd420b4cade291bb886f")
    structures = repr(stable_structures(chambers)).encode()
    assert hashlib.sha256(structures).hexdigest() == (
        "7437dc2cd9f219e3a29daa76f731269ef448cd2f8ad408965036681a2be75275")


def test_five_vertex_chambers_carry_the_stable_subsets_of_a_fresh_call():
    tiling, chambers = cyclic_orbifold(5)
    matchings = bt.enumerate_perfect_matchings(tiling)
    for chamber in chambers:
        assert chamber.stable_subsets == tuple(bt.enumerate_stable_subsets(
            tiling, chamber.representative, matchings))


@pytest.mark.parametrize("missing", range(6))
def test_find_chamber_refuses_a_list_without_the_parameters_chamber(
        spp, chambers_by_name, missing):
    chambers = chambers_by_name["spp"]
    theta = chambers[missing].representative
    others = chambers[:missing] + chambers[missing + 1:]
    with pytest.raises(ValueError) as exc:
        bt.find_chamber(spp, others, theta)
    assert str(exc.value) == "no chamber matches the given parameter"
