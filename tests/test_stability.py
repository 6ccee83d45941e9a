"""Supports, stability, and the chamber decomposition."""

from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import given, strategies as st

import branetile as bt
from branetile import rational

from conftest import QUIVER_FIXTURES, orbifold_text

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


def test_stability_rejects_wall_parameters(spp, matchings_by_name):
    m = matchings_by_name["spp"][0]
    with pytest.raises(bt.DegenerateInputError):
        bt.is_theta_stable(spp, m.arrows, (0, 1, -1))


def test_stability_rejects_wrong_parameter_length(spp):
    with pytest.raises(ValueError):
        bt.is_theta_stable(spp, frozenset(), (1, -1))


@functools.cache
def cyclic_orbifold(n: int) -> tuple:
    """C^3/Z_n with its chambers up to 4 vertices (5 and 6 vertices
    have 370 and 11 292)."""
    tiling = bt.load_document(orbifold_text(1, n))
    if n > 4:
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
        assert chamber.sign_vector == signs


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

@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_stable_subsets_match_a_direct_union_search(name, tilings,
                                                    matchings_by_name):
    tiling = tilings[name]
    matchings = matchings_by_name[name]
    theta = GENERIC_THETA[name]
    subsets = bt.enumerate_stable_subsets(tiling, theta, matchings)

    stable = [m for m in matchings
              if bt.is_theta_stable(tiling, m.arrows, theta)]
    expected = {frozenset()}
    for r in (1, 2, 3):
        for combo in itertools.combinations(stable, r):
            union = frozenset().union(*(m.arrows for m in combo))
            if bt.is_theta_stable(tiling, union, theta):
                expected.add(union)
    assert {s.arrows for s in subsets} == expected


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
def test_chambers_have_distinct_sign_vectors(name, chambers_by_name):
    chambers = chambers_by_name[name]
    assert len({c.sign_vector for c in chambers}) == len(chambers)
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


def test_find_chamber_rejects_wall_parameters(spp, chambers_by_name):
    with pytest.raises(bt.DegenerateInputError):
        bt.find_chamber(spp, chambers_by_name["spp"], (0, 1, -1))


def test_chamber_sign_of_matches_the_representative(spp, chambers_by_name):
    for chamber in chambers_by_name["spp"]:
        by_vertex = dict(zip(spp.vertices, chamber.representative))
        for r in (1, 2):
            for subset in itertools.combinations(spp.vertices, r):
                total = sum(by_vertex[v] for v in subset)
                assert chamber.sign_of(subset) == (1 if total > 0 else -1)
        with pytest.raises(KeyError):
            chamber.sign_of(spp.vertices)  # not a proper subset


def test_chamber_decomposition_raises_when_a_chamber_loses_its_witness(
        monkeypatch, spp, matchings_by_name):
    # every chamber's sign pattern is checked feasible once while it is
    # being split; answering "infeasible" on the repeat for the witness
    # breaks the invariant the decomposition relies on
    real = rational.strict_feasible_point
    seen = set()

    def forgetful(strict, eqs, nvars):
        key = tuple(map(tuple, strict))
        if key in seen:
            return None
        seen.add(key)
        return real(strict, eqs, nvars)

    monkeypatch.setattr(rational, "strict_feasible_point", forgetful)
    with pytest.raises(bt.ConsistencyError, match="no interior point"):
        bt.chamber_decomposition(spp, matchings_by_name["spp"])
