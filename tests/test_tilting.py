"""Default paths, divisor classes, and graded section counts."""

from __future__ import annotations

import functools
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import branetile as bt
from branetile import lattice, stability
from branetile.stability import is_theta_stable
from branetile.tilting import (picard_presentation, stable_matchings,
                               weak_path_weight)

from conftest import (ALL_FIXTURES, QUIVER_FIXTURES, document_text,
                      powers_of_two_theta, vec_mat_functionals)

# free rank of the divisor class group at the first chamber
EXPECTED_RANK = {"honeycomb": 0, "conifold": 1, "spp": 2, "z2z2": 3}

HONEYCOMB_SECTION_COUNTS = ((0, 1, 1), (1, 3, 3), (2, 6, 6), (3, 10, 10),
                            (4, 15, 15))


def first_chamber(name, towers, chambers_by_name):
    return towers[name], chambers_by_name[name][0].representative


# ---------------------------------------------------------------------------
# default paths and path weights
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_default_paths_reach_every_vertex(name, tilings):
    tiling = tilings[name]
    for base in tiling.vertices:
        paths = bt.default_paths(tiling, base)
        assert set(paths) == set(tiling.vertices)
        assert paths[base].steps == ()
        for v, path in paths.items():
            assert path.source == base
            assert path.target == v


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_default_paths_are_their_steps_checked_by_make_weak_path(name,
                                                                 tilings):
    # the breadth-first search builds each path without a second walk
    tiling = tilings[name]
    for base in tiling.vertices:
        for path in bt.default_paths(tiling, base).values():
            assert path == bt.make_weak_path(tiling, path.steps, source=base)


def test_default_paths_default_base_is_the_first_vertex(spp):
    paths = bt.default_paths(spp)
    assert paths["1"].source == "1"
    with pytest.raises(ValueError):
        bt.default_paths(spp, "ghost")


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_path_weights_have_the_endpoint_degree(name, tilings, towers):
    tiling, tower = tilings[name], towers[name]
    index = {v: i for i, v in enumerate(tiling.vertices)}
    base = tiling.vertices[0]
    for v, path in bt.default_paths(tiling).items():
        weight = weak_path_weight(tower, path)
        expected = [0] * len(tiling.vertices)
        expected[index[v]] += 1
        expected[index[base]] -= 1
        assert list(tower.degree(weight)) == expected


def test_inverse_steps_cancel_in_the_path_weight(spp, towers):
    tower = towers["spp"]
    there_and_back = bt.make_weak_path(spp, [("12", 1), ("12", -1)])
    assert weak_path_weight(tower, there_and_back) == (0,) * tower.rank


# ---------------------------------------------------------------------------
# divisors and the class group presentation
# ---------------------------------------------------------------------------

PAIRING_DOCUMENTS = ALL_FIXTURES + ("2x2", "3x3")


@functools.cache
def stable_setting(name: str) -> tuple:
    """A document with its tower and its matchings stable at
    :func:`powers_of_two_theta`, each with its reference functional χ."""
    tiling = bt.load_document(document_text(name))
    tower = bt.build_lattice_tower(tiling)
    theta = powers_of_two_theta(len(tiling.vertices))
    stable = stable_matchings(
        tiling, theta, bt.enumerate_perfect_matchings(tiling, tower))
    chis = [vec_mat_functionals(tower, m.arrows)[0] for m in stable]
    return tiling, tower, stable, chis


def assert_divisor_is_the_reference(name: str, path) -> None:
    tiling, tower, stable, chis = stable_setting(name)
    weight = weak_path_weight(tower, path)
    assert bt.path_divisor(tiling, path, stable) == tuple(
        (m.matching_id, lattice.dot(chi, weight))
        for m, chi in zip(stable, chis))


@pytest.mark.parametrize("name", PAIRING_DOCUMENTS)
def test_path_divisor_evaluates_stable_functionals(name):
    # every default path from every base, and each face cycle walked
    # twice, forward and inverted: arrows repeated with one sign
    tiling = stable_setting(name)[0]
    for base in tiling.vertices:
        for path in bt.default_paths(tiling, base).values():
            assert_divisor_is_the_reference(name, path)
    for face in tiling.faces:
        for exp in (1, -1):
            steps = [(aid, exp) for aid in face.arrows[::exp]] * 2
            assert_divisor_is_the_reference(
                name, bt.make_weak_path(tiling, steps))


@st.composite
def walks(draw) -> tuple:
    """A document and a random weak path on it, built by
    ``make_weak_path``: each move takes an arrow out of or into the
    current vertex, or steps back along the last move, so arrows repeat
    and paths go back and forth."""
    name = draw(st.sampled_from(PAIRING_DOCUMENTS))
    tiling = stable_setting(name)[0]
    at = draw(st.sampled_from(tiling.vertices))
    steps = []
    for move in draw(st.lists(st.integers(0, 99), max_size=12)):
        if move < 25 and steps:
            aid, exp = steps[-1]
            steps.append((aid, -exp))
        else:
            options = sorted(
                [(a.arrow_id, 1) for a in tiling.arrows if a.source == at]
                + [(a.arrow_id, -1) for a in tiling.arrows if a.target == at])
            steps.append(options[move % len(options)])
        arrow = tiling.arrow_map[steps[-1][0]]
        at = arrow.target if steps[-1][1] == 1 else arrow.source
    source = None if steps else at
    return name, bt.make_weak_path(tiling, steps, source)


@given(walks())
def test_path_divisor_of_a_random_walk_evaluates_stable_functionals(walk):
    assert_divisor_is_the_reference(*walk)


MALFORMED_SPP_PATHS = [
    (bt.WeakPath("1", "2", (("nope", 1),)), "unknown arrow 'nope'"),
    (bt.WeakPath("1", "1", (("11", 2),)), "exponent must be"),
    (bt.WeakPath("1", "3", (("12", 1),)), "not the weak path of its steps"),
]


@pytest.mark.parametrize("path, message", MALFORMED_SPP_PATHS,
                         ids=["unknown-arrow", "exponent-two", "wrong-target"])
def test_a_malformed_weak_path_is_refused(path, message, spp, towers,
                                          matchings_by_name,
                                          chambers_by_name):
    tower, theta = first_chamber("spp", towers, chambers_by_name)
    matchings = matchings_by_name["spp"]
    stable = stable_matchings(spp, theta, matchings)
    with pytest.raises(ValueError, match=message):
        bt.path_divisor(spp, path, stable)
    with pytest.raises(ValueError, match=message):
        bt.graded_sections_count(spp, tower, theta, [path], matchings)


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_presentation_rank_counts_stable_matchings_minus_three(
        name, tilings, towers, matchings_by_name, chambers_by_name):
    tiling = tilings[name]
    tower, theta = first_chamber(name, towers, chambers_by_name)
    stable = stable_matchings(tiling, theta, matchings_by_name[name])
    pres = picard_presentation(stable)
    assert pres.rank == len(stable) - 3
    assert pres.rank == EXPECTED_RANK[name]
    assert pres.torsion == ()
    assert pres.matching_ids == tuple(m.matching_id for m in stable)
    zero = pres.class_of((0,) * len(stable))
    assert zero == ((0,) * pres.rank, ())


def test_presentation_class_of_is_linear(towers, matchings_by_name,
                                         chambers_by_name, tilings):
    tiling = tilings["spp"]
    tower, theta = first_chamber("spp", towers, chambers_by_name)
    stable = stable_matchings(tiling, theta, matchings_by_name["spp"])
    pres = picard_presentation(stable)
    a = (1, 0, 2, -1, 0)
    b = (0, 3, -2, 1, 1)
    fa, ta = pres.class_of(a)
    fb, tb = pres.class_of(b)
    fs, ts = pres.class_of(tuple(x + y for x, y in zip(a, b)))
    assert fs == tuple(x + y for x, y in zip(fa, fb))
    assert ts == ()


@pytest.mark.parametrize("length", [1, 4, 6, 9])
def test_presentation_class_of_refuses_a_divisor_of_another_length(
        length, towers, matchings_by_name, chambers_by_name, tilings):
    # one coefficient per stable matching: spp has five at this chamber
    tower, theta = first_chamber("spp", towers, chambers_by_name)
    stable = stable_matchings(tilings["spp"], theta, matchings_by_name["spp"])
    pres = picard_presentation(stable)
    with pytest.raises(ValueError) as exc:
        pres.class_of((1,) * length)
    assert str(exc.value) == (
        f"divisor has {length} entries, not 5 stable matchings")


@pytest.mark.parametrize("entry", [0.5, Fraction(1, 2), Fraction(2, 1)],
                         ids=repr)
def test_presentation_class_of_refuses_a_coefficient_that_is_not_an_int(
        entry, towers, matchings_by_name, chambers_by_name, tilings):
    tower, theta = first_chamber("spp", towers, chambers_by_name)
    stable = stable_matchings(tilings["spp"], theta, matchings_by_name["spp"])
    pres = picard_presentation(stable)
    with pytest.raises(ValueError) as exc:
        pres.class_of((1, 0, entry, 0, 0))
    assert str(exc.value) == f"divisor entry 2 is {entry!r}, not an integer"


def test_presentation_rejects_rank_deficient_functionals(matchings_by_name):
    # a single matching spans one line, not the full kernel dual
    with pytest.raises(bt.ConsistencyError):
        picard_presentation(matchings_by_name["spp"][:1])


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_kernel_image_classes_vanish(name, tilings, towers,
                                     matchings_by_name, chambers_by_name):
    """Divisors of kernel weights are exactly the relations killed by
    the presentation."""
    tiling = tilings[name]
    tower, theta = first_chamber(name, towers, chambers_by_name)
    stable = stable_matchings(tiling, theta, matchings_by_name[name])
    pres = picard_presentation(stable)
    for coords in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, -2, 1)]:
        divisor = tuple(lattice.dot(m.chi_kernel, coords) for m in stable)
        assert pres.class_of(divisor) == ((0,) * pres.rank, ())


# ---------------------------------------------------------------------------
# tilting collections
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_collection_is_internally_consistent(name, tilings, towers,
                                             matchings_by_name,
                                             chambers_by_name):
    tiling = tilings[name]
    tower, theta = first_chamber(name, towers, chambers_by_name)
    matchings = matchings_by_name[name]
    coll = bt.tilting_collection(tiling, tower, theta, matchings)
    stable = stable_matchings(tiling, theta, matchings)
    assert coll.base == tiling.vertices[0]
    assert coll.ray_ids == tuple(m.matching_id for m in stable)
    paths = dict(coll.paths)
    divisors = dict(coll.divisors)
    classes = dict(coll.classes)
    # the default paths' divisors are the signed counts c_v(M) that
    # the stability record lifts each matching's point by
    counts = stability._lifted(tiling, matchings).counts
    lifted = [counts[matchings.index(m)] for m in stable]
    for i, v in enumerate(tiling.vertices):
        expected = tuple(
            c for _, c in bt.path_divisor(tiling, paths[v], stable))
        assert divisors[v] == expected
        assert divisors[v] == tuple(row[i] for row in lifted)
        assert classes[v] == coll.presentation.class_of(divisors[v])
    assert divisors[coll.base] == (0,) * len(stable)
    assert classes[coll.base] == ((0,) * coll.presentation.rank, ())


def test_collection_honors_an_explicit_base(spp, towers, matchings_by_name,
                                            chambers_by_name):
    tower, theta = first_chamber("spp", towers, chambers_by_name)
    coll = bt.tilting_collection(spp, tower, theta,
                                 matchings_by_name["spp"], base="2")
    assert coll.base == "2"
    assert all(path.source == "2" for _, path in coll.paths)
    assert dict(coll.divisors)["2"] == (0,) * len(coll.ray_ids)
    with pytest.raises(ValueError, match="unknown base vertex '9'"):
        bt.tilting_collection(spp, tower, theta, matchings_by_name["spp"],
                              base="9")


def test_collection_classes_are_path_independent(spp, towers,
                                                 matchings_by_name,
                                                 chambers_by_name):
    tower, theta = first_chamber("spp", towers, chambers_by_name)
    matchings = matchings_by_name["spp"]
    default = bt.tilting_collection(spp, tower, theta, matchings)
    stable = stable_matchings(spp, theta, matchings)
    detour = {
        "1": bt.make_weak_path(spp, [], source="1"),
        "2": bt.make_weak_path(spp, [("13", 1), ("32", 1)]),
        "3": bt.make_weak_path(spp, [("12", 1), ("23", 1)]),
    }
    divisors = {v: tuple(c for _, c in bt.path_divisor(spp, path, stable))
                for v, path in detour.items()}
    classes = {v: default.presentation.class_of(d)
               for v, d in divisors.items()}
    assert classes == dict(default.classes)
    assert divisors != dict(default.divisors)


def test_collection_refuses_the_tower_of_another_tiling(
        spp, towers, matchings_by_name, chambers_by_name):
    # both entry points run one check, before any lookup by arrow id
    _, theta = first_chamber("spp", towers, chambers_by_name)
    matchings = matchings_by_name["spp"]
    path = bt.default_paths(spp)["2"]
    for other in ("conifold", "z2z2"):
        with pytest.raises(ValueError, match="tower is not the tiling's"):
            bt.tilting_collection(spp, towers[other], theta, matchings)
        with pytest.raises(ValueError, match="tower is not the tiling's"):
            bt.graded_sections_count(spp, towers[other], theta, [path],
                                     matchings)


# ---------------------------------------------------------------------------
# graded section counts
# ---------------------------------------------------------------------------

def test_honeycomb_section_counts_are_the_plane_count(honeycomb, towers,
                                                      matchings_by_name,
                                                      chambers_by_name):
    tower, theta = first_chamber("honeycomb", towers, chambers_by_name)
    path = bt.make_weak_path(honeycomb, [], source="1")
    (count,) = bt.graded_sections_count(honeycomb, tower, theta, [path],
                                        matchings_by_name["honeycomb"])
    assert count.heights == HONEYCOMB_SECTION_COUNTS
    assert count.matches
    assert count.path_height == 0
    assert count.max_height == 4


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_section_counts_agree_between_lattice_and_paths(
        name, tilings, towers, matchings_by_name, chambers_by_name):
    tiling = tilings[name]
    tower, theta = first_chamber(name, towers, chambers_by_name)
    matchings = matchings_by_name[name]
    chis = [vec_mat_functionals(tower, m.arrows)[0] for m in matchings]
    paths = list(bt.default_paths(tiling).values())
    counts = bt.graded_sections_count(tiling, tower, theta, paths,
                                      matchings, max_height=3)
    assert [count.path for count in counts] == paths
    for path, count in zip(paths, counts):
        assert count.matches
        assert [h for h, _, _ in count.heights] == [0, 1, 2, 3]
        weight = weak_path_weight(tower, path)
        assert count.path_height == sum(lattice.dot(chi, weight)
                                        for chi in chis)


def test_empty_path_has_the_trivial_section(conifold, towers,
                                            matchings_by_name,
                                            chambers_by_name):
    tower, theta = first_chamber("conifold", towers, chambers_by_name)
    path = bt.make_weak_path(conifold, [], source="1")
    (count,) = bt.graded_sections_count(conifold, tower, theta, [path],
                                        matchings_by_name["conifold"],
                                        max_height=2)
    assert count.heights[0] == (0, 1, 1)


@pytest.mark.parametrize("name", ["spp", "z2z2"])
def test_a_batch_of_paths_counts_as_its_paths_one_by_one(
        name, tilings, towers, matchings_by_name, chambers_by_name):
    # paths from several sources, out of source order, one repeated
    tiling, tower = tilings[name], towers[name]
    matchings = matchings_by_name[name]
    vertices = tiling.vertices
    paths = [bt.default_paths(tiling, u)[v]
             for u in reversed(vertices) for v in vertices[::2]]
    paths.insert(1, paths[-1])
    assert len({path.source for path in paths}) == len(vertices) > 1
    for chamber in chambers_by_name[name]:
        theta = chamber.representative
        batch = bt.graded_sections_count(tiling, tower, theta, paths,
                                         matchings, max_height=3)
        assert batch == tuple(
            bt.graded_sections_count(tiling, tower, theta, [path],
                                     matchings, max_height=3)[0]
            for path in paths)


def test_no_paths_count_as_the_empty_tuple_after_the_checks(
        spp, towers, matchings_by_name, chambers_by_name):
    tower, theta = first_chamber("spp", towers, chambers_by_name)
    matchings = matchings_by_name["spp"]
    assert bt.graded_sections_count(spp, tower, theta, (), matchings) == ()
    with pytest.raises(ValueError, match="max_height"):
        bt.graded_sections_count(spp, tower, theta, (), matchings, -1)
    with pytest.raises(bt.ConsistencyError):
        bt.graded_sections_count(spp, tower, theta, (), [])


def test_sections_reject_a_negative_height_bound(spp, towers,
                                                matchings_by_name,
                                                chambers_by_name):
    tower, theta = first_chamber("spp", towers, chambers_by_name)
    path = bt.make_weak_path(spp, [], source="1")
    with pytest.raises(ValueError, match="max_height"):
        bt.graded_sections_count(spp, tower, theta, [path],
                                 matchings_by_name["spp"], max_height=-1)


@pytest.mark.parametrize("bound", [2.5, 2.0, Fraction(5, 2)])
def test_sections_reject_a_height_bound_that_is_not_an_integer(
        bound, spp, towers, matchings_by_name, chambers_by_name):
    tower, theta = first_chamber("spp", towers, chambers_by_name)
    path = bt.make_weak_path(spp, [], source="1")
    with pytest.raises(ValueError, match="max_height must be an integer"):
        bt.graded_sections_count(spp, tower, theta, [path],
                                 matchings_by_name["spp"], max_height=bound)


def test_sections_reject_an_empty_stable_set(spp, towers, chambers_by_name):
    tower, theta = first_chamber("spp", towers, chambers_by_name)
    path = bt.make_weak_path(spp, [], source="1")
    with pytest.raises(bt.ConsistencyError):
        bt.graded_sections_count(spp, tower, theta, [path], [])


def test_sections_reject_uncovered_arrows(spp, towers, matchings_by_name,
                                          chambers_by_name):
    # with only one matching supplied, most arrows have height zero and
    # the forward-path search could not terminate; the guard must fire
    tower, theta = first_chamber("spp", towers, chambers_by_name)
    path = bt.make_weak_path(spp, [], source="1")
    matchings = matchings_by_name["spp"]
    with pytest.raises(bt.ConsistencyError):
        bt.graded_sections_count(spp, tower, theta, [path], matchings[:1])


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_lists_without_a_hull_corner_are_refused_or_filtered(
        name, tilings, towers, matchings_by_name, chambers_by_name):
    # Without the matchings at one corner of the toric diagram, the
    # stable matchings and the tilting collection's rays are refused
    # with ConsistencyError or are the per-matching stability filter.
    tiling, tower = tilings[name], towers[name]
    matchings = matchings_by_name[name]
    hull = bt.toric_diagram(tiling, tower, matchings).hull
    shorts = [[m for m in matchings if m.point != corner] for corner in hull]
    seen = set()
    for chamber in chambers_by_name[name]:
        theta = chamber.representative
        for short in shorts:
            want = [m.matching_id for m in short
                    if is_theta_stable(tiling, m.arrows, theta)]
            try:
                got = [m.matching_id
                       for m in stable_matchings(tiling, theta, short)]
            except bt.ConsistencyError:
                seen.add("refused")
                with pytest.raises(bt.ConsistencyError):
                    bt.tilting_collection(tiling, tower, theta, short)
                continue
            assert got == want
            assert list(bt.tilting_collection(tiling, tower, theta,
                                              short).ray_ids) == want
            seen.add("filtered")
    assert "refused" in seen and ("filtered" in seen or name == "honeycomb")


def test_a_four_by_five_tilting_collection_is_pinned(four_by_five):
    # As built when theta was read back out of the subset-sum table
    # and supports were tested against a set of every nonpositive
    # subset.
    tiling, tower, matchings, theta = four_by_five
    collection = bt.tilting_collection(tiling, tower, theta, matchings)
    form = (collection.ray_ids, collection.divisors, collection.classes,
            collection.presentation.torsion, collection.presentation.rank)
    assert len(collection.ray_ids) == 16
    assert hashlib.sha256(repr(form).encode()).hexdigest() == (
        "d7e21a6a641d4dce40583cfc6fed9de8596affa0c8b1d0bb5a121513546748e4")


def test_a_five_by_five_tilting_collection_is_pinned(five_by_five):
    # As built from one table of all 2^25 subset sums of theta.
    tiling, tower, matchings, theta = five_by_five
    collection = bt.tilting_collection(tiling, tower, theta, matchings)
    form = (collection.ray_ids, collection.divisors, collection.classes,
            collection.presentation.torsion, collection.presentation.rank)
    assert len(collection.ray_ids) == 21
    assert hashlib.sha256(repr(form).encode()).hexdigest() == (
        "1dd146cb1144d2ec7b5d226e9784c6356f9ae559a9e9753a5218a1f77b4f1767")
