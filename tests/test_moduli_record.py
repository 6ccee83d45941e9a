"""The per-tiling moduli record: the lifted record of the last matchings
list, in the tiling's ``lifted_cache``, which holds the θ-free half of
every stable structure, with one set of support masks per hull
structure, its triangles' supports closed once per record.  It is the
only stability result the tiling keeps, and it is freed with the
tiling; ``submodule_supports`` keeps nothing between calls.

Every answer read from a record must equal the answer on a freshly
loaded copy of the document, whose record starts empty."""

from __future__ import annotations

import gc
import weakref

import pytest

import branetile as bt
from branetile import stability, tilting
from branetile.matchings import matching_id_key

from conftest import ALL_FIXTURES, document_text


def outcome(function, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return function(*args)
    except (bt.ConsistencyError, bt.DegenerateInputError, ValueError) as e:
        return type(e), str(e)


def kept_on(tiling) -> set:
    """What the tiling keeps on its instance besides its fields and the
    indexes it builds once."""
    return set(vars(tiling)) - {"vertices", "arrows", "faces", "arrow_map",
                                "arrow_bits", "_arrow_ends", "_faces_by_arrow"}


def moduli_answers(tiling, tower, theta, matchings, chamber) -> tuple:
    """What the moduli side answers at one chamber's parameter."""
    path = bt.default_paths(tiling)[tiling.vertices[-1]]
    return (
        outcome(bt.moduli_fan, tiling, theta, matchings),
        outcome(bt.enumerate_stable_subsets, tiling, theta, matchings),
        outcome(bt.tilting_collection, tiling, tower, theta, matchings),
        outcome(bt.graded_sections_count, tiling, tower, theta, [path],
                matchings, 1),
        [bt.submodule_supports(tiling, s.arrows)
         for s in chamber.stable_subsets])


@pytest.mark.parametrize("document", ALL_FIXTURES + ("2x2", "1x4", "1x5"))
def test_one_shared_tiling_answers_as_a_fresh_tiling_per_chamber(document):
    text = document_text(document)
    shared = bt.load_document(text)
    tower = bt.build_lattice_tower(shared)
    matchings = bt.enumerate_perfect_matchings(shared, tower)
    chambers = bt.chamber_decomposition(shared, matchings)
    for chamber in chambers:
        theta = chamber.representative
        assert moduli_answers(shared, tower, theta, matchings, chamber) \
            == moduli_answers(bt.load_document(text), tower, theta,
                              matchings, chamber)
    assert shared.lifted_cache
    assert kept_on(shared) == {"lifted_cache"}


def test_a_shorter_list_replaces_the_record_and_answers_as_fresh():
    text = document_text("spp")
    shared = bt.load_document(text)
    tower = bt.build_lattice_tower(shared)
    matchings = bt.enumerate_perfect_matchings(shared, tower)
    chambers = bt.chamber_decomposition(shared, matchings)
    (full,) = shared.lifted_cache
    corner = bt.toric_diagram(shared, tower, matchings).hull[0]
    short = [m for m in matchings if m.point != corner]
    refused = set()
    for chamber in chambers:
        theta = chamber.representative
        for ms in (short, matchings):
            got = moduli_answers(shared, tower, theta, ms, chamber)
            assert got == moduli_answers(bt.load_document(text), tower,
                                         theta, ms, chamber)
            if ms is short:
                refused.add(type(got[0]) is tuple)
        # the full list's record was rebuilt after the short one's
        assert shared.lifted_cache[0] is not full
        full = shared.lifted_cache[0]
    # the short list is refused at some chambers and answered at others
    assert refused == {True, False}
    assert len(shared.lifted_cache) == 1
    assert full.key == matchings


def test_the_record_keeps_refusing_another_arrow_order(spp, matchings_by_name):
    # the same ids, masks and points, read in an order with one more id
    matchings = matchings_by_name["spp"]
    theta = (-2, 1, 1)
    bt.enumerate_stable_subsets(spp, theta, matchings)
    other = [m._replace(arrow_order=(*m.arrow_order, "99"))
             for m in matchings]
    with pytest.raises(ValueError, match="^m1 is a matching of another "
                                         "tiling's arrow ids$"):
        bt.enumerate_stable_subsets(spp, theta, other)


def test_equal_tilings_do_not_share_a_record():
    first = bt.load_document(document_text("spp"))
    second = bt.load_document(document_text("spp"))
    assert first == second and hash(first) == hash(second)
    matchings = bt.enumerate_perfect_matchings(first)
    theta = bt.chamber_decomposition(first, matchings)[0].representative
    bt.moduli_fan(first, theta, matchings)
    assert first.lifted_cache and kept_on(first) == {"lifted_cache"}
    assert second.lifted_cache is not first.lifted_cache
    assert second.lifted_cache == []


def test_the_record_is_freed_with_its_tiling():
    # with the cyclic collector off, reference counting alone frees the
    # tiling and its record: nothing in it refers back to the tiling
    enabled = gc.isenabled()
    gc.disable()
    try:
        tiling = bt.load_document(document_text("z2z2"))
        tower = bt.build_lattice_tower(tiling)
        matchings = bt.enumerate_perfect_matchings(tiling, tower)
        chambers = bt.chamber_decomposition(tiling, matchings)
        bt.git_equivalence_classes(tiling, chambers, matchings)
        theta = chambers[0].representative
        bt.moduli_fan(tiling, theta, matchings)
        bt.tilting_collection(tiling, tower, theta, matchings)
        # the record is an attribute of the instance, so it goes with it
        assert tiling.lifted_cache and kept_on(tiling) == {"lifted_cache"}
        refs = [weakref.ref(tiling), weakref.ref(tiling.lifted_cache[0])]
        del tiling
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_each_hull_triangle_is_closed_once_per_record(monkeypatch):
    tiling = bt.load_document(document_text("z2z2"))
    tower = bt.build_lattice_tower(tiling)
    matchings = bt.enumerate_perfect_matchings(tiling, tower)

    closed = []
    close_supports = stability._close_supports

    def counting_close(tiling, arrows):
        closed.append(arrows)
        return close_supports(tiling, arrows)

    monkeypatch.setattr(stability, "_close_supports", counting_close)
    chambers = bt.chamber_decomposition(tiling, matchings)
    for chamber in chambers:
        theta = chamber.representative
        bt.moduli_fan(tiling, theta, matchings)
        bt.enumerate_stable_subsets(tiling, theta, matchings)
    bt.git_equivalence_classes(tiling, chambers, matchings)

    # supports grow with the arrow set, so only the triangles are closed:
    # no single matching or pair, and no triangle twice
    masks = {m.matching_id: m.mask for m in matchings}
    triangles = {masks[a] | masks[b] | masks[c] for chamber in chambers
                 for a, b, c in chamber.stable_triples}
    assert len(chambers) == 32
    assert sorted(closed) == sorted(triangles)
    (record,) = tiling.lifted_cache
    assert record.closed.keys() == triangles

    # submodule_supports closes its arrow set on every call and keeps
    # nothing: the record and the tiling are as they were
    kept = dict(record.closed), kept_on(tiling)
    theta = chambers[0].representative
    for m in matchings:
        closed.clear()
        bt.submodule_supports(tiling, m.arrows)
        bt.is_theta_stable(tiling, m.arrows, theta)
        assert closed == [m.mask, m.mask]
    bt.tilting_collection(tiling, tower, theta, matchings)
    assert (record.closed, kept_on(tiling)) == kept
    assert tiling.lifted_cache == [record]


def test_the_hull_candidates_are_built_once(monkeypatch):
    tiling = bt.load_document(document_text("z2z2"))
    tower = bt.build_lattice_tower(tiling)
    matchings = bt.enumerate_perfect_matchings(tiling, tower)

    built = []
    lower_hull = stability._lower_hull

    def counting_hull(points):
        built.append(points)
        return lower_hull(points)

    monkeypatch.setattr(stability, "_lower_hull", counting_hull)
    chambers = bt.chamber_decomposition(tiling, matchings)
    path = bt.default_paths(tiling)[tiling.vertices[-1]]
    for chamber in chambers:
        theta = chamber.representative
        bt.moduli_fan(tiling, theta, matchings)
        bt.enumerate_stable_subsets(tiling, theta, matchings)
        bt.tilting_collection(tiling, tower, theta, matchings)
        bt.graded_sections_count(tiling, tower, theta, [path], matchings, 1)
    bt.git_equivalence_classes(tiling, chambers, matchings)

    assert len(chambers) == 32
    assert built == [[m.point for m in matchings]]


def test_each_stable_matching_is_certified_once_per_call(
        monkeypatch, tilings, matchings_by_name, chambers_by_name):
    certified = []
    is_theta_stable = tilting.is_theta_stable

    def counting(tiling, arrows, theta):
        certified.append(frozenset(arrows))
        return is_theta_stable(tiling, arrows, theta)

    monkeypatch.setattr(tilting, "is_theta_stable", counting)
    tiling, matchings = tilings["z2z2"], matchings_by_name["z2z2"]
    for chamber in chambers_by_name["z2z2"]:
        certified.clear()
        stable = tilting.stable_matchings(
            tiling, chamber.representative, matchings)
        assert [m.matching_id for m in stable] == sorted(
            chamber.stable_matchings, key=matching_id_key)
        assert certified == [m.arrows for m in stable]


def test_one_sections_call_certifies_each_stable_matching_once(
        monkeypatch, tilings, towers, matchings_by_name, chambers_by_name):
    certified = []
    is_theta_stable = tilting.is_theta_stable

    def counting(tiling, arrows, theta):
        certified.append(frozenset(arrows))
        return is_theta_stable(tiling, arrows, theta)

    monkeypatch.setattr(tilting, "is_theta_stable", counting)
    tiling, tower = tilings["z2z2"], towers["z2z2"]
    matchings = matchings_by_name["z2z2"]
    paths = [bt.default_paths(tiling, u)[v]
             for u in tiling.vertices for v in tiling.vertices]
    assert len(paths) == 16
    for chamber in chambers_by_name["z2z2"]:
        certified.clear()
        counts = bt.graded_sections_count(
            tiling, tower, chamber.representative, paths, matchings, 2)
        assert len(counts) == 16
        assert len(certified) == len(chamber.stable_matchings)
