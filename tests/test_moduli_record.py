"""The per-tiling support cache: support masks closed once per arrow
mask, kept on the tiling.

Every answer read from a cache must equal the answer on a freshly
loaded copy of the document, whose cache starts empty."""

from __future__ import annotations

import gc
import weakref

import pytest

import branetile as bt
from branetile import stability

from conftest import ALL_FIXTURES, document_text


def outcome(function, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return function(*args)
    except (bt.ConsistencyError, bt.DegenerateInputError, ValueError) as e:
        return type(e), str(e)


def moduli_answers(tiling, tower, theta, matchings, chamber) -> tuple:
    """What the moduli side answers at one chamber's parameter."""
    return (
        outcome(bt.moduli_fan, tiling, theta, matchings),
        outcome(bt.enumerate_stable_subsets, tiling, theta, matchings),
        outcome(bt.tilting_collection, tiling, tower, theta, matchings),
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
    assert shared.support_cache


def test_equal_tilings_do_not_share_a_record():
    first = bt.load_document(document_text("spp"))
    second = bt.load_document(document_text("spp"))
    assert first == second and hash(first) == hash(second)
    matchings = bt.enumerate_perfect_matchings(first)
    theta = bt.chamber_decomposition(first, matchings)[0].representative
    bt.moduli_fan(first, theta, matchings)
    assert first.support_cache
    assert second.support_cache is not first.support_cache
    assert second.support_cache == {}


def test_the_record_is_freed_with_its_tiling():
    tiling = bt.load_document(document_text("z2z2"))
    tower = bt.build_lattice_tower(tiling)
    matchings = bt.enumerate_perfect_matchings(tiling, tower)
    chambers = bt.chamber_decomposition(tiling, matchings)
    bt.git_equivalence_classes(tiling, chambers, matchings)
    theta = chambers[0].representative
    bt.moduli_fan(tiling, theta, matchings)
    bt.tilting_collection(tiling, tower, theta, matchings)
    # the cache is an attribute of the instance, so it goes with it
    assert tiling.support_cache and "support_cache" in vars(tiling)
    tiling_ref = weakref.ref(tiling)
    del tiling
    gc.collect()
    assert tiling_ref() is None


def test_each_arrow_mask_is_closed_once(monkeypatch):
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
        bt.tilting_collection(tiling, tower, theta, matchings)
        for m in matchings:
            bt.submodule_supports(tiling, m.arrows)
    bt.git_equivalence_classes(tiling, chambers, matchings)

    assert len(chambers) == 32
    assert sorted(closed) == sorted(set(closed))
    assert set(closed) == tiling.support_cache.keys()
