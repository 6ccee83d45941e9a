"""The per-tiling moduli record: support masks closed once per arrow
mask and moduli-fan geometries validated once, kept on the tiling.

Every answer read from a record must equal the answer on a freshly
loaded copy of the document, whose record starts empty."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

import branetile as bt
from branetile import fan as fan_module, stability
from branetile.tiling import ModuliRecord

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
    record = shared.moduli_record
    assert record.supports
    assert len(record.valid_fans) <= len(chambers)


def twin_chamber(chamber, subsets) -> bt.Chamber:
    return dataclasses.replace(chamber, stable_subsets=tuple(subsets))


def test_a_broken_fan_is_refused_after_its_valid_twin_passed(monkeypatch):
    tiling = bt.load_document(document_text("z2z2"))
    matchings = bt.enumerate_perfect_matchings(tiling)
    chamber = bt.chamber_decomposition(tiling, matchings)[0]
    bt.moduli_fan(tiling, chamber.representative, matchings)
    assert len(tiling.moduli_record.valid_fans) == 1

    subsets = chamber.stable_subsets
    repeated = [*subsets, subsets[-1]]
    edge = next(s for s in subsets if s.dim == 2)
    without_edge = [s for s in subsets if s != edge]
    with pytest.raises(bt.ConsistencyError, match="fan lists a cone twice"):
        bt.git_equivalence_classes(
            tiling, [twin_chamber(chamber, repeated)], matchings)
    with pytest.raises(bt.ConsistencyError,
                       match="is not a cone of the fan"):
        bt.git_equivalence_classes(
            tiling, [twin_chamber(chamber, without_edge)], matchings)

    monkeypatch.setattr(fan_module, "enumerate_stable_subsets",
                        lambda *args: repeated)
    with pytest.raises(bt.ConsistencyError, match="fan lists a cone twice"):
        bt.moduli_fan(tiling, chamber.representative, matchings)
    assert len(tiling.moduli_record.valid_fans) == 1


def test_equal_tilings_do_not_share_a_record():
    first = bt.load_document(document_text("spp"))
    second = bt.load_document(document_text("spp"))
    assert first == second and hash(first) == hash(second)
    matchings = bt.enumerate_perfect_matchings(first)
    theta = bt.chamber_decomposition(first, matchings)[0].representative
    bt.moduli_fan(first, theta, matchings)
    assert first.moduli_record.supports and first.moduli_record.valid_fans
    assert second.moduli_record is not first.moduli_record
    assert second.moduli_record == ModuliRecord()


def test_the_record_is_freed_with_its_tiling():
    tiling = bt.load_document(document_text("z2z2"))
    tower = bt.build_lattice_tower(tiling)
    matchings = bt.enumerate_perfect_matchings(tiling, tower)
    chambers = bt.chamber_decomposition(tiling, matchings)
    bt.git_equivalence_classes(tiling, chambers, matchings)
    theta = chambers[0].representative
    bt.moduli_fan(tiling, theta, matchings)
    bt.tilting_collection(tiling, tower, theta, matchings)
    tiling_ref = weakref.ref(tiling)
    record_ref = weakref.ref(tiling.moduli_record)
    del tiling
    gc.collect()
    assert tiling_ref() is None
    assert record_ref() is None


def test_each_arrow_mask_is_closed_and_each_geometry_validated_once(
        monkeypatch):
    tiling = bt.load_document(document_text("z2z2"))
    tower = bt.build_lattice_tower(tiling)
    matchings = bt.enumerate_perfect_matchings(tiling, tower)

    closed, validated = [], []
    close_supports = stability._close_supports
    validate_fan = fan_module.validate_fan

    def counting_close(tiling, arrows):
        closed.append(arrows)
        return close_supports(tiling, arrows)

    def counting_validate(fan):
        validated.append(fan)
        return validate_fan(fan)

    monkeypatch.setattr(stability, "_close_supports", counting_close)
    monkeypatch.setattr(fan_module, "validate_fan", counting_validate)
    chambers = bt.chamber_decomposition(tiling, matchings)
    geometries = set()
    for chamber in chambers:
        theta = chamber.representative
        fan = bt.moduli_fan(tiling, theta, matchings)
        vectors = fan.vector_map()
        geometries.add(tuple(sorted(
            (tuple(sorted(vectors[i] for i in c.ray_ids)), c.dim)
            for c in fan.cones)))
        bt.enumerate_stable_subsets(tiling, theta, matchings)
        bt.tilting_collection(tiling, tower, theta, matchings)
        for m in matchings:
            bt.submodule_supports(tiling, m.arrows)
    bt.git_equivalence_classes(tiling, chambers, matchings)

    assert len(chambers) == 32
    assert sorted(closed) == sorted(set(closed))
    assert set(closed) == tiling.moduli_record.supports.keys()
    assert len(validated) == len(geometries) == 4
