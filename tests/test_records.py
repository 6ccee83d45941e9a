"""The record contract.  The value records are immutable named tuples:
they build by keyword and by position, keep the reprs they had as
frozen dataclasses, unpack, and hash as the tuple of their fields, which
keeps set orders, and so the CLI bytes, as they were.  ``QuiverOnTorus``
and ``LatticeTower`` are plain classes with read-only fields: a tiling
is equal to another with the same fields, and a tower only to itself.

The reprs are pinned on one instance of each record built from spp, with
the members of each frozenset sorted, as their order follows string
hashing."""

from __future__ import annotations

import hashlib
import re
import weakref

import pytest

import branetile as bt
from branetile import tilting

from conftest import canonical_repr, extract_dimer

VALUE_RECORDS = (
    "Arrow", "Face", "WeakPath", "DimerEdge", "DimerGraph",
    "ValidationReport", "PerfectMatching", "ToricDiagram", "StableSubset",
    "Chamber", "FanRay", "FanCone", "Fan", "Triangulation", "Polyhedron",
    "PolyFace", "LiftedFace", "DescendedSupport", "PicardPresentation",
    "TiltingCollection", "SectionCount")

# short reprs in full, longer ones by the SHA-256 of their text
PINNED_REPRS = {
    "Arrow": "Arrow(arrow_id='11', source='1', target='1')",
    "Face": "Face(sign=1, arrows=('11', '12', '21'))",
    "WeakPath": "WeakPath(source='1', target='3', steps=(('13', 1),))",
    "DimerEdge": "DimerEdge(edge_id='11', white='w1', black='b1')",
    "DimerGraph":
        "d6c1fd14903e9a04802dd79a9c5cffd699e64cd19d2cafbb22871444eed74f16",
    "ValidationReport":
        "ValidationReport(ok=True, violations=(), nondegenerate=True)",
    "PerfectMatching":
        "7aa1e62826857ed4f02cbfbb5a202ea23794e7c0eccc7a2b01f30d0bf715d5b5",
    "ToricDiagram":
        "e02a8f3019e65686dd1bf2895ed23abd8eb4119f4b23eea01717edf5179d975f",
    "StableSubset": "StableSubset(arrows=frozenset({'11', '23'}), "
                    "matching_ids=('m1',), dim=1)",
    "Chamber":
        "d49703ea78b54337173de81b7b4fa16275f56e60fc179659825cf87f0271c170",
    "FanRay": "FanRay(ray_id='m1', vector=(1, 0, 1))",
    "FanCone": "FanCone(ray_ids=frozenset({'m2', 'm5', 'm6'}), dim=3)",
    "Fan": "813535f7ea517edef6d6a92a1039496dc69e6f39158eef50d3f638119ebeac30",
    "Triangulation":
        "bfd72e2495c370a8c9ad1efaeca1a1ee95c4605fdc9ebe1d3397b30c8aebe0a2",
    "Polyhedron":
        "eaaa1906b68d02958fffb645680d4439955cfc77932b9065d6b0a819c3bc0b47",
    "PolyFace":
        "PolyFace(active=(0, 1, 4), vertex_ids=(1,), ray_ids=(), dim=0)",
    "LiftedFace":
        "cfbab0bf922568b25dc3489acbbc47c3fa53c59d03eea021a022a3a19b108859",
    "DescendedSupport":
        "e2a1a984fa744c2874196a0643c8f9e5f120830acd31c5be360071d87d9dd8b1",
    "PicardPresentation":
        "9686b6d6c746620d9a74a4f8be9fb473c61dfb5c00a4612957f38b5bc5efb0ec",
    "TiltingCollection":
        "f728a87e6ff4888aae04cdc9b8b4879ad8f634fddd0a8743aac6bdd85c847d96",
    "SectionCount":
        "cf4714ca8cc051e70970e8095bb20a2e1165b7ae7b7b646f9583d3224202caca",
    "QuiverOnTorus":
        "e11a5a59c6314cb43ac3723ff154edfffcaac9d8136ce3ee2720bdad08060df0",
    "LatticeTower":
        "3efa735de2dace614e9335427cc29d740698f9f1ed9e11a9c7722f191434ea48",
}


@pytest.fixture(scope="module")
def records(spp, towers, matchings_by_name, chambers_by_name) -> dict:
    """One instance of every public record, built from spp."""
    tower, matchings = towers["spp"], matchings_by_name["spp"]
    chamber = chambers_by_name["spp"][0]
    theta = chamber.representative
    fan = bt.moduli_fan(spp, theta, matchings)
    diagram = bt.toric_diagram(spp, tower, matchings)
    shifted, _ = bt.shift_by_stability(tower, theta)
    slice_poly = bt.kernel_polytope(tower, shifted)
    collection = bt.tilting_collection(spp, tower, theta, matchings)
    path = dict(collection.paths)[spp.vertices[-1]]
    dimer = extract_dimer(spp)
    return {
        "Arrow": spp.arrows[0], "Face": spp.faces[0], "WeakPath": path,
        "DimerEdge": dimer.edges[0], "DimerGraph": dimer,
        "ValidationReport": bt.validate(spp),
        "PerfectMatching": matchings[0], "ToricDiagram": diagram,
        "StableSubset": chamber.stable_subsets[1], "Chamber": chamber,
        "FanRay": fan.rays[0], "FanCone": fan.cones[-1], "Fan": fan,
        "Triangulation": bt.triangulation(fan, diagram),
        "Polyhedron": slice_poly,
        "PolyFace": bt.enumerate_faces(slice_poly)[0],
        "LiftedFace": bt.lift_slice_faces(tower, shifted, slice_poly)[0],
        "DescendedSupport": bt.descend_linear_functional(
            tower, shifted, tilting.weak_path_weight(tower, path),
            slice_poly, {}),
        "PicardPresentation": collection.presentation,
        "TiltingCollection": collection,
        "SectionCount": bt.graded_sections_count(spp, tower, theta, [path],
                                                 matchings, 1)[0],
        "QuiverOnTorus": spp, "LatticeTower": tower,
    }


def test_every_public_record_is_covered(records):
    exported = {name for name in bt.__all__
                if isinstance(getattr(bt, name), type)
                and not issubclass(getattr(bt, name), Exception)}
    assert set(PINNED_REPRS) == exported | {"DimerEdge"} == set(records)
    assert all(type(records[name]).__name__ == name for name in records)


@pytest.mark.parametrize("name", list(PINNED_REPRS))
def test_the_repr_is_pinned(name, records):
    text = canonical_repr(records[name])
    pinned = PINNED_REPRS[name]
    if re.fullmatch("[0-9a-f]{64}", pinned):
        text = hashlib.sha256(text.encode()).hexdigest()
    assert text == pinned


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_a_value_record_is_a_tuple_of_its_fields(name, records):
    record = records[name]
    cls = type(record)
    fields = tuple(getattr(record, field) for field in record._fields)
    assert cls(*fields) == record
    assert type(cls(*fields)) is cls
    assert cls(**dict(zip(record._fields, fields))) == record
    assert record == fields and tuple(record) == fields
    assert hash(record) == hash(fields)
    assert record._replace() == record


@pytest.mark.parametrize("name", [*VALUE_RECORDS, "QuiverOnTorus",
                                  "LatticeTower"])
def test_assigning_a_field_raises(name, records):
    record = records[name]
    field = (record._fields if name in VALUE_RECORDS else list(vars(record)))[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    assert getattr(record, field) is before


def test_a_face_sign_is_checked():
    with pytest.raises(ValueError,
                       match=r"^face sign must be \+1 or -1, got 0$"):
        bt.Face(sign=0, arrows=())
    with pytest.raises(ValueError, match="got 2$"):
        bt.Face(2, ("a",))
    assert bt.Face(-1, ("a",)) == bt.Face(sign=-1, arrows=("a",))


def test_a_tiling_is_equal_by_its_fields_and_weakly_referenced(spp):
    fields = (spp.vertices, spp.arrows, spp.faces)
    by_position = bt.QuiverOnTorus(*fields)
    by_keyword = bt.QuiverOnTorus(vertices=spp.vertices, arrows=spp.arrows,
                                  faces=spp.faces)
    assert by_position == spp and by_keyword == spp
    assert hash(by_position) == hash(spp) == hash(fields)
    assert spp != fields
    assert by_position != bt.QuiverOnTorus(*fields[:2], spp.faces[::-1])
    assert weakref.ref(spp)() is spp


def test_a_tower_equals_only_itself(towers):
    tower = towers["spp"]
    by_keyword = bt.LatticeTower(**vars(tower))
    by_position = bt.LatticeTower(*vars(tower).values())
    assert vars(by_keyword) == vars(by_position) == vars(tower)
    assert tower == tower
    assert by_keyword != tower and by_position != tower
    assert by_keyword != by_position
    assert weakref.ref(tower)() is tower
