"""Documents, the quiver/dimer dualities, weak paths, and validation."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import branetile as bt

from branetile.tiling import _dimer_from_doc, _tiling_from_doc

from conftest import (ALL_FIXTURES, DEGENERATE_QUIVER, QUIVER_FIXTURES,
                      extract_dimer, fixture_text)

# (dimer document, quiver document it dualizes to)
DIMER_PAIRS = (("honeycomb_dimer", "honeycomb"), ("spp_dimer", "spp"))


def same_up_to_vertex_names(first: bt.QuiverOnTorus,
                            second: bt.QuiverOnTorus) -> bool:
    """Arrow ids must agree; vertices may be renamed; faces must agree
    up to rotation of their cycles."""
    if sorted(a.arrow_id for a in first.arrows) != \
            sorted(a.arrow_id for a in second.arrows):
        return False
    fmap, smap = first.arrow_map, second.arrow_map
    rename: dict = {}
    for aid in fmap:
        a, b = fmap[aid], smap[aid]
        for x, y in ((a.source, b.source), (a.target, b.target)):
            if rename.setdefault(x, y) != y:
                return False
    if len(set(rename.values())) != len(rename):
        return False

    def rotations(cycle):
        return {cycle[i:] + cycle[:i] for i in range(len(cycle))}

    def face_key(tiling):
        return sorted((f.sign, min(rotations(f.arrows)))
                      for f in tiling.faces)

    return face_key(first) == face_key(second)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_every_bundled_document_loads_and_validates(name, tilings):
    report = bt.validate(tilings[name])
    assert report.ok
    assert report.nondegenerate
    assert report.violations == ()


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_load_document_dispatches_quiver(name, tilings):
    assert bt.load_document(fixture_text(name)) == tilings[name]


def test_load_document_rejects_unknown_shape():
    with pytest.raises(bt.TilingFormatError):
        bt.load_document(json.dumps({"nodes": []}))
    with pytest.raises(bt.TilingFormatError):
        bt.load_document("not json at all")
    with pytest.raises(bt.TilingFormatError):
        bt.load_document(json.dumps([1, 2, 3]))


def test_load_document_parses_the_text_once(monkeypatch):
    calls = []
    real = json.loads

    def counting(text, *args, **kwargs):
        calls.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    for name in ALL_FIXTURES:
        calls.clear()
        bt.load_document(fixture_text(name))
        assert len(calls) == 1


MALFORMED_QUIVERS = [
    {"arrows": [], "faces": []},                       # no vertices
    {"vertices": ["1", "1"], "arrows": [], "faces": []},
    {"vertices": ["1"], "arrows": "x", "faces": []},
    {"vertices": ["1"], "arrows": [{"id": "a", "src": "1"}], "faces": []},
    {"vertices": ["1"],
     "arrows": [{"id": "a", "src": "1", "tgt": "2"}], "faces": []},
    {"vertices": ["1"],
     "arrows": [{"id": "a", "src": "1", "tgt": "1"},
                {"id": "a", "src": "1", "tgt": "1"}], "faces": []},
    {"vertices": ["1"], "arrows": [],
     "faces": [{"sign": "x", "cycle": ["a"]}]},
    {"vertices": ["1"], "arrows": [],
     "faces": [{"sign": "+", "cycle": []}]},
    {"vertices": ["1"], "arrows": [],
     "faces": [{"sign": "+", "cycle": ["ghost"]}]},
    {"vertices": ["1"], "faces": []},
    {"vertices": ["1"], "arrows": []},
]


@pytest.mark.parametrize("bad", MALFORMED_QUIVERS[1:])
def test_load_document_reports_parse_tiling_errors(bad):
    # the dispatch passes the quiver parser's message on unchanged
    text = json.dumps(bad)
    with pytest.raises(bt.TilingFormatError) as direct:
        _tiling_from_doc(bad)
    with pytest.raises(bt.TilingFormatError) as loaded:
        bt.load_document(text)
    assert str(loaded.value) == str(direct.value)


MALFORMED_QUIVER_MESSAGES = [
    "document is neither a quiver (no 'vertices' key) "
    "nor a dimer graph (no 'white'/'black' keys)",
    "duplicate vertex id",
    "'arrows' must be a list",
    "arrow missing key 'tgt'",
    "arrow 'a' references an unknown vertex",
    "duplicate arrow id 'a'",
    "face 0 sign must be '+' or '-'",
    "face 0 cycle must be a nonempty list of arrow ids",
    "face 0 references unknown arrow 'ghost'",
    "missing key 'arrows'",
    "missing key 'faces'",
]


@pytest.mark.parametrize("bad,message",
                         zip(MALFORMED_QUIVERS, MALFORMED_QUIVER_MESSAGES,
                             strict=True))
def test_parse_tiling_names_the_first_fault(bad, message):
    with pytest.raises(bt.TilingFormatError) as exc:
        bt.load_document(json.dumps(bad))
    assert str(exc.value) == message


def arrows_doc(*arrows) -> dict:
    return {"vertices": ["1", "2"], "arrows": list(arrows), "faces": []}


def edges_doc(*edges) -> dict:
    return {"white": ["w"], "black": ["b"], "edges": list(edges),
            "rotation": {"w": ["e1"], "b": ["e1"]}}


A = {"id": "a", "src": "1", "tgt": "2"}
E = {"id": "e1", "white": "w", "black": "b"}

# Record faults beyond MALFORMED_QUIVERS.  Each record is checked in
# turn (object, keys, string fields, unique id, then its references), so
# with two faulty records the first one names the error.
MALFORMED_RECORDS = [
    (arrows_doc("a"), "each arrow must be an object"),
    (arrows_doc({"src": "1"}), "arrow missing key 'id'"),
    (arrows_doc(dict(A, tgt=2)), "arrow fields must be strings"),
    (arrows_doc(dict(A, tgt="3"), {"id": "b", "src": "1"}),
     "arrow 'a' references an unknown vertex"),
    (arrows_doc(dict(A, tgt=2), dict(A, tgt="9"), 5),
     "arrow fields must be strings"),
    (arrows_doc(A, dict(A, id="b", tgt="9"), {"id": "b"}),
     "arrow 'b' references an unknown vertex"),
    (dict(edges_doc(), edges={"e1": 1}), "'edges' must be a list"),
    (edges_doc(["e1"]), "each edge must be an object"),
    (edges_doc({"id": "e1", "white": "w"}), "edge missing key 'black'"),
    (edges_doc(dict(E, black=None)), "edge fields must be strings"),
    (edges_doc(E, E), "duplicate edge id 'e1'"),
    (edges_doc(dict(E, white="x")), "edge 'e1': unknown white node 'x'"),
    (edges_doc(dict(E, black="x")), "edge 'e1': unknown black node 'x'"),
    (edges_doc(dict(E, black="x"), {"id": "e2", "white": "x"}),
     "edge 'e1': unknown black node 'x'"),
    (edges_doc(E, dict(E, id="e2", white=0), dict(E, id="e2", white="q")),
     "edge fields must be strings"),
]


@pytest.mark.parametrize("bad,message", MALFORMED_RECORDS)
def test_malformed_records_raise_their_first_fault(bad, message):
    with pytest.raises(bt.TilingFormatError) as exc:
        bt.load_document(json.dumps(bad))
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# dimer duality
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dimer_name,quiver_name", DIMER_PAIRS)
def test_dimer_documents_dualize_to_the_quiver_documents(
        dimer_name, quiver_name, tilings):
    assert same_up_to_vertex_names(tilings[dimer_name], tilings[quiver_name])


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_extract_then_dualize_round_trips(name, tilings):
    tiling = tilings[name]
    back = bt.dualize_dimer(extract_dimer(tiling))
    assert same_up_to_vertex_names(tiling, back)


def test_dualize_rejects_non_toroidal_embeddings():
    # one white and one black node joined by two parallel edges traces
    # a sphere, not a torus; the dual is built and fails only the
    # Euler rule, as a quiver document of that shape would
    doc = {
        "white": ["w"], "black": ["b"],
        "edges": [{"id": "e1", "white": "w", "black": "b"},
                  {"id": "e2", "white": "w", "black": "b"}],
        "rotation": {"w": ["e1", "e2"], "b": ["e1", "e2"]},
    }
    report = bt.validate(bt.load_document(json.dumps(doc)))
    assert report.violations == (
        ("euler", "#vertices - #arrows + #faces = 2, expected 0"),)


def test_parse_dimer_rejects_malformed_rotations():
    base = {
        "white": ["w"], "black": ["b"],
        "edges": [{"id": "e1", "white": "w", "black": "b"},
                  {"id": "e2", "white": "w", "black": "b"}],
    }
    for rotation in ({"w": ["e1", "e2"]},             # node missing
                     {"w": ["e1", "e2"], "b": ["e1"]},  # edge missing
                     {"w": ["e1", "e2"], "b": ["e1", "e2"],
                      "ghost": []}):                  # unknown node
        doc = dict(base, rotation=rotation)
        with pytest.raises(bt.TilingFormatError):
            bt.load_document(json.dumps(doc))


def test_load_document_reports_parse_dimer_errors():
    doc = {
        "white": ["w"], "black": ["b"],
        "edges": [{"id": "e1", "white": "w", "black": "b"}],
        "rotation": {"w": ["e1"]},
    }
    text = json.dumps(doc)
    with pytest.raises(bt.TilingFormatError) as direct:
        _dimer_from_doc(doc)
    with pytest.raises(bt.TilingFormatError) as loaded:
        bt.load_document(text)
    assert str(loaded.value) == str(direct.value) \
        == "rotation missing node 'b'"


# ---------------------------------------------------------------------------
# weak paths
# ---------------------------------------------------------------------------

def test_make_weak_path_composes_steps(spp):
    path = bt.make_weak_path(spp, [("12", 1), ("23", 1), ("31", 1)], "1")
    assert path.source == "1"
    assert path.target == "1"
    assert tuple(aid for aid, _ in path.steps) == ("12", "23", "31")


def test_make_weak_path_inverse_steps_reverse_direction(spp):
    path = bt.make_weak_path(spp, [("12", 1), ("12", -1)], "1")
    assert path.source == "1"
    assert path.target == "1"


def test_make_weak_path_empty_needs_source(spp):
    path = bt.make_weak_path(spp, [], source="2")
    assert path.source == path.target == "2"
    assert path.steps == ()
    with pytest.raises(ValueError):
        bt.make_weak_path(spp, [], source="ghost")


@pytest.mark.parametrize("exponent", [1.0, -1.0, True, Fraction(1)],
                         ids=repr)
def test_make_weak_path_accepts_only_int_exponents(spp, exponent):
    # 1.0 == 1 and True == 1, but their weights would not be integers
    with pytest.raises(ValueError) as exc:
        bt.make_weak_path(spp, [("11", exponent)], "1")
    assert str(exc.value) == (
        f"path exponent must be +1 or -1, got {exponent!r}")


def test_make_weak_path_rejects_bad_steps(spp):
    with pytest.raises(ValueError):
        bt.make_weak_path(spp, [("ghost", 1)], "1")
    with pytest.raises(ValueError):
        bt.make_weak_path(spp, [("12", 2)], "1")
    with pytest.raises(ValueError):
        bt.make_weak_path(spp, [("12", 1), ("12", 1)], "1")  # no composing
    with pytest.raises(ValueError):
        bt.make_weak_path(spp, [("12", 1)], source="3")


# ---------------------------------------------------------------------------
# validation rules
# ---------------------------------------------------------------------------

def broken_rules(doc: dict) -> set:
    report = bt.validate(bt.load_document(json.dumps(doc)))
    assert not report.ok
    return {rule for rule, _ in report.violations}


def test_validate_flags_missing_face_coverage():
    # one loop, no faces: the arrow lies in zero faces of each sign
    # (the Euler count 1 - 1 + 0 still vanishes)
    doc = {"vertices": ["1"],
           "arrows": [{"id": "a", "src": "1", "tgt": "1"}],
           "faces": []}
    rules = broken_rules(doc)
    assert "arrow-face-incidence" in rules
    assert "face-length" in rules


def test_validate_flags_non_cyclic_faces():
    doc = json.loads(fixture_text("conifold"))
    cycle = doc["faces"][0]["cycle"]
    # the cycle alternates between the two vertices; swapping the middle
    # pair breaks head-to-tail composition without changing the counts
    doc["faces"][0]["cycle"] = [cycle[0], cycle[2], cycle[1], cycle[3]]
    assert "face-cycle" in broken_rules(doc)


def test_validate_flags_euler_violation():
    doc = json.loads(fixture_text("conifold"))
    doc["vertices"].append("extra")
    rules = broken_rules(doc)
    assert "euler" in rules
    assert "connected" in rules


def test_validate_flags_disconnected_documents():
    doc = json.loads(fixture_text("conifold"))
    other = json.loads(fixture_text("conifold"))
    doc["vertices"] += [v + "'" for v in other["vertices"]]
    doc["arrows"] += [{"id": a["id"] + "'", "src": a["src"] + "'",
                       "tgt": a["tgt"] + "'"} for a in other["arrows"]]
    doc["faces"] += [{"sign": f["sign"],
                      "cycle": [aid + "'" for aid in f["cycle"]]}
                     for f in other["faces"]]
    assert "connected" in broken_rules(doc)


def test_validate_reports_degenerate_arrows():
    # a3 lies in no perfect matching, though every structural rule holds
    report = bt.validate(bt.load_document(json.dumps(DEGENERATE_QUIVER)))
    assert report.ok and not report.nondegenerate
    # three loops around two triangles: every arrow is in a matching
    doc = {"vertices": ["1"],
           "arrows": [{"id": "a", "src": "1", "tgt": "1"},
                      {"id": "b", "src": "1", "tgt": "1"},
                      {"id": "c", "src": "1", "tgt": "1"}],
           "faces": [{"sign": "+", "cycle": ["a", "b", "c"]},
                     {"sign": "-", "cycle": ["a", "c", "b"]}]}
    report = bt.validate(bt.load_document(json.dumps(doc)))
    assert report.ok
    assert report.nondegenerate


def test_default_paths_refuse_a_disconnected_quiver():
    loop = bt.Arrow("a", "1", "1")
    tiling = bt.QuiverOnTorus(vertices=("1", "2"), arrows=(loop,),
                              faces=(bt.Face(1, ("a",)), bt.Face(-1, ("a",))))
    with pytest.raises(bt.ConsistencyError, match="^quiver is not connected$"):
        bt.default_paths(tiling)


def test_faces_of_refuses_an_arrow_not_in_one_face_of_each_sign():
    # a is in two positive faces, c in a negative face only, and b in
    # one face of each sign
    tiling = bt.QuiverOnTorus(
        vertices=("1",),
        arrows=tuple(bt.Arrow(aid, "1", "1") for aid in "abc"),
        faces=(bt.Face(1, ("a",)), bt.Face(1, ("a", "b")),
               bt.Face(-1, ("b", "c"))))
    for aid in ("a", "c", "ghost"):
        with pytest.raises(bt.ConsistencyError, match=(
                f"^arrow '{aid}' is not in exactly one face of each sign$")):
            tiling.faces_of(aid)
    assert tiling.faces_of("b") == tiling.faces[1:]


def test_validate_can_skip_the_matching_probe(spp):
    report = bt.validate(spp, check_nondegeneracy=False)
    assert report.ok
    assert not report.nondegenerate  # probe skipped, reported false


def test_validate_refuses_a_face_with_an_unknown_arrow(conifold):
    ghost = bt.Face(sign=1, arrows=("ghost",))
    tiling = bt.QuiverOnTorus(vertices=conifold.vertices,
                              arrows=conifold.arrows,
                              faces=conifold.faces + (ghost,))
    n = len(conifold.faces)
    with pytest.raises(bt.TilingFormatError,
                       match=f"^face {n} references unknown arrow 'ghost'$"):
        bt.validate(tiling)


def test_validate_refuses_an_arrow_to_an_unknown_vertex(conifold):
    first = conifold.arrows[0]
    stray = first._replace(target="3")
    tiling = bt.QuiverOnTorus(vertices=conifold.vertices,
                              arrows=(stray,) + conifold.arrows[1:],
                              faces=conifold.faces)
    with pytest.raises(bt.TilingFormatError,
                       match=f"^arrow '{first.arrow_id}' references an "
                             f"unknown vertex$"):
        bt.validate(tiling)


def test_faces_of_returns_positive_face_first(spp):
    for a in spp.arrows:
        plus, minus = spp.faces_of(a.arrow_id)
        assert plus.sign == 1
        assert minus.sign == -1
        assert a.arrow_id in plus.arrows
        assert a.arrow_id in minus.arrows


QUIVER = {"vertices": ["1"], "arrows": [], "faces": []}
DIMER = {"white": ["w"], "black": ["k"],
         "edges": [{"id": "e", "white": "w", "black": "k"}],
         "rotation": {"w": ["e"], "k": ["e"]}}


@pytest.mark.parametrize("doc, message", [
    (dict(QUIVER, vertices=["1", 2]), "'vertices' must be a list of strings"),
    (dict(QUIVER, faces={}), "'faces' must be a list"),
    (dict(QUIVER, faces=["x"]), "each face must be an object"),
    ({k: v for k, v in DIMER.items() if k != "rotation"},
     "missing key 'rotation'"),
    (dict(DIMER, black=["w"]), "duplicate node id"),
    (dict(DIMER, rotation=[["e"], ["e"]]), "'rotation' must be an object"),
    (dict(DIMER, rotation={"w": "e", "k": ["e"]}),
     "rotation at 'w' must be a list of edge ids"),
])
def test_load_document_refuses_malformed_records(doc, message):
    with pytest.raises(bt.TilingFormatError) as exc:
        bt.load_document(json.dumps(doc))
    assert str(exc.value) == message
