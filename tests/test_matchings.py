"""Perfect matchings, plane hulls, and the canonical point multiset."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import struct
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import branetile as bt
from branetile import lattice, matchings, rational
from branetile.errors import ConsistencyError, DegenerateInputError
from branetile.matchings import (_FIELD_CODES, _MAX_PARTIAL_MATCHINGS,
                                 _byte_tables, _field_bias,
                                 _pack_rows, convex_hull_2d,
                                 doubled_area, lattice_points_in_hull)
from branetile.tiling import Arrow, Face, QuiverOnTorus, _nondegenerate

from conftest import (ALL_FIXTURES, QUIVER_FIXTURES, orbifold_text,
                      recursion_headroom, shuffled_orbifold_text,
                      vec_mat_functionals)

EXPECTED_COUNT = {"honeycomb": 3, "conifold": 4, "spp": 6, "z2z2": 9,
                  "honeycomb_dimer": 3, "spp_dimer": 6, "square_dimer": 4}

# arrow sets of the six matchings of the three-vertex tiling, checked
# by hand against the face cycles
SPP_MATCHING_ARROWS = {
    "m1": {"11", "23"},
    "m2": {"11", "32"},
    "m3": {"12", "13"},
    "m4": {"12", "31"},
    "m5": {"13", "21"},
    "m6": {"21", "31"},
}


def brute_force_matchings(tiling) -> set:
    """Independent enumeration: every subset of arrows hitting each face
    exactly once, counted with multiplicity along the face cycle."""
    aids = [a.arrow_id for a in tiling.arrows]
    found = set()
    for bits in itertools.product((0, 1), repeat=len(aids)):
        chosen = {aid for aid, b in zip(aids, bits) if b}
        if all(sum(f.arrows.count(aid) for aid in chosen) == 1
               for f in tiling.faces):
            found.add(frozenset(chosen))
    return found


def arrow_sets(tiling) -> list:
    """:func:`bt.matching_arrow_sets` with each mask read bit by bit
    through ``QuiverOnTorus.arrow_bits`` into a frozenset of arrow
    ids, in the search's order."""
    return [frozenset(aid for aid, k in tiling.arrow_bits.items()
                      if mask >> k & 1)
            for mask in bt.matching_arrow_sets(tiling)]


def recursive_matching_arrow_sets(tiling) -> list:
    """The previous search, kept as a reference: backtracking face by
    face in input order, recursing once per face."""
    faces = list(tiling.faces)
    # count[j] = how many chosen arrows face j currently contains,
    # with multiplicity.
    mult = [
        {aid: face.arrows.count(aid) for aid in set(face.arrows)}
        for face in faces
    ]
    faces_of = {a.arrow_id: [] for a in tiling.arrows}
    for j, face in enumerate(faces):
        for aid in set(face.arrows):
            faces_of[aid].append(j)

    count = [0] * len(faces)
    chosen: set = set()
    found = []

    def extend(j: int) -> None:
        if j == len(faces):
            found.append(frozenset(chosen))
            return
        if count[j] == 1:
            extend(j + 1)
            return
        for aid in sorted(mult[j]):
            if aid in chosen:
                continue
            hits = faces_of[aid]
            if any(count[i] + mult[i][aid] > 1 for i in hits):
                continue
            chosen.add(aid)
            for i in hits:
                count[i] += mult[i][aid]
            extend(j + 1)
            chosen.discard(aid)
            for i in hits:
                count[i] -= mult[i][aid]

    extend(0)
    return sorted(set(found), key=lambda s: tuple(sorted(s)))


def union_nondegenerate(tiling) -> bool:
    """The previous nondegeneracy check, kept as a reference: the union
    of every enumerated matching is the whole arrow set."""
    amap = {a.arrow_id: a for a in tiling.arrows}
    covered = set()
    for arrows in recursive_matching_arrow_sets(tiling):
        covered |= arrows
    return covered == set(amap)


def incidence_tiling(faces: list, n_arrows: int) -> QuiverOnTorus:
    """A one-vertex quiver with the given ``(sign, arrow numbers)``
    faces; only the incidence of arrows and faces matters to the
    matching search."""
    return QuiverOnTorus(
        vertices=("v",),
        arrows=tuple(Arrow(f"a{i}", "v", "v") for i in range(n_arrows)),
        faces=tuple(Face(sign=sign, arrows=tuple(f"a{i}" for i in cycle))
                    for sign, cycle in faces))


@st.composite
def bipartite_incidences(draw):
    """Every arrow in one positive and one negative face, as after the
    structural rules: parallel arrows, empty faces and unequal numbers
    of positive and negative faces all occur; faces come in a random
    order, positive and negative mixed."""
    n_plus = draw(st.integers(0, 5))
    n_minus = draw(st.integers(0, 5))
    ends = []
    if n_plus and n_minus:
        ends = draw(st.lists(st.tuples(st.integers(0, n_plus - 1),
                                       st.integers(0, n_minus - 1)),
                             max_size=12))
    faces = [(1, [i for i, (u, _) in enumerate(ends) if u == j])
             for j in range(n_plus)]
    faces += [(-1, [i for i, (_, v) in enumerate(ends) if v == j])
              for j in range(n_minus)]
    faces = [(sign, draw(st.permutations(cycle))) for sign, cycle in faces]
    order = draw(st.permutations(range(len(faces))))
    return incidence_tiling([faces[j] for j in order], len(ends))


@st.composite
def multiset_incidences(draw):
    """Faces as arbitrary arrow lists: an arrow may be repeated in one
    face, lie in any number of faces, or in none."""
    n_arrows = draw(st.integers(0, 8))
    cycle = st.lists(st.integers(0, n_arrows - 1), max_size=5) \
        if n_arrows else st.just([])
    faces = draw(st.lists(st.tuples(st.sampled_from((1, -1)), cycle),
                          max_size=6))
    return incidence_tiling(faces, n_arrows)


def points_strategy():
    return st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                    min_size=1, max_size=8)


@st.composite
def plane_unimodular(draw):
    """A 2x2 integer matrix of determinant +-1, from shears and swaps."""
    m = [[1, 0], [0, 1]]
    for _ in range(draw(st.integers(0, 5))):
        q = draw(st.integers(-3, 3))
        if draw(st.booleans()):
            m[0] = [m[0][0] + q * m[1][0], m[0][1] + q * m[1][1]]
        else:
            m[1] = [m[1][0] + q * m[0][0], m[1][1] + q * m[0][1]]
    if draw(st.booleans()):
        m[0], m[1] = m[1], m[0]
    if draw(st.booleans()):
        m[0] = [-m[0][0], -m[0][1]]
    return m


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_enumeration_matches_brute_force(name, tilings):
    tiling = tilings[name]
    sets = arrow_sets(tiling)
    assert len(sets) == len(set(sets))  # no duplicates
    assert set(sets) == brute_force_matchings(tiling)
    assert len(sets) == EXPECTED_COUNT[name]


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_enumeration_order_and_ids_are_deterministic(name, tilings):
    tiling = tilings[name]
    first = bt.enumerate_perfect_matchings(tiling)
    second = bt.enumerate_perfect_matchings(tiling)
    assert [(m.matching_id, m.arrows) for m in first] \
        == [(m.matching_id, m.arrows) for m in second]
    keys = [tuple(sorted(m.arrows)) for m in first]
    assert keys == sorted(keys)
    assert [m.matching_id for m in first] \
        == [f"m{i + 1}" for i in range(len(first))]


@settings(max_examples=300)
@given(bipartite_incidences())
def test_search_and_nondegeneracy_match_the_previous_routes(tiling):
    assert arrow_sets(tiling) == recursive_matching_arrow_sets(tiling)
    assert _nondegenerate(tiling) == union_nondegenerate(tiling)


@settings(max_examples=200)
@given(multiset_incidences())
def test_search_keeps_the_multiplicity_rules(tiling):
    assert arrow_sets(tiling) == recursive_matching_arrow_sets(tiling)


def test_nondegeneracy_finds_an_arrow_outside_every_matching():
    # Faces P1, P2 and N1, N2: P1 meets only N1, so the arrow P2-N1
    # can never be completed to a perfect matching.
    tiling = incidence_tiling([(1, [0]), (1, [1, 2]), (-1, [0, 1]),
                               (-1, [2])], 3)
    assert arrow_sets(tiling) == [frozenset({"a0", "a2"})]
    assert not _nondegenerate(tiling)
    # Without any perfect matching only an arrowless tiling counts.
    assert not _nondegenerate(incidence_tiling([(1, [0]), (-1, [0]),
                                                (-1, [])], 1))
    assert _nondegenerate(incidence_tiling([], 0))


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 3), (4, 5), (5, 5)])
def test_search_does_not_depend_on_face_order(n, m):
    want = bt.matching_arrow_sets(bt.load_document(orbifold_text(n, m)))
    for seed in range(3 if n * m < 20 else 2):
        tiling = bt.load_document(shuffled_orbifold_text(n, m, seed))
        assert bt.matching_arrow_sets(tiling) == want


def test_five_by_five_matchings_are_pinned():
    # SHA-256 of the sorted arrow-id tuples, in order, as the previous
    # search gave them
    found = arrow_sets(bt.load_document(orbifold_text(5, 5)))
    digest = hashlib.sha256(repr([tuple(sorted(s)) for s in found]).encode())
    assert digest.hexdigest() == (
        "f9c599cea2bc1cae7614cac5de86cf5f5984a5b050956764f8ca6f65c3f55697")


def test_five_by_six_matchings_are_pinned():
    # the same digest, recorded from the depth-first search with a set
    # of dead met masks that the layered search replaced
    found = arrow_sets(bt.load_document(orbifold_text(5, 6)))
    assert len(found) == 38405
    digest = hashlib.sha256(repr([tuple(sorted(s)) for s in found]).encode())
    assert digest.hexdigest() == (
        "86d321353fd4f149a7bdecc385b0fc0ce60d91d913eb4b65a52a06fabb93b6a9")


@pytest.mark.parametrize("k", range(1, 13))
def test_the_one_by_k_orbifold_has_two_to_the_k_plus_one_matchings(k):
    # C^3/Z_k: the k + 1 lattice points of one diagram edge carry the
    # binomial counts C(k, i), and the hull vertex opposite it one
    masks = bt.matching_arrow_sets(bt.load_document(orbifold_text(1, k)))
    assert len(set(masks)) == len(masks) == 2 ** k + 1


def test_exponentially_many_matchings_are_refused_quickly():
    # 1x22 has 2^22 + 1 matchings, more than the search may hold; the
    # refusal comes while the partial matchings are still growing
    tiling = bt.load_document(orbifold_text(1, 22))
    start = time.process_time()
    with pytest.raises(DegenerateInputError,
                       match=f"at most {_MAX_PARTIAL_MATCHINGS} partial"):
        bt.matching_arrow_sets(tiling)
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("seed", [None, 3, 11])
def test_six_by_six_fits_a_quarter_of_the_partial_matching_limit(
        monkeypatch, seed):
    # The face order keeps the frontier narrow: 6x6 holds at most 306 652
    # partial matchings at once in each of these face orders.  Breadth-
    # first order held 1 822 102 in generator order and was refused at
    # 2^20.  SHA-256 of the mask list, as breadth-first order gave it.
    monkeypatch.setattr(matchings, "_MAX_PARTIAL_MATCHINGS", 1 << 19)
    text = (orbifold_text(6, 6) if seed is None
            else shuffled_orbifold_text(6, 6, seed))
    masks = bt.matching_arrow_sets(bt.load_document(text))
    assert len(masks) == 263640
    assert hashlib.sha256(repr(masks).encode()).hexdigest() == (
        "4a52f048b6012d6c00c78ff5936873ccba8a2b2c65bf5a4c9a97c7f6cb9891f0")


def renamed_orbifold_text(n: int, m: int, seed: int) -> str:
    """:func:`orbifold_text` with its arrows renamed ``a0``, ``a1``, ...
    in a seeded random order, so that sorted arrow ids, and with them
    the arrow bits, no longer follow the generator's x, y, z blocks."""
    doc = json.loads(orbifold_text(n, m))
    names = [f"a{k}" for k in range(len(doc["arrows"]))]
    random.Random(seed).shuffle(names)
    new = {arrow["id"]: name for arrow, name in zip(doc["arrows"], names)}
    for arrow in doc["arrows"]:
        arrow["id"] = new[arrow["id"]]
    for face in doc["faces"]:
        face["cycle"] = [new[aid] for aid in face["cycle"]]
    return json.dumps(doc)


@pytest.mark.parametrize("text, n_arrows", [
    (orbifold_text(2, 4), 24), (orbifold_text(3, 3), 27),
    (orbifold_text(4, 4), 48), (orbifold_text(4, 5), 60),
    (renamed_orbifold_text(3, 3, 5), 27),
], ids=["2x4", "3x3", "4x4", "4x5", "3x3-renamed"])
def test_matchings_come_in_the_order_of_their_sorted_arrow_ids(text,
                                                               n_arrows):
    tiling = bt.load_document(text)
    order = tuple(tiling.arrow_bits)
    assert len(order) == n_arrows

    def arrow_ids(mask):
        return tuple(sorted(order[k] for k in range(n_arrows)
                            if mask >> k & 1))

    masks = bt.matching_arrow_sets(tiling)
    assert len(set(masks)) == len(masks)
    assert masks == sorted(masks, key=arrow_ids)


ORBIFOLD_DOCUMENTS = {
    "2x4": lambda: orbifold_text(2, 4),
    "3x3": lambda: orbifold_text(3, 3),
    "3x3-shuffled": lambda: shuffled_orbifold_text(3, 3, 11),
    "4x4": lambda: orbifold_text(4, 4),
    "4x5": lambda: orbifold_text(4, 5),
}


@pytest.mark.parametrize("name", ALL_FIXTURES + tuple(ORBIFOLD_DOCUMENTS))
def test_functionals_match_the_section_product(name, tilings):
    tiling = (bt.load_document(ORBIFOLD_DOCUMENTS[name]())
              if name in ORBIFOLD_DOCUMENTS else tilings[name])
    tower = bt.build_lattice_tower(tiling)
    for m in bt.enumerate_perfect_matchings(tiling, tower):
        assert m.chi_kernel == vec_mat_functionals(tower, m.arrows)[1]


def perturbed(tower, section=False, face_cycle=False, kernel=False):
    """``tower`` with some of its functional data off by design:
    ``section`` adds 1 to the face-cycle generator's row at the first
    coordinate some arrow weight uses, so every matching's functional moves
    off its arrows; ``face_cycle`` doubles the face-cycle weight;
    ``kernel`` doubles the kernel basis column that gives the height.
    The arrow check alone sees a wrong section: the face-cycle weight
    is a sum of arrow weights and the height column is the face-cycle
    weight, so the two later checks only fire on a tower whose own
    weights disagree."""
    changes = {}
    if section:
        c = next(c for c in range(tower.rank)
                 if any(w[c] for w in tower.weights.values()))
        rows = [list(row) for row in tower.section]
        rows[0][c] += 1
        changes["section"] = tuple(tuple(row) for row in rows)
    if face_cycle:
        changes["face_cycle_weight"] = tuple(
            2 * x for x in tower.face_cycle_weight)
    if kernel:
        changes["kernel_basis"] = tuple(
            (row[0], row[1], 2 * row[2]) for row in tower.kernel_basis)
    return bt.LatticeTower(**{**vars(tower), **changes})


@pytest.mark.parametrize("faults, message", [
    ({"section": True}, "disagrees with arrow weights"),
    ({"face_cycle": True}, "not 1 on the face-cycle weight"),
    ({"kernel": True}, "not at height one over the plane"),
    ({"section": True, "face_cycle": True, "kernel": True},
     "disagrees with arrow weights"),
    ({"face_cycle": True, "kernel": True}, "not 1 on the face-cycle weight"),
])
def test_functional_checks_fire_in_order(faults, message, spp, towers):
    with pytest.raises(ConsistencyError, match=message):
        bt.enumerate_perfect_matchings(spp, perturbed(towers["spp"], **faults))


def test_the_matching_search_refuses_the_tower_of_another_tiling(spp,
                                                                towers):
    # the search reads the tiling's arrow bits by the tower's arrow ids,
    # so it checks the tower first; ids in another order are refused too
    spp_tower = towers["spp"]
    reordered = bt.LatticeTower(**{**vars(spp_tower), "vertex_ids": tuple(
        reversed(spp_tower.vertex_ids))})
    for other in (towers["conifold"], towers["z2z2"], reordered):
        with pytest.raises(ValueError, match="tower is not the tiling's"):
            bt.enumerate_perfect_matchings(spp, other)
        with pytest.raises(ValueError, match="tower is not the tiling's"):
            bt.toric_diagram(spp, other)


def test_a_wrong_section_row_at_the_top_arrow_bit_is_seen():
    # 27 arrows: the last arrow bit is the top of the last, partial byte
    tiling = bt.load_document(orbifold_text(3, 3))
    tower = bt.build_lattice_tower(tiling)
    top = max(tiling.arrow_bits, key=tiling.arrow_bits.get)
    assert tiling.arrow_bits[top] == 26
    c = next(c for c in range(tower.rank)
             if any(w[c] for w in tower.weights.values()))
    rows = [list(row) for row in tower.section]
    rows[1 + tower.arrow_ids.index(top)][c] += 1
    wrong = bt.LatticeTower(**{**vars(tower),
                               "section": tuple(map(tuple, rows))})
    with pytest.raises(ConsistencyError,
                       match="disagrees with arrow weights"):
        bt.enumerate_perfect_matchings(tiling, wrong)


def test_a_table_beyond_64_bit_fields_raises(spp, towers):
    tower = towers["spp"]
    rows = [list(row) for row in tower.section]
    rows[1][0] = 1 << 63
    wide = bt.LatticeTower(**{**vars(tower),
                              "section": tuple(map(tuple, rows))})
    with pytest.raises(ConsistencyError, match="beyond a 64-bit field"):
        bt.enumerate_perfect_matchings(spp, wide)
    with pytest.raises(ConsistencyError, match=str(1 << 63)):
        _pack_rows([[1 << 62], [-(1 << 62)]])


@pytest.mark.parametrize("table, width", [
    ([], 8), ([[0, 0]], 8), ([[127], [0]], 8), ([[100], [-28]], 16),
    ([[-(1 << 15) + 1]], 16), ([[1 << 15]], 32), ([[1, -(1 << 31)]], 64),
    ([[(1 << 62) - 1], [-(1 << 62)]], 64),
])
def test_field_width_is_the_smallest_that_holds_every_column(table, width):
    assert _pack_rows(table)[0] == width


def signed_fields(packed: int, width: int, count: int) -> list:
    """Reference reading of a packed int: peel off the lowest field as
    a signed value, subtract it and shift, ``count`` times."""
    half, mask = 1 << width - 1, (1 << width) - 1
    fields = []
    for _ in range(count):
        f = ((packed + half) & mask) - half
        fields.append(f)
        packed = (packed - f) >> width
    assert packed == 0
    return fields


@st.composite
def packable_tables(draw):
    """Integer tables with negative entries and zero rows, at one of
    four magnitudes, so that 1-, 2-, 4- and 8-byte fields all occur
    (and tables too wide for any), with a subset of their rows."""
    bits = draw(st.sampled_from((5, 13, 29, 61)))
    n_cols = draw(st.integers(1, 5))
    entries = st.lists(st.integers(-(1 << bits), 1 << bits),
                       min_size=n_cols, max_size=n_cols)
    rows = draw(st.lists(entries | st.just([0] * n_cols), min_size=1,
                         max_size=5))
    return rows, draw(st.lists(st.booleans(), min_size=len(rows),
                               max_size=len(rows)))


@settings(max_examples=300)
@given(packable_tables())
def test_packed_sums_are_the_column_sums(case):
    table, chosen = case
    bound = max(sum(map(abs, column)) for column in zip(*table))
    if bound >= 1 << 63:
        with pytest.raises(ConsistencyError):
            _pack_rows(table)
        return
    width, packed = _pack_rows(table)
    assert bound < 1 << width - 1
    assert width == 8 or bound >= 1 << width // 2 - 1
    picked = [i for i, keep in enumerate(chosen) if keep]
    want = [sum(table[i][j] for i in picked) for j in range(len(table[0]))]
    total = sum(packed[i] for i in picked)
    count = len(want)
    assert signed_fields(total, width, count) == want
    bias = _field_bias(width, count)
    read = struct.unpack(f"<{count}{_FIELD_CODES[width]}",
                         ((total + bias) ^ bias).to_bytes(count * width // 8,
                                                          "little"))
    assert list(read) == want


@st.composite
def rows_and_masks(draw):
    """0 to 20 rows, signed and wider than 64 bits, with a few masks
    over their bits."""
    n = draw(st.integers(0, 20))
    rows = draw(st.lists(st.integers(-(1 << 80), 1 << 80), min_size=n,
                         max_size=n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                          max_size=6))
    return rows, masks


@settings(max_examples=300)
@given(rows_and_masks())
@example(([], [0]))
@example((list(range(1, 9)), [0, 0x01, 0x80, 0xFF]))
@example((list(range(-8, 8)), [0, 0x0100, 0x8001, 0xFFFF]))
def test_byte_table_lookups_are_the_sums_of_the_rows_at_set_bits(case):
    rows, masks = case
    tables = _byte_tables(rows)
    assert [len(t) for t in tables] == [
        1 << min(8, len(rows) - start) for start in range(0, len(rows), 8)]
    for mask in masks:
        looked_up = sum(map(list.__getitem__, tables,
                            mask.to_bytes(len(tables), "little")))
        assert looked_up == sum(rows[k] for k in range(len(rows))
                                if mask >> k & 1)


def recursive_xgcd(x: int, y: int) -> tuple:
    """``(g, a, b)`` with ``a * x + b * y == g``: the extended Euclid
    whose Bezout pair the previous ``_edge_frame_form`` used."""
    if y == 0:
        return (abs(x), 1 if x > 0 else -1, 0)
    g, a, b = recursive_xgcd(y, x % y)
    return (g, b, a - (x // y) * b)


def test_search_and_validation_need_no_deep_recursion():
    tiling = bt.load_document(orbifold_text(5, 5))
    shuffled = bt.load_document(shuffled_orbifold_text(5, 5, 11))
    with recursion_headroom(30):
        found = bt.matching_arrow_sets(tiling)
        found_shuffled = bt.matching_arrow_sets(shuffled)
        report = bt.validate(tiling)
    assert len(found) == 7623
    assert found_shuffled == found
    assert report.ok and report.nondegenerate


def test_three_vertex_tiling_has_the_six_expected_matchings(
        spp, matchings_by_name):
    matchings = matchings_by_name["spp"]
    assert {m.matching_id: set(m.arrows) for m in matchings} \
        == SPP_MATCHING_ARROWS


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_matchings_hold_their_search_masks_and_decode_them(name, tilings):
    tiling = tilings[name]
    matchings = bt.enumerate_perfect_matchings(tiling)
    assert [m.mask for m in matchings] == bt.matching_arrow_sets(tiling)
    assert [m.arrows for m in matchings] == arrow_sets(tiling)
    order = tuple(sorted(tiling.arrow_map))
    for m in matchings:
        assert m.arrow_order == order
        assert m.arrow_order is matchings[0].arrow_order
        assert not any(isinstance(getattr(m, field), (set, frozenset))
                       for field in m._fields)


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_matching_functionals_indicate_their_arrows(name, tilings, towers,
                                                    matchings_by_name):
    tiling, tower = tilings[name], towers[name]
    for m in matchings_by_name[name]:
        chi, _ = vec_mat_functionals(tower, m.arrows)
        for aid in tower.arrow_ids:
            expected = 1 if aid in m.arrows else 0
            assert lattice.dot(chi, tower.weights[aid]) == expected
        assert lattice.dot(chi, tower.face_cycle_weight) == 1


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_kernel_restriction_sits_at_height_one(name, towers,
                                               matchings_by_name):
    tower = towers[name]
    for m in matchings_by_name[name]:
        chi, _ = vec_mat_functionals(tower, m.arrows)
        restricted = tuple(
            sum(chi[i] * tower.kernel_basis[i][j]
                for i in range(tower.rank))
            for j in range(3))
        assert restricted == m.chi_kernel
        assert m.chi_kernel[2] == 1
        assert m.point == m.chi_kernel[:2]


@pytest.mark.parametrize("name", ALL_FIXTURES + tuple(ORBIFOLD_DOCUMENTS))
def test_enumerated_records_are_perfect_matchings_equal_to_the_reference(
        name, tilings):
    # the records are built positionally; each must be the named tuple
    # that the keyword constructor builds from the reference functional
    tiling = (bt.load_document(ORBIFOLD_DOCUMENTS[name]())
              if name in ORBIFOLD_DOCUMENTS else tilings[name])
    tower = bt.build_lattice_tower(tiling)
    order = tuple(sorted(tiling.arrow_map))
    found = bt.enumerate_perfect_matchings(tiling, tower)
    assert len(found) == len(bt.matching_arrow_sets(tiling))
    for n, (m, arrows) in enumerate(zip(found, arrow_sets(tiling)), 1):
        assert type(m) is bt.PerfectMatching
        assert m == bt.PerfectMatching(
            matching_id=f"m{n}",
            mask=sum(1 << tiling.arrow_bits[aid] for aid in arrows),
            arrow_order=order,
            chi_kernel=vec_mat_functionals(tower, arrows)[1])


def bin_set_bits(mask: int) -> list:
    """The previous ``set_bits``, kept as a reference: the positions of
    the ones in the binary string, read from its low end."""
    return [k for k, digit in enumerate(reversed(bin(mask))) if digit == "1"]


@given(st.integers(0, 1 << 130))
@example(0)
@example(1)
@example(255 << 8)
@example((1 << 108) - 1)
def test_set_bits_reads_the_bits_of_the_binary_string(mask):
    assert matchings.set_bits(mask) == bin_set_bits(mask)


@pytest.mark.parametrize("name", ALL_FIXTURES + ("4x4",))
def test_a_masks_ids_in_bit_order_are_its_sorted_arrows(name, tilings):
    # what the matchings verb prints, with no sort of its own
    tiling = (bt.load_document(ORBIFOLD_DOCUMENTS[name]())
              if name in ORBIFOLD_DOCUMENTS else tilings[name])
    for m in bt.enumerate_perfect_matchings(tiling):
        assert [m.arrow_order[k] for k in matchings.set_bits(m.mask)] \
            == sorted(m.arrows)


# ---------------------------------------------------------------------------
# hulls and areas
# ---------------------------------------------------------------------------

@given(points_strategy())
def test_hull_is_convex_and_contains_everything(pts):
    hull = bt.convex_hull_2d(pts)
    assert set(hull) <= set(map(tuple, pts))
    if len(hull) >= 3:
        n = len(hull)
        for i in range(n):
            o, p, q = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
            assert bt.matchings.cross(o, p, q) > 0  # strictly convex, ccw
        for pt in pts:
            for o, p in zip(hull, hull[1:] + hull[:1]):
                assert bt.matchings.cross(o, p, pt) >= 0
    elif len(hull) == 2:
        a, b = hull
        for pt in pts:
            assert bt.matchings.cross(a, b, pt) == 0
    else:
        assert len(set(map(tuple, pts))) == 1


def test_hull_fixed_examples():
    assert bt.convex_hull_2d([(0, 0), (2, 0), (1, 0), (1, 1)]) \
        == [(0, 0), (2, 0), (1, 1)]
    assert bt.convex_hull_2d([(0, 0), (1, 1), (2, 2)]) == [(0, 0), (2, 2)]
    assert bt.convex_hull_2d([(5, 5), (5, 5)]) == [(5, 5)]


def test_the_hull_of_collinear_points_is_their_two_end_points():
    for step in [(1, 0), (0, 1), (1, 1), (2, -3), (-1, 2)]:
        for count in range(2, 8):
            line = [(1 + t * step[0], -2 + t * step[1]) for t in range(count)]
            shuffled = line[1::2] + line[::2][::-1]
            assert bt.convex_hull_2d(shuffled) == sorted([line[0], line[-1]])


def test_doubled_area_fixed_examples():
    assert doubled_area([(0, 0), (1, 0), (0, 1)]) == 1
    assert doubled_area([(0, 0), (1, 0), (1, 1), (0, 1)]) == 2
    assert doubled_area([(0, 0), (3, 0), (0, 3)]) == 9


def test_lattice_points_fixed_examples():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert sorted(lattice_points_in_hull(square)) \
        == [(0, 0), (0, 1), (1, 0), (1, 1)]
    triangle = [(0, 0), (2, 0), (0, 2)]
    assert len(lattice_points_in_hull(triangle)) == 6
    assert lattice_points_in_hull([(3, 4)]) == [(3, 4)]
    assert sorted(lattice_points_in_hull([(0, 0), (2, 2)])) \
        == [(0, 0), (1, 1), (2, 2)]


@given(points_strategy())
def test_lattice_points_match_a_direct_filter(pts):
    # Pick's theorem counts the points from the edges alone: with 2A the
    # shoelace sum and B the lattice points on the boundary,
    # #points = A + B/2 + 1 = (2A + B)/2 + 1
    hull = bt.convex_hull_2d(pts)
    if len(hull) < 3:
        return
    edges = list(zip(hull, hull[1:] + hull[:1]))
    twice_area = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in edges)
    boundary = sum(math.gcd(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in edges)
    found = lattice_points_in_hull(hull)
    assert len(set(found)) == len(found)
    assert set(hull) <= set(found)
    assert len(found) == (twice_area + boundary) // 2 + 1


@st.composite
def hull_point_sets(draw):
    """Random plane point sets, half of them on one line through a
    drawn point, which may leave a single point."""
    pts = draw(points_strategy())
    if draw(st.booleans()):
        (x, y), (dx, dy) = pts[0], draw(st.tuples(st.integers(-3, 3),
                                                  st.integers(-3, 3)))
        steps = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6))
        pts = [(x + t * dx, y + t * dy) for t in steps]
    return pts


@given(hull_point_sets())
def test_lattice_points_are_those_that_leave_the_hull_unchanged(pts):
    hull = bt.convex_hull_2d(pts)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    expected = [
        (x, y)
        for x in range(min(xs) - 1, max(xs) + 2)
        for y in range(min(ys) - 1, max(ys) + 2)
        if bt.convex_hull_2d(pts + [(x, y)]) == hull
    ]
    assert lattice_points_in_hull(hull) == expected


# ---------------------------------------------------------------------------
# canonical form of a point multiset
# ---------------------------------------------------------------------------

def previous_edge_frame_form(pts: list, v0: tuple, v1: tuple) -> tuple:
    """The previous ``_edge_frame_form``, kept as a reference: it moves
    every point of the multiset, repeats included."""
    u = rational.integerize((v1[0] - v0[0], v1[1] - v0[1]))
    # (-b, a) completes u to a positively oriented lattice basis; the
    # map below is the inverse of that basis matrix.
    _, a, b = recursive_xgcd(u[0], u[1])
    moved = []
    for x, y in pts:
        dx, dy = x - v0[0], y - v0[1]
        moved.append((a * dx + b * dy, -u[1] * dx + u[0] * dy))
    levels = sorted({y for _, y in moved if y > 0})
    if levels:
        low = levels[0]
        xmin = min(x for x, y in moved if y == low)
        k = -(xmin // low)
        moved = [(x + k * y, y) for x, y in moved]
    return tuple(sorted(moved))


def previous_canonical_point_multiset(points) -> tuple:
    """The previous ``canonical_point_multiset``, kept as a reference:
    one sorted form of the whole multiset per directed hull edge."""
    pts = [tuple(p) for p in points]
    if not pts:
        return ()
    hull = convex_hull_2d(pts)
    if len(hull) == 1:
        return tuple((0, 0) for _ in pts)
    if len(hull) == 2:
        (x0, y0), (x1, y1) = hull
        u = rational.integerize((x1 - x0, y1 - y0))
        # Integer coordinate of each point along the primitive direction.
        if u[0] != 0:
            ts = [(x - x0) // u[0] for x, _ in pts]
        else:
            ts = [(y - y0) // u[1] for _, y in pts]
        top = max(ts)
        forward = sorted(ts)
        backward = sorted(top - t for t in ts)
        return tuple((t, 0) for t in min(forward, backward))
    best = None
    for mirrored in (False, True):
        image = [(x, -y) for x, y in pts] if mirrored else pts
        ring = convex_hull_2d(image)
        for i, v0 in enumerate(ring):
            form = previous_edge_frame_form(image, v0,
                                            ring[(i + 1) % len(ring)])
            if best is None or form < best:
                best = form
    return best


@st.composite
def repeated_points(draw):
    """A few distinct points, each repeated up to 30 times, shuffled."""
    distinct = draw(st.lists(st.tuples(st.integers(-4, 4),
                                       st.integers(-4, 4)),
                             min_size=1, max_size=7, unique=True))
    pts = [p for p in distinct for _ in range(draw(st.integers(1, 30)))]
    return draw(st.permutations(pts))


@settings(max_examples=300)
@given(repeated_points())
def test_canonical_form_matches_the_previous_route(pts):
    assert bt.canonical_point_multiset(pts) \
        == previous_canonical_point_multiset(pts)


@st.composite
def collinear_repeated_points(draw):
    """Three to six distinct points on one line, each repeated two to
    five times, shuffled."""
    x, y = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    dx, dy = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))
                  .filter(any))
    steps = draw(st.lists(st.integers(-4, 4), min_size=3, max_size=6,
                          unique=True))
    pts = [(x + t * dx, y + t * dy) for t in steps
           for _ in range(draw(st.integers(2, 5)))]
    return draw(st.permutations(pts))


@settings(max_examples=200)
@given(collinear_repeated_points())
def test_canonical_form_of_a_collinear_multiset_matches_the_previous_route(
        pts):
    assert bt.canonical_point_multiset(pts) \
        == previous_canonical_point_multiset(pts)


@given(points_strategy(), plane_unimodular(),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_canonical_form_is_affine_unimodular_invariant(pts, mat, shift):
    moved = [(mat[0][0] * x + mat[0][1] * y + shift[0],
              mat[1][0] * x + mat[1][1] * y + shift[1]) for x, y in pts]
    assert bt.canonical_point_multiset(moved) \
        == bt.canonical_point_multiset(pts)


@given(points_strategy())
def test_canonical_form_is_idempotent_and_size_preserving(pts):
    form = bt.canonical_point_multiset(pts)
    assert len(form) == len(pts)
    assert bt.canonical_point_multiset(form) == form


def test_canonical_form_degenerate_cases():
    assert bt.canonical_point_multiset([]) == ()
    assert bt.canonical_point_multiset([(7, -3)]) == ((0, 0),)
    assert bt.canonical_point_multiset([(5, 5), (5, 5)]) == ((0, 0), (0, 0))
    # collinear points land on the first axis, translation-normalized
    form = bt.canonical_point_multiset([(0, 0), (2, 4), (1, 2)])
    assert form == ((0, 0), (1, 0), (2, 0))


def test_canonical_form_separates_inequivalent_multisets():
    triangle = [(0, 0), (1, 0), (0, 1)]
    bigger = [(0, 0), (2, 0), (0, 1)]
    assert bt.canonical_point_multiset(triangle) \
        != bt.canonical_point_multiset(bigger)


# ---------------------------------------------------------------------------
# toric diagrams of the bundled tilings
# ---------------------------------------------------------------------------

EXPECTED_HULL_SIZE = {"honeycomb": 3, "conifold": 4, "spp": 4, "z2z2": 3}
EXPECTED_EXTREMAL = {
    "honeycomb": {"m1", "m2", "m3"},
    "conifold": {"m1", "m2", "m3", "m4"},
    "spp": {"m1", "m2", "m4", "m5"},
    "z2z2": {"m3", "m5", "m6"},
}


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_diagram_shape(name, tilings, towers, matchings_by_name):
    diagram = bt.toric_diagram(tilings[name], towers[name],
                               matchings_by_name[name])
    assert len(diagram.points) == EXPECTED_COUNT[name]
    assert len(diagram.hull) == EXPECTED_HULL_SIZE[name]
    assert set(diagram.extremal_ids) == EXPECTED_EXTREMAL[name]
    assert diagram.canonical \
        == bt.canonical_point_multiset(p for _, p in diagram.points)


@pytest.mark.parametrize("n, m", [(1, 2), (2, 2), (1, 5), (2, 3), (3, 3),
                                  (3, 4), (2, 5), (4, 4), (4, 5)])
def test_orbifold_diagram_is_the_closed_form_triangle(n, m):
    # the diagram of C^3/(Z_n x Z_m) has doubled area n * m, and the
    # k-th lattice point of a hull edge of lattice length L carries
    # C(L, k) matchings
    diagram = bt.toric_diagram(bt.load_document(orbifold_text(n, m)))
    counts = Counter(p for _, p in diagram.points)
    hull = list(diagram.hull)
    assert len(hull) == 3
    assert doubled_area(hull) == n * m
    for p, q in zip(hull, hull[1:] + hull[:1]):
        length = math.gcd(q[0] - p[0], q[1] - p[1])
        step = ((q[0] - p[0]) // length, (q[1] - p[1]) // length)
        assert [counts[(p[0] + k * step[0], p[1] + k * step[1])]
                for k in range(length + 1)] \
            == [math.comb(length, k) for k in range(length + 1)]


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_extremal_matchings_sit_on_hull_vertices(name, tilings, towers,
                                                 matchings_by_name):
    matchings = matchings_by_name[name]
    diagram = bt.toric_diagram(tilings[name], towers[name], matchings)
    hull = set(diagram.hull)
    for m in matchings:
        assert (m.point in hull) == (m.matching_id in diagram.extremal_ids)


def point_matchings(points) -> list:
    """Hand-made records at ``points``, with ids ``m1``, ``m2``, ...:
    :func:`bt.toric_diagram` reads only their ids and kernel points."""
    return [bt.PerfectMatching(matching_id=f"m{i}", mask=0, arrow_order=(),
                               chi_kernel=(x, y, 1))
            for i, (x, y) in enumerate(points, 1)]


POINT_MULTISETS = {
    "shuffled": random.Random(3).sample(
        [(0, 0)] * 3 + [(1, 0)] * 2 + [(2, 1), (0, 2), (1, 1), (1, 1)], 9),
    "one-point": [(4, -1)] * 5,
    "collinear": [(2, 2), (0, 0), (1, 1), (1, 1), (3, 3)],
    "empty": [],
}


@pytest.mark.parametrize("name", list(POINT_MULTISETS))
def test_the_diagram_counts_each_distinct_point_once(name, spp):
    points = POINT_MULTISETS[name]
    diagram = bt.toric_diagram(spp, None, point_matchings(points))
    ids = tuple(f"m{i}" for i in range(1, len(points) + 1))
    assert diagram.points == tuple(zip(ids, points))
    assert diagram.hull == tuple(bt.convex_hull_2d(points))
    assert diagram.canonical == bt.canonical_point_multiset(points)
    assert diagram.canonical == previous_canonical_point_multiset(points)
    assert bt.canonical_point_multiset(Counter(points)) == diagram.canonical
    hull = set(diagram.hull)
    assert diagram.extremal_ids == tuple(
        i for i, p in zip(ids, points) if p in hull)


@given(pts=points_strategy(), rng=st.randoms(use_true_random=False))
def test_the_diagram_of_shuffled_points_is_their_hull_and_form(spp, pts,
                                                               rng):
    points = pts * 2
    rng.shuffle(points)
    diagram = bt.toric_diagram(spp, None, point_matchings(points))
    assert diagram.hull == tuple(bt.convex_hull_2d(points))
    assert diagram.canonical == bt.canonical_point_multiset(points)
