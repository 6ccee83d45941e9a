"""Integer linear algebra and the weight-lattice tower."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import branetile as bt
from branetile import lattice, matchings, rational
from branetile.tilting import weak_path_weight

from conftest import (QUIVER_FIXTURES, dense_product, document_text,
                      int_det, shuffled_orbifold_text)

# weight-lattice rank is #vertices + 2
EXPECTED_RANK = {"honeycomb": 3, "conifold": 4, "spp": 5, "z2z2": 6}


def matrices(max_dim=4, max_entry=9):
    def shape(dims):
        r, c = dims
        return st.lists(
            st.lists(st.integers(-max_entry, max_entry),
                     min_size=c, max_size=c),
            min_size=r, max_size=r)
    return st.tuples(st.integers(1, max_dim),
                     st.integers(1, max_dim)).flatmap(shape)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_smith_form_fixed_example():
    mat = [[2, 4], [6, 8]]
    u, s, v = bt.smith_normal_form(mat)
    assert s == [[2, 0], [0, 4]]
    assert lattice.mat_mul(lattice.mat_mul(u, mat), v) == s


def test_invariant_factors_fixed_examples():
    assert bt.invariant_factors([[2, 4], [6, 8]]) == [2, 4]
    assert bt.invariant_factors([[1, 0], [0, 0]]) == [1]
    assert bt.invariant_factors([[0, 0], [0, 0]]) == []
    assert bt.invariant_factors([[6, 0], [0, 10]]) == [2, 30]


@given(matrices())
def test_smith_form_exact_and_unimodular(mat):
    u, s, v = bt.smith_normal_form(mat)
    assert lattice.mat_mul(lattice.mat_mul(u, mat), v) == s
    assert abs(int_det(u)) == 1
    assert abs(int_det(v)) == 1
    for i, row in enumerate(s):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert diag[:len(nonzero)] == nonzero  # zeros trail
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


@given(matrices())
@example([[2, 0], [0, 3]])
def test_smith_form_carries_the_inverse_of_its_row_transform(mat):
    u, s, v, w = lattice._smith_form(mat)
    assert (u, s, v) == bt.smith_normal_form(mat)
    assert dense_product(u, list(zip(*w))) == lattice.identity(len(mat))


def test_the_divisibility_fix_keeps_the_inverse_transform():
    # 3 is not a multiple of 2: the 2x2 fix runs after the elimination
    u, s, _, w = lattice._smith_form([[2, 0], [0, 3]])
    assert s == [[1, 0], [0, 6]]
    assert dense_product(u, list(zip(*w))) == lattice.identity(2)


@given(matrices())
def test_rank_matches_kernel_dimension(mat):
    basis = bt.integer_kernel(mat)
    assert len(basis) == len(mat[0]) - rational.frank(mat)


# ---------------------------------------------------------------------------
# kernels, solving, inverses
# ---------------------------------------------------------------------------

@given(matrices())
def test_integer_kernel_annihilates_and_saturates(mat):
    basis = bt.integer_kernel(mat)
    for vec in basis:
        assert lattice.mat_vec(mat, vec) == [0] * len(mat)
    if basis:
        # a saturated basis has unit invariant factors
        assert bt.invariant_factors(basis) == [1] * len(basis)


@given(matrices(), st.data())
def test_solve_integer_finds_constructed_solutions(mat, data):
    ncols = len(mat[0])
    x0 = data.draw(st.lists(st.integers(-5, 5),
                            min_size=ncols, max_size=ncols))
    target = lattice.mat_vec(mat, x0)
    sol = bt.solve_integer(mat, target)
    assert sol is not None
    assert lattice.mat_vec(mat, sol) == target


def test_solve_integer_detects_unsolvable():
    assert bt.solve_integer([[2]], [1]) is None
    assert bt.solve_integer([[1, 1], [1, 1]], [0, 1]) is None


@pytest.mark.parametrize("call, message", [
    (lambda: bt.smith_normal_form([[Fraction(3, 2), 0], [0, 2.7]]),
     "matrix row 0 entry 0 is Fraction(3, 2), not an integer"),
    (lambda: bt.invariant_factors([[1, 0], [0, 2.7]]),
     "matrix row 1 entry 1 is 2.7, not an integer"),
    (lambda: bt.integer_kernel([[0.5, 1]]),
     "matrix row 0 entry 0 is 0.5, not an integer"),
    (lambda: bt.solve_integer([[1]], [2.0]),
     "right-hand side entry 0 is 2.0, not an integer"),
    (lambda: bt.solve_integer([[1, 0], [0, 1]], [1, Fraction(4, 2)]),
     "right-hand side entry 1 is Fraction(2, 1), not an integer"),
], ids=["smith_normal_form", "invariant_factors", "integer_kernel",
        "solve_integer", "solve_integer_fraction"])
def test_exact_routines_refuse_entries_that_are_not_integers(call, message):
    # int() would truncate each of them, or drop a Fraction's type
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("target", [[], [1], [1, 0, 0]])
def test_solve_integer_rejects_a_target_of_the_wrong_length(target):
    # neither truncated nor padded: [1] is not [1, 0]
    with pytest.raises(ValueError, match="right-hand side"):
        bt.solve_integer([[1, 0], [0, 1]], target)


@st.composite
def sparse_product_operands(draw):
    """``(a, b)`` of shapes n x k and k x m, each side 0 to 5, with more
    than half the entries zero."""
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    entry = st.just(0) | st.just(0) | st.integers(-9, 9)
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                      min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                      min_size=k, max_size=k))
    return a, b


@given(sparse_product_operands())
@example(([], []))
@example(([[], []], []))
@example(([[1, 0], [0, 0]], [[], []]))
def test_mat_mul_matches_the_dense_product(operands):
    a, b = operands
    assert lattice.mat_mul(a, b) == dense_product(a, b)


def test_mat_mul_rejects_mismatched_inner_dimensions():
    # a 2x3 by 2x2 product, which a plain zip would cut to 2x2
    with pytest.raises(ValueError):
        lattice.mat_mul([[1, 2, 3], [4, 5, 6]], [[1, 0], [0, 1]])


def scalars():
    return st.integers(-10 ** 6, 10 ** 6) | st.fractions(max_denominator=12)


@given(st.lists(scalars(), max_size=8), st.lists(scalars(), max_size=8))
def test_dot_matches_the_generator_form(u, v):
    want = sum(x * y for x, y in zip(u, v))
    got = lattice.dot(u, v)
    assert got == want
    assert type(got) is type(want)


def test_primitive_divides_out_the_gcd():
    assert rational.integerize((4, -6, 2)) == (2, -3, 1)
    assert rational.integerize((-5,)) == (-1,)
    with pytest.raises(ValueError, match="zero vector"):
        rational.integerize((0, 0))


# ---------------------------------------------------------------------------
# the tower over the bundled tilings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_tower_ranks(name, tilings, towers):
    tiling, tower = tilings[name], towers[name]
    assert tower.rank == len(tiling.vertices) + 2
    assert tower.rank == EXPECTED_RANK[name]
    assert tower.degree_rank == len(tiling.vertices) - 1
    assert len(tower.kernel_basis) == tower.rank
    assert all(len(row) == 3 for row in tower.kernel_basis)


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_kernel_basis_ends_with_face_cycle_weight(name, towers):
    tower = towers[name]
    third = tuple(row[2] for row in tower.kernel_basis)
    assert third == tower.face_cycle_weight


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_arrow_weights_have_unit_degree(name, tilings, towers):
    tiling, tower = tilings[name], towers[name]
    index = {v: i for i, v in enumerate(tiling.vertices)}
    for a in tiling.arrows:
        deg = list(tower.degree(tower.weights[a.arrow_id]))
        expected = [0] * len(tiling.vertices)
        expected[index[a.target]] += 1
        expected[index[a.source]] -= 1
        assert deg == expected


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_every_face_cycle_has_the_common_weight(name, tilings, towers):
    tiling, tower = tilings[name], towers[name]
    for face in tiling.faces:
        cycle = bt.make_weak_path(tiling, [(aid, 1) for aid in face.arrows])
        assert weak_path_weight(tower, cycle) == tower.face_cycle_weight


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_kernel_coordinates_round_trip(name, towers):
    tower = towers[name]
    assert tower.in_kernel(tower.face_cycle_weight)
    for coords in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 3)]:
        w = lattice.mat_vec(tower.kernel_basis, coords)
        assert tower.in_kernel(w)
        assert lattice.solve_integer(tower.kernel_basis, w) == list(coords)


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_projection_splits_off_the_section(name, towers):
    tower = towers[name]
    proj = [list(r) for r in tower.projection]
    sect = [list(r) for r in tower.section]
    assert lattice.mat_mul(proj, sect) == lattice.identity(tower.rank)


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_projection_columns_are_the_generator_weights(name, towers):
    tower = towers[name]
    k = tower.rank
    assert tuple(tower.projection[r][0] for r in range(k)) \
        == tower.face_cycle_weight
    for i, aid in enumerate(tower.arrow_ids):
        col = tuple(tower.projection[r][1 + i] for r in range(k))
        assert col == tower.weights[aid]


@pytest.mark.parametrize("weight", [(1,), (0, 0, 0, 0), (0,) * 6])
def test_degree_rejects_a_weight_of_the_wrong_length(weight, towers):
    # spp has rank 5; a short weight is not padded with zeros
    with pytest.raises(ValueError, match="not rank 5"):
        towers["spp"].degree(weight)


def test_in_kernel_rejects_a_weight_of_the_wrong_length(towers):
    with pytest.raises(ValueError, match="not rank 5"):
        towers["spp"].in_kernel((0,))


def test_the_tower_makes_four_smith_forms(monkeypatch):
    # the relations, the degree kernel, the face-cycle coordinates and
    # the 3 x 1 rebasing column; both transforms that are inverted come
    # with their inverse, so no fifth elimination inverts one
    shapes = []
    real = lattice._smith_form

    def recording(mat):
        shapes.append((len(mat), len(mat[0])))
        return real(mat)

    monkeypatch.setattr(lattice, "_smith_form", recording)
    tower = bt.build_lattice_tower(bt.load_document(document_text("4x4")))
    assert len(shapes) == 4
    assert shapes[-1] == (3, 1)
    assert shapes[1] == (len(tower.vertex_ids), tower.rank)


# SHA-256 of every tower field and of the packed functional table, as
# the tower gave them when it still inverted the relations' transform
# by a second Smith form.  Face order leaves the tower unchanged, so the
# shuffled 4x4 pins the same digest as the generator-order one.
TOWER_DIGESTS = {
    "honeycomb": "94044eaa0203b1fb529427df1728ce73f5c776e600f1d3eb6cd05e3e3ff6d2ff",
    "conifold": "9a3e090004a4f6ef231cbf701362f5c5fe5b986950ff2be330a0ce52ca392375",
    "spp": "5ac935634519d0e56494f2f548191280b9e19fbc86386d5b671afc93f2445fdf",
    "z2z2": "a778d94ee9561fd7e2a7edc5fa1f38230382ec889caf4e90e3020cfcd3deee24",
    "honeycomb_dimer": "412df4fbb85711b70170d5b5d441d2c94121c0686ffd3d07b2f6de946480c92d",
    "spp_dimer": "67b5f5cbf53aa9718a728a859526c0f6b3568a6609358dadb602acdc76462224",
    "square_dimer": "00da3580776057222fc80ec73eb880024238918bba7326d1f1edde59b537c660",
    "2x2": "c15e2b1c9485613871a550394e1f95f726bdc3c8133bb90af51c1613bcc2a0c7",
    "2x3": "c1bbe80578a606c5e14bb9bd0045b42f81c9d6d0e8ba29a1591fbec145c06b41",
    "2x4": "fc07d52186c212f4c0639880629b36f12225d6ecbb9a007eab03bd7d95dfab7f",
    "2x5": "4a6b5311cc070d639626a8981f113009851c4c7729f87fb67508757b0cb540e9",
    "3x3": "f945330a94dcc1eb403520b3713996b475a7bdda3058055a9d7a3e6fb0677245",
    "3x4": "be496e4f9245caadbd14eec8269eb6499253652102709ae201522a701e0fae45",
    "3x5": "8083c774144cb0897c7dbc9d0b800ad40f901d3ba688963d88b6073fbe07eb60",
    "4x4": "3bedf8a19dff50f96daa70a367ef3b468767ef7b8acb247bfec5645f285cd569",
    "4x5": "ddbeec8431330418f2592703a6cc1275cf93362a1ac3689b7bae66526a01bf09",
    "5x5": "f0d67a426c18f6a5348408a0fa2643d50b72b567973abcc208a30f3b6c560d03",
    "4x4-shuffled": "3bedf8a19dff50f96daa70a367ef3b468767ef7b8acb247bfec5645f285cd569",
}


@pytest.mark.parametrize("name", list(TOWER_DIGESTS))
def test_tower_and_functional_table_are_pinned(name):
    text = (shuffled_orbifold_text(4, 4, 0) if name == "4x4-shuffled"
            else document_text(name))
    tower = bt.build_lattice_tower(bt.load_document(text))
    fields = list(vars(tower).items())
    digest = hashlib.sha256(
        repr((fields, matchings._functional_table(tower))).encode())
    assert digest.hexdigest() == TOWER_DIGESTS[name]
