"""Integer linear algebra and the weight-lattice tower."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import branetile as bt
from branetile import lattice, matchings, rational
from branetile.tilting import weak_path_weight

from conftest import (ALL_FIXTURES, QUIVER_FIXTURES, dense_product,
                      document_text, int_det, reference_smith_form,
                      shuffled_orbifold_text)

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


@st.composite
def sparse_matrices(draw):
    """Up to 8 x 8, each entry nonzero with one drawn chance from 5% to
    100%, so rows range from nearly empty, as in a face relation, to
    dense."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    percent = draw(st.integers(5, 100))
    entry = st.integers(0, 99).flatmap(
        lambda r: st.integers(-12, 12) if r < percent else st.just(0))
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@settings(max_examples=300)
@given(sparse_matrices())
@example([[2, 0], [0, 3]])  # the divisibility fix runs
@example([[4, 0, 0], [0, 6, 0], [0, 0, 9]])  # and runs twice
@example([[0, 0, 0], [3, 0, -6], [0, 2, 4]])  # an all-zero row
@example([[0, 2, 4], [0, 0, 6], [0, -3, 1]])  # an all-zero column
@example([[], []])
@example([])
def test_smith_form_matches_the_dense_reference(mat):
    assert lattice._smith_form(mat) == reference_smith_form(mat)


TOWER_DOCUMENTS = (list(ALL_FIXTURES)
                   + [f"{n}x{m}" for m in range(1, 7) for n in range(1, m + 1)]
                   + ["4x5-shuffled", "5x5-shuffled"])


@pytest.mark.parametrize("document", TOWER_DOCUMENTS)
def test_every_smith_form_of_a_tower_matches_the_dense_reference(
        document, monkeypatch):
    if document.endswith("-shuffled"):
        text = shuffled_orbifold_text(*map(int, document[:3].split("x")), 0)
    else:
        text = document_text(document)
    tiling = bt.load_document(text)
    real = lattice._smith_form
    seen = []

    def recording(mat):
        seen.append([list(row) for row in mat])
        return real(mat)

    monkeypatch.setattr(lattice, "_smith_form", recording)
    bt.build_lattice_tower(tiling)
    monkeypatch.undo()
    assert len(seen) == 4
    for mat in seen:
        assert lattice._smith_form(mat) == reference_smith_form(mat)


@pytest.mark.parametrize("call", [
    bt.smith_normal_form, bt.invariant_factors, bt.integer_kernel,
    lambda mat: bt.solve_integer(mat, [0, 0]),
], ids=["smith_normal_form", "invariant_factors", "integer_kernel",
        "solve_integer"])
@pytest.mark.parametrize("mat, message", [
    ([[1], [2, 3]], "matrix row 1 has length 2, row 0 has length 1"),
    ([[1, 2], [3]], "matrix row 1 has length 1, row 0 has length 2"),
], ids=["longer", "shorter"])
def test_exact_routines_refuse_a_ragged_matrix(call, mat, message):
    # neither cut to row 0's length nor read past a short row
    with pytest.raises(ValueError) as exc:
        call(mat)
    assert str(exc.value) == message


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
        cycle = bt.make_weak_path(
            tiling, [(aid, 1) for aid in face.arrows],
            tiling.arrow_map[face.arrows[0]].source)
        assert weak_path_weight(tower, cycle) == tower.face_cycle_weight


@pytest.mark.parametrize("name", QUIVER_FIXTURES)
def test_kernel_coordinates_round_trip(name, towers):
    tower = towers[name]
    zero = (0,) * len(tower.vertex_ids)
    assert tower.degree(tower.face_cycle_weight) == zero
    for coords in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 3)]:
        w = lattice.mat_vec(tower.kernel_basis, coords)
        assert tower.degree(w) == zero
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


def with_relation_transforms_edited(monkeypatch, edit) -> None:
    """Patch ``lattice._smith_form`` so that its first call, the one on
    the tower's relations, returns its ``(U, S, V, W)`` after
    ``edit(u, w, rank)`` has changed ``U`` or ``W`` in place; ``rank``
    is the relations' rank, so rows ``rank + c`` of ``U`` and ``W`` are
    the projection's row ``c`` and the section's column ``c``."""
    real = lattice._smith_form
    calls = []

    def edited(mat):
        u, s, v, w = real(mat)
        if not calls:
            edit(u, w, sum(1 for i in range(min(len(s), len(s[0])))
                           if s[i][i]))
        calls.append(mat)
        return u, s, v, w

    monkeypatch.setattr(lattice, "_smith_form", edited)


def moved_section_column(tower, tiling, face_cycle: bool) -> tuple:
    """``(c, j)``: a section column ``c`` whose projection row is nonzero
    on some arrow and, iff ``face_cycle``, on the face-cycle symbol, and
    the ambient index ``j`` of an arrow that is not a loop.  Adding 1 at
    row ``j`` of section column ``c`` adds the arrow's boundary times
    projection row ``c`` to the degrees of the generators, so the arrow
    check fails, and the face-cycle check too iff ``face_cycle``."""
    c = next(c for c, row in enumerate(tower.projection)
             if any(row[1:]) and bool(row[0]) == face_cycle)
    j = 1 + next(i for i, a in enumerate(tiling.arrows)
                 if a.source != a.target)
    return c, j


@pytest.mark.parametrize("name", ["spp", "z2z2"])
@pytest.mark.parametrize("face_cycle", [False, True])
def test_a_section_off_its_arrows_fails_the_arrow_degree_check(
        name, face_cycle, tilings, towers, monkeypatch):
    # with face_cycle, both degree checks would fail: the arrow one wins
    tiling = tilings[name]
    c, j = moved_section_column(towers[name], tiling, face_cycle)

    def edit(u, w, rank):
        w[rank + c][j] += 1

    with_relation_transforms_edited(monkeypatch, edit)
    with pytest.raises(bt.ConsistencyError,
                       match="^degree map disagrees with arrow boundaries$"):
        bt.build_lattice_tower(tiling)


# honeycomb has one vertex, so every degree is zero
@pytest.mark.parametrize("name", ["conifold", "spp", "z2z2"])
def test_a_face_cycle_weight_off_the_kernel_fails_its_degree_check(
        name, tilings, towers, monkeypatch):
    # No edit of W reaches this check alone: the projection kills the
    # relations, so its column 0 is the sum of a face's arrow columns,
    # whose degrees are a closed walk once the arrow check passes.  Moving
    # column 0 of U's projection rows by a section column of nonzero
    # degree leaves every arrow weight and the degree map as they were.
    tiling, tower = tilings[name], towers[name]
    c = next(c for c in range(tower.rank)
             if any(row[c] for row in tower.degree_matrix))

    def edit(u, w, rank):
        u[rank + c][0] += 1

    with_relation_transforms_edited(monkeypatch, edit)
    with pytest.raises(bt.ConsistencyError,
                       match="^face-cycle weight has nonzero degree$"):
        bt.build_lattice_tower(tiling)


# SHA-256 of every tower field, as the tower gave them when it still
# inverted the relations' transform by a second Smith form.  Face order
# leaves the tower unchanged, so the shuffled 4x4 pins the same digest
# as the generator-order one.
TOWER_DIGESTS = {
    "honeycomb": "0f17650775edb1553ae70815757b94d7b86ed30ed4d0a88c9d2f3533bd4c1b11",
    "conifold": "d96380cc846c841deed391ddf68d9ec35211fc5bcb0c47ef4526ab436244859a",
    "spp": "d03fc39f13ddac56bb8327e468960a3356a388ed5de1e654a8041daffda8092b",
    "z2z2": "1499fdcb1ddaee222fd4f91c77ed60bdc1e76cce7f690e62c60075a60f839bd7",
    "honeycomb_dimer": "8f6de5c8433e4c4301e95bb5cb03b3cfd4f7af39bec17ba8bba6761ab6387338",
    "spp_dimer": "6d28917becaadddfee4d72e7ba135ab7b6997ca2cd988a09992ea8a077cb0699",
    "square_dimer": "a26db67bb9b74789ac0138516c72b8f330111ef90cdc8dcd3548a8a5154894e3",
    "2x2": "f70b8062cdba3a5bb7be852ca271ffcd330e39cb3c81eaac417cc418e010f9cf",
    "2x3": "05a0d7704ce1f6f8d415f91fded7abdba8ab41ddac1b0d287dd639c121057cab",
    "2x4": "865c72f846b4ce4f4ed91abdfd7f596b75df056066a3dede299b9869fb9eda8b",
    "2x5": "00343499f7e66a2b5cee39ab333582d8370c8fca25ea78f5615abb2ca8907102",
    "3x3": "b8b1e706a52e202968e0305f50b61f79f2fcb98ec66adfb8772243c6715ade89",
    "3x4": "299c7c09c266d30e0d2103b7295d7403bcb238ed31215e1ef04e7004a7e01cc2",
    "3x5": "78e38f7929b52b1c39345234435b0cf9fa354c6005f649a6979e33e965f93732",
    "4x4": "ae9bcaed2ae457956cfd41ac5025c5b7ec43b937798407e57ca27f935c07fa72",
    "4x5": "9d2ccc0e975ef86fcf22685b6cbd12c29a31e67e6ddfc2be67289a31ece1813f",
    "5x5": "a067cef14c9463851aaafeef594afbe17ac122ddc9ed6cfab6b088559ff7a632",
    "4x4-shuffled": "ae9bcaed2ae457956cfd41ac5025c5b7ec43b937798407e57ca27f935c07fa72",
}

# SHA-256 of the packed functional table, as recorded when its rows
# lost their section block and kept the values on the arrow weights and
# the face-cycle weight and the kernel coordinates.
TABLE_DIGESTS = {
    "honeycomb": "259f782f810a43e72703b091a625436c276f8aae6c0ab1d920f265b187355ec8",
    "conifold": "f0d221f6534fa2e343f19e0e69dd8d24525671b7ec63eb170615fe123d7dfdbd",
    "spp": "01121fcbc39a5ff504911e743d2758ed4f5da15d0941bb718476ce794c86a874",
    "z2z2": "e5ecb20135c2fc7a598a13f9bcfce2a1efcab735fb04066b67260fac81e9cdf5",
    "honeycomb_dimer": "259f782f810a43e72703b091a625436c276f8aae6c0ab1d920f265b187355ec8",
    "spp_dimer": "01121fcbc39a5ff504911e743d2758ed4f5da15d0941bb718476ce794c86a874",
    "square_dimer": "708155b291dff4b0e535f7d1936db77884c24a66dc345f6713b4dc24e7020087",
    "2x2": "d633ee1ca2f4aad19d39acc3b03c51305a92160b3e7785df54fab1b84e202fd8",
    "2x3": "20a2658821a3bc51d0bb1936ce2c5d52f8348731908ed9afbbae93b17b8455b6",
    "2x4": "8c66a7ff1a15e4473ef35e4a7c60f8620bac55482bd59b4cef8d8bab873f9727",
    "2x5": "975539648792ea3df348cc38458e9fbe3babcae7eeacd55d0fb9ef77a80151bf",
    "3x3": "4f496245d7eb25c02a6f5bddba604d2737e63c4a9e574835c4586d2645aeb8f7",
    "3x4": "38481ec23d49de63e4a6b98adab18ccba74efa3e016cc73385d9c4340ed1f3f3",
    "3x5": "0d26da057f18aac982ab8d617d10ab31c1b001290d3fea32772413744f4888a4",
    "4x4": "7a7111fdd311448c1bcf73a0625829fda6f0e402416d901b0b7ace0d5b2124e8",
    "4x5": "f5dbfb223af2e6314804ce6835efa3618f60cd2fe1e31ee06d2de3aa1d762803",
    "5x5": "391d4ac68d3f5cbb72c53c1741c9c4f70f79529a9fb5aad72ec38a4547d20f45",
    "4x4-shuffled": "7a7111fdd311448c1bcf73a0625829fda6f0e402416d901b0b7ace0d5b2124e8",
}


@pytest.mark.parametrize("name", list(TOWER_DIGESTS))
def test_tower_and_functional_table_are_pinned(name):
    text = (shuffled_orbifold_text(4, 4, 0) if name == "4x4-shuffled"
            else document_text(name))
    tower = bt.build_lattice_tower(bt.load_document(text))
    fields = list(vars(tower).items())
    table = matchings._functional_table(tower)
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == (
        TOWER_DIGESTS[name])
    assert hashlib.sha256(repr(table).encode()).hexdigest() == (
        TABLE_DIGESTS[name])
