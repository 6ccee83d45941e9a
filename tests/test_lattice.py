"""Integer linear algebra and the weight-lattice tower."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import branetile as bt
from branetile import lattice, rational
from branetile.tilting import weak_path_weight

from conftest import QUIVER_FIXTURES, int_det

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


@st.composite
def unimodular_matrices(draw, n=3):
    """Products of integer shears and one optional row negation."""
    m = lattice.identity(n)
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            continue
        q = draw(st.integers(-3, 3))
        for c in range(n):
            m[i][c] += q * m[j][c]
    if draw(st.booleans()):
        m[0] = [-x for x in m[0]]
    return m


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
def test_rank_matches_kernel_dimension(mat):
    basis = bt.integer_kernel(mat)
    assert len(basis) == len(mat[0]) - rational.frank(mat, len(mat[0]))


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


@pytest.mark.parametrize("target", [[], [1], [1, 0, 0]])
def test_solve_integer_rejects_a_target_of_the_wrong_length(target):
    # neither truncated nor padded: [1] is not [1, 0]
    with pytest.raises(ValueError, match="right-hand side"):
        bt.solve_integer([[1, 0], [0, 1]], target)


@given(unimodular_matrices())
def test_integer_inverse_round_trip(mat):
    inv = lattice.integer_inverse(mat)
    assert lattice.mat_mul(inv, mat) == lattice.identity(len(mat))
    assert lattice.mat_mul(mat, inv) == lattice.identity(len(mat))


def test_integer_inverse_rejects_non_unimodular():
    with pytest.raises(ValueError):
        lattice.integer_inverse([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        lattice.integer_inverse([[1, 0]])


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
