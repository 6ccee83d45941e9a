"""The exact cone kernel: double description against minor enumeration."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from branetile import rational
from branetile.rational import integerize

from conftest import double_dual, kernel_ray, recursion_headroom


def rref(rows_in, ncols: int) -> tuple:
    """Reduced row echelon form.  Returns ``(rows, pivot_columns)``
    with the zero rows dropped."""
    rows = [[Fraction(x) for x in r] for r in rows_in]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


def nullspace(rows, ncols: int) -> list:
    """Deterministic rational basis of ``{x : rows @ x == 0}``."""
    red, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


# Reference implementations: the Fraction RREF above, and below the
# dual cone by enumerating all C(g, d - 1) generator subsets.

def minor_enumeration_dual_cone(gens, dim) -> tuple:
    """Extreme rays and lineality of ``{y : g . y >= 0 for all g}``.

    Returns ``(rays, lineality)`` as primitive integer vectors; the
    rays are the extreme rays of the dual intersected with the span of
    the generators, and the lineality is the generators' orthogonal
    complement, so the dual is the sum of the two parts.  Extreme rays
    vanish on a rank ``d - 1`` subset of generators (``d`` the rank of
    the generators): each candidate subset, padded with the lineality
    rows, is a ``(dim-1) x dim`` integer matrix whose kernel line is
    its vector of signed maximal minors.
    """
    from itertools import combinations

    cleaned = []
    for g in gens:
        if any(Fraction(x) != 0 for x in g):
            v = integerize(g)
            if v not in cleaned:
                cleaned.append(v)
    lineality = [integerize(v) for v in nullspace(cleaned, dim)]
    d = dim - len(lineality)
    if d == 0:
        return [], lineality

    lin_rows = [list(l) for l in lineality]
    rays = []
    seen = set()
    for subset in combinations(range(len(cleaned)), d - 1):
        y = kernel_ray([list(cleaned[i]) for i in subset] + lin_rows, dim)
        if y is None:
            continue
        dots = [sum(a * b for a, b in zip(g, y)) for g in cleaned]
        if all(x >= 0 for x in dots):
            ray = integerize(y)
        elif all(x <= 0 for x in dots):
            ray = integerize([-v for v in y])
        else:
            continue
        if ray not in seen:
            seen.add(ray)
            rays.append(ray)
    return sorted(rays), lineality


@st.composite
def generator_lists(draw, max_dim=5):
    """Small generator lists with the awkward cases mixed in: zero
    rows, duplicates, opposite pairs (lineality), Fraction entries and
    too few rows for full rank."""
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    entry = st.integers(min_value=-3, max_value=3)
    gens = draw(st.lists(st.tuples(*[entry] * dim), max_size=10))
    extras = draw(st.lists(st.sampled_from(
        ("zero", "duplicate", "opposite", "fraction")), max_size=3))
    for kind in extras:
        if kind == "zero":
            gens.append((0,) * dim)
        elif gens:
            i = draw(st.integers(min_value=0, max_value=len(gens) - 1))
            if kind == "duplicate":
                gens.append(tuple(2 * x for x in gens[i]))
            elif kind == "opposite":
                gens.append(tuple(-x for x in gens[i]))
            else:
                gens[i] = tuple(Fraction(x, 3) for x in gens[i])
    order = draw(st.permutations(range(len(gens))))
    return [gens[i] for i in order], dim


def _identical(got, want) -> bool:
    """Equal values, with the same list/tuple/int shape."""
    return (got == want and type(got[0]) is list and type(got[1]) is list
            and all(type(v) is tuple and all(type(x) is int for x in v)
                    for v in got[0] + got[1]))


@settings(max_examples=300)
@given(generator_lists())
def test_dual_cone_matches_minor_enumeration(case):
    gens, dim = case
    want = minor_enumeration_dual_cone(gens, dim)
    assert _identical(rational.dual_cone(gens, dim), want)


@given(generator_lists())
def test_fraction_free_rank_and_nullspace_match_fraction_rref(case):
    rows, dim = case
    want = [integerize(v) for v in nullspace(rows, dim)]
    assert rational.nullspace(rows, dim) == want
    assert rational.frank(rows) == len(rref(rows, dim)[1])


@given(generator_lists(), st.data())
def test_a_corank_one_nullspace_is_the_signed_minor_line(case, data):
    # dual_cone's start rays: dim - 1 independent rows have a nullspace
    # of one primitive vector, on the line of their signed maximal minors
    gens, dim = case
    rows = [integerize(g) for g in gens if any(g)]
    rows = [rows[i] for i in rational._echelon(rows)[0]]
    rows += rational.nullspace(rows, dim)  # now a basis of Q^dim
    del rows[data.draw(st.integers(0, dim - 1))]
    line, = rational.nullspace(rows, dim)
    minors = integerize(kernel_ray(rows, dim))
    assert line in (minors, tuple(-x for x in minors))


@pytest.mark.parametrize("gens, dim", [
    ([], 0),
    ([()], 0),
    ([], 3),
    ([(0, 0, 0), (0, 0, 0)], 3),
    ([(2, 4, 0)], 3),
    ([(1, 0), (-1, 0)], 2),
    ([(1,), (-2,)], 1),
    ([(Fraction(1, 2), Fraction(1, 3))], 2),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], 3),
    ([], 1),
    ([], 2),
    ([], 4),
    ([(0,)], 1),
    ([(0, 0)] * 3, 2),
    ([(0, 0, 0, Fraction(0))], 4),
])
def test_dual_cone_degenerate_cases(gens, dim):
    assert _identical(rational.dual_cone(gens, dim),
                      minor_enumeration_dual_cone(gens, dim))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("zeros", [0, 1, 3])
def test_a_cone_without_a_nonzero_generator_is_the_origin(dim, zeros):
    # no facet inside the span {0}, no extreme ray and no lineality
    gens = [(0,) * dim] * zeros
    assert rational.describe_cone(gens, dim) == ([], [], [])


def test_dual_cone_combines_only_adjacent_rays():
    # the pairs of rays sharing d - 2 zeros include non-adjacent ones, so
    # the count of shared zeros alone would keep redundant rays
    gens = [(2, 0, 3, 3), (-1, 1, -1, 1), (1, -1, 1, -1), (0, 0, 1, -1),
            (1, 0, 0, 3), (0, 3, 2, 1), (-2, 0, 0, 2), (0, -1, 0, 1),
            (3, 2, 1, 2)]
    assert _identical(rational.dual_cone(gens, 4),
                      minor_enumeration_dual_cone(gens, 4))


def test_dual_cone_of_the_square_cone():
    rays, lineality = rational.dual_cone(
        [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
    assert rays == [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]
    assert lineality == []


def _in_cone(vec, gens) -> bool:
    """Brute force: ``vec`` is a nonnegative combination of some
    linearly independent subset of ``gens`` (Caratheodory)."""
    if not any(vec):
        return True
    dim = len(vec)
    for r in range(1, min(len(gens), dim) + 1):
        for subset in itertools.combinations(gens, r):
            if len(rref(subset, dim)[1]) < r:
                continue
            # (coefficients, -1) spans the kernel of [subset | vec]
            kernel = nullspace(
                [[g[i] for g in subset] + [vec[i]] for i in range(dim)], r + 1)
            if kernel and kernel[0][r] and all(
                    -c / kernel[0][r] >= 0 for c in kernel[0][:r]):
                return True
    return False


@given(generator_lists(max_dim=4))
def test_extreme_rays_are_the_generators_outside_the_others_cone(case):
    gens, dim = case
    distinct = list(dict.fromkeys(integerize(g) for g in gens if any(g)))
    _, rays, lineality = rational.describe_cone(gens, dim)
    pointed = not any(
        _in_cone(tuple(-x for x in g), distinct) for g in distinct)
    assert pointed == (not lineality)
    if pointed:
        extreme = sorted(
            g for g in distinct
            if not _in_cone(g, [h for h in distinct if h != g]))
        assert rays == extreme
    else:
        assert rays == []


@settings(max_examples=300)
@given(generator_lists())
def test_one_duality_describes_the_cone_as_the_double_dual_did(case):
    gens, dim = case
    facets, rays, lineality = rational.describe_cone(gens, dim)
    assert facets == rational.dual_cone(gens, dim)[0]
    want_rays, want_lineality = double_dual(gens, dim)
    assert lineality == want_lineality
    if not lineality:
        assert _identical((rays, lineality), (want_rays, want_lineality))
    cleaned = [integerize(g) for g in gens if any(g)]
    assert all(sum(a * b for a, b in zip(f, g)) >= 0
               for f in facets for g in cleaned)


def test_extreme_rays_drop_interior_generators():
    facets, rays, lineality = rational.describe_cone(
        [(1, 0, 1), (0, 1, 1), (1, 1, 2), (2, 2, 4), (0, 0, 0)], 3)
    assert rays == [(0, 1, 1), (1, 0, 1)]
    assert lineality == []
    # a two-dimensional cone in three dimensions: its facets are the
    # inner normals within its span
    assert facets == [(-1, 2, 1), (2, -1, 1)]


def test_extreme_rays_report_lineality():
    facets, rays, lineality = rational.describe_cone(
        [(1, 0), (-1, 0), (0, 1)], 2)
    assert lineality == [(1, 0)]
    assert rays == []
    assert facets == [(0, 1)]


def test_interior_generators_with_equal_zero_sets_are_not_extreme():
    # two interior generators vanish on no facet, so their zero sets are
    # equal (both empty); neither may count as extreme
    _, rays, _ = rational.describe_cone(
        [(1, 0), (0, 1), (1, 1), (1, 2)], 2)
    assert rays == [(0, 1), (1, 0)]


def test_the_face_lattice_of_a_cone_over_a_square():
    # the apex is bit 0 and ray k, around the square, is bit k + 1
    gens = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    facets, _, _ = rational.describe_cone(gens, 3)
    incidences = [1 | sum(2 << k for k, g in enumerate(gens)
                          if not sum(a * b for a, b in zip(f, g)))
                  for f in facets]
    faces = rational.face_lattice(incidences, 0b11111, 1)
    assert faces == {0b11111: 3,
                     0b00111: 2, 0b01101: 2, 0b11001: 2, 0b10011: 2,
                     0b00011: 1, 0b00101: 1, 0b01001: 1, 0b10001: 1,
                     0b00001: 0}


# ---------------------------------------------------------------------------
# integerize against the version that rebuilt every entry as a Fraction
# ---------------------------------------------------------------------------

def fraction_integerize(v: Sequence) -> tuple:
    """Primitive integer vector with the same direction as ``v``."""
    if all(type(x) is int for x in v):
        ints = v
    else:
        fr = [Fraction(x) for x in v]
        scale = lcm(*(x.denominator for x in fr)) if fr else 1
        ints = [int(x * scale) for x in fr]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


def outcome(f, v):
    try:
        return f(v)
    except ValueError as exc:
        return str(exc)


entries = st.one_of(
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)))


@given(st.lists(entries, max_size=5))
def test_integerize_matches_the_fraction_reference(v):
    assert outcome(integerize, v) == outcome(fraction_integerize, v)


@pytest.mark.parametrize("v", [
    (Fraction(0), 0), (), (True, 2), (0.5, -1.25), ("1/2", Fraction(1, 3))])
def test_integerize_edge_cases_match_the_fraction_reference(v):
    assert outcome(integerize, v) == outcome(fraction_integerize, v)


# ---------------------------------------------------------------------------
# strict feasibility: integer Fourier-Motzkin against the Fraction one
# ---------------------------------------------------------------------------

# Reference implementation: Fourier-Motzkin on Fraction rows, with the
# Fraction vector and dot product it was written with.

def fvec(v) -> tuple:
    return tuple(Fraction(x) for x in v)


def fdot(u, v) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(u, v)),
               start=Fraction(0))


def fraction_fm_strict(rows: list, nvars: int):
    """Interior point of ``{x : r . x > 0 for all r}``, or None.

    Eliminates the last variable, recurses, then back-substitutes the
    midpoint (or a unit offset) of the surviving bounds.
    """
    if any(not any(row) for row in rows):
        return None  # a zero row means 0 > 0
    if nvars == 0:
        return ()
    pos = [row for row in rows if row[-1] > 0]
    neg = [row for row in rows if row[-1] < 0]
    zero = [row[:-1] for row in rows if row[-1] == 0]
    reduced = list(zero)
    for p in pos:
        for n in neg:
            combined = [p[-1] * gn - n[-1] * gp
                        for gp, gn in zip(p[:-1], n[:-1])]
            reduced.append(tuple(integerize(combined)) if any(combined)
                           else tuple(combined))
    inner = fraction_fm_strict(reduced, nvars - 1)
    if inner is None:
        return None
    lows = [-fdot(row[:-1], inner) / row[-1] for row in pos]
    highs = [-fdot(row[:-1], inner) / row[-1] for row in neg]
    if lows and highs:
        t = (max(lows) + min(highs)) / 2
    elif lows:
        t = max(lows) + 1
    elif highs:
        t = min(highs) - 1
    else:
        t = Fraction(0)
    return inner + (t,)


def fraction_strict_feasible_point(strict, eqs, nvars: int):
    """Witness of ``{x : s . x > 0, e . x == 0}`` or None.

    The input rows are integer or rational; the witness is rational.
    With no strict rows the zero vector is returned (it satisfies the
    equalities vacuously).
    """
    strict = [fvec(r) for r in strict]
    eqs = [fvec(r) for r in eqs]
    if not strict:
        return tuple(Fraction(0) for _ in range(nvars))
    if eqs:
        basis = rational.nullspace(eqs, nvars)
        if not basis:
            return None  # x = 0 satisfies no strict inequality
        projected = [tuple(fdot(row, b) for b in basis) for row in strict]
        y = fraction_fm_strict(projected, len(basis))
        if y is None:
            return None
        return tuple(
            sum((c * b[i] for c, b in zip(y, basis)), start=Fraction(0))
            for i in range(nvars)
        )
    return fraction_fm_strict(strict, nvars)


@st.composite
def strict_systems(draw):
    """Small strict systems with zero, duplicate (and rescaled) and
    Fraction rows, with and without equalities.  Half of them have
    their strict rows turned towards a planted point, which makes
    feasible systems common; the planted point satisfies the
    equalities."""
    nvars = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=-3, max_value=3)
    row = st.tuples(*[entry] * nvars)
    eqs = draw(st.lists(row, max_size=2))
    strict = draw(st.lists(row, max_size=6))
    if strict and draw(st.booleans()):
        basis = rational.nullspace(eqs, nvars)
        coeffs = draw(st.lists(entry, min_size=len(basis),
                               max_size=len(basis)))
        point = [sum(c * b[i] for c, b in zip(coeffs, basis))
                 for i in range(nvars)]
        strict = [r if sum(a * x for a, x in zip(r, point)) >= 0
                  else tuple(-a for a in r) for r in strict]
    extras = draw(st.lists(st.sampled_from(
        ("zero", "duplicate", "fraction", "fraction equality")), max_size=3))
    for kind in extras:
        if kind == "zero":
            strict.append((0,) * nvars)
        elif kind == "fraction equality" and eqs:
            eqs[0] = tuple(Fraction(a, 2) for a in eqs[0])
        elif strict:
            i = draw(st.integers(min_value=0, max_value=len(strict) - 1))
            if kind == "duplicate":
                strict.append(tuple(draw(st.sampled_from((1, 2))) * a
                                    for a in strict[i]))
            else:
                strict[i] = tuple(Fraction(a, 3) for a in strict[i])
    order = draw(st.permutations(range(len(strict))))
    return [strict[i] for i in order], eqs, nvars


@settings(max_examples=300)
@given(strict_systems())
def test_strict_feasible_point_matches_fraction_elimination(case):
    strict, eqs, nvars = case
    want = fraction_strict_feasible_point(strict, eqs, nvars)
    got = rational.strict_feasible_point(strict, eqs, nvars)
    assert (got is None) == (want is None)
    if got is None:
        return
    assert got == want
    assert all(type(x) in (int, Fraction) for x in got)
    assert all(fdot(r, got) > 0 for r in strict)
    assert all(fdot(e, got) == 0 for e in eqs)


@st.composite
def growing_systems(draw):
    """An integer strict system (half of them turned towards a planted
    point), one order to add its rows in, and rows implied by it:
    positive integer combinations of two or three of its rows."""
    nvars = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=-3, max_value=3)
    rows = draw(st.lists(st.tuples(*[entry] * nvars), min_size=1,
                         max_size=6))
    if draw(st.booleans()):
        point = draw(st.tuples(*[entry] * nvars))
        rows = [r if fdot(r, point) >= 0 else tuple(-a for a in r)
                for r in rows]
    order = draw(st.permutations(range(len(rows))))
    implied = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        picked = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2,
                               max_size=3))
        weights = draw(st.lists(st.integers(1, 3), min_size=len(picked),
                                max_size=len(picked)))
        implied.append(tuple(sum(w * rows[i][c]
                                 for w, i in zip(weights, picked))
                             for c in range(nvars)))
    return rows, order, implied, nvars


def level_rows(system) -> list:
    return [(sorted(pos), sorted(neg)) for _, pos, neg in system.levels]


@settings(max_examples=300)
@given(growing_systems())
def test_a_grown_elimination_matches_the_fraction_reference(case):
    rows, order, implied, nvars = case
    want = fraction_strict_feasible_point(rows, [], nvars)

    system = rational.StrictElimination(nvars)
    for i in order:
        system.add(rows[i])
    found = system.point()
    assert (found is None) == (want is None)
    if found is not None:
        nums, den = found
        assert tuple(Fraction(x, den) for x in nums) == want
        # the levels are those of adding the rows in input order
        in_order = rational.StrictElimination(nvars)
        for row in rows:
            in_order.add(row)
        assert level_rows(in_order) == level_rows(system)

    # rows implied by the system, added to a copy, change neither its
    # emptiness nor its witness
    grown = system.copy()
    for row in implied:
        grown.add(row)
    assert grown.point() == found
    assert system.point() == found


def test_rows_added_to_an_empty_elimination_leave_it_empty():
    # x > 0 and -x > 0 combine to the zero row, and no row added after
    # that, nor a copy, brings a point back
    system = rational.StrictElimination(2)
    system.add((1, 0))
    system.add((-1, 0))
    assert system.empty and system.point() is None
    for row in [(0, 1), (1, 1), (-1, 0), (0, 0)]:
        system.add(row)
        assert system.point() is None
    assert system.copy().point() is None


@pytest.mark.parametrize("strict, eqs", [
    ([(Fraction(1, 2), 1, 0), (1, Fraction(-1, 3), 2), (0, 0, 1)], []),
    ([(Fraction(1, 2), 1, 0), (-1, 1, 1)], [(Fraction(1, 3), 0, -1)]),
    ([(1, 1, 1), (0, 0, 0)], []),
])
def test_fourier_motzkin_eliminates_integer_rows(monkeypatch, strict, eqs):
    real = rational.StrictElimination.add

    def checked(self, row):
        assert all(type(x) is int for x in row)
        return real(self, row)

    monkeypatch.setattr(rational.StrictElimination, "add", checked)
    got = rational.strict_feasible_point(strict, eqs, 3)
    assert got == fraction_strict_feasible_point(strict, eqs, 3)


@pytest.mark.parametrize("strict", [
    [(1, 0)], [(1, 1), (-1, 2)], [(0, 0)], [(Fraction(1, 2), 3), (2, 1)]])
@pytest.mark.parametrize("eqs", [
    [(1, 0), (0, 1)], [(1, 1), (1, -1), (2, 0)], [(Fraction(1, 2), 0), (0, 3)]])
def test_equalities_that_leave_only_zero_admit_no_strict_row(strict, eqs):
    assert rational.strict_feasible_point(strict, eqs, 2) is None
    assert fraction_strict_feasible_point(strict, eqs, 2) is None
    # without strict rows the zero vector satisfies the equalities
    assert rational.strict_feasible_point([], eqs, 2) == (0, 0)


def test_fourier_motzkin_needs_no_deep_recursion():
    # x_1 > 0 and x_{i+1} > x_i: each elimination drops one row, and
    # there are as many eliminations as variables.
    nvars = 120
    strict = [(1,) + (0,) * (nvars - 1)]
    for i in range(nvars - 1):
        row = [0] * nvars
        row[i], row[i + 1] = -1, 1
        strict.append(tuple(row))
    want = fraction_strict_feasible_point(strict, [], nvars)
    with recursion_headroom(30):
        got = rational.strict_feasible_point(strict, [], nvars)
    assert got == want
    assert all(fdot(r, got) > 0 for r in strict)
