"""The exact cone kernel: double description against minor enumeration."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from branetile import rational
from branetile.rational import _kernel_ray, integerize


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
        y = _kernel_ray([list(cleaned[i]) for i in subset] + lin_rows, dim)
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
    assert rational.frank(rows, dim) == len(rref(rows, dim)[1])


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
])
def test_dual_cone_degenerate_cases(gens, dim):
    assert _identical(rational.dual_cone(gens, dim),
                      minor_enumeration_dual_cone(gens, dim))


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
    rays, lineality = rational.extreme_rays(gens, dim)
    pointed = not any(
        _in_cone(tuple(-x for x in g), distinct) for g in distinct)
    assert pointed == (not lineality)
    if pointed:
        extreme = sorted(
            g for g in distinct
            if not _in_cone(g, [h for h in distinct if h != g]))
        assert rays == extreme


def test_extreme_rays_drop_interior_generators():
    rays, lineality = rational.extreme_rays(
        [(1, 0, 1), (0, 1, 1), (1, 1, 2), (2, 2, 4), (0, 0, 0)], 3)
    assert rays == [(0, 1, 1), (1, 0, 1)]
    assert lineality == []


def test_extreme_rays_report_lineality():
    _, lineality = rational.extreme_rays([(1, 0), (-1, 0), (0, 1)], 2)
    assert lineality == [(1, 0)]
