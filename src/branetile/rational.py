"""Exact linear algebra, cone duality and strict linear feasibility.

No floating point anywhere in the package.  Rank and nullspace come
from fraction-free Gauss–Jordan elimination of primitive integer rows,
the module's only Gaussian elimination.

Cone duality is the incremental double-description method (Motzkin et
al. 1953; Fukuda and Prodon, "Double description method revisited",
1996), in integers: the extreme rays of ``{y : g . y >= 0}`` start
from a simplicial cone on the independent generators that the echelon
picks, each start ray a nullspace line from that same elimination,
and are updated one generator at a time, combining only adjacent pairs
of rays; adjacency is decided on zero sets kept as bitmasks.
:func:`describe_cone` reads a cone's facets, extreme rays and lineality
from one dual.

Strict feasibility has one Fourier–Motzkin eliminator,
:class:`StrictElimination`, extended one row at a time; it decides
homogeneous systems of *strict* inequalities (optionally restricted to
a rational subspace) and, when one is feasible, back-substitutes an
explicit interior witness.  Two facts make its witnesses canonical.
The rows on each level of the elimination do not depend on the order
the rows were added in: each opposite-sign pair on a level is combined
exactly once, and levels keep each row once.  And each level describes
exactly the projection of the solution set onto the leading variables,
so the open interval left to each coordinate, whose midpoint (or a
unit offset from its one end) the witness takes, depends only on the
set: a row implied by the others, such as a positive combination of
them, leaves the witness unchanged (Imbert, "Fourier's elimination:
which to choose?", 1990, on redundant rows).  Rows are integer tuples
throughout, every combined row primitive, and back-substitution stays
in integers too, comparing bounds as (numerator, positive denominator)
pairs; Fractions appear only in the rational points returned to
callers, such as the witnesses of :func:`strict_feasible_point`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .lattice import dot


def integerize(v: Sequence) -> tuple:
    """Primitive integer vector with the same direction as ``v``."""
    if all(type(x) is int for x in v):
        ints = v
    else:
        # Fraction(x) on a Fraction pays for an abstract-base-class check
        fr = [x if type(x) in (int, Fraction) else Fraction(x) for x in v]
        scale = lcm(*(x.denominator for x in fr))
        ints = [x.numerator * (scale // x.denominator) for x in fr]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


def _echelon(rows: Sequence) -> tuple:
    """Fraction-free Gauss–Jordan elimination of integer rows, row by row.

    Returns ``(chosen, basis)``: the indices of the first maximal
    independent subset of the rows, and a dict from lead column to a
    primitive row that is zero in the other lead columns — the reduced
    row echelon form, up to one scale per row.
    """
    chosen, basis = [], {}
    for i, g in enumerate(rows):
        r = list(g)
        for c, b in basis.items():
            if r[c]:
                r = [b[c] * x - r[c] * y for x, y in zip(r, b)]
        lead = next((c for c, x in enumerate(r) if x), None)
        if lead is None:
            continue
        r = integerize(r)
        for c, b in basis.items():
            if b[lead]:
                basis[c] = integerize(
                    [r[lead] * x - b[lead] * y for x, y in zip(b, r)])
        basis[lead] = r
        chosen.append(i)
    return chosen, basis


def _free_column_basis(basis: dict, ncols: int) -> list:
    """The nullspace of an echelon ``basis``: per free column, the
    primitive solution that is positive there and zero at the others."""
    out = []
    for fc in range(ncols):
        if fc in basis:
            continue
        scale = lcm(*(abs(b[c]) for c, b in basis.items() if b[fc]))
        v = [0] * ncols
        v[fc] = scale
        for c, b in basis.items():
            v[c] = -b[fc] * (scale // b[c])
        out.append(integerize(v))
    return out


def frank(rows: Sequence) -> int:
    """Rank of integer or rational rows."""
    return len(_echelon([integerize(r) for r in rows if any(r)])[0])


def nullspace(rows: Sequence, ncols: int) -> list:
    """Deterministic primitive integer basis of ``{x : rows @ x == 0}``:
    the reduced-row-echelon basis, one vector per free column."""
    rows = [integerize(r) for r in rows if any(r)]
    return _free_column_basis(_echelon(rows)[1], ncols)


# ---------------------------------------------------------------------------
# cone duality
# ---------------------------------------------------------------------------

def dual_cone(gens: Sequence, dim: int) -> tuple:
    """Extreme rays and lineality of ``{y : g . y >= 0 for all g}``.

    Returns ``(rays, lineality)`` as primitive integer vectors; the
    rays (sorted) are the extreme rays of the dual intersected with the
    span of the generators, and the lineality is the generators'
    orthogonal complement (the integerized RREF nullspace basis), so
    the dual is the sum of the two parts.

    Double description: ``d`` independent generators, with the
    lineality rows as equalities, cut out a simplicial cone.  Its ray
    opposite a generator is the one primitive :func:`nullspace` vector
    of the other ``d - 1`` and the lineality rows, signed to be positive
    on the generator left out.  Each remaining generator then keeps
    the rays on its nonnegative side and adds one combination of every
    adjacent positive/negative pair.  Zero sets are bitmasks over the
    generators seen so far; two rays are adjacent when they share at
    least ``d - 2`` zeros and no third ray vanishes on all of them.
    """
    cleaned = list(dict.fromkeys(integerize(g) for g in gens if any(g)))
    start, basis = _echelon(cleaned)
    lineality = _free_column_basis(basis, dim)
    d = len(start)

    rays = []  # (vector, zero-set bitmask)
    for i in start:
        y, = nullspace([cleaned[j] for j in start if j != i] + lineality, dim)
        if dot(cleaned[i], y) < 0:
            y = tuple(-x for x in y)
        rays.append((y, sum(1 << j for j in start if j != i)))

    chosen = set(start)
    for i, h in enumerate(cleaned):
        if i in chosen:
            continue
        bit = 1 << i
        pos, neg, kept = [], [], []
        for vec, zs in rays:
            s = dot(h, vec)
            if s > 0:
                pos.append((vec, zs, s))
                kept.append((vec, zs))
            elif s < 0:
                neg.append((vec, zs, s))
            else:
                kept.append((vec, zs | bit))
        masks = [zs for _, zs in rays]
        for pv, pz, ps in pos:
            for nv, nz, ns in neg:
                common = pz & nz
                if common.bit_count() < d - 2 or any(
                        z & common == common and z != pz and z != nz
                        for z in masks):
                    continue
                kept.append((integerize(
                    [ps * b - ns * a for a, b in zip(pv, nv)]),
                    common | bit))
        rays = kept
    return sorted(vec for vec, _ in rays), lineality


def describe_cone(gens: Sequence, dim: int) -> tuple:
    """Facets, extreme rays and lineality of the cone the generators
    span, from one :func:`dual_cone` call.

    Returns ``(facets, rays, lineality)`` as primitive integer vectors.
    The facets are the dual's sorted rays: inner normals within the
    span of the generators, so with the dual's lineality (the span's
    orthogonal complement) as equalities they cut the cone out.  The
    lineality is the nullspace of the facets and that complement.
    ``rays`` is the sorted distinct primitive generators that are
    extreme.  Such a generator is extreme iff no other one vanishes on
    every facet it vanishes on: the generators in a face span it, so a
    face of dimension two or more has at least two extreme generators,
    each vanishing where the face does.  A cone with lineality has no
    extreme ray: its lineality space is a face, spanned by at least two
    generators that vanish on every facet, so ``rays`` is empty then.
    """
    cleaned = list(dict.fromkeys(integerize(g) for g in gens if any(g)))
    facets, orthogonal = dual_cone(cleaned, dim)
    lineality = nullspace(facets + orthogonal, dim)
    zeros = [sum(1 << i for i, f in enumerate(facets) if not dot(f, g))
             for g in cleaned]
    rays = sorted(g for i, (g, z) in enumerate(zip(cleaned, zeros))
                  if not any(y & z == z for j, y in enumerate(zeros) if j != i))
    return facets, rays, lineality


def face_lattice(incidences: Sequence, full: int, vertices: int) -> dict:
    """Every face of a polyhedron with a vertex, with its dimension
    above the lineality's, by meet-closure of facet incidences.

    A face is a bitmask over the generators; ``full`` holds them all,
    ``vertices`` the vertex bits, and each incidence the generators on
    one constraint.  Every nonempty face contains a minimal face, and
    minimal faces are listed among the generators, so the faces are the
    cuts of ``full`` that keep a vertex bit.  Dimensions come from the
    grading of the face lattice: every maximal proper face of a face F
    is F cut by some constraint, so F's dimension is one more than the
    largest among those cuts, and a face with no proper cut is minimal.
    """
    cuts = {}  # face -> its proper nonempty cuts by one constraint
    frontier = {full}
    while frontier:
        fresh = set()
        for face in frontier:
            below = {face & inc for inc in incidences}
            below = {g for g in below if g & vertices and g != face}
            cuts[face] = below
            fresh |= below
        frontier = fresh - cuts.keys()
    dims = {}
    for face in sorted(cuts, key=int.bit_count):
        below = cuts[face]
        dims[face] = 1 + max(dims[g] for g in below) if below else 0
    return dims


# ---------------------------------------------------------------------------
# strict feasibility by Fourier-Motzkin elimination
# ---------------------------------------------------------------------------

class StrictElimination:
    """Fourier–Motzkin elimination of the strict system
    ``{x : r . x > 0}`` over ``nvars`` variables, extended one row at
    a time.

    Level ``j`` holds the distinct rows left after eliminating the last
    ``j`` variables, split by the sign of their last entry; a row with
    a zero last entry passes, truncated, to the next level.  A new row
    is combined, through a work list, only with the opposite-sign rows
    already on its level.  A zero row (``0 > 0``) makes the system
    empty, and rows added after it leave it so.
    """

    __slots__ = ("levels", "empty")

    def __init__(self, nvars: int):
        # per level: every row that reached it, those with a positive
        # last entry (lower bounds on it) and those with a negative one
        self.levels = [(set(), [], []) for _ in range(nvars)]
        self.empty = False

    def copy(self) -> "StrictElimination":
        other = StrictElimination(0)
        other.levels = [(set(seen), list(pos), list(neg))
                        for seen, pos, neg in self.levels]
        other.empty = self.empty
        return other

    def add(self, row: tuple) -> None:
        """Add the strict row ``row . x > 0``, a tuple of integers."""
        work = [(0, row)]
        while work:
            j, r = work.pop()
            if not any(r):
                self.empty = True
                return
            seen, pos, neg = self.levels[j]
            if r in seen:
                continue
            seen.add(r)
            last = r[-1]
            if last == 0:
                work.append((j + 1, r[:-1]))
                continue
            (pos if last > 0 else neg).append(r)
            head, b = r[:-1], abs(last)
            # |o_last| r + |last| o: a positive combination free of the
            # last variable
            for o in (neg if last > 0 else pos):
                a = abs(o[-1])
                combined = [a * x + b * y for x, y in zip(head, o)]
                g = gcd(*combined)
                work.append((j + 1, tuple(x // g for x in combined)
                             if g else tuple(combined)))

    def point(self):
        """Interior point of the system, or None when it is empty.

        The point is returned as its integer numerators over one
        positive common denominator.  Variable by variable, from the
        first, it takes the midpoint (or a unit offset) of the open
        interval its level's rows leave it.  Bounds are compared as
        (numerator, positive denominator) pairs, and each coordinate
        is reduced by one gcd.
        """
        if self.empty:
            return None
        nums, den = [], 1
        for _, pos, neg in reversed(self.levels):
            low = high = None
            for row in pos:  # x > -(row[:-1] . nums) / (den * row[-1])
                a, b = -dot(row[:-1], nums), den * row[-1]
                if low is None or a * low[1] > low[0] * b:
                    low = (a, b)
            for row in neg:  # x < (row[:-1] . nums) / (den * -row[-1])
                a, b = dot(row[:-1], nums), -den * row[-1]
                if high is None or a * high[1] < high[0] * b:
                    high = (a, b)
            if low is not None and high is not None:
                tn = low[0] * high[1] + high[0] * low[1]
                td = 2 * low[1] * high[1]
            elif low is not None:
                tn, td = low[0] + low[1], low[1]
            elif high is not None:
                tn, td = high[0] - high[1], high[1]
            else:
                tn, td = 0, 1
            g = gcd(tn, td)
            tn, td = tn // g, td // g
            common = lcm(den, td)
            nums = [x * (common // den) for x in nums]
            nums.append(tn * (common // td))
            den = common
        return tuple(nums), den


def strict_feasible_point(strict: Sequence, eqs: Sequence, nvars: int):
    """Witness of ``{x : s . x > 0, e . x == 0}`` or None.

    The input rows are integer or rational; each nonzero one is made a
    primitive integer row once, which changes neither the set nor the
    witness, and the rows are projected onto the integer nullspace
    basis of the equalities (the unit basis when there are none) and
    eliminated by one :class:`StrictElimination`.  The witness is a
    tuple of Fractions.  With no strict rows the zero vector is
    returned (it satisfies the equalities vacuously).
    """
    strict = [integerize(r) if any(r) else tuple(r) for r in strict]
    if not strict:
        return tuple(Fraction(0) for _ in range(nvars))
    basis = nullspace(eqs, nvars)
    system = StrictElimination(len(basis))
    for row in strict:
        system.add(tuple(dot(row, b) for b in basis))
    found = system.point()
    if found is None:
        return None
    nums, den = found
    return tuple(Fraction(dot(nums, column), den) for column in zip(*basis))
