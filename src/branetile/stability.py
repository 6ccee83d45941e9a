"""Stability of arrow subsets and the chamber decomposition.

A stability parameter assigns an integer or a Fraction to each quiver
vertex, summing to zero; it is used exactly as given.  An arrow subset
is stable when every *support* — a proper nonempty vertex subset
closed under the arrows outside the given set — has strictly positive
total parameter.  The stable unions of perfect matchings at a generic
parameter are read from the matchings' points lifted by it: the least
lifted matching at each point, and the lower hull's edges and
triangles (see :func:`_stable_subsets_at`).

The chambers of the generic locus are the leaves of a sign tree over
the walls, where proper vertex subsets sum to zero, walked with an
explicit stack and pruned exactly (see :func:`chamber_decomposition`).
Genericity, the signs of the stable unions' supports and every subset
sign :func:`find_chamber` compares are read in place from the
parameter's sums over the subsets of each half of at most 36 vertices,
by bitmask (see :func:`_halves`); no call builds the 2ⁿ sums over all
vertex subsets.  A chamber is its representative and its stable
structure, and :func:`find_chamber` compares a parameter's subset signs
with each representative's, mask by mask up to the first that differs.
Arrow sets are the integer masks of ``QuiverOnTorus.arrow_bits``, as a
perfect matching's ``mask`` is.  One record, which does not depend on
the parameter, is kept on the tiling and freed with it: the lifted
record of the last matchings list, in its ``lifted_cache`` (see
:func:`_lifted`), which every stable structure of that list reads,
with the support masks of each hull structure.
:func:`submodule_supports` closes the supports of its arrow set on
every call, and nothing else is kept between calls.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import operator
from collections import Counter
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import rational
from .errors import (_MAX_CHAMBER_VERTICES, _MAX_SUBSET_SUM_VERTICES,
                     ConsistencyError, DegenerateInputError)
from .lattice import dot
from .matchings import (convex_hull_2d, cross, doubled_area, matching_id_key,
                        set_bits, subset_sums)
from .tiling import QuiverOnTorus, default_paths


def _theta_check(vertices: Sequence, theta: Sequence) -> None:
    """Raise ValueError unless the parameter has one integer or Fraction
    entry per vertex and its entries sum to zero."""
    if len(theta) != len(vertices):
        raise ValueError(
            f"stability parameter has {len(theta)} entries for "
            f"{len(vertices)} vertices")
    if not all(isinstance(t, numbers.Rational) for t in theta):
        raise ValueError("stability parameter entries must be integers "
                         "or Fractions")
    if sum(theta) != 0:
        raise ValueError("stability parameter entries must sum to zero")


def _halves(theta: Sequence) -> tuple:
    """``(h, low, high)``, the :func:`subset_sums` of θ[:h] and θ[h:] for
    h = n // 2: mask s sums to ``low[s & len(low) - 1] + high[s >> h]``."""
    h = len(theta) // 2
    return h, subset_sums(theta[:h]), subset_sums(theta[h:])


def _checked_halves(tiling: QuiverOnTorus, theta: Sequence) -> tuple:
    """The :func:`_halves` of a checked θ, refused past the budget, and
    whether it is generic: only the empty and the full set (one pair with
    no vertices) meet in the middle at zero (Horowitz & Sahni, 1974)."""
    _theta_check(tiling.vertices, theta)
    if len(theta) > _MAX_SUBSET_SUM_VERTICES:
        raise DegenerateInputError(
            f"stability parameter sums support at most "
            f"{_MAX_SUBSET_SUM_VERTICES} vertices; this tiling has {len(theta)}")
    halves = _halves(theta)
    negated = Counter(-x for x in halves[1])
    return halves, sum(map(negated.__getitem__, halves[2])) <= 2


def is_generic(tiling: QuiverOnTorus, theta: Sequence) -> bool:
    """Whether no proper nonempty vertex subset sums to zero."""
    return _checked_halves(tiling, theta)[1]


def _arrow_mask(tiling: QuiverOnTorus, arrows: Iterable) -> int:
    """The arrow set with bit k for the tiling's k-th arrow; raises
    ValueError naming the first id, in sorted order, it does not have."""
    bits = tiling.arrow_bits
    chosen = set(arrows)
    if not chosen <= bits.keys():
        raise ValueError(
            f"unknown arrow id {min(chosen - bits.keys(), key=str)!r}")
    return sum(1 << bits[aid] for aid in chosen)


def is_w_compatible(tiling: QuiverOnTorus, arrows: Iterable) -> bool:
    """Whether an arrow set meets, for every arrow, the rest of its
    positive face iff it meets the rest of its negative face.

    Occurrences count: an arrow passed twice by a face cycle still
    leaves one occurrence behind when one is removed.  Raises
    ValueError on an arrow id the tiling does not have.
    """
    chosen = set(arrows)
    _arrow_mask(tiling, chosen)

    def meets_rest(face, aid: str) -> bool:
        counts: dict = {}
        for x in face.arrows:
            counts[x] = counts.get(x, 0) + 1
        counts[aid] -= 1
        return any(c > 0 and x in chosen for x, c in counts.items())

    for a in tiling.arrows:
        plus, minus = tiling.faces_of(a.arrow_id)
        if meets_rest(plus, a.arrow_id) != meets_rest(minus, a.arrow_id):
            return False
    return True


def _close_supports(tiling: QuiverOnTorus, arrows: int) -> frozenset:
    """The support masks of an arrow mask: the unions of reachability
    closures.  Each vertex generates the set of vertices reachable from
    it along the arrows outside the set, found by Warshall's transitive
    closure on bitmasks, and the supports are the proper nonempty
    members of the union-closure of these."""
    n = len(tiling.vertices)
    reach = [1 << v for v in range(n)]
    for k, (source, target) in enumerate(tiling._arrow_ends):
        if not arrows >> k & 1:
            reach[source] |= 1 << target
    for k in range(n):  # paths may now pass through vertex k
        bit, via = 1 << k, reach[k]
        reach = [r | via if r & bit else r for r in reach]
    closed = {0}
    for g in set(reach):
        closed |= {c | g for c in closed}
    return frozenset(closed - {0, (1 << n) - 1})


def submodule_supports(tiling: QuiverOnTorus, arrows: Iterable) -> list:
    """Proper nonempty vertex subsets closed under the arrows *outside*
    the given arrow set, sorted by (size, sorted vertex ids).  Raises
    ValueError on an arrow id the tiling does not have."""
    supports = _close_supports(tiling, _arrow_mask(tiling, arrows))
    out = [frozenset(v for i, v in enumerate(tiling.vertices) if mask >> i & 1)
           for mask in supports]
    return sorted(out, key=lambda s: (len(s), sorted(s)))


_ON_A_WALL = ("stability parameter lies on a wall (some proper vertex "
              "subset sums to zero)")


def _require_generic(tiling: QuiverOnTorus, theta: Sequence) -> tuple:
    """The :func:`_checked_halves` of a parameter; raises
    DegenerateInputError when it lies on a wall."""
    halves, generic = _checked_halves(tiling, theta)
    if not generic:
        raise DegenerateInputError(_ON_A_WALL)
    return halves


def is_theta_stable(tiling: QuiverOnTorus, arrows: Iterable,
                    theta: Sequence) -> bool:
    """Whether every support of the arrow set has positive parameter.

    Raises DegenerateInputError when the parameter lies on a wall, and
    then ValueError on an arrow id the tiling does not have.
    """
    if not is_generic(tiling, theta):
        raise DegenerateInputError(_ON_A_WALL)
    by_vertex = dict(zip(tiling.vertices, theta))
    return all(sum(by_vertex[v] for v in s) > 0
               for s in submodule_supports(tiling, arrows))


# ---------------------------------------------------------------------------
# stable subsets
# ---------------------------------------------------------------------------

class StableSubset(NamedTuple):
    """A stable union of perfect matchings.

    ``matching_ids`` lists every enumerated matching whose arrows are
    contained in the union — these index the rays of the cone the
    subset contributes to the moduli fan, and ``dim`` is their count.
    """

    arrows: frozenset
    matching_ids: tuple
    dim: int


def enumerate_stable_subsets(tiling: QuiverOnTorus, theta: Sequence,
                             matchings: Sequence) -> list:
    """All stable unions of up to three perfect matchings, plus the
    empty set, at a generic parameter, checked as by
    :func:`is_theta_stable`."""
    halves = _require_generic(tiling, theta)
    return _stable_subsets_at(tiling, _lifted(tiling, matchings), theta, halves)


class _LiftedRecord:
    """What the stable structures of one matchings list on one tiling
    share at every parameter: ``key``, the list itself; the tiling's
    arrow ``order``; ``counts``, each matching's signed counts c_v(M)
    per vertex; ``hull``, the :func:`_lower_hull` of their points; and
    the memos ``faces``, a hull face's ``(StableSubset, arrow mask)`` by
    its matching indices, ``closed``, a hull triangle's support masks by
    its arrow mask, and ``structures``, each ``(least, triangles)``'s
    sorted faces and the union of its triangles' supports (with no
    triangle, its least matching's): as supports grow with the arrow
    set, that union holds every face's.  It holds no reference to the
    tiling, so the tiling that keeps it is freed by reference counting
    alone.
    """

    def __init__(self, key: list, order: tuple, counts: tuple,
                 hull) -> None:
        self.key, self.order, self.counts, self.hull = key, order, counts, hull
        self.faces, self.closed, self.structures = {}, {}, {}

    def subset_of(self, face: tuple) -> tuple:
        found = self.faces.get(face)
        if found is None:
            ids = tuple(sorted((self.key[i].matching_id for i in face),
                               key=matching_id_key))
            mask = functools.reduce(int.__or__,
                                    (self.key[i].mask for i in face), 0)
            arrows = frozenset(self.order[k] for k in set_bits(mask))
            found = StableSubset(arrows, ids, len(ids)), mask
            self.faces[face] = found
        return found

    def structure(self, tiling: QuiverOnTorus, hull: tuple) -> tuple:
        """The empty set, then the faces of a ``(least, triangles)``
        hull by (dim, ids), each with its arrow mask; and the support
        masks of its triangles, each closed on the tiling once."""
        found = self.structures.get(hull)
        if found is None:
            least, triangles = hull
            faces = {(i,) for i in least} | {
                face for t in triangles for r in (1, 2, 3)
                for face in itertools.combinations(sorted(t), r)}
            masks = {self.subset_of(tuple(sorted(t)))[1]
                     for t in triangles or [(i,) for i in least]}
            for mask in masks - self.closed.keys():
                self.closed[mask] = _close_supports(tiling, mask)
            entries = sorted(map(self.subset_of, [(), *faces]),
                             key=lambda e: (e[0].dim, e[0].matching_ids))
            supports = frozenset().union(*map(self.closed.get, masks))
            found = self.structures[hull] = tuple(entries), supports
        return found


def _lifted(tiling: QuiverOnTorus, matchings: Sequence) -> _LiftedRecord:
    """The tiling's lifted record of a matchings list.  The tiling keeps
    the record of the last list it was asked about, in its
    ``lifted_cache``, and builds a new one when some matching differs
    (matchings compare by their fields).  Raises ValueError on a
    matching over other arrow ids, naming its first unknown one."""
    key = list(matchings)
    held = tiling.lifted_cache
    if held and held[0].key == key:
        return held[0]
    order = tuple(tiling.arrow_bits)
    for m in matchings:
        if m.arrow_order != order:
            _arrow_mask(tiling, m.arrows)
            raise ValueError(f"{m.matching_id} is a matching of another "
                             "tiling's arrow ids")
    # A default path steps along an arrow at most once, so c_v(M) is a
    # difference of bit counts.
    signed = [[_arrow_mask(tiling, [a for a, exp in path.steps if exp == e])
               for e in (1, -1)] for path in default_paths(tiling).values()]
    counts = tuple([(m.mask & forward).bit_count()
                    - (m.mask & inverse).bit_count()
                    for forward, inverse in signed] for m in matchings)
    held[:] = [_LiftedRecord(key, order, counts,
                             _lower_hull([m.point for m in matchings]))]
    return held[0]


def _stable_subsets_at(tiling: QuiverOnTorus, record: _LiftedRecord,
                       theta: Sequence, halves: tuple) -> list:
    """:func:`enumerate_stable_subsets` from the tiling's lifted record
    (:func:`_lifted`), a generic parameter θ and its :func:`_halves`,
    read in place at the structure's supports.

    Each matching M lifts its point to h(M) = Σ_v θ_v·c_v(M), where
    c_v(M) is the signed count of M's arrows on the default path to v.
    The θ-stable matchings are the least lifted ones, one per point, and
    the stable pairs and triples are the edges and triangles of the
    lower hull (Ishii & Ueda, arXiv:0710.1898; Cox, Little & Schenck,
    *Toric Varieties*, ch. 14).  The checks of :func:`_lower_hull` and
    one sign test of the structure's supports, which hold every support
    of every union it reports, certify the structure as the union
    search's over the same matchings, or raise ConsistencyError (naming
    the first unstable union in order), as on a list that lacks a
    point's least matching or a hull corner, or whose points lie on a
    line.
    """
    out, supports = record.structure(
        tiling, record.hull([dot(c, theta) for c in record.counts]))
    h, low, high = halves
    cut = len(low) - 1
    if any(low[s & cut] + high[s >> h] <= 0 for s in supports):
        subset = next(subset for subset, mask in out[1:] if any(
            low[s & cut] + high[s >> h] <= 0
            for s in _close_supports(tiling, mask)))
        raise ConsistencyError(f"{' + '.join(subset.matching_ids)} "
                               "on the lower hull is not stable")
    return [subset for subset, _ in out]


def _lower_hull(points: Sequence):
    """The lower hull of plane points lifted by heights, as a function
    of the heights (one per point) returning ``(least, triangles)``:
    per distinct point, the entry of least height; and, as triples of
    those, the unimodular triangles with every other least lifted point
    strictly above their plane.  These lower facets tile the points'
    hull iff they number its doubled area; any other count (a flat or
    non-unimodular facet), a tie at a point, or points on one line
    raises ConsistencyError.
    In a unimodular triangle (a, b, c), d = cross(a, b, c) is ±1, and a
    point q is λ_a·a + λ_b·b + λ_c·c for the integers λ_a = d·cross(q,
    b, c), λ_b = d·cross(a, q, c) and λ_c = d·cross(a, b, q): q is above
    iff z_q > λ_a·z_a + λ_b·z_b + λ_c·z_c, exactly.
    """
    at_point: dict = {}
    for i, p in enumerate(points):
        at_point.setdefault(tuple(p), []).append(i)
    distinct = list(at_point)
    area = doubled_area(convex_hull_2d(distinct))
    if len(distinct) > 1 and not area:
        raise ConsistencyError("the points lie on one line")
    candidates = []  # (a, b, c, the (q, λ_a, λ_b, λ_c) of each other q)
    for a, b, c in itertools.combinations(range(len(distinct)), 3):
        pa, pb, pc = distinct[a], distinct[b], distinct[c]
        d = cross(pa, pb, pc)
        if d in (1, -1):
            candidates.append((a, b, c, [
                (q, d * cross(pq, pb, pc), d * cross(pa, pq, pc),
                 d * cross(pa, pb, pq))
                for q, pq in enumerate(distinct) if q not in (a, b, c)]))

    def at(heights: Sequence) -> tuple:
        least = []
        for p, entries in at_point.items():
            first, *rest = sorted(entries, key=heights.__getitem__)
            if rest and heights[rest[0]] == heights[first]:
                raise ConsistencyError(
                    f"two lifted points tie for the least height at {p}")
            least.append(first)
        z = [heights[i] for i in least]
        triangles = []
        for a, b, c, rows in candidates:
            za, zb, zc = z[a], z[b], z[c]
            if all(z[q] > la * za + lb * zb + lc * zc
                   for q, la, lb, lc in rows):
                triangles.append((least[a], least[b], least[c]))
        if len(triangles) != area:
            raise ConsistencyError(
                f"{len(triangles)} unimodular lower triangles cannot tile "
                f"a hull of doubled area {area}: a lower facet is flat or "
                f"not a unimodular triangle")
        return tuple(least), tuple(triangles)

    return at


# ---------------------------------------------------------------------------
# chambers
# ---------------------------------------------------------------------------

class Chamber(NamedTuple):
    """A connected component of the generic locus.

    The signs of the representative's proper subset sums are constant
    on the chamber and identify it.  ``stable_subsets`` is the stable
    structure at the representative (hence on the whole chamber).
    """

    index: int
    representative: tuple
    stable_subsets: tuple

    @property
    def stable_matchings(self) -> tuple:
        return tuple(s.matching_ids[0] for s in self.stable_subsets
                     if s.dim == 1)

    @property
    def stable_pairs(self) -> tuple:
        return tuple(s.matching_ids for s in self.stable_subsets
                     if s.dim == 2)

    @property
    def stable_triples(self) -> tuple:
        return tuple(s.matching_ids for s in self.stable_subsets
                     if s.dim == 3)


def _positive(halves: tuple) -> Iterator:
    """Whether each proper nonempty vertex mask, in order, has a positive
    sum, read from the parameter's :func:`_halves` one mask at a time."""
    h, low, high = halves
    cut = len(low) - 1
    return (low[s & cut] + high[s >> h] > 0
            for s in range(1, len(low) * len(high) - 1))


def chamber_decomposition(tiling: QuiverOnTorus,
                          matchings: Sequence) -> list:
    """All chambers of the generic locus, each with a primitive integer
    representative and its stable structure.

    The parameter space is the sum-zero hyperplane; with a single
    vertex it is a point, every parameter is vacuously generic, and
    the zero parameter is the one chamber.

    The chambers are the leaves of a depth-first sign tree over the
    walls, walked with an explicit stack.  Each branch carries a strict
    integer witness of its signs and extends its parent's elimination
    by the row of its wall.  A sign is infeasible, with no check, when
    the wall is the disjoint union of two earlier walls that both have
    the other sign; when both have this sign, it adds no row, as its
    row is the sum of theirs.  A witness is back-substituted only where
    the answer is open: at the root, where the branch's witness does
    not have the sign strictly, and at the last wall, whose witness is
    the representative.  Each level's rows do not depend on the order
    they were added in, and a witness depends only on the set the rows
    cut out, so the representatives are those of checking every node
    on the full list of wall rows.

    Raises DegenerateInputError on a tiling with no vertex, which has
    no parameter space, and on more than six vertices: the resonance
    arrangement then has over a million chambers.
    """
    n = len(tiling.vertices)
    if not n:
        raise DegenerateInputError(
            "chamber decomposition needs at least one vertex; this tiling "
            "has none")
    if n > _MAX_CHAMBER_VERTICES:
        raise DegenerateInputError(
            f"chamber decomposition supports at most {_MAX_CHAMBER_VERTICES} "
            f"vertices; this tiling has {n}")
    t = n - 1
    if t == 0:
        subsets = enumerate_stable_subsets(tiling, (0,), matchings)
        return [Chamber(index=1, representative=(0,),
                        stable_subsets=tuple(subsets))]

    # Coordinates: theta_i = x_{i-1} for i >= 1, theta_0 = -sum(x).
    # Each wall pairs a vertex subset with its complement; the member
    # not containing vertex 0 gives an indicator functional in x, so
    # the walls are the nonempty subsets of range(t), as bitmasks
    # ordered by (size, sorted members).
    walls = sorted(range(1, 1 << t), key=lambda mask: (
        mask.bit_count(), tuple(i for i in range(t) if mask >> i & 1)))
    rows = [{sign: tuple(sign * (mask >> i & 1) for i in range(t))
             for sign in (1, -1)} for mask in walls]
    # Per wall, its splits into two disjoint earlier walls, each once.
    position = {mask: k for k, mask in enumerate(walls)}
    splits = [[(position[a], position[mask ^ a])
               for a in range(1, mask) if a & mask == a and a < mask ^ a]
              for mask in walls]
    last = len(walls) - 1

    chambers = []
    signs = [0] * len(walls)
    # (wall, sign, integer witness of the walls before it or None at
    # the root, the elimination of their rows); a positive multiple of
    # a witness is one too.  Both children share their parent's
    # elimination, and a child that adds a row adds it to a copy.
    root = rational.StrictElimination(t)
    stack = [(0, -1, None, root), (0, 1, None, root)]
    while stack:
        k, sign, witness, system = stack.pop()
        signs[k] = sign
        forced = {signs[a] for a, b in splits[k] if signs[a] == signs[b]}
        if -sign in forced:
            continue
        row = rows[k][sign]
        if sign not in forced:
            system = system.copy()
            system.add(row)
        if k == last or witness is None or dot(row, witness) <= 0:
            found = system.point()
            if found is None:
                continue
            nums, _ = found
            if k == last:
                chambers.append(rational.integerize([-sum(nums), *nums]))
                continue
            witness = rational.integerize(nums)
        stack += [(k + 1, -1, witness, system), (k + 1, 1, witness, system)]

    # Each representative is generic: its witness is strict on every
    # wall.
    record = _lifted(tiling, matchings)
    return [Chamber(index=i + 1, representative=theta,
                    stable_subsets=tuple(_stable_subsets_at(
                        tiling, record, theta, _halves(theta))))
            for i, theta in enumerate(chambers)]


def find_chamber(tiling: QuiverOnTorus, chambers: Sequence,
                 theta: Sequence) -> Chamber:
    """The chamber containing a generic parameter: the first whose
    representative, checked as θ is, has θ's subset signs.  Raises
    DegenerateInputError, before any sign is read, on more than six
    vertices, where :func:`chamber_decomposition` lists no chamber."""
    halves = _require_generic(tiling, theta)
    if len(theta) > _MAX_CHAMBER_VERTICES:
        raise DegenerateInputError(
            f"chamber lookup supports at most {_MAX_CHAMBER_VERTICES} "
            f"vertices; this tiling has {len(theta)}")
    signs = list(_positive(halves))
    for chamber in chambers:
        _theta_check(tiling.vertices, chamber.representative)
        # compared mask by mask, up to the first sign that differs
        if all(map(operator.eq,
                   _positive(_halves(chamber.representative)), signs)):
            return chamber
    raise ValueError("no chamber matches the given parameter")
