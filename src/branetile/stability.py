"""Stability of arrow subsets and the chamber decomposition.

A stability parameter assigns an integer or a Fraction to each quiver
vertex, summing to zero; it is used exactly as given.  An arrow subset
is stable when every *support* — a proper nonempty vertex subset
closed under the arrows outside the given set — has strictly positive
total parameter.  Stable subsets are unions of perfect matchings;
since supports only grow along inclusions of arrow sets, every union
of some of the matchings of a stable union is stable, so a stable
pair is extended only by matchings that make stable pairs with both.

Genericity is an open condition: the walls are the hyperplanes where
some proper nonempty vertex subset sums to zero, and the chambers of
the complement are the leaves of a sign tree over the walls, walked
with an explicit stack and pruned exactly (see
:func:`chamber_decomposition`).  Each branch extends its parent's
Fourier–Motzkin elimination (:class:`rational.StrictElimination`) by
one row, and the back-substituted witness at the last wall is the
chamber's representative.  That witness depends only on the set the
rows cut out, so rows implied by others are left out.  Genericity,
the stability of arrow sets and the sign vector of a chamber all read
one table of the parameter's sums over all vertex subsets, indexed by
bitmask.  Arrow sets are integer masks (bit k is the tiling's k-th
arrow), so a union of matchings is one ``|``, and supports are closed
as bitmasks.  Supports do not depend on the parameter, so each arrow
mask is closed once per tiling: its support masks are kept in the
tiling's moduli record (``QuiverOnTorus.moduli_record``), on the
instance, and freed with it.  Nothing else is kept between calls.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
from typing import Iterable, Sequence

from . import rational
from .errors import DegenerateInputError
from .lattice import dot
from .matchings import matching_id_key
from .tiling import QuiverOnTorus


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


def _subset_sums(values: Sequence) -> list:
    """The sum over every vertex subset, indexed by bitmask (bit i is
    vertex i): each vertex doubles the table."""
    sums = [0]
    for t in values:
        sums += [x + t for x in sums]
    return sums


def is_generic(tiling: QuiverOnTorus, theta: Sequence) -> bool:
    """Whether no proper nonempty vertex subset sums to zero."""
    _theta_check(tiling.vertices, theta)
    return all(_subset_sums(theta)[1:-1])


def _arrow_mask(tiling: QuiverOnTorus, arrows: Iterable) -> int:
    """The arrow set with bit k for the tiling's k-th arrow; raises
    ValueError naming the first id, in sorted order, it does not have."""
    chosen = set(arrows)
    unknown = chosen - tiling.arrow_map.keys()
    if unknown:
        raise ValueError(f"unknown arrow id {min(unknown, key=str)!r}")
    return sum(1 << k for k, a in enumerate(tiling.arrows)
               if a.arrow_id in chosen)


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


def _support_masks(tiling: QuiverOnTorus, arrows: int) -> frozenset:
    """The bitmasks (bit i is vertex i) of the supports of an arrow mask
    (bit k is the tiling's k-th arrow), closed once per tiling and kept
    in its moduli record."""
    memo = tiling.moduli_record.supports
    found = memo.get(arrows)
    if found is None:
        found = memo[arrows] = _close_supports(tiling, arrows)
    return found


def _close_supports(tiling: QuiverOnTorus, arrows: int) -> frozenset:
    """The support masks of an arrow mask: the unions of reachability
    closures.  Each vertex generates the set of vertices reachable from
    it along the arrows outside the set, and the supports are the
    proper nonempty members of the union-closure of these."""
    n = len(tiling.vertices)
    index = {v: i for i, v in enumerate(tiling.vertices)}
    succ = [[] for _ in range(n)]
    for k, a in enumerate(tiling.arrows):
        if not arrows >> k & 1:
            succ[index[a.source]].append(index[a.target])
    generators = set()
    for v in range(n):
        mask = 1 << v
        stack = [v]
        while stack:
            for w in succ[stack.pop()]:
                if not mask >> w & 1:
                    mask |= 1 << w
                    stack.append(w)
        generators.add(mask)
    closed = {0}
    for g in generators:
        closed |= {c | g for c in closed}
    return frozenset(closed - {0, (1 << n) - 1})


def submodule_supports(tiling: QuiverOnTorus, arrows: Iterable) -> list:
    """Proper nonempty vertex subsets closed under the arrows *outside*
    the given arrow set, sorted by (size, sorted vertex ids).  Raises
    ValueError on an arrow id the tiling does not have."""
    supports = _support_masks(tiling, _arrow_mask(tiling, arrows))
    out = [frozenset(v for i, v in enumerate(tiling.vertices) if mask >> i & 1)
           for mask in supports]
    return sorted(out, key=lambda s: (len(s), sorted(s)))


_ON_A_WALL = ("stability parameter lies on a wall (some proper vertex "
              "subset sums to zero)")


def _require_generic(tiling: QuiverOnTorus, theta: Sequence) -> list:
    """The subset-sum table (:func:`_subset_sums`) of a checked
    parameter; raises DegenerateInputError when it lies on a wall."""
    _theta_check(tiling.vertices, theta)
    sums = _subset_sums(theta)
    if not all(sums[1:-1]):
        raise DegenerateInputError(_ON_A_WALL)
    return sums


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

@dataclasses.dataclass(frozen=True)
class StableSubset:
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
    empty set, for a generic parameter.

    Supports grow with the arrow set, so every sub-union of a stable
    union is stable: only stable matchings are united, and a stable
    pair only with a later matching that makes a stable pair with both
    of its members.  Deduplication is by arrow mask.  The parameter is
    checked when there is a matching to test, as
    :func:`is_theta_stable` would.
    """
    sums = _require_generic(tiling, theta) if matchings else ()
    return _stable_subsets_at(tiling, matchings)(sums)


def _stable_subsets_at(tiling: QuiverOnTorus, matchings: Sequence):
    """:func:`enumerate_stable_subsets` as a function of the subset-sum
    table (:func:`_subset_sums`) of a generic parameter.

    The support masks of each tested arrow mask come from the tiling's
    moduli record (:func:`_support_masks`), and the subset each stable
    union makes is found once and kept by the returned function (and
    freed with it).  At each parameter an arrow set is stable iff none
    of its support masks has a nonpositive sum.  Stable matchings a, b,
    c, in order, make a stable union a | b | c only if a | b, a | c and
    b | c are stable, so each triple is tested once, from its first
    pair.
    """
    masks = [_arrow_mask(tiling, m.arrows) for m in matchings]
    supports = functools.partial(_support_masks, tiling)

    @functools.cache
    def subset_of(union: int) -> StableSubset:
        members = [m for m, mask in zip(matchings, masks)
                   if mask & union == mask]
        contained = tuple(sorted((m.matching_id for m in members),
                                 key=matching_id_key))
        return StableSubset(
            arrows=frozenset().union(*(m.arrows for m in members)),
            matching_ids=contained, dim=len(contained))

    def at(sums: Sequence) -> list:
        unstable = {mask for mask, total in enumerate(sums) if total <= 0}
        stable = [mask for mask in masks
                  if unstable.isdisjoint(supports(mask))]
        found = dict.fromkeys([0, *stable])
        # partners[i]: each later j with stable[i] | stable[j] stable
        partners: list = [set() for _ in stable]
        for i, a in enumerate(stable):
            for j in range(i + 1, len(stable)):
                union = a | stable[j]
                if union in found or unstable.isdisjoint(supports(union)):
                    found[union] = None
                    partners[i].add(j)
        for i, a in enumerate(stable):
            for j in partners[i]:
                union = a | stable[j]
                for k in partners[i] & partners[j]:
                    bigger = union | stable[k]
                    if bigger not in found \
                            and unstable.isdisjoint(supports(bigger)):
                        found[bigger] = None

        return sorted(map(subset_of, found),
                      key=lambda s: (s.dim, s.matching_ids))

    return at


# ---------------------------------------------------------------------------
# chambers
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Chamber:
    """A connected component of the generic locus.

    ``sign_vector`` records, for every proper nonempty vertex subset,
    the sign of its parameter sum; it is constant on the chamber and
    identifies it.  ``stable_subsets`` is the stable structure at the
    representative (hence on the whole chamber).
    """

    index: int
    representative: tuple
    sign_vector: tuple  # of ((sorted vertex tuple), +1 or -1)
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


def _proper_subsets(vertices: Sequence) -> list:
    """Every proper nonempty vertex subset as (bitmask, sorted vertex
    tuple), ordered by (size, sorted ids)."""
    out = [(mask, tuple(sorted(v for i, v in enumerate(vertices)
                               if mask >> i & 1)))
           for mask in range(1, (1 << len(vertices)) - 1)]
    return sorted(out, key=lambda entry: (len(entry[1]), entry[1]))


def _sign_vector(subsets: Sequence, sums: Sequence) -> tuple:
    return tuple((subset, 1 if sums[mask] > 0 else -1)
                 for mask, subset in subsets)


# The resonance arrangement has 11 292 chambers at 6 vertices and over a
# million at 7 (OEIS A034997), too many to list one by one.
_MAX_CHAMBER_VERTICES = 6


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
    on the full list of wall rows.  Supports are closed once per arrow
    set and tiling, for all chambers and later calls.

    Raises DegenerateInputError on more than six vertices: the
    resonance arrangement then has over a million chambers.
    """
    n = len(tiling.vertices)
    if n > _MAX_CHAMBER_VERTICES:
        raise DegenerateInputError(
            f"chamber decomposition supports at most {_MAX_CHAMBER_VERTICES} "
            f"vertices; this tiling has {n}")
    t = n - 1
    if t == 0:
        subsets = enumerate_stable_subsets(tiling, (0,), matchings)
        return [Chamber(index=1, representative=(0,), sign_vector=(),
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
    # the root, the elimination of their rows, whether the entry owns
    # that elimination); a positive multiple of a witness is one too.
    # The +1 child's subtree is walked before the -1 child is popped,
    # so the -1 child inherits ownership and the +1 child copies the
    # elimination only when it adds a row.
    root = rational.StrictElimination(t)
    stack = [(0, -1, None, root, True), (0, 1, None, root, False)]
    while stack:
        k, sign, witness, system, owned = stack.pop()
        signs[k] = sign
        forced = {signs[a] for a, b in splits[k] if signs[a] == signs[b]}
        if -sign in forced:
            continue
        row = rows[k][sign]
        if sign not in forced:
            if not owned:
                system, owned = system.copy(), True
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
        stack += [(k + 1, -1, witness, system, owned),
                  (k + 1, 1, witness, system, False)]

    # Each representative is generic: its witness is strict on every
    # wall.
    order = _proper_subsets(tiling.vertices)
    stable_subsets = _stable_subsets_at(tiling, matchings)
    out = []
    for i, theta in enumerate(chambers):
        sums = _subset_sums(theta)
        out.append(Chamber(index=i + 1, representative=theta,
                           sign_vector=_sign_vector(order, sums),
                           stable_subsets=tuple(stable_subsets(sums))))
    return out


def find_chamber(tiling: QuiverOnTorus, chambers: Sequence,
                 theta: Sequence) -> Chamber:
    """The chamber containing a generic parameter."""
    signs = _sign_vector(_proper_subsets(tiling.vertices),
                         _require_generic(tiling, theta))
    for chamber in chambers:
        if chamber.sign_vector == signs:
            return chamber
    raise ValueError("no chamber matches the given parameter")
