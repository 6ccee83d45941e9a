"""Stability of arrow subsets and the chamber decomposition.

A stability parameter assigns an integer or a Fraction to each quiver
vertex, summing to zero; it is used exactly as given.  An arrow subset
is stable when every *support* — a proper nonempty vertex subset
closed under the arrows outside the given set — has strictly positive
total parameter.  Stable subsets are unions of perfect matchings;
since supports only grow along inclusions of arrow sets, every
matching contained in a stable union is itself stable.

Genericity is an open condition: the walls are the hyperplanes where
some proper nonempty vertex subset sums to zero, and the chambers of
the complement are enumerated here by recursive sign splitting with an
exact Fourier–Motzkin feasibility check, whose last witness is the
chamber's representative.  Genericity, the stability of arrow sets and
the sign vector of a chamber all read one table of the parameter's
sums over all vertex subsets, indexed by bitmask; supports are closed
as bitmasks too.  Nothing is cached between calls.
"""

from __future__ import annotations

import dataclasses
import numbers
from typing import Iterable, Sequence

from . import rational
from .errors import DegenerateInputError
from .matchings import matching_id_key
from .tiling import QuiverOnTorus


def _theta_check(tiling: QuiverOnTorus, theta: Sequence) -> dict:
    if len(theta) != len(tiling.vertices):
        raise ValueError(
            f"stability parameter has {len(theta)} entries for "
            f"{len(tiling.vertices)} vertices")
    if not all(isinstance(t, numbers.Rational) for t in theta):
        raise ValueError("stability parameter entries must be integers "
                         "or Fractions")
    if sum(theta) != 0:
        raise ValueError("stability parameter entries must sum to zero")
    return dict(zip(tiling.vertices, theta))


def _subset_sums(values: Sequence) -> list:
    """The sum over every vertex subset, indexed by bitmask (bit i is
    vertex i): each vertex doubles the table."""
    sums = [0]
    for t in values:
        sums += [x + t for x in sums]
    return sums


def is_generic(tiling: QuiverOnTorus, theta: Sequence) -> bool:
    """Whether no proper nonempty vertex subset sums to zero."""
    by_vertex = _theta_check(tiling, theta)
    return all(_subset_sums(list(by_vertex.values()))[1:-1])


def is_w_compatible(tiling: QuiverOnTorus, arrows: Iterable) -> bool:
    """Whether an arrow set meets, for every arrow, the rest of its
    positive face iff it meets the rest of its negative face.

    Occurrences count: an arrow passed twice by a face cycle still
    leaves one occurrence behind when one is removed.
    """
    chosen = set(arrows)

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


def _support_masks(tiling: QuiverOnTorus):
    """A function from an arrow set to the bitmasks (bit i is vertex i)
    of its supports.  These are the unions of reachability closures:
    each vertex generates the set of vertices reachable from it along
    the arrows outside the set, and the supports are the proper
    nonempty members of the union-closure of these."""
    n = len(tiling.vertices)
    index = {v: i for i, v in enumerate(tiling.vertices)}
    edges = [(a.arrow_id, index[a.source], index[a.target])
             for a in tiling.arrows]

    def masks(arrows: Iterable) -> set:
        chosen = set(arrows)
        succ = [[] for _ in range(n)]
        for aid, source, target in edges:
            if aid not in chosen:
                succ[source].append(target)
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
        return closed - {0, (1 << n) - 1}

    return masks


def submodule_supports(tiling: QuiverOnTorus, arrows: Iterable) -> list:
    """Proper nonempty vertex subsets closed under the arrows *outside*
    the given arrow set, sorted by (size, sorted vertex ids)."""
    out = [frozenset(v for i, v in enumerate(tiling.vertices) if mask >> i & 1)
           for mask in _support_masks(tiling)(arrows)]
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def _require_generic(tiling: QuiverOnTorus, theta: Sequence) -> None:
    if not is_generic(tiling, theta):
        raise DegenerateInputError(
            "stability parameter lies on a wall (some proper vertex "
            "subset sums to zero)")


def is_theta_stable(tiling: QuiverOnTorus, arrows: Iterable,
                    theta: Sequence) -> bool:
    """Whether every support of the arrow set has positive parameter.

    Raises DegenerateInputError when the parameter lies on a wall.
    """
    by_vertex = _theta_check(tiling, theta)
    _require_generic(tiling, theta)
    return all(sum(by_vertex[v] for v in s) > 0
               for s in submodule_supports(tiling, arrows))


def _stability_test(tiling: QuiverOnTorus, theta: Sequence):
    """:func:`is_theta_stable` at one parameter, as a function of the
    arrow set: the parameter is checked and its subset-sum table built
    once, and each support mask is looked up in the table."""
    _require_generic(tiling, theta)
    sums = _subset_sums(list(_theta_check(tiling, theta).values()))
    supports = _support_masks(tiling)
    return lambda arrows: all(sums[mask] > 0 for mask in supports(arrows))


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

    Monotonicity of supports under inclusion means nothing is missed by
    only ever uniting stable matchings (and only extending stable
    pairs).  Deduplication is by arrow set.  The parameter is checked
    when there is a matching to test, as :func:`is_theta_stable` would.
    """
    is_stable = _stability_test(tiling, theta) if matchings else None
    stable = [m for m in matchings if is_stable(m.arrows)]
    by_arrows: dict = {frozenset(): ()}
    for m in stable:
        by_arrows.setdefault(m.arrows, None)

    pairs = []
    for i, m1 in enumerate(stable):
        for m2 in stable[i + 1:]:
            union = m1.arrows | m2.arrows
            if union in by_arrows:
                continue
            if is_stable(union):
                by_arrows.setdefault(union, None)
                pairs.append(union)
    for union in pairs:
        for m3 in stable:
            bigger = union | m3.arrows
            if bigger in by_arrows:
                continue
            if is_stable(bigger):
                by_arrows.setdefault(bigger, None)

    subsets = []
    for arrows in by_arrows:
        contained = tuple(sorted(
            (m.matching_id for m in matchings if m.arrows <= arrows),
            key=matching_id_key))
        subsets.append(StableSubset(arrows=arrows, matching_ids=contained,
                                    dim=len(contained)))
    return sorted(subsets, key=lambda s: (s.dim, s.matching_ids))


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

    def sign_of(self, subset: Iterable) -> int:
        key = tuple(sorted(subset))
        for s, sign in self.sign_vector:
            if s == key:
                return sign
        raise KeyError(key)


def _sign_vector(tiling: QuiverOnTorus, theta: Sequence) -> tuple:
    vertices = tiling.vertices
    sums = _subset_sums(theta)
    out = []
    for mask in range(1, len(sums) - 1):
        subset = tuple(sorted(v for i, v in enumerate(vertices)
                              if mask >> i & 1))
        out.append((subset, 1 if sums[mask] > 0 else -1))
    return tuple(sorted(out, key=lambda entry: (len(entry[0]), entry[0])))


def chamber_decomposition(tiling: QuiverOnTorus,
                          matchings: Sequence) -> list:
    """All chambers of the generic locus, each with a primitive integer
    representative and its stable structure.

    The parameter space is the sum-zero hyperplane; with a single
    vertex it is a point, every parameter is vacuously generic, and
    the zero parameter is the one chamber.
    """
    n = len(tiling.vertices)
    t = n - 1
    if t == 0:
        subsets = enumerate_stable_subsets(tiling, (0,), matchings)
        return [Chamber(index=1, representative=(0,), sign_vector=(),
                        stable_subsets=tuple(subsets))]

    # Coordinates: theta_i = x_{i-1} for i >= 1, theta_0 = -sum(x).
    # Each wall pairs a vertex subset with its complement; the member
    # not containing vertex 0 gives an indicator functional in x, so
    # the walls are indexed by the nonempty subsets of range(t).
    reps = sorted(
        (tuple(i for i in range(t) if mask >> i & 1)
         for mask in range(1, 1 << t)),
        key=lambda s: (len(s), s))
    functionals = [tuple(int(i in s) for i in range(t)) for s in reps]

    chambers = []

    def descend(idx: int, constraints: list, point: tuple) -> None:
        if idx == len(functionals):
            chambers.append(rational.integerize([-sum(point)] + list(point)))
            return
        for sign in (1, -1):
            row = tuple(sign * c for c in functionals[idx])
            cs = constraints + [row]
            witness = rational.strict_feasible_point(cs, [], t)
            if witness is not None:
                descend(idx + 1, cs, witness)

    descend(0, [], ())

    out = []
    for i, theta in enumerate(chambers):
        subsets = enumerate_stable_subsets(tiling, theta, matchings)
        out.append(Chamber(index=i + 1, representative=theta,
                           sign_vector=_sign_vector(tiling, theta),
                           stable_subsets=tuple(subsets)))
    return out


def find_chamber(tiling: QuiverOnTorus, chambers: Sequence,
                 theta: Sequence) -> Chamber:
    """The chamber containing a generic parameter."""
    _require_generic(tiling, theta)
    signs = _sign_vector(tiling, theta)
    for chamber in chambers:
        if chamber.sign_vector == signs:
            return chamber
    raise ValueError("no chamber matches the given parameter")
