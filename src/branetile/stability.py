"""Stability of arrow subsets and the chamber decomposition.

A stability parameter assigns an integer to each quiver vertex, summing
to zero.  An arrow subset is stable when every *support* — a proper
nonempty vertex subset closed under the arrows outside the given set —
has strictly positive total parameter.  Stable subsets are unions of
perfect matchings; since supports only grow along inclusions of arrow
sets, every matching contained in a stable union is itself stable.

Genericity is an open condition: the walls are the hyperplanes where
some proper nonempty vertex subset sums to zero, and the chambers of
the complement are enumerated here by recursive sign splitting with an
exact Fourier–Motzkin feasibility check.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterable, Sequence

from . import rational
from .errors import ConsistencyError, DegenerateInputError
from .tiling import QuiverOnTorus


def _theta_check(tiling: QuiverOnTorus, theta: Sequence) -> dict:
    if len(theta) != len(tiling.vertices):
        raise ValueError(
            f"stability parameter has {len(theta)} entries for "
            f"{len(tiling.vertices)} vertices")
    if sum(theta) != 0:
        raise ValueError("stability parameter entries must sum to zero")
    return {v: int(t) for v, t in zip(tiling.vertices, theta)}


def _proper_subsets(vertices: Sequence) -> list:
    out = []
    n = len(vertices)
    for mask in range(1, (1 << n) - 1):
        out.append(frozenset(vertices[i] for i in range(n) if mask >> i & 1))
    return out


def is_generic(tiling: QuiverOnTorus, theta: Sequence) -> bool:
    """Whether no proper nonempty vertex subset sums to zero."""
    by_vertex = _theta_check(tiling, theta)
    return all(sum(by_vertex[v] for v in s) != 0
               for s in _proper_subsets(tiling.vertices))


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


def submodule_supports(tiling: QuiverOnTorus, arrows: Iterable) -> list:
    """Proper nonempty vertex subsets closed under the arrows *outside*
    the given arrow set.

    These are exactly the unions of reachability closures: each vertex
    generates the set of vertices reachable from it along outside
    arrows, and the closed sets form the union-closure of these.
    Sorted by (size, sorted vertex ids).
    """
    return list(_supports_cached(tiling, frozenset(arrows)))


@functools.lru_cache(maxsize=None)
def _supports_cached(tiling: QuiverOnTorus, arrows: frozenset) -> tuple:
    outside = [a for a in tiling.arrows if a.arrow_id not in set(arrows)]
    succ = {v: set() for v in tiling.vertices}
    for a in outside:
        succ[a.source].add(a.target)

    def closure(v) -> frozenset:
        seen = {v}
        stack = [v]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return frozenset(seen)

    generators = {closure(v) for v in tiling.vertices}
    closed = set(generators)
    frontier = set(generators)
    while frontier:
        fresh = set()
        for s in frontier:
            for g in generators:
                u = s | g
                if u not in closed:
                    closed.add(u)
                    fresh.add(u)
        frontier = fresh

    full = frozenset(tiling.vertices)
    out = [s for s in closed if s and s != full]
    return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))


def is_theta_stable(tiling: QuiverOnTorus, arrows: Iterable,
                    theta: Sequence) -> bool:
    """Whether every support of the arrow set has positive parameter.

    Raises DegenerateInputError when the parameter lies on a wall.
    """
    by_vertex = _theta_check(tiling, theta)
    if not is_generic(tiling, theta):
        raise DegenerateInputError(
            "stability parameter lies on a wall (some proper vertex "
            "subset sums to zero)")
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


def _id_num(mid: str) -> int:
    return int(mid.lstrip("m"))


def enumerate_stable_subsets(tiling: QuiverOnTorus, theta: Sequence,
                             matchings: Sequence) -> list:
    """All stable unions of up to three perfect matchings, plus the
    empty set, for a generic parameter.

    Monotonicity of supports under inclusion means nothing is missed by
    only ever uniting stable matchings (and only extending stable
    pairs).  Deduplication is by arrow set.
    """
    stable = [m for m in matchings
              if is_theta_stable(tiling, m.arrows, theta)]
    by_arrows: dict = {frozenset(): ()}
    for m in stable:
        by_arrows.setdefault(m.arrows, None)

    pairs = []
    for i, m1 in enumerate(stable):
        for m2 in stable[i + 1:]:
            union = m1.arrows | m2.arrows
            if union in by_arrows:
                continue
            if is_theta_stable(tiling, union, theta):
                by_arrows.setdefault(union, None)
                pairs.append(union)
    for union in pairs:
        for m3 in stable:
            bigger = union | m3.arrows
            if bigger in by_arrows:
                continue
            if is_theta_stable(tiling, bigger, theta):
                by_arrows.setdefault(bigger, None)

    subsets = []
    for arrows in by_arrows:
        contained = tuple(sorted(
            (m.matching_id for m in matchings if m.arrows <= arrows),
            key=_id_num))
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
    by_vertex = dict(zip(tiling.vertices, theta))
    out = []
    for s in sorted(_proper_subsets(tiling.vertices),
                    key=lambda s: (len(s), sorted(s))):
        total = sum(by_vertex[v] for v in s)
        out.append((tuple(sorted(s)), 1 if total > 0 else -1))
    return tuple(out)


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
    functionals = []
    for subset in reps:
        row = [0] * t
        for i in subset:
            row[i] = 1
        functionals.append(tuple(row))

    chambers = []

    def descend(idx: int, constraints: list) -> None:
        if idx == len(functionals):
            point = rational.strict_feasible_point(constraints, [], t)
            if point is None:
                raise ConsistencyError(
                    "a feasible sign pattern has no interior point")
            theta = rational.integerize(
                [-sum(point)] + list(point))
            chambers.append(theta)
            return
        for sign in (1, -1):
            row = tuple(sign * c for c in functionals[idx])
            cs = constraints + [row]
            if rational.strict_feasible_point(cs, [], t) is not None:
                descend(idx + 1, cs)

    descend(0, [])

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
    _theta_check(tiling, theta)
    if not is_generic(tiling, theta):
        raise DegenerateInputError(
            "stability parameter lies on a wall (some proper vertex "
            "subset sums to zero)")
    signs = _sign_vector(tiling, theta)
    for chamber in chambers:
        if chamber.sign_vector == signs:
            return chamber
    raise ValueError("no chamber matches the given parameter")
