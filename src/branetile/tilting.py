"""Tilting data over a stability chamber.

Choosing one weak path from a base vertex to every other vertex endows
the quotient with a collection of line bundles: each path's divisor
counts each stable matching's arrows on it, with sign, and divisor
classes live in the cokernel of the matching-functional matrix
on the kernel lattice (the divisor class group).  Classes do not
depend on the chosen paths, only on their endpoints.

Sections are counted in two independent ways and compared: lattice
points of the shifted polytope cut out by the stable functionals,
versus weights of actual quiver paths — bucketed by the height
functional, the total of *all* matching functionals (on an arrow,
the number of matchings through it).  One call counts many paths:
every lattice side, with its box refusal, runs before one path search
per distinct source.
"""

from __future__ import annotations

import numbers
from collections import Counter
from typing import NamedTuple, Sequence

from . import lattice
from .errors import ConsistencyError
from .polyhedra import integer_points, polyhedron_from_inequalities
from .stability import enumerate_stable_subsets, is_theta_stable
from .tiling import QuiverOnTorus, WeakPath, default_paths, make_weak_path


def weak_path_weight(tower, path: WeakPath) -> tuple:
    """Weight of a weak path: signed sum of its arrow weights."""
    total = [0] * tower.rank
    for aid, exp in path.steps:
        w = tower.weights[aid]
        total = [t + exp * x for t, x in zip(total, w)]
    return tuple(total)


def stable_matchings(tiling: QuiverOnTorus, theta: Sequence,
                     matchings: Sequence) -> list:
    """The matchings stable at a generic parameter, in the given order.

    They are the stable singles of
    :func:`stability.enumerate_stable_subsets`, the least lifted
    matchings read from the tiling's lifted record, and each is
    certified by one :func:`stability.is_theta_stable` call; one that
    fails raises ConsistencyError.  So a list that lacks a hull corner
    or a point's least matching is refused with ConsistencyError, or
    gets exactly the matchings of the list that pass
    :func:`stability.is_theta_stable`.
    """
    singles = {s.matching_ids[0] for s in enumerate_stable_subsets(
        tiling, theta, matchings) if s.dim == 1}
    stable = [m for m in matchings if m.matching_id in singles]
    for m in stable:
        if not is_theta_stable(tiling, m.arrows, theta):
            raise ConsistencyError(
                f"{m.matching_id} is least at its point but not stable")
    return stable


def path_divisor(tiling: QuiverOnTorus, path: WeakPath,
                 stable: Sequence) -> tuple:
    """``(matching_id, coefficient)`` per stable matching M: the path's
    weight paired with M's functional, which by linearity is Σ e·[a ∈ M]
    over the path's steps (a, e), read from M's mask through one arrow
    mask per net exponent.  Raises ValueError unless ``make_weak_path``
    rebuilds the path from its steps and source."""
    if make_weak_path(tiling, path.steps, path.source) != path:
        raise ValueError(f"{path!r} is not the weak path of its steps")
    bits = tiling.arrow_bits
    net: dict = {}  # arrow bit -> net exponent
    for aid, exp in path.steps:
        net[bits[aid]] = net.get(bits[aid], 0) + exp
    masks: dict = {}  # net exponent -> its arrows' mask
    for k, e in net.items():
        masks[e] = masks.get(e, 0) | 1 << k
    return tuple((m.matching_id, sum(e * (m.mask & mask).bit_count()
                                     for e, mask in masks.items()))
                 for m in stable)


# ---------------------------------------------------------------------------
# the divisor class group
# ---------------------------------------------------------------------------

class PicardPresentation(NamedTuple):
    """Cokernel presentation of divisor vectors modulo the kernel
    lattice's image.

    A divisor vector indexed by the stable matchings maps to a free
    part (length = #stable - 3) and a torsion part; two vectors name
    the same divisor class iff both parts agree.  ``class_of`` takes
    integer coefficients only and refuses any other entry.
    """

    matching_ids: tuple
    projection: tuple    # free rows of the Smith transform
    torsion: tuple       # of (row, modulus) for moduli > 1
    rank: int            # free rank of the divisor class group

    def class_of(self, coefficients: Sequence) -> tuple:
        vec = list(coefficients)
        if len(vec) != len(self.matching_ids):
            raise ValueError(f"divisor has {len(vec)} entries, not "
                             f"{len(self.matching_ids)} stable matchings")
        vec = lattice._exact(vec, "divisor")
        free = tuple(lattice.dot(row, vec) for row in self.projection)
        tors = tuple(lattice.dot(row, vec) % mod
                     for row, mod in self.torsion)
        return free, tors


def picard_presentation(stable: Sequence) -> PicardPresentation:
    """Smith-normal-form presentation of divisors modulo the image of
    the kernel lattice under all stable functionals."""
    rows = [list(m.chi_kernel) for m in stable]
    n = len(rows)
    u, s, _ = lattice.smith_normal_form(rows)
    diag = [s[i][i] for i in range(min(n, 3))]
    image_rank = sum(1 for d in diag if d)
    if image_rank != 3:
        raise ConsistencyError(
            f"stable matching functionals span rank {image_rank}, expected 3")
    projection = tuple(tuple(u[i]) for i in range(image_rank, n))
    torsion = tuple((tuple(u[i]), diag[i])
                    for i in range(image_rank) if diag[i] > 1)
    return PicardPresentation(
        matching_ids=tuple(m.matching_id for m in stable),
        projection=projection, torsion=torsion, rank=len(projection))


# ---------------------------------------------------------------------------
# tilting collections
# ---------------------------------------------------------------------------

class TiltingCollection(NamedTuple):
    """One divisor class per vertex, from the default paths."""

    base: str
    ray_ids: tuple       # stable matching ids — divisor coordinate order
    paths: tuple         # of (vertex, WeakPath)
    divisors: tuple      # of (vertex, coefficient tuple)
    classes: tuple       # of (vertex, (free part, torsion part))
    presentation: PicardPresentation


def tilting_collection(tiling: QuiverOnTorus, tower, theta: Sequence,
                       matchings: Sequence,
                       base: "str | None" = None) -> TiltingCollection:
    """One divisor and class per vertex, along :func:`default_paths` from
    ``base``.  Raises ValueError unless the tower is the tiling's and the
    base is one of its vertices."""
    lattice._check_tower(tiling, tower)
    stable = stable_matchings(tiling, theta, matchings)
    presentation = picard_presentation(stable)
    path_items = tuple(default_paths(tiling, base).items())
    divisors = []
    classes = []
    for v, path in path_items:
        coeffs = tuple(c for _, c in path_divisor(tiling, path, stable))
        divisors.append((v, coeffs))
        classes.append((v, presentation.class_of(coeffs)))
    return TiltingCollection(
        base=path_items[0][1].source,
        ray_ids=tuple(m.matching_id for m in stable),
        paths=path_items, divisors=tuple(divisors), classes=tuple(classes),
        presentation=presentation)


# ---------------------------------------------------------------------------
# graded section counts
# ---------------------------------------------------------------------------

class SectionCount(NamedTuple):
    """Per-height section counts of a path's divisor, computed from
    the lattice polytope and from quiver paths."""

    path: WeakPath
    max_height: int
    path_height: int
    heights: tuple  # of (height, lattice count, path count)

    @property
    def matches(self) -> bool:
        return all(a == b for _, a, b in self.heights)


def graded_sections_count(tiling: QuiverOnTorus, tower, theta: Sequence,
                          paths: Sequence, matchings: Sequence,
                          max_height: int) -> tuple:
    """One :class:`SectionCount` per weak path, in the given order: the
    sections of the path's divisor, graded by height.

    Lattice side: integer points of ``{y : <chi_I, y> >= -chi_I(path)
    for stable I}`` capped at the height bound, bucketed by total
    height.  Path side: distinct weights of forward paths between the
    path's endpoints, bucketed the same way; the two agree when the
    quotient represents the sections faithfully.  Every path's lattice
    side (with its box refusal) runs before the path searches, one per
    distinct source.  A negative or non-integer ``max_height``, or
    another tiling's tower, raises ValueError.
    """
    if not isinstance(max_height, numbers.Integral):
        raise ValueError(f"max_height must be an integer, got {max_height!r}")
    if max_height < 0:
        raise ValueError(f"max_height must be nonnegative, got {max_height}")
    lattice._check_tower(tiling, tower)
    stable = stable_matchings(tiling, theta, matchings)
    if not stable:
        raise ConsistencyError("no stable matchings: the fan is empty")

    # The total-height functional: on the kernel, the sum of all kernel
    # functionals; on an arrow, N_a, the number of matchings through it,
    # by arrow bit the '1's in each column of the n-digit binary masks.
    bits = tiling.arrow_bits
    n, spec = len(bits), f"0{len(bits)}b"
    digits = "".join([format(m.mask, spec) for m in matchings])
    through = [digits[j::n].count("1") for j in range(n)][::-1]
    height_vec = tuple(
        sum(m.chi_kernel[j] for m in matchings) for j in range(3))
    below = tuple(-h for h in height_vec)

    # Lattice count: chi_I . y >= -chi_I(path), total height capped.
    lattice_sides = []  # of (path, path height, Counter of heights)
    for path in paths:
        inequalities = [(m.chi_kernel, -c) for m, (_, c) in
                        zip(stable, path_divisor(tiling, path, stable))]
        path_height = sum(exp * through[bits[aid]] for aid, exp in path.steps)
        inequalities.append((below, path_height - max_height))
        poly = polyhedron_from_inequalities(inequalities, 3)
        if poly.rays or poly.lineality:
            raise ConsistencyError("capped section polytope is unbounded")
        heights = (lattice.dot(height_vec, y) + path_height
                   for y in integer_points(poly))
        lattice_sides.append((path, path_height, Counter(
            h for h in heights if 0 <= h <= max_height)))

    # Path count: distinct forward-path weights from each source, by
    # (target, height).  Every arrow's height is positive, so the cap
    # bounds the search; ``seen`` keeps each state's height.
    outgoing: dict = {v: [] for v in tiling.vertices}
    for a in tiling.arrows:
        h = through[bits[a.arrow_id]]
        if h <= 0:
            raise ConsistencyError(
                f"arrow {a.arrow_id!r} lies in no perfect matching; the "
                "path search would not terminate")
        outgoing[a.source].append((a.target, tower.weights[a.arrow_id], h))
    path_sides = {}  # source -> Counter of (target, height)
    for source in dict.fromkeys(path.source for path, _, _ in lattice_sides):
        seen = {(source, (0,) * tower.rank): 0}
        queue = list(seen)  # grows while it is read
        for vertex, w in queue:
            base = seen[vertex, w]
            for target, weight, height in outgoing[vertex]:
                h = base + height
                if h > max_height:
                    continue
                found = (target, tuple(x + y for x, y in zip(w, weight)))
                if found not in seen:
                    seen[found] = h
                    queue.append(found)
        path_sides[source] = Counter((v, h) for (v, _), h in seen.items())

    return tuple(
        SectionCount(path, max_height, path_height, tuple(
            (h, lat[h], path_sides[path.source][path.target, h])
            for h in range(max_height + 1)))
        for path, path_height, lat in lattice_sides)
