"""Perfect matchings of a tiling and its toric diagram.

A perfect matching is a set of arrows meeting every face cycle exactly
once (counted with multiplicity along the cycle).  Each matching
determines a functional on the weight lattice — value 1 on the weight
of every arrow in the matching, 0 on the others — whose restriction to
the kernel lattice is a point at height one; dropping the height gives
the matching's point in the plane, and the collection of these points
is the toric diagram of the tiling.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from . import lattice
from .errors import ConsistencyError
from .tiling import QuiverOnTorus


@dataclasses.dataclass(frozen=True)
class PerfectMatching:
    """A perfect matching with its weight-lattice functional.

    Attributes:
        matching_id: ``m1``, ``m2``, ... in enumeration order.
        arrows: the matching's arrow ids.
        chi: functional on the weight lattice — 1 on arrows in the
            matching, 0 on the rest, and 1 on the face-cycle weight.
        chi_kernel: restriction of ``chi`` to the kernel lattice; its
            last coordinate is always 1.
    """

    matching_id: str
    arrows: frozenset
    chi: tuple
    chi_kernel: tuple

    @property
    def point(self) -> tuple:
        """The matching's point in the toric diagram."""
        return self.chi_kernel[:2]


def matching_id_key(matching_id: str) -> tuple:
    """Sort key putting ``m2`` before ``m10``: the order in which
    matching ids are minted, and the one every listing of ids uses."""
    return (len(matching_id), matching_id)


def matching_arrow_sets(tiling: QuiverOnTorus) -> list:
    """All perfect matchings as frozensets of arrow ids.

    Backtracks face by face; a face already met once is skipped, and an
    arrow is only added when every face containing it is still unmet.
    Sorted by the tuple of sorted arrow ids.
    """
    faces = list(tiling.faces)
    # count[j] = how many chosen arrows face j currently contains,
    # with multiplicity.
    mult = [
        {aid: face.arrows.count(aid) for aid in set(face.arrows)}
        for face in faces
    ]
    faces_of = {a.arrow_id: [] for a in tiling.arrows}
    for j, face in enumerate(faces):
        for aid in set(face.arrows):
            faces_of[aid].append(j)

    count = [0] * len(faces)
    chosen: set = set()
    found = []

    def extend(j: int) -> None:
        if j == len(faces):
            found.append(frozenset(chosen))
            return
        if count[j] == 1:
            extend(j + 1)
            return
        for aid in sorted(mult[j]):
            if aid in chosen:
                continue
            hits = faces_of[aid]
            if any(count[i] + mult[i][aid] > 1 for i in hits):
                continue
            chosen.add(aid)
            for i in hits:
                count[i] += mult[i][aid]
            extend(j + 1)
            chosen.discard(aid)
            for i in hits:
                count[i] -= mult[i][aid]

    extend(0)
    return sorted(set(found), key=lambda s: tuple(sorted(s)))


def enumerate_perfect_matchings(tiling: QuiverOnTorus,
                                tower: "lattice.LatticeTower | None" = None) -> list:
    """All perfect matchings with their functionals, in a deterministic
    order (sorted arrow-id tuples); ids are assigned in that order."""
    if tower is None:
        tower = lattice.build_lattice_tower(tiling)
    k = tower.rank
    section = [list(row) for row in tower.section]
    result = []
    for n, arrows in enumerate(matching_arrow_sets(tiling)):
        ambient = [1] + [1 if aid in arrows else 0 for aid in tower.arrow_ids]
        chi = tuple(lattice.vec_mat(ambient, section))
        for aid in tower.arrow_ids:
            expect = 1 if aid in arrows else 0
            if lattice.dot(chi, tower.weights[aid]) != expect:
                raise ConsistencyError(
                    "matching functional disagrees with arrow weights")
        if lattice.dot(chi, tower.face_cycle_weight) != 1:
            raise ConsistencyError(
                "matching functional is not 1 on the face-cycle weight")
        chi_kernel = tuple(
            sum(chi[i] * tower.kernel_basis[i][j] for i in range(k))
            for j in range(3)
        )
        if chi_kernel[2] != 1:
            raise ConsistencyError(
                "matching functional is not at height one over the plane")
        result.append(PerfectMatching(matching_id=f"m{n + 1}",
                                      arrows=arrows, chi=chi,
                                      chi_kernel=chi_kernel))
    return result


# ---------------------------------------------------------------------------
# plane geometry helpers
# ---------------------------------------------------------------------------

def cross(o: Sequence[int], p: Sequence[int], q: Sequence[int]) -> int:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def convex_hull_2d(points: Iterable) -> list:
    """Strict convex hull, counterclockwise from the lexicographic
    smallest vertex; collinear boundary points are dropped."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return pts
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) <= 2:  # all points collinear
        return [pts[0], pts[-1]]
    return hull


def doubled_area(polygon: Sequence) -> int:
    """Twice the area of a (convex, ccw) polygon — the shoelace sum."""
    total = 0
    for p, q in zip(polygon, polygon[1:] + polygon[:1]):
        total += p[0] * q[1] - p[1] * q[0]
    return total


def lattice_points_in_hull(hull: Sequence) -> list:
    """All integer points inside or on a convex ccw polygon."""
    if not hull:
        return []
    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    edges = list(zip(hull, hull[1:] + hull[:1])) if len(hull) >= 3 else []
    points = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            pt = (x, y)
            if len(hull) == 1:
                inside = pt == tuple(hull[0])
            elif len(hull) == 2:
                a, b = hull
                inside = (cross(a, b, pt) == 0
                          and min(a[0], b[0]) <= x <= max(a[0], b[0])
                          and min(a[1], b[1]) <= y <= max(a[1], b[1]))
            else:
                inside = all(cross(p, q, pt) >= 0 for p, q in edges)
            if inside:
                points.append(pt)
    return points


# ---------------------------------------------------------------------------
# the toric diagram
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ToricDiagram:
    """The multiset of matching points in the plane.

    Attributes:
        points: ``(matching_id, (x, y))`` in enumeration order.
        hull: strict hull vertices, counterclockwise.
        extremal_ids: matchings sitting on hull vertices.
        canonical: canonical form of the point multiset — equal for two
            diagrams iff they differ by a unimodular change of plane
            coordinates and a translation.
    """

    points: tuple
    hull: tuple
    extremal_ids: tuple
    canonical: tuple


def _edge_frame_form(pts: list, v0: tuple, v1: tuple) -> tuple:
    """The multiset seen from one directed hull edge: the edge start
    goes to the origin, the primitive edge direction to (1, 0), and the
    remaining shear freedom is fixed by normalizing the smallest x on
    the lowest positive level into [0, level)."""
    u = lattice.primitive((v1[0] - v0[0], v1[1] - v0[1]))
    # (-b, a) completes u to a positively oriented lattice basis; the
    # map below is the inverse of that basis matrix.
    _, a, b = _xgcd(u[0], u[1])
    moved = []
    for x, y in pts:
        dx, dy = x - v0[0], y - v0[1]
        moved.append((a * dx + b * dy, -u[1] * dx + u[0] * dy))
    levels = sorted({y for _, y in moved if y > 0})
    if levels:
        low = levels[0]
        xmin = min(x for x, y in moved if y == low)
        k = -(xmin // low)
        moved = [(x + k * y, y) for x, y in moved]
    return tuple(sorted(moved))


def _xgcd(x: int, y: int) -> tuple:
    if y == 0:
        return (abs(x), 1 if x > 0 else -1, 0)
    g, a, b = _xgcd(y, x % y)
    return (g, b, a - (x // y) * b)


def canonical_point_multiset(points: Iterable) -> tuple:
    """Canonical representative of a plane point multiset under the
    action of GL(2, Z) and translations.

    The candidate coordinate frames are intrinsic to the multiset — one
    per directed hull edge, on the multiset and on its mirror image,
    each with the shear freedom normalized — so equivalent multisets
    enumerate identical candidate forms and the minimum is a true
    canonical form.  Degenerate multisets (one point, or collinear) are
    normalized on their affine line instead.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        return ()
    hull = convex_hull_2d(pts)
    if len(hull) == 1:
        return tuple((0, 0) for _ in pts)
    if len(hull) == 2:
        (x0, y0), (x1, y1) = hull
        u = lattice.primitive((x1 - x0, y1 - y0))
        # Integer coordinate of each point along the primitive direction.
        if u[0] != 0:
            ts = [(x - x0) // u[0] for x, _ in pts]
        else:
            ts = [(y - y0) // u[1] for _, y in pts]
        top = max(ts)
        forward = sorted(ts)
        backward = sorted(top - t for t in ts)
        return tuple((t, 0) for t in min(forward, backward))
    best = None
    for mirrored in (False, True):
        image = [(x, -y) for x, y in pts] if mirrored else pts
        ring = convex_hull_2d(image)
        for i, v0 in enumerate(ring):
            form = _edge_frame_form(image, v0, ring[(i + 1) % len(ring)])
            if best is None or form < best:
                best = form
    return best


def toric_diagram(tiling: QuiverOnTorus,
                  tower: "lattice.LatticeTower | None" = None,
                  matchings: "list | None" = None) -> ToricDiagram:
    if matchings is None:
        matchings = enumerate_perfect_matchings(tiling, tower)
    points = tuple((m.matching_id, m.point) for m in matchings)
    hull = tuple(convex_hull_2d(p for _, p in points))
    hull_set = set(hull)
    extremal = tuple(mid for mid, p in points if p in hull_set)
    canonical = canonical_point_multiset(p for _, p in points)
    return ToricDiagram(points=points, hull=hull, extremal_ids=extremal,
                        canonical=canonical)


def extremal_matchings(matchings: Sequence, diagram: ToricDiagram) -> list:
    ids = set(diagram.extremal_ids)
    return [m for m in matchings if m.matching_id in ids]
