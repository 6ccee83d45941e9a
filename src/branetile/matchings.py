"""Perfect matchings of a tiling and its toric diagram.

A perfect matching is a set of arrows meeting every face cycle exactly
once (counted with multiplicity along the cycle).  Each matching
determines a functional on the weight lattice — value 1 on the weight
of every arrow in the matching, 0 on the others — whose restriction to
the kernel lattice is a point at height one; dropping the height gives
the matching's point in the plane, and the collection of these points
is the toric diagram of the tiling.

The matchings are found by an exact-cover search, one layer of states
at a time, whose state is one int, the mask of the faces already met;
the faces take their bits in an order that keeps the frontier of the
placed faces narrow (see :func:`matching_arrow_sets`).  Each matching
is kept as one int too, the mask of its arrows in the order of
``QuiverOnTorus.arrow_bits``, from which its arrow ids are decoded and
the functional read on any path.
"""

from __future__ import annotations

import struct
from collections import Counter
from itertools import compress, count
from typing import Iterable, NamedTuple, Sequence

from . import lattice, rational
from .errors import ConsistencyError, DegenerateInputError
from .tiling import QuiverOnTorus


class PerfectMatching(NamedTuple):
    """A perfect matching as its arrow mask.  Its functional χ, 1 on its
    arrows' weights and on the face-cycle weight, is not kept: on a
    path's weight it counts the mask's arrows on the path, with sign.

    Attributes:
        matching_id: ``m1``, ``m2``, ... in enumeration order.
        mask: the matching's arrows, bit k for ``arrow_order[k]``.
        arrow_order: the tiling's sorted arrow ids, in a shared tuple.
        chi_kernel: restriction of χ to the kernel lattice; its last
            coordinate is always 1.
    """

    matching_id: str
    mask: int
    arrow_order: tuple
    chi_kernel: tuple

    @property
    def arrows(self) -> frozenset:
        """The matching's arrow ids, decoded from ``mask``."""
        return frozenset(self.arrow_order[k] for k in set_bits(self.mask))

    @property
    def point(self) -> tuple:
        """The matching's point in the toric diagram."""
        return self.chi_kernel[:2]


def matching_id_key(matching_id: str) -> tuple:
    """Sort key putting ``m2`` before ``m10``: the order in which
    matching ids are minted, and the one every listing of ids uses."""
    return (len(matching_id), matching_id)


# byte -> the positions of its set bits, ascending
_BYTE_BITS = tuple(tuple(k for k in range(8) if b >> k & 1)
                   for b in range(256))


def set_bits(mask: int) -> list:
    """The set bits of a nonnegative int, ascending: one table lookup
    per byte of the mask, low byte first."""
    size = (mask.bit_length() + 7) // 8
    return [k + base for base, byte in zip(range(0, 8 * size, 8),
                                           mask.to_bytes(size, "little"))
            for k in _BYTE_BITS[byte]]


# byte -> the byte with its 8 bits in reverse order
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))

# partial matchings the search may hold at once: above 6x6's peak of
# 306 652 in generator and shuffled face orders; C^3/Z_22 reaches it at
# about 220 MB of RSS
_MAX_PARTIAL_MATCHINGS = 1 << 21


def matching_arrow_sets(tiling: QuiverOnTorus) -> list:
    """All perfect matchings as arrow masks (``QuiverOnTorus.arrow_bits``),
    sorted by their set bits: the order of their sorted arrow-id tuples.

    An exact cover of the faces by arrows, built layer by layer with no
    recursion and no backtracking.  An arrow that a face cycle passes
    more than once is never chosen; every other arrow meets a mask of
    face bits.  The faces take their bits in the order they are placed
    in, from face 0.  The frontier is the unplaced faces that share a
    usable arrow with a placed face, and the next face placed is the
    frontier face that adds the fewest new faces to it; ties go to the
    face with the most placed neighbours, then to the lowest index.  An
    empty frontier starts again at the lowest unplaced face.  A face
    keeps its counts of neighbours not yet seen and already placed,
    updated as faces join the frontier and are placed, so a choice reads
    only the frontier.  A search state is one int, the mask of the faces
    already met, and it holds the arrow masks of all partial matchings
    that meet exactly those faces.  Layer f is the states whose lowest
    unmet face is f.  Each state of it is extended by every arrow that
    meets face f and no met face, its whole list in one comprehension,
    into a state whose lowest unmet face is later: so a state's list is
    complete when its layer comes up, each layer is dropped once it is
    done, and the full mask's list is the answer.  Branching on the
    lowest unmet face alone reaches each partial matching once.  Every
    met face above the lowest unmet one shares an arrow with a placed
    face, so it is on the frontier: the states are bounded by the
    frontier's width, and not by the order a document lists its faces
    in.  More than ``_MAX_PARTIAL_MATCHINGS`` partial matchings held in
    the layers to come raise ``DegenerateInputError``.
    The set of exact covers does not depend on the branching order, so
    one sort at the end gives the order of any other search; its key
    reads each mask with bit 0 most significant, through a byte table.
    """
    bits = tiling.arrow_bits
    covers = [()] * len(bits)  # arrow bit -> the faces containing it
    banned = set()
    for aid, i in bits.items():
        plus, minus = tiling._faces_by_arrow.get(aid, ((), ()))
        covers[i] = {*plus, *minus}
        if len(covers[i]) < len(plus) + len(minus):  # a face passes twice
            banned.add(i)
    members = [[] for _ in tiling.faces]  # face -> usable arrow bits
    for i, js in enumerate(covers):
        for j in js:
            if i not in banned:
                members[j].append(i)

    # face -> the other faces it shares a usable arrow with
    near = [{k for i in arrows for k in covers[i]} - {j}
            for j, arrows in enumerate(members)]
    unseen = [len(ks) for ks in near]  # face -> its neighbours not yet seen
    placed = [0] * len(near)  # face -> its neighbours already placed
    seen = [False] * len(near)  # placed or on the frontier
    bit_of: dict = {}  # face -> its bit, in placing order
    for start in range(len(near)):
        if seen[start]:
            continue
        seen[start] = True
        frontier = [start]
        for k in near[start]:
            unseen[k] -= 1
        while frontier:
            f = min(frontier, key=lambda k: (unseen[k], -placed[k], k))
            frontier.remove(f)
            bit_of[f] = len(bit_of)
            for k in near[f]:
                placed[k] += 1
                if not seen[k]:
                    seen[k] = True
                    frontier.append(k)
                    for l in near[k]:
                        unseen[l] -= 1
    mask = [sum(1 << bit_of[j] for j in js) for js in covers]
    # per face bit: (face mask, arrow bit) of each arrow meeting the face
    choices = [[(mask[i], 1 << i) for i in members[j]] for j in bit_of]

    # layer f: each met mask whose lowest unmet face is f -> the arrow
    # masks of the partial matchings that meet exactly its faces
    layers = [{} for _ in range(len(members) + 1)]
    layers[0][0] = [0]
    held = 1  # masks in the layers not yet processed
    for f in range(len(members)):
        layer, layers[f] = layers[f], None
        held -= sum(map(len, layer.values()))
        for met, prefixes in layer.items():
            for m, a in choices[f]:
                if not m & met:
                    state = met | m
                    low = (state ^ state + 1).bit_length() - 1  # lowest 0 bit
                    extended = [p | a for p in prefixes]
                    bucket = layers[low]
                    if state in bucket:
                        bucket[state] += extended
                    else:
                        bucket[state] = extended
                    held += len(prefixes)
                    if held > _MAX_PARTIAL_MATCHINGS:
                        raise DegenerateInputError(
                            f"the matching search holds at most "
                            f"{_MAX_PARTIAL_MATCHINGS} partial matchings; "
                            f"this tiling needs more")
    found = layers[-1].get((1 << len(members)) - 1, [])
    # No cover contains another, so of two set-bit lists the smaller has
    # the lowest bit they do not share: it is the larger mask read with
    # bit 0 most significant.  Bytes taken high first, each with its bits
    # reversed and read low first, give that reading shifted left by the
    # padding of the last byte, the same for every mask.
    size = (len(bits) + 7) // 8
    found.sort(key=lambda m: int.from_bytes(
        m.to_bytes(size, "big").translate(_REVERSED_BYTES), "little"),
        reverse=True)
    return found


# struct code of a signed field, by its width in bits
_FIELD_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}


def _pack_rows(table: list) -> tuple:
    """``(width, rows)``: each row of an integer table as one int of
    signed ``width``-bit fields, column ``j`` at bit ``width * j``.

    The width is the smallest of 8, 16, 32 and 64 bits whose signed
    range holds every column's sum of absolute values over all rows.
    No sum over a subset of the rows then leaves the range of a field,
    so adding packed rows adds every column at once, no field carries
    into the next, and a packed sum has only one reading as fields.
    Both passes run over the nonzero entries only."""
    nonzeros = [list(zip(compress(count(), row), compress(row, row)))
                for row in table]
    sums = [0] * (len(table[0]) if table else 0)
    for pairs in nonzeros:
        for j, v in pairs:
            sums[j] += abs(v)
    bound = max(sums, default=0)
    for width in _FIELD_CODES:
        if bound < 1 << width - 1:
            return width, [sum(v << width * j for j, v in pairs)
                           for pairs in nonzeros]
    raise ConsistencyError(
        f"matching functional column sums reach {bound}, "
        "beyond a 64-bit field")


def _field_bias(width: int, count: int) -> int:
    """2^(width-1) in each of ``count`` fields.  Added to a packed sum
    it makes every field a nonnegative digit, so no borrow crosses a
    field; xor-ing it back then leaves every field in two's complement,
    the form ``struct`` reads."""
    return sum(1 << width * j + width - 1 for j in range(count))


def subset_sums(values: Sequence) -> list:
    """The sum over every subset of ``values`` by bitmask (bit i is
    ``values[i]``): each value doubles the table, so r values give 2^r."""
    sums = [0]
    for v in values:
        sums += [x + v for x in sums]
    return sums


def _byte_tables(rows: list) -> list:
    """One :func:`subset_sums` table per byte of an arrow mask, for
    ``rows`` indexed by arrow bit: entry ``b`` of table ``i`` is the sum
    of the rows at bits ``8 * i + j`` for the set bits ``j`` of ``b``, so
    the rows at a mask's bits sum to one lookup per byte of
    ``mask.to_bytes(len(tables), "little")`` (the last table is short)."""
    return [subset_sums(rows[i:i + 8]) for i in range(0, len(rows), 8)]


def _functional_table(tower: "lattice.LatticeTower") -> tuple:
    """One row per ambient generator — the face-cycle symbol, then the
    arrows in tower order.  A row holds the generator's value, through
    its ``section`` row, on every arrow weight and on the face-cycle
    weight, and its kernel coordinates, so by linearity the column sums
    over a matching's generators are everything checked about its
    functional, and its kernel restriction.  Returned packed, as
    ``(width, rows)`` of :func:`_pack_rows`: the field width bounds
    every such column sum."""
    columns = ([tower.weights[aid] for aid in tower.arrow_ids]
               + [tower.face_cycle_weight] + list(zip(*tower.kernel_basis)))
    # a section row has about one nonzero entry: its values are the
    # product with the columns as a k-row matrix, which skips the zeros
    return _pack_rows(lattice.mat_mul(tower.section, list(zip(*columns))))


def enumerate_perfect_matchings(tiling: QuiverOnTorus,
                                tower: "lattice.LatticeTower | None" = None) -> list:
    """All perfect matchings with their kernel functionals, in a
    deterministic order (sorted arrow-id tuples), as ids are assigned.
    Another tiling's tower raises ValueError.

    A matching's columns of :func:`_functional_table` are one sum of
    packed rows, read from :func:`_byte_tables` with one lookup per byte
    of its arrow mask; the sum starts from the face-cycle row plus the
    bias of :func:`_field_bias`, so every field of it is a nonnegative
    digit.  Each arrow's row carries its indicator, negated, in the
    arrow block, so the sum's arrow block is the matching's values on
    the arrow weights less its indicator, and the arrow check is that
    the block is the bias alone.  Only the four fields past the block
    are shifted out and unbiased: the face-cycle value, checked in place,
    and ``chi_kernel``, unpacked and its height checked, each check
    raising ``ConsistencyError``."""
    if tower is None:
        tower = lattice.build_lattice_tower(tiling)
    else:
        lattice._check_tower(tiling, tower)
    n_arrows = len(tower.arrow_ids)
    width, (cycle_row, *arrow_rows) = _functional_table(tower)
    bits = tiling.arrow_bits
    # An arrow's row less 1 in its own arrow field.  _pack_rows keeps
    # every subset sum of a column strictly inside +-2^(width-1), so a
    # field of a matching's sum is at least -2^(width-1) and still fits.
    rows = [0] * n_arrows  # by arrow bit
    for i, aid in enumerate(tower.arrow_ids):
        rows[bits[aid]] = arrow_rows[i] - (1 << width * i)
    tables = _byte_tables(rows)
    size = len(tables)
    shift = width * n_arrows
    bias = _field_bias(width, n_arrows + 4)
    start = cycle_row + bias
    arrow_block = (1 << shift) - 1
    arrow_bias = bias & arrow_block
    tail_bias = bias >> shift
    field = (1 << width) - 1
    # chi_kernel, past the face-cycle value
    unpack = struct.Struct(f"<{width // 8}x3{_FIELD_CODES[width]}").unpack
    length = width // 2  # bytes in the 4 fields
    order = tuple(bits)
    new = tuple.__new__
    result = []
    append = result.append
    for n, mask in enumerate(matching_arrow_sets(tiling), 1):
        fields = sum(map(list.__getitem__, tables,
                         mask.to_bytes(size, "little")), start)
        if fields & arrow_block != arrow_bias:
            raise ConsistencyError(
                "matching functional disagrees with arrow weights")
        tail = (fields >> shift) ^ tail_bias
        if tail & field != 1:
            raise ConsistencyError(
                "matching functional is not 1 on the face-cycle weight")
        chi_kernel = unpack(tail.to_bytes(length, "little"))
        if chi_kernel[2] != 1:
            raise ConsistencyError(
                "matching functional is not at height one over the plane")
        append(new(PerfectMatching, (f"m{n}", mask, order, chi_kernel)))
    return result


# ---------------------------------------------------------------------------
# plane geometry helpers
# ---------------------------------------------------------------------------

def cross(o: Sequence[int], p: Sequence[int], q: Sequence[int]) -> int:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def convex_hull_2d(points: Iterable) -> list:
    """Strict convex hull, counterclockwise from the lexicographic
    smallest vertex; collinear boundary points are dropped, so a
    collinear set gives its two end points."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 1:
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
    return lower[:-1] + upper[:-1]


def doubled_area(polygon: Sequence) -> int:
    """Twice the area of a (convex, ccw) polygon — the shoelace sum."""
    total = 0
    for p, q in zip(polygon, polygon[1:] + polygon[:1]):
        total += p[0] * q[1] - p[1] * q[0]
    return total


def lattice_points_in_hull(hull: Sequence) -> list:
    """All integer points inside or on a convex ccw polygon: the points
    of its bounding box on the inner side of every edge.  A hull of one
    or two points is a degenerate cycle of edges, which leaves the
    points on its line, and the box then bounds them."""
    if not hull:
        return []
    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    edges = list(zip(hull, hull[1:] + hull[:1]))
    return [(x, y) for x in range(min(xs), max(xs) + 1)
            for y in range(min(ys), max(ys) + 1)
            if all(cross(p, q, (x, y)) >= 0 for p, q in edges)]


# ---------------------------------------------------------------------------
# the toric diagram
# ---------------------------------------------------------------------------

class ToricDiagram(NamedTuple):
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


def _edge_frame_form(counts: dict, v0: tuple, v1: tuple) -> list:
    """The multiset seen from one directed hull edge: the edge start
    goes to the origin, the primitive edge direction to (1, 0), and the
    remaining shear freedom is fixed by normalizing the smallest x on
    the lowest positive level into [0, level).

    ``counts`` maps each distinct point to its multiplicity; the form
    is the sorted ``(point, -multiplicity)`` pairs of the moved points.
    Between multisets of one size these pairs compare as the sorted
    point tuples do: a run of a point that is longer than its rival's
    meets the rival's next, larger point."""
    u = rational.integerize((v1[0] - v0[0], v1[1] - v0[1]))
    # (-b, a) completes u to a positively oriented lattice basis; the
    # map below is the inverse of that basis matrix.  Any Bezout pair
    # serves: two differ by a shear x' -> x' + t * y', removed below.
    if u[1]:
        a = pow(u[0], -1, abs(u[1]))
        b = (1 - a * u[0]) // u[1]
    else:
        a, b = u[0], 0
    moved = []
    for (x, y), c in counts.items():
        dx, dy = x - v0[0], y - v0[1]
        moved.append((a * dx + b * dy, -u[1] * dx + u[0] * dy, c))
    low = min((y for _, y, _ in moved if y > 0), default=None)
    if low is not None:
        xmin = min(x for x, y, _ in moved if y == low)
        k = -(xmin // low)
        moved = [(x + k * y, y, c) for x, y, c in moved]
    return sorted(((x, y), -c) for x, y, c in moved)


def canonical_point_multiset(points: Iterable) -> tuple:
    """Canonical representative of a plane point multiset under the
    action of GL(2, Z) and translations.

    The candidate coordinate frames are intrinsic to the multiset — one
    per directed hull edge, on the multiset and on its mirror image,
    each with the shear freedom normalized — so equivalent multisets
    enumerate identical candidate forms and the minimum is a true
    canonical form.  A collinear multiset has a two-point hull, whose
    two directed edges put it on the x-axis read from either end; a
    multiset on one point goes to the origin.

    ``points`` is an iterable of points, or a ``Counter`` of them, which
    maps each distinct point to its multiplicity: either way each
    distinct point is framed once and its repeats are counted.
    """
    counts = (points if isinstance(points, Counter)
              else Counter(map(tuple, points)))
    hull = convex_hull_2d(counts)
    if len(hull) <= 1:  # no edge direction to frame
        return ((0, 0),) * counts.total()
    best = None
    for mirrored in (False, True):
        image = ({(x, -y): c for (x, y), c in counts.items()} if mirrored
                 else counts)
        ring = convex_hull_2d(image) if mirrored else hull
        for i, v0 in enumerate(ring):
            form = _edge_frame_form(image, v0, ring[(i + 1) % len(ring)])
            if best is None or form < best:
                best = form
    return tuple(p for p, c in best for _ in range(-c))


def toric_diagram(tiling: QuiverOnTorus,
                  tower: "lattice.LatticeTower | None" = None,
                  matchings: "list | None" = None) -> ToricDiagram:
    """The toric diagram of the matchings, by default all of the
    tiling's.  Each distinct point is counted once, and the hull and the
    canonical form are worked out on the distinct points."""
    if matchings is None:
        matchings = enumerate_perfect_matchings(tiling, tower)
    points = tuple((m.matching_id, m.chi_kernel[:2]) for m in matchings)
    counts = Counter(p for _, p in points)
    hull = tuple(convex_hull_2d(counts))
    hull_set = set(hull)
    extremal = tuple(mid for mid, p in points if p in hull_set)
    canonical = canonical_point_multiset(counts)
    return ToricDiagram(points=points, hull=hull, extremal_ids=extremal,
                        canonical=canonical)
