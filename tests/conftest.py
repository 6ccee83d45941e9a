"""Shared fixtures: the bundled documents and everything derived from them.

Heavy objects (lattice towers, matchings, chambers) are computed once
per session and shared between tests; tests must treat them as frozen.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import random
import sys
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import settings

import branetile as bt
from branetile import lattice, rational, stability
from branetile.matchings import matching_id_key, subset_sums
from branetile.tiling import DimerEdge

settings.register_profile("suite", max_examples=40, deadline=None)
settings.load_profile("suite")

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

QUIVER_FIXTURES = ("honeycomb", "conifold", "spp", "z2z2")
DIMER_FIXTURES = ("honeycomb_dimer", "spp_dimer", "square_dimer")
ALL_FIXTURES = QUIVER_FIXTURES + DIMER_FIXTURES


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.json"


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def orbifold_text(n: int, m: int) -> str:
    """Quiver document of the abelian orbifold C^3/(Z_n x Z_m).

    The vertices are the cells (i, j) of an n x m torus grid; the
    arrows x, y, z step a cell by (1, 0), (0, 1) and (-1, -1), and each
    cell carries the faces x.y.z (positive) and y.x.z (negative).
    """
    def cell(i: int, j: int) -> str:
        return f"v{i % n}.{j % m}"

    steps = {"x": (1, 0), "y": (0, 1), "z": (-1, -1)}
    cells = [(i, j) for i in range(n) for j in range(m)]
    arrows = [{"id": f"{name}{cell(i, j)}", "src": cell(i, j),
               "tgt": cell(i + di, j + dj)}
              for i, j in cells for name, (di, dj) in steps.items()]
    faces = []
    for i, j in cells:
        faces.append({"sign": "+", "cycle": [
            f"x{cell(i, j)}", f"y{cell(i + 1, j)}", f"z{cell(i + 1, j + 1)}"]})
        faces.append({"sign": "-", "cycle": [
            f"y{cell(i, j)}", f"x{cell(i, j + 1)}", f"z{cell(i + 1, j + 1)}"]})
    return json.dumps({"vertices": [cell(i, j) for i, j in cells],
                       "arrows": arrows, "faces": faces})


def document_text(document: str) -> str:
    """A bundled fixture by name, or the orbifold ``"NxM"`` of
    :func:`orbifold_text`."""
    if document in ALL_FIXTURES:
        return fixture_text(document)
    return orbifold_text(*map(int, document.split("x")))


def shuffled_orbifold_text(n: int, m: int, seed: int) -> str:
    """:func:`orbifold_text` with its faces in a seeded random order and
    each face cycle started at a seeded random arrow: the same tiling,
    met by the program in a different order."""
    rng = random.Random(seed)
    doc = json.loads(orbifold_text(n, m))
    rng.shuffle(doc["faces"])
    for face in doc["faces"]:
        k = rng.randrange(len(face["cycle"]))
        face["cycle"] = face["cycle"][k:] + face["cycle"][:k]
    return json.dumps(doc)


@contextlib.contextmanager
def recursion_headroom(frames: int):
    """Run the body with the recursion limit only ``frames`` above the
    current stack depth, so that code whose recursion grows with its
    input fails with RecursionError."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# ---------------------------------------------------------------------------
# the dimer graph of a quiver tiling, kept as a reference
# ---------------------------------------------------------------------------

def extract_dimer(tiling) -> bt.DimerGraph:
    """The inverse of ``bt.dualize_dimer`` up to the names of the nodes:
    a white node ``w<k>`` per positive face and a black node ``b<k>``
    per negative one, each listing its face's arrows as its rotation,
    a black node against the face's cycle.  The tiling must have every
    arrow in one face of each sign."""
    whites = [f.arrows for f in tiling.faces if f.sign == 1]
    blacks = [f.arrows[::-1] for f in tiling.faces if f.sign == -1]
    white_ids = tuple(f"w{k + 1}" for k in range(len(whites)))
    black_ids = tuple(f"b{k + 1}" for k in range(len(blacks)))
    white_of = {aid: w for w, cycle in zip(white_ids, whites) for aid in cycle}
    black_of = {aid: b for b, cycle in zip(black_ids, blacks) for aid in cycle}
    edges = tuple(DimerEdge(edge_id=a.arrow_id, white=white_of[a.arrow_id],
                            black=black_of[a.arrow_id])
                  for a in tiling.arrows)
    return bt.DimerGraph(white=white_ids, black=black_ids, edges=edges,
                         rotation=(*zip(white_ids, whites),
                                   *zip(black_ids, blacks)))


# ---------------------------------------------------------------------------
# signed minors: a second exact elimination, kept as a reference
# ---------------------------------------------------------------------------

def int_det(mat: Sequence) -> int:
    """Determinant of a square integer matrix, by fraction-free
    (Bareiss) elimination with row pivoting."""
    m = [list(r) for r in mat]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pr is None:
                return 0
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def kernel_ray(rows: list, dim: int):
    """Spanning integer vector of the kernel of a ``(dim-1) x dim``
    integer matrix — the signed maximal minors — or None when the rank
    drops and the kernel is bigger than a line."""
    vec = []
    for j in range(dim):
        sub = [[r[i] for i in range(dim) if i != j] for r in rows]
        vec.append(int_det(sub) if j % 2 == 0 else -int_det(sub))
    if not any(vec):
        return None
    return vec


# ---------------------------------------------------------------------------
# the dense product: every entry a full dot product, kept as a reference
# ---------------------------------------------------------------------------

def dense_product(a: Sequence, b: Sequence) -> list:
    """``a @ b`` entry by entry, over all inner indices, zeros included.
    ``b`` with no rows has no columns, as in ``lattice.mat_mul``."""
    width = len(b[0]) if b else 0
    return [[sum(row[t] * b[t][j] for t in range(len(b)))
             for j in range(width)] for row in a]


# ---------------------------------------------------------------------------
# the dense Smith form: every row and column operation over whole rows,
# kept as a reference for lattice._smith_form's pivots and operations
# ---------------------------------------------------------------------------

def reference_smith_form(mat: Sequence) -> tuple:
    """``(U, S, V, W)`` of ``lattice._smith_form`` by the same pivot rule
    and the same sequence of operations, each applied to whole dense
    rows and columns: ``U @ mat @ V == S`` and ``W = (U^-1)^T``."""
    m = [list(row) for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0

    def unit(n: int) -> list:
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    u, v, w = unit(nrows), unit(ncols), unit(nrows)

    def row_sub(i: int, j: int, q: int) -> None:
        m[i] = [a - q * b for a, b in zip(m[i], m[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]
        w[j] = [a + q * b for a, b in zip(w[j], w[i])]

    def col_sub(i: int, j: int, q: int) -> None:
        for row in m + v:
            row[i] -= q * row[j]

    def row_swap(i: int, j: int) -> None:
        for rows in (m, u, w):
            rows[i], rows[j] = rows[j], rows[i]

    def col_swap(i: int, j: int) -> None:
        for row in m + v:
            row[i], row[j] = row[j], row[i]

    def eliminate(t: int, rmax: int, cmax: int) -> bool:
        while True:
            # the row-major first smallest entry of the window; a unit is
            # the least possible, so the scan stops at the first one
            piv = None
            best = 0
            for i in range(t, rmax):
                for j in range(t, cmax):
                    a = abs(m[i][j])
                    if a and (piv is None or a < best):
                        piv, best = (i, j), a
                        if a == 1:
                            break
                if best == 1:
                    break
            if piv is None:
                return False
            if piv[0] != t:
                row_swap(t, piv[0])
            if piv[1] != t:
                col_swap(t, piv[1])
            dirty = False
            for i in range(t + 1, rmax):
                if m[i][t]:
                    row_sub(i, t, m[i][t] // m[t][t])
                    dirty = dirty or bool(m[i][t])
            for j in range(t + 1, cmax):
                if m[t][j]:
                    col_sub(j, t, m[t][j] // m[t][t])
                    dirty = dirty or bool(m[t][j])
            if not dirty:
                if m[t][t] < 0:
                    for rows in (m, u, w):
                        rows[t] = [-a for a in rows[t]]
                return True

    rank = 0
    while rank < min(nrows, ncols) and eliminate(rank, nrows, ncols):
        rank += 1
    changed = True
    while changed:
        changed = False
        for t in range(rank - 1):
            if m[t + 1][t + 1] % m[t][t] != 0:
                col_sub(t, t + 1, -1)
                eliminate(t, t + 2, t + 2)
                eliminate(t + 1, t + 2, t + 2)
                changed = True
    return u, m, v, w


# ---------------------------------------------------------------------------
# the double dual: a cone's extreme rays by a second duality, kept as a
# reference
# ---------------------------------------------------------------------------

def double_dual(gens: Sequence, dim: int) -> tuple:
    """Extreme rays and lineality of the cone the generators span, as
    the dual of its dual: ``(rays, lineality)`` in the form of
    ``rational.dual_cone``, the rays being the sorted primitive extreme
    rays when the cone is pointed (when the lineality is empty)."""
    drays, dlin = rational.dual_cone(gens, dim)
    return rational.dual_cone(
        drays + dlin + [tuple(-x for x in l) for l in dlin], dim)


# ---------------------------------------------------------------------------
# fan validation cone by cone: every cone ranked and its faces listed,
# maximal or not, kept as a reference
# ---------------------------------------------------------------------------

def _reference_cone_faces(vectors_by_id: dict, normals: Sequence) -> set:
    """Ray-id sets of all faces of the pointed cone generated by the
    given rays (assumed extreme) with the given facet normals, via
    supporting-hyperplane incidence."""
    ids = frozenset(vectors_by_id)
    facets = [frozenset(i for i in ids
                        if lattice.dot(d, vectors_by_id[i]) == 0)
              for d in normals]
    faces = {ids}
    frontier = {ids}
    while frontier:
        fresh = set()
        for face in frontier:
            for facet in facets:
                meet = face & facet
                if meet not in faces:
                    faces.add(meet)
                    fresh.add(meet)
        frontier = fresh
    faces.add(frozenset())  # the zero cone is a face of every pointed cone
    return faces


def reference_validate_fan(fan) -> None:
    """Raise ConsistencyError unless the cones form a fan, checking
    every cone's rank, extreme rays and faces, then that the maximal
    cones' faces are listed, that each cone is a face of a maximal
    cone, and that every two maximal cones meet in a common face."""
    vectors = {}
    for ray in fan.rays:
        if all(x == 0 for x in ray.vector):
            raise bt.ConsistencyError(f"ray {ray.ray_id} is the zero vector")
        if math.gcd(*ray.vector) != 1:
            raise bt.ConsistencyError(
                f"ray {ray.ray_id} is not primitive: {ray.vector}")
        if ray.vector in vectors.values():
            raise bt.ConsistencyError(
                f"duplicate ray vector {ray.vector} ({ray.ray_id})")
        vectors[ray.ray_id] = ray.vector

    cone_sets = fan.cone_sets()
    if len(cone_sets) != len(fan.cones):
        raise bt.ConsistencyError("fan lists a cone twice")
    if frozenset() not in cone_sets:
        raise bt.ConsistencyError("fan is missing the zero cone")

    dim = len(fan.rays[0].vector) if fan.rays else 0
    faces_of = {}
    for cone in fan.cones:
        unknown = cone.ray_ids - set(vectors)
        if unknown:
            raise bt.ConsistencyError(
                f"cone uses unlisted ray {sorted(unknown)[0]!r}")
        ids = sorted(cone.ray_ids, key=matching_id_key)
        vecs = [vectors[i] for i in ids]
        rk = rational.frank(vecs)
        if rk != cone.dim:
            raise bt.ConsistencyError(
                f"cone {sorted(cone.ray_ids)} declares dimension "
                f"{cone.dim} but spans rank {rk}")
        if rk == len(vecs):
            faces = {frozenset(sub) for r in range(len(ids) + 1)
                     for sub in itertools.combinations(ids, r)}
        else:
            normals, extreme, lineality = rational.describe_cone(vecs, dim)
            if lineality:
                raise bt.ConsistencyError(
                    f"cone {sorted(cone.ray_ids)} is not strongly convex")
            if set(extreme) != set(tuple(v) for v in vecs):
                raise bt.ConsistencyError(
                    f"cone {sorted(cone.ray_ids)} lists a non-extreme ray")
            faces = _reference_cone_faces(
                {i: vectors[i] for i in cone.ray_ids}, normals)
        faces_of[cone.ray_ids] = faces

    max_sets = [c.ray_ids for c in fan.max_cones()]
    for m in max_sets:
        for face in faces_of[m]:
            if face not in cone_sets:
                raise bt.ConsistencyError(
                    f"face {sorted(face)} of cone {sorted(m)} "
                    f"is not a cone of the fan")
    for cone in fan.cones:
        if not any(cone.ray_ids in faces_of[m] for m in max_sets
                   if cone.ray_ids <= m):
            raise bt.ConsistencyError(
                f"cone {sorted(cone.ray_ids)} is not a face of any "
                f"maximal cone")
    for a, b in itertools.combinations(max_sets, 2):
        common = a & b
        strict = [vectors[r] for r in sorted(a - common, key=matching_id_key)]
        strict += [tuple(-x for x in vectors[r])
                   for r in sorted(b - common, key=matching_id_key)]
        eqs = [vectors[r] for r in sorted(common, key=matching_id_key)]
        if rational.strict_feasible_point(strict, eqs, dim) is None:
            raise bt.ConsistencyError(
                f"cones {sorted(a)} and {sorted(b)} "
                f"overlap beyond a common face")


# ---------------------------------------------------------------------------
# a matching's functional, kept as a reference
# ---------------------------------------------------------------------------

def vec_mat_functionals(tower, arrows) -> tuple:
    """A matching's functional χ on the weight lattice and its kernel
    restriction, by the first route: the ambient indicator vector times
    the section matrix, then the product with the kernel basis."""
    def vec_mat(v, a):
        return [lattice.dot(v, col) for col in zip(*a)]

    ambient = [1] + [1 if aid in arrows else 0 for aid in tower.arrow_ids]
    chi = tuple(vec_mat(ambient, [list(row) for row in tower.section]))
    chi_kernel = tuple(
        sum(chi[i] * tower.kernel_basis[i][j] for i in range(tower.rank))
        for j in range(3))
    return chi, chi_kernel


# ---------------------------------------------------------------------------
# stable unions by a pair and triple search over support masks, kept as a
# reference
# ---------------------------------------------------------------------------

def reference_stable_subsets(tiling, theta, matchings) -> list:
    """The stable subsets at a generic parameter as the union search
    found them, sorted by (dim, matching ids): the empty set, every
    stable matching, every stable union of two, and every stable union
    of three whose three pairs are stable (supports grow with the arrow
    set, so a sub-union of a stable union is stable).  Each subset
    lists every matching whose arrows it contains."""
    sums = subset_sums(theta)
    unstable = {mask for mask, total in enumerate(sums) if total <= 0}
    masks = [m.mask for m in matchings]

    def is_stable(union: int) -> bool:
        return unstable.isdisjoint(stability._close_supports(tiling, union))

    stable = [mask for mask in masks if is_stable(mask)]
    found = dict.fromkeys([0, *stable])
    partners: list = [set() for _ in stable]  # later j with a stable pair
    for i, a in enumerate(stable):
        for j in range(i + 1, len(stable)):
            if a | stable[j] in found or is_stable(a | stable[j]):
                found[a | stable[j]] = None
                partners[i].add(j)
    for i, a in enumerate(stable):
        for j in partners[i]:
            for k in partners[i] & partners[j]:
                if is_stable(a | stable[j] | stable[k]):
                    found[a | stable[j] | stable[k]] = None

    subsets = []
    for union in found:
        members = [m for m, mask in zip(matchings, masks)
                   if mask & union == mask]
        ids = tuple(sorted((m.matching_id for m in members),
                           key=matching_id_key))
        subsets.append(bt.StableSubset(
            arrows=frozenset().union(*(m.arrows for m in members)),
            matching_ids=ids, dim=len(ids)))
    return sorted(subsets, key=lambda s: (s.dim, s.matching_ids))


def canonical_structure(subsets) -> tuple:
    """Stable subsets as sorted plain tuples: a frozenset's ``repr``
    order depends on the string hash seed, so structures are compared
    in this form."""
    return tuple(sorted((s.dim, s.matching_ids, tuple(sorted(s.arrows)))
                        for s in subsets))


def seeded_generic_thetas(tiling, count: int, seed: int) -> list:
    """``count`` generic integer parameters, drawn from a seeded
    generator."""
    rng = random.Random(seed)
    n = len(tiling.vertices)
    thetas = []
    while len(thetas) < count:
        head = [rng.randint(-1000, 1000) for _ in range(n - 1)]
        theta = (*head, -sum(head))
        if bt.is_generic(tiling, theta):
            thetas.append(theta)
    return thetas


@pytest.fixture(scope="session")
def tilings() -> dict:
    """Every bundled document, loaded (dimer documents dualized)."""
    return {name: bt.load_document(fixture_text(name))
            for name in ALL_FIXTURES}


@pytest.fixture(scope="session")
def towers(tilings) -> dict:
    return {name: bt.build_lattice_tower(tilings[name])
            for name in QUIVER_FIXTURES}


@pytest.fixture(scope="session")
def matchings_by_name(tilings, towers) -> dict:
    return {name: bt.enumerate_perfect_matchings(tilings[name], towers[name])
            for name in QUIVER_FIXTURES}


@pytest.fixture(scope="session")
def chambers_by_name(tilings, matchings_by_name) -> dict:
    return {name: bt.chamber_decomposition(tilings[name],
                                           matchings_by_name[name])
            for name in QUIVER_FIXTURES}


def powers_of_two_theta(count: int) -> tuple:
    """theta_i = (-1)^i 2^i for i < count - 1, the last entry balancing:
    generic, as a sum of distinct powers of two is zero only when
    empty."""
    head = [(-1) ** i * 2 ** i for i in range(count - 1)]
    return (*head, -sum(head))


def powers_of_two_orbifold(n: int, m: int) -> tuple:
    """C^3/(Z_n x Z_m) with its tower, its matchings and
    :func:`powers_of_two_theta`."""
    tiling = bt.load_document(orbifold_text(n, m))
    tower = bt.build_lattice_tower(tiling)
    return (tiling, tower, bt.enumerate_perfect_matchings(tiling, tower),
            powers_of_two_theta(len(tiling.vertices)))


@pytest.fixture(scope="session")
def four_by_five() -> tuple:
    """:func:`powers_of_two_orbifold` at 4 x 5, with 1 537 matchings."""
    return powers_of_two_orbifold(4, 5)


@pytest.fixture(scope="session")
def five_by_five() -> tuple:
    """:func:`powers_of_two_orbifold` at 5 x 5, with 7 623 matchings."""
    return powers_of_two_orbifold(5, 5)


@pytest.fixture(scope="session")
def spp(tilings):
    return tilings["spp"]


@pytest.fixture(scope="session")
def z2z2(tilings):
    return tilings["z2z2"]


@pytest.fixture(scope="session")
def honeycomb(tilings):
    return tilings["honeycomb"]


@pytest.fixture(scope="session")
def conifold(tilings):
    return tilings["conifold"]
