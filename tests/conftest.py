"""Shared fixtures: the bundled documents and everything derived from them.

Heavy objects (lattice towers, matchings, chambers) are computed once
per session and shared between tests; tests must treat them as frozen.
"""

from __future__ import annotations

import contextlib
import json
import random
import sys
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import settings

import branetile as bt
from branetile import rational

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
