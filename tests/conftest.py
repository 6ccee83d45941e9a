"""Shared fixtures: the bundled documents and everything derived from them.

Heavy objects (lattice towers, matchings, chambers) are computed once
per session and shared between tests; tests must treat them as frozen.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import settings

import branetile as bt

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
