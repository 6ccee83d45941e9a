"""The benchmark's workloads: what one round of each runs, and how
every op checks its result.

A round is a fixed list of ops, so every round of a workload does the
same work and a run's op count depends only on its round count.  Each
op starts from document text the process has not parsed before: the
seed and round number pick a fresh order-preserving renaming for every
op.

The program is reached only through ``branetile`` module attributes
looked up at call time, so a tracer installed after import sees every
call.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
import random
from itertools import combinations
from pathlib import Path

import documents

WORKLOADS = ("cli-fixtures", "orbifold-matchings", "orbifold-chambers",
             "fan-routes")

FIXTURES = ("honeycomb", "conifold", "spp", "z2z2",
            "honeycomb_dimer", "spp_dimer", "square_dimer")

# Regions of the resonance arrangement by vertex count (OEIS A034997).
CHAMBERS = {3: 6, 4: 32, 5: 370}

# Perfect matchings of the hexagonal dimer of C^3/(Z_n x Z_m).
MATCHINGS = {(4, 4): 417, (4, 5): 1537, (5, 5): 7623}


class CheckFailed(Exception):
    """An op ran to the end but its result is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclasses.dataclass(frozen=True)
class Op:
    label: str
    kind: str
    text: str
    n: int = 0
    m: int = 0
    thetas: tuple = ()


@functools.cache
def load_goldens() -> dict:
    path = Path(__file__).resolve().parent / "goldens.json"
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# round plans
# ---------------------------------------------------------------------------

def _generic_theta(size: int, rng: random.Random) -> tuple:
    """A random integer parameter summing to zero on which no proper
    nonempty vertex subset sums to zero."""
    while True:
        head = [rng.randint(-20, 20) for _ in range(size - 1)]
        theta = tuple(head + [-sum(head)])
        if all(sum(theta[i] for i in subset) != 0
               for r in range(1, size)
               for subset in combinations(range(size), r)):
            return theta


def plan(workload: str, seed: int, round_no: int, root: Path) -> list:
    """The ops of one round."""
    rng = random.Random(f"{workload}:{seed}:{round_no}")

    def orbifold(n: int, m: int) -> dict:
        return documents.rename(documents.orbifold(n, m), rng)

    if workload == "cli-fixtures":
        return [Op(name, "fixture",
                   (root / "fixtures" / f"{name}.json").read_text("utf-8"))
                for name in FIXTURES]
    if workload == "orbifold-matchings":
        def matchings(n: int, m: int, shuffled: bool) -> Op:
            doc = orbifold(n, m)
            if shuffled:
                doc = documents.shuffle_faces(doc, rng)
            label = f"{n}x{m} {'shuffled' if shuffled else 'generator'} order"
            return Op(label, "matchings", documents.text(doc), n, m)
        # How long a shuffled order takes depends on the shuffle: 0.15-0.4 s
        # at 4x4, 1-3.7 s at 4x5, more than 30 s at 5x5 (README.md).  So
        # only 4x4 is shuffled, and the median falls on the three 4x5 ops.
        return [matchings(4, 4, False), matchings(4, 5, False),
                matchings(4, 4, True), matchings(4, 5, False),
                matchings(4, 5, False), matchings(5, 5, False)]
    if workload == "orbifold-chambers":
        def chambers(n: int, m: int) -> Op:
            return Op(f"{n}x{m} chambers", "chambers",
                      documents.text(orbifold(n, m)), n, m)

        def fans(n: int, m: int, count: int) -> Op:
            thetas = tuple(_generic_theta(n * m, rng) for _ in range(count))
            return Op(f"{n}x{m} fans", "fans", documents.text(orbifold(n, m)),
                      n, m, thetas)
        # The median falls on the ten 4-vertex chambers ops; they are
        # spread over the round to sample the machine at different moments.
        # What the caches keep after a 3x3 fans op depends on its θ: 2.5-3 MB
        # for one θ, 3-6 MB for three, so one θ keeps peak_rss_mb steady.
        return [chambers(2, 2), chambers(1, 4), fans(3, 3, 1),
                chambers(2, 2), chambers(1, 4), chambers(2, 2),
                chambers(1, 4), chambers(1, 5), chambers(2, 2),
                chambers(1, 4), chambers(2, 2), chambers(1, 4),
                fans(2, 5, 2)]
    if workload == "fan-routes":
        def fixture(name: str) -> Op:
            doc = documents.rename(documents.fixture(root, name), rng)
            return Op(f"{name} routes", "routes", documents.text(doc))
        # z2z2 and 2x2 cost the same and hold the median; keep them apart.
        return [fixture("z2z2"), fixture("spp"),
                Op("1x4 routes", "routes", documents.text(orbifold(1, 4)),
                   1, 4),
                Op("2x2 routes", "routes", documents.text(orbifold(2, 2)),
                   2, 2)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def doubled_area(polygon: tuple) -> int:
    """Twice the area of a counterclockwise polygon (shoelace)."""
    return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
               in zip(polygon, polygon[1:] + polygon[:1]))


def canonical_digest(canonical: tuple) -> str:
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


def _matchings(bt, op: Op) -> None:
    tiling = bt.load_document(op.text)
    report = bt.validate(tiling)
    expect(report.ok and report.nondegenerate, "document fails validate")
    tower = bt.build_lattice_tower(tiling)
    found = bt.enumerate_perfect_matchings(tiling, tower)
    want = MATCHINGS[op.n, op.m]
    expect(len(found) == want, f"{len(found)} matchings, expected {want}")
    diagram = bt.toric_diagram(tiling, tower, found)
    area = doubled_area(tuple(diagram.hull))
    expect(area == op.n * op.m,
           f"doubled hull area {area}, expected {op.n * op.m}")
    expect(canonical_digest(diagram.canonical)
           == load_goldens()["canonical"][f"{op.n}x{op.m}"],
           "canonical diagram differs from the generator-order golden")


def _chambers(bt, op: Op) -> None:
    tiling = bt.load_document(op.text)
    found = bt.enumerate_perfect_matchings(tiling)
    chambers = bt.chamber_decomposition(tiling, found)
    classes = bt.git_equivalence_classes(tiling, chambers, found)
    want = CHAMBERS[len(tiling.vertices)]
    expect(len(chambers) == want, f"{len(chambers)} chambers, expected {want}")
    expect(sorted(i for group in classes for i in group)
           == list(range(1, len(chambers) + 1)),
           "fan classes do not partition the chambers")


def _fans(bt, op: Op) -> None:
    tiling = bt.load_document(op.text)
    found = bt.enumerate_perfect_matchings(tiling)
    for theta in op.thetas:
        fan = bt.moduli_fan(tiling, theta, found)
        expect(bt.check_smooth(fan), f"fan at {theta} is not smooth")
        triangles = sum(1 for cone in fan.cones if cone.dim == 3)
        expect(triangles == op.n * op.m,
               f"fan at {theta} has {triangles} maximal cones")


def _routes(bt, op: Op) -> None:
    # weak_path_weight is not re-exported by the package.
    tilting = importlib.import_module("branetile.tilting")
    tiling = bt.load_document(op.text)
    tower = bt.build_lattice_tower(tiling)
    found = bt.enumerate_perfect_matchings(tiling, tower)
    chambers = bt.chamber_decomposition(tiling, found)
    want = CHAMBERS[len(tiling.vertices)]
    expect(len(chambers) == want, f"{len(chambers)} chambers, expected {want}")
    for chamber in chambers:
        theta = chamber.representative
        direct = bt.moduli_fan(tiling, theta, found)
        labels = {ray.vector: ray.ray_id for ray in direct.rays}
        shifted, _ = bt.shift_by_stability(tower, theta)
        slice_poly = bt.kernel_polytope(tower, shifted)
        quotient = bt.quotient_fan(tower, shifted, slice_poly, labels)
        expect(bt.fans_equal(quotient, direct),
               f"fan routes disagree at {theta}")
        coll = bt.tilting_collection(tiling, tower, theta, found)
        divisors = dict(coll.divisors)
        classes = dict(coll.classes)
        for vertex, path in coll.paths:
            weight = tilting.weak_path_weight(tower, path)
            descended = bt.descend_linear_functional(
                tower, shifted, weight, slice_poly, labels)
            values = tuple(descended.value_on_ray(mid) for mid in coll.ray_ids)
            expect(values == divisors[vertex],
                   f"descended divisor of {vertex} differs at {theta}")
            expect(coll.presentation.class_of(values) == classes[vertex],
                   f"descended class of {vertex} differs at {theta}")


RUN = {"matchings": _matchings, "chambers": _chambers, "fans": _fans, "routes": _routes}


def run(bt, op: Op) -> None:
    """Run one op; raises CheckFailed on a wrong result and lets any
    exception from the program through."""
    RUN[op.kind](bt, op)


def set_up(bt, op: Op) -> None:
    """Parse and fully validate an op's document before timing."""
    report = bt.validate(bt.load_document(op.text))
    if not (report.ok and report.nondegenerate):
        raise CheckFailed(f"{op.label}: generated document fails validate")
