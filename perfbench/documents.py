"""Input documents for the benchmark: generated orbifold tilings and
seeded renamings.

Every function here returns plain JSON-ready dicts in the quiver
document form, so the program under test only ever sees generated
input text.  Nothing here imports the package.
"""

from __future__ import annotations

import json
import random
import string
from pathlib import Path


def orbifold(n: int, m: int) -> dict:
    """The quiver of C^3/(Z_n x Z_m): the hexagonal dimer on the torus.

    Vertices are the group elements (i, j); arrows x, y, z run from
    (i, j) to (i+1, j), (i, j+1) and (i-1, j-1).  Each vertex carries
    one positive face x.y.z and one negative face y.x.z, so every arrow
    lies in one face of each sign and #V - #A + #F = nm - 3nm + 2nm = 0.
    With n == 1 the x arrows are loops.
    """
    def v(i: int, j: int) -> str:
        return f"v{i % n}_{j % m}"

    vertices, arrows, faces = [], [], []
    for i in range(n):
        for j in range(m):
            vertices.append(v(i, j))
            arrows.append({"id": f"x{i}_{j}", "src": v(i, j),
                           "tgt": v(i + 1, j)})
            arrows.append({"id": f"y{i}_{j}", "src": v(i, j),
                           "tgt": v(i, j + 1)})
            arrows.append({"id": f"z{i}_{j}", "src": v(i, j),
                           "tgt": v(i - 1, j - 1)})
    for i in range(n):
        for j in range(m):
            ip, jp = (i + 1) % n, (j + 1) % m
            faces.append({"sign": "+", "cycle": [
                f"x{i}_{j}", f"y{ip}_{j}", f"z{ip}_{jp}"]})
            faces.append({"sign": "-", "cycle": [
                f"y{i}_{j}", f"x{i}_{jp}", f"z{ip}_{jp}"]})
    return {"vertices": vertices, "arrows": arrows, "faces": faces}


def fixture(root: Path, name: str) -> dict:
    """A bundled quiver fixture, read from ``root/fixtures``."""
    path = root / "fixtures" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _order_preserving_names(old: list, rng: random.Random) -> dict:
    """Map ids to fresh fixed-width ids in the same sorted order.

    The new ids share a random prefix and carry increasing random
    numbers, so both plain string order and (length, string) order of
    the new ids follow the plain string order of the old ones.
    """
    prefix = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
    width = 6
    numbers = sorted(rng.sample(range(10 ** width), len(old)))
    return {o: f"{prefix}{k:0{width}d}"
            for o, k in zip(sorted(old), numbers)}


def rename(doc: dict, rng: random.Random) -> dict:
    """A copy of a quiver document with every vertex and arrow id
    renamed; list orders and the sorted order of ids are kept, so the
    work the program does is unchanged while no id matches the input."""
    vnames = _order_preserving_names(doc["vertices"], rng)
    anames = _order_preserving_names([a["id"] for a in doc["arrows"]], rng)
    return {
        "vertices": [vnames[v] for v in doc["vertices"]],
        "arrows": [{"id": anames[a["id"]], "src": vnames[a["src"]],
                    "tgt": vnames[a["tgt"]]} for a in doc["arrows"]],
        "faces": [{"sign": f["sign"],
                   "cycle": [anames[x] for x in f["cycle"]]}
                  for f in doc["faces"]],
    }


def shuffle_faces(doc: dict, rng: random.Random) -> dict:
    """A copy of a quiver document with its faces in a seeded random
    order.  The tiling is the same, but the order in which the program
    meets the faces changes how long its matching search takes."""
    faces = list(doc["faces"])
    rng.shuffle(faces)
    return dict(doc, faces=faces)


def text(doc: dict) -> str:
    return json.dumps(doc)
