"""Exact integer linear algebra and the weight-lattice tower of a tiling.

Matrices are plain lists of row lists of Python ints; exactness is
non-negotiable.  The matrices of a tiling are mostly zeros, so
:func:`mat_mul` and each row and column operation of the Smith form
spend work only on nonzero entries; the Smith form also carries the
inverse of its row transform, so the tower eliminates its relations
once.

The second half of the module builds, from a quiver tiling, the tower of
lattices used everywhere else in the package:

* the *weight lattice* ``L`` — the abelian group generated by a formal
  face-cycle symbol together with one generator per arrow, modulo one
  relation per face identifying the face's arrow sum with the face-cycle
  symbol.  Presented as ``Z^k`` via Smith normal form.
* the *degree map* ``L -> Z^{vertices}`` induced by sending an arrow to
  ``target - source``; its image is the *degree lattice* (rank
  ``#vertices - 1``) and its kernel is the rank-3 *kernel lattice*,
  which plays the role of lattice of exponents of torus characters.
* the distinguished *face-cycle weight* (the common total weight of
  every face cycle), which lies in the kernel lattice and is kept as the
  third basis vector of the chosen kernel basis.
"""

from __future__ import annotations

import numbers
from itertools import compress
from operator import index, itemgetter, mul
from typing import Sequence

from .errors import ConsistencyError

Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# small matrix/vector helpers
# ---------------------------------------------------------------------------

def identity(n: int) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[0] * ncols for _ in range(nrows)]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """``a @ b``, each output row a sum over the nonzero entries of
    ``a``'s row of the nonzero entries of ``b``'s rows, both listed at C
    speed, so zeros cost nothing.  Raises ValueError when a row of ``a``
    and ``b`` differ in length."""
    width = len(b[0]) if b else 0
    cols = range(width)
    inner = range(len(b))
    out = []
    for i, row in enumerate(a):
        if len(row) != len(b):
            raise ValueError(f"row {i} of the left factor has {len(row)} "
                             f"entries, the right factor {len(b)} rows")
        acc = [0] * width
        for k in compress(inner, row):
            x = row[k]
            b_row = b[k]
            for j in compress(cols, b_row):
                acc[j] += x * b_row[j]
        out.append(acc)
    return out


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [dot(row, v) for row in a]


def _exact(row: Sequence[int], what: str) -> list[int]:
    """The entries of ``row`` as ints, read by ``operator.index``;
    raises ValueError naming ``what`` and the first entry that is not
    an integer, where ``int`` would truncate it."""
    try:
        return list(map(index, row))
    except TypeError:
        for j, x in enumerate(row):
            if not isinstance(x, numbers.Integral):
                raise ValueError(
                    f"{what} entry {j} is {x!r}, not an integer") from None
        raise


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(mat: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Return ``(U, S, V)`` with ``U @ mat @ V == S``.

    ``U`` and ``V`` are unimodular; ``S`` is diagonal with nonnegative
    entries ``d_1 | d_2 | ...``.  Deterministic: pivots are chosen as
    the smallest-magnitude nonzero entry, scanning row-major.
    """
    u, s, v, _ = _smith_form(mat)
    return u, s, v


def _smith_form(mat: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """:func:`smith_normal_form`'s ``(U, S, V)`` and ``W = (U^-1)^T``.

    Every row operation ``E`` taking ``U`` to ``E U`` takes ``U^-1`` to
    ``U^-1 E^-1``, a column operation, which is a row operation on
    ``W``: ``U[i] -= q U[j]`` becomes ``W[j] += q W[i]``, and swaps and
    negations act on the same rows.  So ``U @ W^T == I`` throughout,
    with no second elimination to invert ``U``.  Raises ValueError on an
    entry that is not an integer or a row whose length differs from
    row 0's.

    The matrices are dense lists, ``V`` kept as its columns, but each
    operation runs only over the nonzero entries of the row or column
    it adds, listed once per pass at C speed: an arrow's row of a
    tiling's face relations has two nonzero entries, one per face it
    bounds.
    """
    m = [_exact(row, f"matrix row {i}") for i, row in enumerate(mat)]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if len(set(map(len, m))) > 1:
        i = next(i for i, row in enumerate(m) if len(row) != ncols)
        raise ValueError(f"matrix row {i} has length {len(m[i])}, "
                         f"row 0 has length {ncols}")
    u = identity(nrows)
    w = identity(nrows)
    vc = identity(ncols)  # the columns of V
    all_rows = range(nrows)
    all_cols = range(ncols)

    def eliminate(t: int, rmax: int, cmax: int) -> bool:
        """Clear row/column ``t`` within the window, pivot at ``(t, t)``.

        Returns False when the window is entirely zero.
        """
        at_t = itemgetter(t)
        while True:
            # the row-major first smallest entry; a unit is the least
            # possible, so the scan stops at the first one
            piv = -1
            best = 0
            for i in range(t, rmax):
                sizes = list(map(abs, m[i][t:cmax]))
                a = min(filter(None, sizes), default=0)
                if a and (piv < 0 or a < best):
                    piv, best, pcol = i, a, t + sizes.index(a)
                    if a == 1:
                        break
            if piv < 0:
                return False
            if piv != t:
                m[t], m[piv] = m[piv], m[t]
                u[t], u[piv] = u[piv], u[t]
                w[t], w[piv] = w[piv], w[t]
            mt = m[t]
            if pcol != t:
                for row in m:
                    row[t], row[pcol] = row[pcol], row[t]
                vc[t], vc[pcol] = vc[pcol], vc[t]
            p = mt[t]
            # Row t of M and U is fixed while rows below subtract it, and
            # column t of M and V while columns to the right do, so each
            # pass lists their nonzeros once.  The pivot is least in the
            # window, so no quotient is zero.
            m_cols = list(compress(all_cols, mt))
            ut = u[t]
            u_cols = list(compress(all_rows, ut))
            wt = w[t]
            dirty = False
            for i in compress(range(t + 1, rmax), map(at_t, m[t + 1:rmax])):
                mi = m[i]
                ui = u[i]
                wi = w[i]
                q = mi[t] // p
                for c in m_cols:
                    mi[c] -= q * mt[c]
                for c in u_cols:
                    ui[c] -= q * ut[c]
                for c in compress(all_rows, wi):
                    wt[c] += q * wi[c]
                if mi[t]:
                    dirty = True
            right = [j for j in m_cols if t < j < cmax]
            if right:
                m_rows = list(compress(m, map(at_t, m)))
                vt = vc[t]
                v_rows = list(compress(all_cols, vt))
                for j in right:
                    vj = vc[j]
                    q = mt[j] // p
                    for row in m_rows:
                        row[j] -= q * row[t]
                    for r in v_rows:
                        vj[r] -= q * vt[r]
                    if mt[j]:
                        dirty = True
            if not dirty:
                if p < 0:
                    for rows in (m, u, w):
                        rows[t] = [-a for a in rows[t]]
                return True

    rank = 0
    while rank < min(nrows, ncols):
        if not eliminate(rank, nrows, ncols):
            break
        rank += 1

    # Enforce the divisibility chain with 2x2 local fixes.
    changed = True
    while changed:
        changed = False
        for t in range(rank - 1):
            if m[t + 1][t + 1] % m[t][t] != 0:
                # add column t+1 to column t
                for row in m:
                    row[t] += row[t + 1]
                vc[t] = [a + b for a, b in zip(vc[t], vc[t + 1])]
                eliminate(t, t + 2, t + 2)
                eliminate(t + 1, t + 2, t + 2)
                changed = True
    return u, m, list(map(list, zip(*vc))), w


def invariant_factors(mat: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal entries of the Smith form, in order."""
    _, s, _ = smith_normal_form(mat)
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0)) if s[i][i]]


def integer_kernel(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of ``{x : mat @ x == 0}`` as a list of integer vectors.

    The basis spans the kernel as a direct summand (it is saturated by
    construction, being cut out by equations).
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    _, s, v = smith_normal_form(mat)
    rank = sum(1 for i in range(min(nrows, ncols)) if s[i][i])
    return [[v[i][j] for i in range(ncols)] for j in range(rank, ncols)]


def solve_integer(mat: Sequence[Sequence[int]], target: Sequence[int]) -> list[int] | None:
    """One integer solution of ``mat @ x == target``, or None; raises
    ValueError unless ``target`` has one integer entry per row."""
    if len(target) != len(mat):
        raise ValueError(f"right-hand side has {len(target)} entries, not {len(mat)}")
    target = _exact(target, "right-hand side")
    return _solve_by_smith(smith_normal_form(mat), target)


def _solve_by_smith(smith: tuple, target: list[int]) -> list[int] | None:
    """One integer solution of ``mat @ x == target``, or None, read from
    ``mat``'s Smith form ``(U, S, V)`` by back-substitution."""
    u, s, v = smith
    y = [0] * len(v)
    for i, b in enumerate(mat_vec(u, target)):
        d = s[i][i] if i < len(v) else 0
        if d:
            if b % d:
                return None
            y[i] = b // d
        elif b:
            return None
    return mat_vec(v, y)


# ---------------------------------------------------------------------------
# the lattice tower
# ---------------------------------------------------------------------------

class LatticeTower:
    """Presentation of the weight lattice of a tiling and its degree map.

    Attributes:
        vertex_ids: quiver vertices, in input order.
        arrow_ids: quiver arrows, in input order.
        rank: rank ``k`` of the weight lattice (= #vertices + 2).
        weights: per-arrow weight, as a length-``k`` tuple.
        face_cycle_weight: common weight of every face cycle.
        degree_matrix: (#vertices x k) matrix of the degree map.
        kernel_basis: k x 3 matrix whose columns are a basis of the
            kernel of the degree map; the third column is
            ``face_cycle_weight``.
        projection: k x (1 + #arrows) matrix presenting the ambient
            group (face-cycle symbol first, then arrow generators) onto
            ``Z^k``.
        section: (1 + #arrows) x k right inverse of ``projection``;
            functionals on the ambient group descend along it.

    A plain class, not a named tuple: a tower equals only itself, and
    the quotient route keeps its per-tower record under a weak reference
    to it.  Its fields are read-only.
    """

    def __init__(self, vertex_ids: tuple, arrow_ids: tuple, rank: int,
                 weights: dict, face_cycle_weight: tuple,
                 degree_matrix: tuple, kernel_basis: tuple,
                 projection: tuple, section: tuple) -> None:
        vars(self).update(
            vertex_ids=vertex_ids, arrow_ids=arrow_ids, rank=rank,
            weights=weights, face_cycle_weight=face_cycle_weight,
            degree_matrix=degree_matrix, kernel_basis=kernel_basis,
            projection=projection, section=section)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(
            f"cannot assign {type(value).__name__} to field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"LatticeTower({fields})"

    @property
    def degree_rank(self) -> int:
        return len(self.vertex_ids) - 1

    def check_weight(self, weight: Sequence[int]) -> None:
        """Raise ValueError unless the weight is ``rank`` integers."""
        if len(weight) != self.rank:
            raise ValueError(
                f"weight has {len(weight)} entries, not rank {self.rank}")
        if not all(isinstance(x, numbers.Integral) for x in weight):
            raise ValueError("weight entries must be integers")

    def degree(self, weight: Sequence[int]) -> tuple[int, ...]:
        """The weight's image in the vertex lattice."""
        self.check_weight(weight)
        return tuple(mat_vec(self.degree_matrix, weight))


def _check_tower(tiling, tower: LatticeTower) -> None:
    """Raise ValueError unless the tower has the tiling's vertex and
    arrow ids, in input order."""
    if (tower.vertex_ids, tower.arrow_ids) != (
            tiling.vertices, tuple(a.arrow_id for a in tiling.arrows)):
        raise ValueError("the lattice tower is not the tiling's")


def build_lattice_tower(tiling) -> LatticeTower:
    """Compute the lattice tower of a validated quiver tiling.

    Raises ConsistencyError when the presented weight lattice has
    torsion, when its rank differs from #vertices + 2, or when the
    kernel of the degree map does not have rank 3 — each of which means
    the input does not define a tiling of the torus of the expected
    kind.
    """
    arrow_ids = [a.arrow_id for a in tiling.arrows]
    arrow_index = {aid: i for i, aid in enumerate(arrow_ids)}
    n_amb = 1 + len(arrow_ids)
    vertex_index = {vid: i for i, vid in enumerate(tiling.vertices)}

    # One relation column per face: (1, -sum of the face's arrows).
    relations = zeros(n_amb, len(tiling.faces))
    for j, face in enumerate(tiling.faces):
        relations[0][j] = 1
        for aid in face.arrows:
            relations[1 + arrow_index[aid]][j] -= 1

    # Vertex-degree rows of the ambient group: arrow -> target - source.
    boundary = zeros(len(tiling.vertices), n_amb)
    for a in tiling.arrows:
        col = 1 + arrow_index[a.arrow_id]
        boundary[vertex_index[a.target]][col] += 1
        boundary[vertex_index[a.source]][col] -= 1

    # Face cycles must be closed, i.e. the degree rows kill every
    # relation: each face's arrows enter the vertices they leave.
    arrow_map = tiling.arrow_map
    for face in tiling.faces:
        ends = [arrow_map[aid] for aid in face.arrows]
        if sorted(a.target for a in ends) != sorted(a.source for a in ends):
            raise ConsistencyError("some face cycle is not a closed walk")

    u, s, _, w = _smith_form(relations)
    factors = [s[i][i] for i in range(min(n_amb, len(tiling.faces))) if s[i][i]]
    if any(d != 1 for d in factors):
        raise ConsistencyError(
            f"weight lattice has torsion (invariant factors {factors})")
    rank_rel = len(factors)
    k = n_amb - rank_rel
    if k != len(tiling.vertices) + 2:
        raise ConsistencyError(
            f"weight lattice has rank {k}, expected #vertices + 2 = "
            f"{len(tiling.vertices) + 2}")

    # U^-1 = W^T, so the section (the last k columns of U^-1) is the
    # last k rows of W, transposed
    projection = u[rank_rel:]
    section = [list(col) for col in zip(*w[rank_rel:])]

    face_cycle_weight, *arrow_weights = zip(*projection)
    weights = dict(zip(arrow_ids, arrow_weights))

    degree_matrix = mat_mul(boundary, section)
    # Sanity: the degree of an arrow weight is target - source, and the
    # face-cycle weight has degree zero.  The weights are the columns of
    # the projection, so their degrees are one product, which must be
    # the boundary rows: arrow columns first, then column 0.
    degrees = mat_mul(degree_matrix, projection)
    if degrees != boundary:
        if any(row[1:] != b_row[1:] for row, b_row in zip(degrees, boundary)):
            raise ConsistencyError("degree map disagrees with arrow boundaries")
        raise ConsistencyError("face-cycle weight has nonzero degree")

    kernel = integer_kernel(degree_matrix)
    if len(kernel) != 3:
        raise ConsistencyError(
            f"kernel of the degree map has rank {len(kernel)}, expected 3")

    # Change basis so the face-cycle weight is the third basis vector.
    basis_cols = [[kernel[j][i] for j in range(3)] for i in range(k)]
    coeffs = solve_integer(basis_cols, list(face_cycle_weight))
    if coeffs is None:
        raise ConsistencyError("face-cycle weight escapes the kernel lattice")
    # U c = S with V = (1), as one column takes no column operation, so
    # coeffs is the first column of U^-1 = W^T
    _, sc, _, w0 = _smith_form([[c] for c in coeffs])
    if sc[0][0] != 1:
        raise ConsistencyError("face-cycle weight is not primitive in the kernel")
    change = [[w0[(j + 1) % 3][i] for j in range(3)] for i in range(3)]
    kernel_basis = mat_mul(basis_cols, change)
    if [kernel_basis[i][2] for i in range(k)] != list(face_cycle_weight):
        raise ConsistencyError("kernel rebasing failed")

    return LatticeTower(
        vertex_ids=tuple(tiling.vertices),
        arrow_ids=tuple(arrow_ids),
        rank=k,
        weights=weights,
        face_cycle_weight=face_cycle_weight,
        degree_matrix=tuple(tuple(row) for row in degree_matrix),
        kernel_basis=tuple(tuple(row) for row in kernel_basis),
        projection=tuple(tuple(row) for row in projection),
        section=tuple(tuple(row) for row in section),
    )
