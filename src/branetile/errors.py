"""Exception types shared across the package, and the budgets past
which an input raises :class:`DegenerateInputError`.  The command
line's ``--help`` names the budgets, so they live here and not in the
stage modules that check them."""


class BraneTileError(Exception):
    """Base class for all errors raised by this package."""


class TilingFormatError(BraneTileError):
    """Raised when tiling input data is malformed or inconsistent."""


class ConsistencyError(BraneTileError):
    """Raised when a tiling violates a structural hypothesis the
    computations rely on (torsion in the weight lattice, a matching
    missing a face, a vertex with no incident face of some sign, ...)."""


class DegenerateInputError(BraneTileError):
    """Raised when an input is valid but outside the supported regime,
    e.g. a stability parameter lying on a wall."""


# partial matchings the search may hold at once: above 6x6's peak of
# 306 652 in generator and shuffled face orders; C^3/Z_22 reaches it at
# about 220 MB of RSS
_MAX_PARTIAL_MATCHINGS = 1 << 21

_MAX_SUBSET_SUM_VERTICES = 36  # 6×6: two half tables of 2^18 sums

# The resonance arrangement has 11 292 chambers at 6 vertices and over a
# million at 7 (OEIS A034997), too many to list one by one.
_MAX_CHAMBER_VERTICES = 6
