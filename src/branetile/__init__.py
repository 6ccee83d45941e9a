"""Toric geometry of quiver tilings of the torus.

The pipeline: parse a quiver (or dimer) document on the torus, build
the weight-lattice tower, enumerate perfect matchings and the toric
diagram, decompose the stability parameter space into chambers, build
the moduli fan of each chamber two independent ways (stable matchings,
and the normal fan of the kernel slice of the weight cone), and compute
tilting divisor classes with graded section counts.
"""

from .errors import (BraneTileError, ConsistencyError, DegenerateInputError,
                     TilingFormatError)
from .fan import (Fan, FanCone, FanRay, Triangulation, check_smooth,
                  fans_equal, git_equivalence_classes, moduli_fan,
                  triangulation, validate_fan)
from .lattice import (LatticeTower, build_lattice_tower, integer_kernel,
                      invariant_factors, smith_normal_form, solve_integer)
from .matchings import (PerfectMatching, ToricDiagram,
                        canonical_point_multiset, convex_hull_2d,
                        enumerate_perfect_matchings, matching_arrow_sets,
                        toric_diagram)
from .polyhedra import (DescendedSupport, LiftedFace, PolyFace, Polyhedron,
                        cone_of_arrow_weights, descend_linear_functional,
                        enumerate_faces, integer_points, kernel_polytope,
                        lift_slice_faces, polyhedron_from_inequalities,
                        quotient_fan, shift_by_stability)
from .stability import (Chamber, StableSubset, chamber_decomposition,
                        enumerate_stable_subsets, find_chamber, is_generic,
                        is_theta_stable, is_w_compatible, submodule_supports)
from .svg import render_diagram_svg
from .tiling import (Arrow, DimerGraph, Face, QuiverOnTorus, ValidationReport,
                     WeakPath, default_paths, dualize_dimer, load_document,
                     make_weak_path, validate)
from .tilting import (PicardPresentation, SectionCount, TiltingCollection,
                      graded_sections_count, path_divisor,
                      picard_presentation, tilting_collection,
                      weak_path_weight)

__version__ = "0.1.0"

__all__ = [
    "Arrow", "BraneTileError", "Chamber", "ConsistencyError",
    "DegenerateInputError", "DescendedSupport", "DimerGraph", "Face", "Fan",
    "FanCone", "FanRay", "LatticeTower", "LiftedFace", "PerfectMatching",
    "PicardPresentation", "PolyFace", "Polyhedron", "QuiverOnTorus",
    "SectionCount", "StableSubset", "TiltingCollection", "TilingFormatError",
    "ToricDiagram", "Triangulation", "ValidationReport", "WeakPath",
    "build_lattice_tower", "canonical_point_multiset",
    "chamber_decomposition", "check_smooth",
    "cone_of_arrow_weights", "convex_hull_2d", "default_paths",
    "descend_linear_functional", "dualize_dimer",
    "enumerate_faces", "enumerate_perfect_matchings",
    "enumerate_stable_subsets",
    "fans_equal", "find_chamber", "git_equivalence_classes",
    "graded_sections_count", "integer_kernel", "integer_points",
    "invariant_factors", "is_generic", "is_theta_stable", "is_w_compatible",
    "kernel_polytope", "lift_slice_faces", "load_document",
    "make_weak_path", "matching_arrow_sets",
    "moduli_fan", "path_divisor",
    "picard_presentation", "polyhedron_from_inequalities", "quotient_fan",
    "render_diagram_svg",
    "shift_by_stability", "smith_normal_form",
    "solve_integer", "submodule_supports", "tilting_collection",
    "toric_diagram", "triangulation", "validate", "validate_fan",
    "weak_path_weight",
]
