"""Exact computations with discrete moment tensors on lattice polytopes.

Everything is integer or rational arithmetic: lattice point enumeration,
symmetric tensor algebra, dilation-polynomial expansions with their
reciprocity, covariance and equivariance checks, unimodular triangulations
of lattice polygons with the rank-9 triangulation valuation, and the exact
rank computations behind the classification of tensor valuations.
"""

from .arith import bernoulli, bernoulli_table, faulhaber_sum, power_sum_polynomial
from .ehrhart import (
    CheckReport,
    EhrhartTensorExpansion,
    check_equivariance,
    check_reciprocity,
    check_translation_covariance,
    discrete_moment,
    discrete_moment_relint,
    ehrhart_tensors,
    moment_tensor,
)
from .points import count, count_relint, lattice_points, relint_lattice_points
from .polytope import (
    LatticePolytope,
    UnimodularMap,
    dilate,
    dissect_prism,
    faces,
    from_points,
    minkowski_sum,
    negate,
    prism,
    random_unimodular,
    standard_simplex,
    transform,
    translate,
)
from .tensor import MultiIndex, SymTensor, apply_linear, coordinate_row, evaluate, sym_power, sym_product
from .tri2d import Triangulation2D, flip, flip_walk, unimodular_triangulation, valuation_n

__all__ = [
    "CheckReport",
    "EhrhartTensorExpansion",
    "LatticePolytope",
    "MultiIndex",
    "SymTensor",
    "Triangulation2D",
    "UnimodularMap",
    "apply_linear",
    "bernoulli",
    "bernoulli_table",
    "check_equivariance",
    "check_reciprocity",
    "check_translation_covariance",
    "coordinate_row",
    "count",
    "count_relint",
    "dilate",
    "discrete_moment",
    "discrete_moment_relint",
    "dissect_prism",
    "ehrhart_tensors",
    "evaluate",
    "faces",
    "faulhaber_sum",
    "flip",
    "flip_walk",
    "from_points",
    "lattice_points",
    "minkowski_sum",
    "moment_tensor",
    "negate",
    "power_sum_polynomial",
    "prism",
    "random_unimodular",
    "relint_lattice_points",
    "standard_simplex",
    "sym_power",
    "sym_product",
    "transform",
    "translate",
    "unimodular_triangulation",
    "valuation_n",
]

__version__ = "0.1.0"
