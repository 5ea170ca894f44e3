"""Exact census of reciprocal conjugacy classes in the groups Z_2 * Z_p.

``hecke_census.census`` is the function ``census``, which the package
re-exports over its submodule of that name; the module is
``sys.modules["hecke_census.census"]``.
"""

from .words import (
    CyclicWord,
    DomainError,
    GroupParams,
    InvolutionType,
    UnsupportedParameterError,
    Word,
    make_params,
)
from .reciprocal import Category, ReciprocalInfo, classify
from .census import CensusRow, CensusTable, census, enumerate_classes
from .formulas import ClaimLedger, claims_check, recurrence_extend
from .spectral import GrowthReport, IntPoly, analyze_growth, build_growth_poly

__all__ = [
    "Category",
    "CensusRow",
    "CensusTable",
    "ClaimLedger",
    "CyclicWord",
    "DomainError",
    "GroupParams",
    "GrowthReport",
    "IntPoly",
    "InvolutionType",
    "ReciprocalInfo",
    "UnsupportedParameterError",
    "Word",
    "analyze_growth",
    "build_growth_poly",
    "census",
    "claims_check",
    "classify",
    "enumerate_classes",
    "make_params",
    "recurrence_extend",
]
