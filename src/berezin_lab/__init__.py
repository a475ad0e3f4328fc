"""Numerical laboratory for matrix-ball geometry, Haar integrals and Berezin kernels."""

__version__ = "0.1.0"

from .errors import (
    BerezinLabError,
    DomainError,
    InvalidParams,
    NearSingularCocycle,
    NonPositiveDeterminant,
    OracleNotConverged,
    PoleOnContour,
    UncancelledPole,
)

__all__ = [
    "__version__",
    "BerezinLabError",
    "DomainError",
    "InvalidParams",
    "NearSingularCocycle",
    "NonPositiveDeterminant",
    "OracleNotConverged",
    "PoleOnContour",
    "UncancelledPole",
]
