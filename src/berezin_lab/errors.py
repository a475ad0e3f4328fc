"""Exception types shared across the laboratory."""


class BerezinLabError(Exception):
    """Base class for all library-specific errors."""


class InvalidParams(BerezinLabError):
    """Arguments outside an operation's documented domain of use."""


class DomainError(BerezinLabError):
    """A closed-form evaluation was requested outside its convergence domain."""


class NearSingularCocycle(BerezinLabError):
    """The matrix a + z c is too ill conditioned to act with."""


class NonPositiveDeterminant(BerezinLabError):
    """det(1 - z u^t) was expected to be positive but is not."""


class UncancelledPole(BerezinLabError):
    """A Gamma-product value has a pole that no zero cancels."""


class PoleOnContour(BerezinLabError):
    """A density evaluation hit a net pole at a real spectral parameter."""


class OracleNotConverged(BerezinLabError):
    """A deterministic oracle did not converge within its refinement cap."""
