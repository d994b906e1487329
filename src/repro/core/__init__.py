"""Pulse core: continuous-time query processing via equation systems.

The paper's primary contribution: segments as a first-class datatype,
per-operator simultaneous equation systems, the query transform, and
validated execution with inverted error bounds.
"""

from .batch_solver import SolverConfig, solver_config
from .equation_system import DifferenceRow, EquationSystem, solve_systems_batch
from .errors import PulseError
from .expr import Abs, Add, Attr, Const, Div, Expr, Mul, Neg, Pow, Sqrt, Sub
from .intervals import Interval, TimeSet
from .modes import HistoricalProcessor, PredictiveProcessor, PredictiveStats
from .piecewise import Piece, PiecewiseFunction, lower_envelope, upper_envelope
from .plan import ContinuousPlan
from .polynomial import Polynomial
from .predicate import And, BoolExpr, Comparison, Not, Or, normalize
from .relation import Rel
from .segment import Segment, SegmentBuffer
from .transform import TransformedQuery, to_continuous_plan

__all__ = [
    "Abs", "Add", "And", "Attr", "BoolExpr", "Comparison", "Const",
    "ContinuousPlan", "DifferenceRow", "Div", "EquationSystem", "Expr",
    "HistoricalProcessor", "Interval", "Mul", "Neg", "Not", "Or", "Piece",
    "PiecewiseFunction", "Polynomial", "Pow", "PredictiveProcessor",
    "PredictiveStats", "PulseError", "Rel", "Segment", "SegmentBuffer",
    "SolverConfig", "Sqrt", "Sub", "TimeSet", "TransformedQuery",
    "lower_envelope", "normalize", "solve_systems_batch", "solver_config",
    "to_continuous_plan", "upper_envelope",
]
