"""Accuracy and slack bound splitting heuristics (Section IV-C).

A bound inverted through a multi-input operator must be *apportioned*
among the input models that caused the output.  The paper defines the
split interface

    {(ik_p, [il_a, iu_a]), ...} =
        split(ok, oc, [ol, ou], {(ik_p, ic_a), ..., (ik_q, ic_a)})

and two built-in heuristics, both conservative (the allocated input
ranges never exceed the output range):

* **equi-split** — uniform allocation over every contributing key and
  every dependent attribute;
* **gradient split** — allocation proportional to each input model's
  contribution, measured by the magnitude of its time derivative (a
  fast-moving input gets a larger share of the budget because it is the
  one likely to violate first).

User-defined heuristics implement the same callable signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..batch_solver import (
    derivative_matrix,
    horner_rows,
    pad_coefficient_matrix,
)
from ..polynomial import Polynomial
from ..segment import Key


@dataclass(frozen=True)
class SplitInput:
    """One contributing input model: key, attribute, coefficients."""

    key: Key
    attr: str
    poly: Polynomial
    t_start: float
    t_end: float

    def mean_abs_gradient(self) -> float:
        """Average magnitude of the model's time derivative.

        Cheap surrogate: ``|d poly/dt|`` at the segment midpoint, plus a
        floor so constant models still receive a share.
        """
        deriv = self.poly.derivative()
        mid = 0.5 * (self.t_start + self.t_end)
        return abs(deriv(mid))


@dataclass(frozen=True)
class SplitShare:
    """The bound share allocated to one (key, attribute)."""

    key: Key
    attr: str
    lo: float
    hi: float


#: Split heuristic signature: (output key, output bound interval,
#: contributing inputs) -> shares.  ``dependencies`` counts attribute
#: dependencies D(o) = translations ∪ inferences beyond the inputs
#: themselves (each extra dependency dilutes the allocation).
SplitHeuristic = Callable[
    [Key, tuple[float, float], Sequence[SplitInput], int], list[SplitShare]
]


def equi_split(
    output_key: Key,
    bound: tuple[float, float],
    inputs: Sequence[SplitInput],
    dependencies: int = 0,
) -> list[SplitShare]:
    """Uniform allocation: each target gets ``bound / n``.

    ``n = |{ik_p ... ik_q}| * |D(o)|`` in the paper's notation — the
    number of contributing (key, attribute) targets, inflated by extra
    attribute dependencies.
    """
    if not inputs:
        return []
    n = len(inputs) + max(dependencies, 0)
    lo, hi = bound
    return [
        SplitShare(i.key, i.attr, lo / n, hi / n) for i in inputs
    ]


def mean_abs_gradients(inputs: Sequence[SplitInput]) -> list[float]:
    """Per-input derivative magnitudes, batched through one matrix sweep.

    The batched form stacks every input model's derivative coefficients
    into one padded matrix and evaluates all segment midpoints in a
    single column sweep — the same kernel the solver's sign tests use —
    instead of a Python Horner loop per input.  A single input takes
    the per-input path.
    """
    if len(inputs) < 2:
        return [i.mean_abs_gradient() for i in inputs]
    matrix = derivative_matrix(
        pad_coefficient_matrix([i.poly.coeffs for i in inputs])
    )
    mids = np.array([0.5 * (i.t_start + i.t_end) for i in inputs])
    return [float(g) for g in np.abs(horner_rows(matrix, mids))]


def gradient_split(
    output_key: Key,
    bound: tuple[float, float],
    inputs: Sequence[SplitInput],
    dependencies: int = 0,
) -> list[SplitShare]:
    """Contribution-proportional allocation.

    Each input's share is weighted by the magnitude of its model's time
    derivative relative to the sum over all contributing inputs — the
    product of the single-segment gradient with the global segment of
    all input keys, in the paper's phrasing.  Falls back to equi-split
    when every gradient is (numerically) zero.
    """
    if not inputs:
        return []
    gradients = mean_abs_gradients(inputs)
    total = sum(gradients)
    if total <= 1e-15:
        return equi_split(output_key, bound, inputs, dependencies)
    # Dependencies dilute the budget exactly as in equi-split.
    scale = len(inputs) / (len(inputs) + max(dependencies, 0))
    lo, hi = bound
    return [
        SplitShare(
            i.key,
            i.attr,
            lo * (g / total) * scale,
            hi * (g / total) * scale,
        )
        for i, g in zip(inputs, gradients)
    ]


def one_sided_split(
    direction: str,
    base: SplitHeuristic | None = None,
) -> SplitHeuristic:
    """Aggressive one-sided allocation (Section IV-C's suggestion).

    For inequality predicates only one error direction can flip the
    result: with ``x > c`` producing outputs, a tuple *above* its model
    keeps the predicate satisfied no matter how far it strays.  Opening
    the non-binding side to infinity "improves the longevity of the
    bounds" — tuples deviating the harmless way are never violations.

    Parameters
    ----------
    direction:
        ``"upper"`` keeps the upper limit and opens the lower one
        (deviations downward are harmless), ``"lower"`` the reverse.
    base:
        The two-sided heuristic supplying the kept side's width
        (default: equi-split).
    """
    if direction not in ("upper", "lower"):
        raise ValueError("direction must be 'upper' or 'lower'")
    base = base or equi_split

    def split(
        output_key: Key,
        bound: tuple[float, float],
        inputs: Sequence[SplitInput],
        dependencies: int = 0,
    ) -> list[SplitShare]:
        shares = base(output_key, bound, inputs, dependencies)
        if direction == "upper":
            return [
                SplitShare(s.key, s.attr, float("-inf"), s.hi) for s in shares
            ]
        return [
            SplitShare(s.key, s.attr, s.lo, float("inf")) for s in shares
        ]

    return split


_BUILTINS: Mapping[str, SplitHeuristic] = {
    "equi": equi_split,
    "gradient": gradient_split,
    "one-sided-upper": one_sided_split("upper"),
    "one-sided-lower": one_sided_split("lower"),
}


def get_splitter(name_or_fn: str | SplitHeuristic) -> SplitHeuristic:
    """Resolve a heuristic by name or accept a user-defined callable."""
    if callable(name_or_fn):
        return name_or_fn
    try:
        return _BUILTINS[name_or_fn]
    except KeyError:
        raise ValueError(
            f"unknown split heuristic {name_or_fn!r}; "
            f"built-ins: {sorted(_BUILTINS)}"
        ) from None
