"""Piecewise polynomial functions and envelope maintenance.

Min/max aggregates keep, as operator state, a *piecewise* function ``s(t)``
that is the lower (min) or upper (max) envelope of the model functions seen
so far (Section III-B, Figure 2).  This module provides the piecewise
container plus the envelope computation, built on pairwise root finding:
within any elementary interval delimited by piece boundaries and pairwise
intersection roots, the envelope coincides with a single polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .intervals import EPS, Interval
from .polynomial import Polynomial
from .batch_solver import real_roots_rows


@dataclass(frozen=True, slots=True)
class Piece:
    """A polynomial valid over a half-open interval."""

    interval: Interval
    poly: Polynomial

    def __call__(self, t: float) -> float:
        return self.poly(t)


class PiecewiseFunction:
    """An ordered sequence of non-overlapping polynomial pieces.

    Gaps are allowed (the function is partial); evaluation inside a gap
    raises ``ValueError``.
    """

    __slots__ = ("_pieces",)

    def __init__(self, pieces: Iterable[Piece] = ()):
        ordered = sorted(pieces, key=lambda p: p.interval.lo)
        for a, b in zip(ordered[:-1], ordered[1:]):
            if a.interval.hi > b.interval.lo + EPS:
                raise ValueError(
                    f"pieces overlap: {a.interval} and {b.interval}"
                )
        self._pieces: tuple[Piece, ...] = tuple(ordered)

    @classmethod
    def empty(cls) -> "PiecewiseFunction":
        return cls()

    @property
    def pieces(self) -> tuple[Piece, ...]:
        return self._pieces

    @property
    def is_empty(self) -> bool:
        return not self._pieces

    @property
    def domain_start(self) -> float:
        if not self._pieces:
            raise ValueError("empty piecewise function has no domain")
        return self._pieces[0].interval.lo

    @property
    def domain_end(self) -> float:
        if not self._pieces:
            raise ValueError("empty piecewise function has no domain")
        return self._pieces[-1].interval.hi

    def piece_at(self, t: float) -> Piece | None:
        for piece in self._pieces:
            if piece.interval.contains(t):
                return piece
        # The overall supremum belongs to the last piece by convention so
        # that closed-window evaluation at the domain end is defined.
        if self._pieces and abs(t - self._pieces[-1].interval.hi) <= EPS:
            return self._pieces[-1]
        return None

    def __call__(self, t: float) -> float:
        piece = self.piece_at(t)
        if piece is None:
            raise ValueError(f"t={t} outside the piecewise domain")
        return piece.poly(t)

    def defined_at(self, t: float) -> bool:
        return self.piece_at(t) is not None

    def restrict(self, lo: float, hi: float) -> "PiecewiseFunction":
        out = []
        for piece in self._pieces:
            clipped = piece.interval.intersect(Interval(lo, hi)) if lo < hi else None
            if clipped is not None:
                out.append(Piece(clipped, piece.poly))
        return PiecewiseFunction(out)

    def splice(self, lo: float, hi: float, poly: Polynomial) -> "PiecewiseFunction":
        """Replace the function on ``[lo, hi)`` with ``poly``.

        This is the state-update primitive for min/max aggregates: when a
        new input segment dips below the current lower envelope over some
        solution range, that range is overwritten with the new model.
        """
        if lo >= hi:
            return self
        out: list[Piece] = []
        for piece in self._pieces:
            iv = piece.interval
            if iv.hi <= lo + EPS or iv.lo >= hi - EPS:
                out.append(piece)
                continue
            if iv.lo < lo:
                out.append(Piece(Interval(iv.lo, lo), piece.poly))
            if iv.hi > hi:
                out.append(Piece(Interval(hi, iv.hi), piece.poly))
        out.append(Piece(Interval(lo, hi), poly))
        return PiecewiseFunction(out)

    def definite_integral(self, lo: float, hi: float) -> float:
        """Integral over ``[lo, hi]`` of the covered parts."""
        total = 0.0
        for piece in self._pieces:
            a = max(lo, piece.interval.lo)
            b = min(hi, piece.interval.hi)
            if a < b:
                total += piece.poly.definite_integral(a, b)
        return total

    def iter_breakpoints(self) -> Iterator[float]:
        for piece in self._pieces:
            yield piece.interval.lo
        if self._pieces:
            yield self._pieces[-1].interval.hi

    def approx_equal(self, other: "PiecewiseFunction", tol: float = 1e-7) -> bool:
        if len(self._pieces) != len(other._pieces):
            return False
        for a, b in zip(self._pieces, other._pieces):
            if abs(a.interval.lo - b.interval.lo) > tol:
                return False
            if abs(a.interval.hi - b.interval.hi) > tol:
                return False
            if not a.poly.approx_equal(b.poly, tol):
                return False
        return True

    def __repr__(self) -> str:
        body = ", ".join(
            f"{p.interval}:{p.poly!r}" for p in self._pieces
        )
        return f"PiecewiseFunction({body})"


def _elementary_cells(
    pieces: Sequence[Piece],
) -> list[tuple[float, float, list[Piece]]]:
    """Split the union of piece domains into cells where the set of live
    pieces is constant and no two live pieces cross."""
    cuts: set[float] = set()
    for piece in pieces:
        cuts.add(piece.interval.lo)
        cuts.add(piece.interval.hi)
    # Every overlapping pair's crossings, solved in one kernel call.
    rows: list[tuple[tuple[float, ...], float, float]] = []
    for i, a in enumerate(pieces):
        for b in pieces[i + 1 :]:
            overlap = a.interval.intersect(b.interval)
            if overlap is None:
                continue
            diff = a.poly - b.poly
            if diff.is_zero or diff.is_constant:
                continue
            rows.append((diff.coeffs, overlap.lo, overlap.hi))
    if rows:
        for (_, lo, hi), roots in zip(rows, real_roots_rows(rows)):
            cuts.update(r for r in roots if lo < r < hi)
    ordered = sorted(cuts)
    cells: list[tuple[float, float, list[Piece]]] = []
    for lo, hi in zip(ordered[:-1], ordered[1:]):
        if hi - lo <= EPS:
            continue
        mid = 0.5 * (lo + hi)
        live = [p for p in pieces if p.interval.contains(mid)]
        if live:
            cells.append((lo, hi, live))
    return cells


def _envelope(
    pieces: Sequence[Piece], choose: Callable[[Sequence[float]], float]
) -> PiecewiseFunction:
    out: list[Piece] = []
    for lo, hi, live in _elementary_cells(pieces):
        mid = 0.5 * (lo + hi)
        values = [p.poly(mid) for p in live]
        winner = live[values.index(choose(values))]
        if (
            out
            and out[-1].poly == winner.poly
            and abs(out[-1].interval.hi - lo) <= EPS
        ):
            out[-1] = Piece(Interval(out[-1].interval.lo, hi), winner.poly)
        else:
            out.append(Piece(Interval(lo, hi), winner.poly))
    return PiecewiseFunction(out)


def lower_envelope(pieces: Sequence[Piece]) -> PiecewiseFunction:
    """The pointwise minimum of the given pieces over their union domain."""
    return _envelope(pieces, min)


def upper_envelope(pieces: Sequence[Piece]) -> PiecewiseFunction:
    """The pointwise maximum of the given pieces over their union domain."""
    return _envelope(pieces, max)
