"""Swap symmetry of a self-join: the facts the self-join rewrite rests on.

A join of one stream with itself, both sides under one window and one
``MODEL`` clause, sees every segment arrive on both inputs.  If the
join predicate and every operator above it do not change when the two
aliases trade places, each unordered pair of segments is computed twice
with the same numbers: once as ``(a, b)`` and once as ``(b, a)``.  An
operator that is invariant under the swap commutes with it (the DBSP
argument), so the swap can move to the output: compute each pair once
and emit its mirror twin there (see :mod:`repro.core.transform`).

"Invariant" here is bit-exact, not approximate, and is decided by a
small sound rule set over expressions, never by textual equality or by
sampling.  Evaluating an expression on a mirrored row is evaluating its
:meth:`Swap.expr` image on the original row; an expression is

* ``INV`` when that image evaluates to the same float (or polynomial
  coefficients) as the expression itself;
* ``ANTI`` when it evaluates to the same magnitude, with the sign
  flipped wherever it is non-zero.

``a - swap(a)`` is ``ANTI`` because IEEE round-to-nearest is symmetric,
so ``y - x`` is exactly ``-(x - y)`` and both are ``+0.0`` when equal.
An even power or ``abs`` of an ``ANTI`` value is ``INV``; ``+``, ``-``,
``*``, ``/``, ``sqrt``, ``abs`` and powers of ``INV`` values are
``INV``.  ``ANTI * ANTI`` is deliberately *not* ``INV``: a zero factor
can carry a different sign on the two sides, and the product then
differs in the sign of zero.
"""

from __future__ import annotations

from typing import Mapping

from .errors import PulseError
from .expr import Abs, Add, Attr, Const, Div, Expr, Mul, Neg, Pow, Sqrt, Sub
from .operators.base import ContinuousOperator
from .predicate import And, BoolExpr, Comparison, normalize
from .relation import Rel
from .segment import Segment

INV = "invariant"
ANTI = "anti-invariant"


class Swap:
    """The rename map of a self-join's swap at one level of the plan.

    An involution on attribute names: ``<left>.<a>`` and ``<right>.<a>``
    (the join's qualified output columns, and the constants operators
    above keep) trade places, and ``static`` pairs the names projections
    and aggregates introduce (``id1 <-> id2``; a swap-invariant column
    maps to itself).  :meth:`name` is ``None`` for a name it does not
    know, which no rule treats as invariant.
    """

    def __init__(
        self, left: str, right: str, static: Mapping[str, str] | None = None
    ):
        self.left = left
        self.right = right
        self.static = dict(static or {})
        #: name -> the name :meth:`mirror` gives it.
        self._images: dict[str, str] = {}

    def qualified(self, name: str) -> bool:
        """Whether ``name`` is one of the join's alias-qualified columns."""
        head, dot, _ = name.partition(".")
        return bool(dot) and head in (self.left, self.right)

    def name(self, name: str) -> str | None:
        if name in self.static:
            return self.static[name]
        head, dot, rest = name.partition(".")
        if dot and head == self.left:
            return f"{self.right}.{rest}"
        if dot and head == self.right:
            return f"{self.left}.{rest}"
        return None

    def with_static(self, pairs: Mapping[str, str]) -> "Swap | None":
        """This swap with ``pairs`` (re)defined; ``None`` unless the
        result is still an involution."""
        static = {**self.static, **pairs}
        if any(static.get(image) != name for name, image in static.items()):
            return None
        return Swap(self.left, self.right, static)

    def expr(self, expr: Expr) -> Expr | None:
        """``expr`` with every attribute renamed; ``None`` if it names
        an attribute the swap does not know (or a node it cannot copy)."""
        if isinstance(expr, Const):
            return expr
        if isinstance(expr, Attr):
            image = self.name(expr.name)
            return None if image is None else Attr(image)
        if isinstance(expr, (Add, Sub, Mul, Div)):
            left, right = self.expr(expr.left), self.expr(expr.right)
            if left is None or right is None:
                return None
            return type(expr)(left, right)
        if isinstance(expr, (Neg, Sqrt, Abs)):
            operand = self.expr(expr.operand)
            return None if operand is None else type(expr)(operand)
        if isinstance(expr, Pow):
            base = self.expr(expr.base)
            return None if base is None else Pow(base, expr.exponent)
        return None

    def mirror(self, segment: Segment) -> Segment:
        """The segment the other orientation of its pair would produce.

        The key's halves trade places (a join key is the left key then
        the right key, and the self-join checks both have one length);
        models and constants are renamed.  When the renamed names are
        the original ones, as they are for one stream's segments, they
        keep the original order, which is the order the other
        orientation builds them in.
        """
        half = len(segment.key) // 2
        return Segment(
            segment.key[half:] + segment.key[:half],
            segment.t_start,
            segment.t_end,
            self._renamed(segment.models),
            self._renamed(segment.constants),
            lineage=(segment.seg_id,),
        )

    def _renamed(self, values: Mapping[str, object]) -> dict[str, object]:
        images = self._images
        out = {}
        for n, v in values.items():
            image = images.get(n)
            if image is None:
                image = images[n] = self.name(n) or n
            out[image] = v
        if out.keys() == values.keys():
            return {n: out[n] for n in values}
        return out


class GroupMirror:
    """What a group-by needs to keep one state per mirror pair of groups.

    ``perm`` maps a group key to its twin's (``twin[i] = key[perm[i]]``);
    ``rows`` mirrors the group-by's input segments and ``outputs`` its
    output segments.
    """

    def __init__(self, perm: tuple[int, ...], rows: Swap, outputs: Swap):
        self.perm = tuple(perm)
        self.rows = rows
        self.outputs = outputs

    def twin_key(self, key: tuple) -> tuple:
        return tuple(key[i] for i in self.perm)


class MirrorTwins(ContinuousOperator):
    """Output stage of a rewritten self-join plan: each result's twin."""

    name = "mirror"

    def __init__(self, swap: Swap):
        self.swap = swap

    def process(self, segment: Segment, port: int = 0) -> list[Segment]:
        return [self.swap.mirror(segment)]


def parity(expr: Expr, swap: Swap) -> str | None:
    """``INV``, ``ANTI`` or ``None`` (no guarantee) for ``expr``."""
    if isinstance(expr, Const):
        return INV
    if isinstance(expr, Attr):
        return INV if swap.name(expr.name) == expr.name else None
    if isinstance(expr, Sub) and swap.expr(expr.left) == expr.right:
        return ANTI
    if isinstance(expr, (Add, Sub)):
        left, right = parity(expr.left, swap), parity(expr.right, swap)
        return left if left == right else None
    if isinstance(expr, (Mul, Div)):
        kinds = {parity(expr.left, swap), parity(expr.right, swap)}
        if kinds == {INV}:
            return INV
        return ANTI if kinds == {INV, ANTI} else None
    if isinstance(expr, Neg):
        return parity(expr.operand, swap)
    if isinstance(expr, Pow):
        base = parity(expr.base, swap)
        if base == ANTI and isinstance(expr.exponent, int):
            return INV if expr.exponent % 2 == 0 else ANTI
        return INV if base == INV else None
    if isinstance(expr, Abs):
        return INV if parity(expr.operand, swap) is not None else None
    if isinstance(expr, Sqrt):
        return INV if parity(expr.operand, swap) == INV else None
    return None


def invariant_predicate(pred: BoolExpr, swap: Swap) -> bool:
    """Whether ``pred`` decides a pair and its mirror identically.

    Checked on the normalized form the equation system compiles (where
    ``abs(E) < c`` has become two comparisons of ``E``): every atom
    either compares two ``INV`` sides, so the mirrored system is the
    same system, or is ``x = swap(x)`` / ``x <> swap(x)``, whose truth
    does not depend on the order of its sides.
    """
    try:
        atoms = list(normalize(pred).atoms())
    except PulseError:
        return False
    for atom in atoms:
        if parity(atom.left, swap) == parity(atom.right, swap) == INV:
            continue
        if not (
            atom.rel in (Rel.EQ, Rel.NE)
            and isinstance(atom.left, Attr)
            and swap.expr(atom.left) == atom.right
        ):
            return False
    return True


def distinct_attrs(pred: BoolExpr, swap: Swap) -> frozenset[str]:
    """The ``a`` of every top-level conjunct ``<left>.a <> <right>.a``.

    Such a conjunct rejects a segment paired with itself, and makes the
    two sides' ``a`` differ in every pair that passes.
    """
    atoms = pred.children if isinstance(pred, And) else (pred,)
    found = set()
    for atom in atoms:
        if (
            isinstance(atom, Comparison)
            and atom.rel is Rel.NE
            and isinstance(atom.left, Attr)
            and swap.expr(atom.left) == atom.right
            and swap.qualified(atom.left.name)
        ):
            found.add(atom.left.name.partition(".")[2])
    return frozenset(found)
