"""Base machinery shared by the continuous (segment) operators.

Every continuous operator is *closed*: it consumes segments and produces
segments (Section III-C), so operators expose a uniform
``process(segment, port) -> list[Segment]`` interface that the plan
executor routes between.

Three pieces live here because every selective operator needs them:

* :class:`SelectiveOperator` owns the fold memo of a predicate-carrying
  operator and the one probe path through it;
* :class:`AttributeBinding` maps predicate attribute names (possibly
  alias-qualified) onto the polynomial models of one or more aligned
  segments, turning numeric unmodeled constants into constant polynomials;
* :func:`partial_evaluate` first evaluates the predicate atoms that touch
  only *discrete* attributes (keys, non-numeric constants) against the
  segments' constant values — the paper processes keys and unmodeled
  attributes "using standard techniques alongside the modeled attributes"
  (Section II-B), which here means folding them to literals before the
  equation system is built.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from ..delta import LruMemo
from ..equation_system import EquationSystem
from ..errors import PredicateError
from ..expr import ModelResolver
from ..polynomial import Polynomial
from ..predicate import (
    And,
    BoolExpr,
    Comparison,
    Literal,
    Not,
    Or,
    normalize,
)
from ..segment import Segment


class ContinuousOperator:
    """Base class for segment-in / segment-out operators."""

    #: Human-readable operator name (used in plans, lineage and metrics).
    name: str = "operator"

    #: Number of input ports (1 for filter/aggregate/map, 2 for join).
    arity: int = 1

    def process(self, segment: Segment, port: int = 0) -> list[Segment]:
        """Consume one input segment; return the output segments."""
        raise NotImplementedError

    def process_run(
        self, segments: Sequence[Segment], port: int = 0
    ) -> Iterator[list[Segment]]:
        """Consume consecutive inputs on ``port``; yield each one's outputs.

        The plan hands over every run of queue entries bound for this
        operator and port back to back (see
        :meth:`~repro.core.plan.ContinuousPlan._cascade`), so an
        override may do the whole run's work at once — the filter pools
        its solves into one kernel sweep.  It must still yield one
        output list per input, in input order, and surface input ``k``'s
        failure only when asked for input ``k``'s outputs, after those
        of the inputs before it: the plan does each input's bookkeeping
        as its outputs arrive.  The default calls :meth:`process` per
        input, lazily, which is what every stateful operator needs.
        """
        for segment in segments:
            yield self.process(segment, port)

    def flush(self) -> list[Segment]:
        """Emit any outputs still buffered at end of stream."""
        return []

    def reset(self) -> None:
        """Discard all operator state."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class SelectiveOperator(ContinuousOperator):
    """A predicate-carrying operator and the one thing it remembers.

    ``_fold_memo`` maps a discrete signature to the folded residual.
    The fold reads only discrete values and name-resolution structure,
    so one entry serves every alignment with those constants (an
    equi-key join's cross-key pairs never get here: it partitions its
    buffers).  :meth:`_probe` is the single path through it, shared by
    ``process`` and slack validation.
    """

    def __init__(self, predicate: BoolExpr):
        self.predicate = predicate
        #: Count of equation systems solved (benchmark hook).
        self.systems_solved = 0
        self._fold_memo = LruMemo(4096, "memo.fold")

    def reset(self) -> None:
        self._fold_memo.clear()

    def _probe(
        self, aligned: Mapping[str | None, Segment], fold_sig
    ) -> tuple[BoolExpr, EquationSystem | None]:
        """Fold and compile ``predicate`` over ``aligned``.

        Returns ``(residual, system)``: ``system`` is ``None`` iff the
        residual folded to a literal.  ``fold_sig`` is the aligned
        segments' ``fold_sig`` (``None`` = unhashable, never memoized).
        """
        binding = None
        residual = None
        if fold_sig is not None:
            residual = self._fold_memo.get(fold_sig)
        if residual is None:
            binding = AttributeBinding(aligned)
            residual = partial_evaluate(self.predicate, binding)
            if fold_sig is not None:
                self._fold_memo.put(fold_sig, residual)
        if isinstance(residual, Literal):
            return residual, None
        if binding is None:
            binding = AttributeBinding(aligned)
        return residual, EquationSystem.from_predicate(
            residual, binding.resolver()
        )


class AttributeBinding:
    """Resolves qualified/unqualified attribute names over aligned segments.

    ``segments`` maps an alias (or ``None``) to a segment.  Resolution
    order for a reference ``name``:

    1. exact match against a (possibly alias-qualified) attribute;
    2. unique suffix match — ``ap`` resolves ``s.ap`` when only one
       attribute has that final component;
    3. ambiguous suffix match where every candidate holds the *same*
       value (common after an equi-join: both ``s.symbol`` and
       ``l.symbol`` exist and are equal) resolves to that shared value.
    """

    def __init__(self, segments: Mapping[str | None, Segment]):
        self._models: dict[str, Polynomial] = {}
        self._discrete: dict[str, object] = {}
        self._suffixes: dict[str, list[str]] = {}
        for alias, segment in segments.items():
            for attr, poly in segment.models.items():
                self._models[self._register(alias, attr)] = poly
            for attr, value in segment.constants.items():
                self._discrete[self._register(alias, attr)] = value

    def _register(self, alias: str | None, attr: str) -> str:
        """Record the attribute under its full name and suffix; return it."""
        if alias and "." not in attr:
            full = f"{alias}.{attr}"
        else:
            full = attr
        suffix = full.split(".")[-1]
        self._suffixes.setdefault(suffix, []).append(full)
        return full

    def _resolve_name(self, name: str) -> str | None:
        """Map a reference to a registered full attribute name."""
        if name in self._models or name in self._discrete:
            return name
        candidates = self._suffixes.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        if len(candidates) > 1:
            values = [
                self._models.get(c, self._discrete.get(c)) for c in candidates
            ]
            first = values[0]
            if all(v == first for v in values[1:]):
                return candidates[0]
        return None

    @property
    def discrete_env(self) -> Mapping[str, object]:
        """Key/unmodeled attribute values, for discrete partial evaluation."""
        return self._discrete

    def has_model(self, name: str) -> bool:
        full = self._resolve_name(name)
        return full is not None and full in self._models

    def is_discrete(self, name: str) -> bool:
        full = self._resolve_name(name)
        return full is not None and full in self._discrete and full not in self._models

    def discrete_value(self, name: str) -> object:
        full = self._resolve_name(name)
        if full is None or full not in self._discrete:
            raise KeyError(f"no discrete attribute {name!r}")
        return self._discrete[full]

    def resolver(self) -> ModelResolver:
        """A resolver for :meth:`Expr.to_polynomial`.

        Numeric discrete attributes are promoted to constant polynomials so
        mixed predicates (model vs unmodeled number) still compile.
        """

        def resolve(name: str) -> Polynomial:
            full = self._resolve_name(name)
            if full is not None and full in self._models:
                return self._models[full]
            if full is not None:
                value = self._discrete.get(full)
                if isinstance(value, (int, float)):
                    return Polynomial.constant(float(value))
            raise PredicateError(
                f"attribute {name!r} has no polynomial model "
                f"(known models: {sorted(self._models)})"
            )

        return resolve


def partial_evaluate(pred: BoolExpr, binding: AttributeBinding) -> BoolExpr:
    """Fold atoms over purely discrete attributes into literals.

    An atom whose referenced attributes are all discrete (keys or
    unmodeled constants) has a truth value that is constant over the
    segment alignment — e.g. the join predicate ``R.id <> S.id``.  Those
    are evaluated immediately; the rest of the predicate is left for the
    equation system.
    """

    def fold(node: BoolExpr) -> BoolExpr:
        if isinstance(node, Literal):
            return node
        if isinstance(node, Comparison):
            attrs = node.attributes()
            if attrs and all(binding.is_discrete(a) for a in attrs):
                env = {a: binding.discrete_value(a) for a in attrs}
                return Literal(_discrete_compare(node, env))
            return node
        if isinstance(node, And):
            return And(*[fold(c) for c in node.children])
        if isinstance(node, Or):
            return Or(*[fold(c) for c in node.children])
        if isinstance(node, Not):
            return Not(fold(node.child))
        raise PredicateError(f"unknown predicate node {node!r}")

    return normalize(fold(pred))


def _discrete_compare(cmp: Comparison, env: Mapping[str, object]) -> bool:
    """Evaluate a comparison over discrete values, allowing non-numerics.

    Strings (and other orderable values) support the full relation set so
    key predicates like ``R.id <> S.id`` or ``symbol = 'IBM'`` work.
    """
    from ..relation import Rel

    left = _discrete_value(cmp.left, env)
    right = _discrete_value(cmp.right, env)
    rel = cmp.rel
    if rel is Rel.EQ:
        return left == right
    if rel is Rel.NE:
        return left != right
    if rel is Rel.LT:
        return left < right
    if rel is Rel.LE:
        return left <= right
    if rel is Rel.GE:
        return left >= right
    return left > right


def _discrete_value(expr, env: Mapping[str, object]):
    from ..expr import Attr, Const

    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Attr):
        return env[expr.name]
    # Arithmetic over discrete values falls back to numeric evaluation.
    return expr.evaluate({k: v for k, v in env.items() if isinstance(v, (int, float))})


def merged_constants(
    segments: Sequence[tuple[str | None, Segment]]
) -> dict[str, object]:
    """Union of the aligned segments' constants, qualified by alias."""
    out: dict[str, object] = {}
    for alias, segment in segments:
        for attr, value in segment.constants.items():
            name = f"{alias}.{attr}" if alias else attr
            out[name] = value
    return out


def merged_models(
    segments: Sequence[tuple[str | None, Segment]]
) -> dict[str, Polynomial]:
    """Union of the aligned segments' models, qualified by alias."""
    out: dict[str, Polynomial] = {}
    for alias, segment in segments:
        for attr, poly in segment.models.items():
            name = f"{alias}.{attr}" if alias else attr
            out[name] = poly
    return out
