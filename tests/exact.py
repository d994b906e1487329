"""The exact set where ``p(t) R 0``: the referee of the root kernel.

Every float is a dyadic rational, so a row's coefficients, relation and
domain determine its solution set exactly.  :func:`solve` finds that set
in :class:`fractions.Fraction` arithmetic: it takes the square-free part
of ``p`` (``p / gcd(p, p')``, which has the same distinct roots), counts
its roots in any interval with a Sturm chain, bisects until every root
sits alone in an enclosure of relative width at most ``width``, and
reads the exact sign of ``p`` on each gap between roots.  Nothing here
rounds, so the only error of the answer is the enclosure width.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _primitive(p) -> list[int]:
    """``p`` trimmed and times the positive rational that makes it coprime
    integers: the same roots and signs, with far smaller numbers."""
    p = [Fraction(c) for c in p]
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    scale = math.lcm(*(c.denominator for c in p))
    ints = [int(c * scale) for c in p]
    g = math.gcd(*ints) or 1
    return [c // g for c in ints]


def _value(p: list[int], x: Fraction) -> int:
    """``p(x)`` times ``denominator(x) ** degree``: its sign is ``p(x)``'s."""
    n, d = x.numerator, x.denominator
    acc, dk = 0, 1
    for c in reversed(p):
        acc = acc * n + c * dk
        dk *= d
    return acc


def _divide(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Primitive quotient and remainder of ``a / b``, ``b != 0``."""
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    for shift in range(len(a) - len(b), -1, -1):
        q[shift] = a[shift + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            a[shift + i] -= q[shift] * c
    return _primitive(q), _primitive(a[: len(b) - 1] or [0])


def _derivative(p: list[int]) -> list[int]:
    return _primitive([i * c for i, c in enumerate(p)][1:] or [0])


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """The Sturm chain of the square-free part of ``p`` (degree >= 1),
    each member scaled by a positive number, which keeps every sign."""
    a, b = p, _derivative(p)
    while any(b):
        a, b = b, _divide(a, b)[1]
    chain = [_divide(p, a)[0]]
    chain.append(_derivative(chain[0]))
    while len(chain[-1]) > 1:
        chain.append([-c for c in _divide(chain[-2], chain[-1])[1]])
    return chain


def _variations(chain: list[list[int]], x: Fraction) -> int:
    """Sign changes of the chain at ``x``; ``V(a) - V(b)`` is the number
    of distinct roots in ``(a, b]``."""
    signs = [v > 0 for v in (_value(q, x) for q in chain) if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _log2(x: Fraction) -> int:
    """``floor(log2(x))`` for ``x > 0``."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    return e if Fraction(2) ** e <= x else e - 1


def _split(x: Fraction, y: Fraction) -> Fraction:
    """A point inside ``(x, y)``: zero when the interval straddles it, a
    power of two near the geometric mean when it spans more than two
    binary orders of magnitude (a root bound can be 1e300 with the roots
    near 1, or a root can be 1e-70), and the midpoint otherwise."""
    if x < 0 < y:
        return Fraction(0)
    if x > 0 and y > 4 * x:
        return Fraction(2) ** ((_log2(x) + _log2(y)) // 2)
    if y < 0 and -x > -4 * y:
        return -_split(-y, -x)
    return (x + y) / 2


def _isolate(chain, a: Fraction, b: Fraction, width: float):
    """One enclosure ``(x, y]`` per root in ``(a, b]``, ascending, each
    either of relative width at most ``width`` or ending at its root."""
    out, stack = [], [(a, b, _variations(chain, a), _variations(chain, b))]
    while stack:
        x, y, vx, vy = stack.pop()
        if vx == vy:
            continue
        if vx - vy == 1 and (
            _value(chain[0], y) == 0
            or y - x <= Fraction(width) * max(abs(x), abs(y))
        ):
            out.append((x, y))
            continue
        mid = _split(x, y)
        vm = _variations(chain, mid)
        stack += [(mid, y, vm, vy), (x, mid, vx, vm)]
    return out


def _gap_point(chain, left: Fraction, x: Fraction, y: Fraction) -> Fraction:
    """A point strictly between the root at or left of ``left`` and the
    root in ``(x, y]``, given ``left <= x``."""
    if left < x:
        return (left + x) / 2
    if _value(chain[0], left) != 0:
        return left
    v = _variations(chain, left)
    m = (left + y) / 2
    while _value(chain[0], m) == 0 or _variations(chain, m) != v:
        m = (left + m) / 2
    return m


def _setup(coeffs, lo: float, hi: float):
    """``(p, chain, a, b)``: ``p`` primitive, ``chain`` its square-free
    part's Sturm chain and ``[a, b]`` the domain with each infinite end
    replaced by a bound no root reaches (Cauchy's)."""
    p = _primitive(coeffs)
    chain = _sturm_chain(p)
    bound = 1 + max(abs(Fraction(c, chain[0][-1])) for c in chain[0])
    a = -bound if lo == -math.inf else Fraction(lo)
    b = bound if hi == math.inf else Fraction(hi)
    return p, chain, a, b


def _root(chain, x: Fraction, y: Fraction) -> Fraction:
    return y if _value(chain[0], y) == 0 else (x + y) / 2


def roots(coeffs, lo: float, hi: float, width: float) -> list[Fraction]:
    """The distinct real roots in ``[lo, hi]``, ascending, each within
    relative ``width``; none for a constant."""
    if lo > hi or len(_primitive(coeffs)) == 1:
        return []
    _, chain, a, b = _setup(coeffs, lo, hi)
    at_lo = [a] if _value(chain[0], a) == 0 else []
    return at_lo + [_root(chain, x, y) for x, y in _isolate(chain, a, b, width)]


def solve(coeffs, rel, lo: float, hi: float, width: float):
    """``(intervals, points)`` where ``sum(coeffs[i] t**i) rel 0`` holds
    on ``[lo, hi)``.

    Intervals are disjoint ``(start, end)`` pairs in ascending order, and
    adjacent gaps that both hold are merged across the root between them
    (a measure-zero difference for strict relations).  A root counts as a
    point when it satisfies ``rel`` and no interval ends at it.  Roots are
    :class:`Fraction` values within relative ``width`` of the true root;
    the domain's own ends are returned as given, infinities included.
    """
    if lo >= hi:
        return [], []
    if len(_primitive(coeffs)) == 1:
        return ([(lo, hi)] if rel.holds(_primitive(coeffs)[0]) else []), []
    p, chain, a, b = _setup(coeffs, lo, hi)
    found = _isolate(chain, a, b, width)
    right = (b, b)
    if found and _value(chain[0], b) == 0:
        right = found.pop()  # a root at hi closes the domain
    samples, left = [], a
    for x, y in found + [right]:
        samples.append(_gap_point(chain, left, x, y))
        left = y
    inner = [_root(chain, x, y) for x, y in found]
    ends = [lo, *inner, hi]
    intervals: list[tuple] = []
    for k, s in enumerate(samples):
        if not rel.holds(_value(p, s)):
            continue
        if intervals and intervals[-1][1] == ends[k]:
            intervals[-1] = (intervals[-1][0], ends[k + 1])
        else:
            intervals.append((ends[k], ends[k + 1]))
    points = []
    if rel.holds(0):
        at_lo = [Fraction(lo)] if a == lo and _value(chain[0], a) == 0 else []
        points = [
            r for r in at_lo + inner
            if not any(s <= r <= e for s, e in intervals)
        ]
    return intervals, points


def _fraction(x):
    return x if isinstance(x, Fraction) or math.isinf(x) else Fraction(x)


def symmetric_difference(got, want):
    """The measure of the points in exactly one of two ascending lists of
    disjoint ``(start, end)`` intervals (``math.inf`` when unbounded)."""
    got = [(_fraction(s), _fraction(e)) for s, e in got]
    want = [(_fraction(s), _fraction(e)) for s, e in want]
    cuts = sorted({x for pair in got + want for x in pair})
    total = Fraction(0)
    for u, v in zip(cuts, cuts[1:]):
        if any(s <= u < e for s, e in got) != any(s <= u < e for s, e in want):
            if math.isinf(u) or math.isinf(v):
                return math.inf
            total += v - u
    return total
