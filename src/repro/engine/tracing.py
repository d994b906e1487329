"""Structured trace spans: where a drain round spends its time.

The paper's evaluation is entirely about *measured* processing cost and
output latency; this module makes those measurable in the reproduction.
When observability is enabled, the engine emits a tree of **spans** —
one record per unit of work, with an explicit ``parent_id`` — covering
the full life of an arrival::

    round                       one scheduler drain round
    └─ arrival                  one queued item being processed
       ├─ operator              one plan node processing one run of inputs
       │  └─ solve              an equation-system / solve-funnel solve
       │     └─ root_query      the kernel's root-finding stage
       └─ emit                  outputs appended for this arrival

Spans are written as JSONL (one JSON object per line) so traces stream
to disk with O(1) memory and replay with :func:`read_trace` /
:func:`build_span_tree`.  Timestamps come from the monotonic clock,
rebased so ``t == 0`` is tracer creation.

**Zero cost when disabled.**  The hot paths in :mod:`repro.core` are
instrumented through module-level hook globals that default to ``None``
(exactly the pattern of the solver fault hook); a disabled run executes
one global load and an ``is None`` test per site and makes *zero*
instrumentation calls — ``tests/engine/test_tracing.py`` pins this.
:func:`enable_observability` installs the hooks (and turns on the
latency histograms in :mod:`repro.engine.metrics`);
:func:`disable_observability` restores the ``None`` state.

Tracing and histograms are enabled together because they share the same
guard: histograms are always cheap enough to keep alongside spans, and
a single switch keeps the guarded call sites trivial.  A tracer is
optional within an enabled state (``--metrics-out`` without
``--trace-out`` records histograms only).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, TextIO

from .metrics import Histogram, get_histogram

#: Local binding: the clock is read twice per span on the hot path.
_perf_counter = time.perf_counter

#: Bumped when the JSONL record shape changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: Span kinds emitted by the engine (test suites assert against these).
SPAN_KINDS = (
    "round",
    "arrival",
    "operator",
    "solve",
    "root_query",
    "emit",
    "watchdog",
    "session",
    "ingest",
    "checkpoint",
    "recovery",
)


class TraceError(ValueError):
    """A trace file failed to parse or reconstruct into a span tree."""


@dataclass(slots=True)
class Span:
    """One unit of traced work; ``parent_id`` encodes the tree."""

    span_id: int
    parent_id: int | None
    name: str
    kind: str
    t_start: float
    t_end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        if self.t_end is None:
            return None
        return self.t_end - self.t_start

    def to_record(self) -> dict:
        rec = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "t_start": self.t_start,
            "t_end": self.t_end,
        }
        if self.attrs:
            # Attr coercion happens here, at serialization time, so the
            # in-run cost of opening a span stays minimal.
            rec["attrs"] = {
                k: _json_safe(v) for k, v in self.attrs.items()
            }
        return rec

    @classmethod
    def from_record(cls, rec: Mapping) -> "Span":
        try:
            return cls(
                span_id=int(rec["span_id"]),
                parent_id=(
                    None if rec.get("parent_id") is None
                    else int(rec["parent_id"])
                ),
                name=str(rec["name"]),
                kind=str(rec["kind"]),
                t_start=float(rec["t_start"]),
                t_end=(
                    None if rec.get("t_end") is None
                    else float(rec["t_end"])
                ),
                attrs=dict(rec.get("attrs") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed span record: {exc}") from exc


def _json_safe(value):
    """Coerce a span attribute to something JSON can carry."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_json_safe(v) for v in value]
    return repr(value)


class Tracer:
    """Emits finished spans as JSONL and tracks the current-span stack.

    The stack makes parent ids implicit at the call sites: a span
    started while another is open becomes its child.  The engine is
    single-threaded per process, so a plain
    list suffices — no contextvars on the hot path.

    ``sink`` may be a filesystem path (opened/owned by the tracer), an
    open text file, or a list (records appended as dicts — the test
    harness mode).

    Finished spans are buffered and serialized in chunks of
    ``buffer_limit`` (or at :meth:`flush`/:meth:`close`): JSON encoding
    is the dominant per-span cost, and deferring it keeps the traced
    hot path inside the observability layer's overhead budget while
    bounding memory at ``O(buffer_limit)`` spans.
    """

    def __init__(self, sink, buffer_limit: int = 65536):
        self._records: list[dict] | None = None
        self._fh: TextIO | None = None
        self._owns_fh = False
        if isinstance(sink, list):
            self._records = sink
        elif hasattr(sink, "write"):
            self._fh = sink
        else:
            self._fh = open(Path(sink), "w", encoding="utf-8")
            self._owns_fh = True
        self._buffer_limit = buffer_limit
        self._pending: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._t0 = _perf_counter()
        self.spans_emitted = 0

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return _perf_counter() - self._t0

    def start(self, name: str, kind: str, **attrs) -> Span:
        """Open a span under the current top of stack."""
        return self._start_at(_perf_counter(), name, kind, attrs)

    def _start_at(
        self, raw_t: float, name: str, kind: str, attrs: dict
    ) -> Span:
        """:meth:`start` against an already-read raw clock value.

        The internal entry point for the timed-site hooks, which read
        the clock once and share it between histogram and span.
        """
        stack = self._stack
        span = Span(
            self._next_id,
            stack[-1] if stack else None,
            name,
            kind,
            raw_t - self._t0,
            None,
            attrs,
        )
        self._next_id += 1
        stack.append(span.span_id)
        return span

    def finish(self, span: Span, **attrs) -> None:
        """Close a span and emit its record."""
        self._finish_at(_perf_counter(), span, attrs or None)

    def _finish_at(
        self, raw_t: float, span: Span, attrs: dict | None = None
    ) -> None:
        span.t_end = raw_t - self._t0
        if attrs:
            span.attrs.update(attrs)
        # Pop back to (and including) this span; mismatched nesting
        # collapses gracefully instead of corrupting later parents.
        stack = self._stack
        while stack:
            if stack.pop() == span.span_id:
                break
        self.spans_emitted += 1
        pending = self._pending
        pending.append(span)
        if len(pending) >= self._buffer_limit:
            self._drain()

    # ------------------------------------------------------------------
    # detached spans: explicit parents, no stack participation
    # ------------------------------------------------------------------
    def start_detached(
        self, name: str, kind: str, parent_id: int | None = None, **attrs
    ) -> Span:
        """Open a span with an explicit parent, outside the stack.

        The stack models strictly nested work on one thread; the network
        server's ``session`` spans are long-lived and *overlap* (many
        connections at once), and its ``ingest`` spans must parent to
        their session rather than to whatever engine work happens to be
        on the stack.  Detached spans carry their parent explicitly and
        never touch the stack, so they cannot corrupt the nesting of
        the engine's own spans.  Finish with :meth:`finish_detached`
        (``finish`` would pop the stack down past unrelated spans).
        """
        span = Span(
            self._next_id, parent_id, name, kind, self._now(), None, attrs
        )
        self._next_id += 1
        return span

    def finish_detached(self, span: Span, **attrs) -> None:
        """Close a detached span and emit its record (stack untouched)."""
        span.t_end = self._now()
        if attrs:
            span.attrs.update(attrs)
        self._emit(span)

    def event_under(
        self, parent_id: int | None, name: str, kind: str, **attrs
    ) -> None:
        """A zero-duration span under an explicit parent."""
        now = self._now()
        self._emit(
            Span(self._next_id, parent_id, name, kind, now, now, attrs)
        )
        self._next_id += 1

    @contextmanager
    def span(self, name: str, kind: str, **attrs) -> Iterator[Span]:
        s = self.start(name, kind, **attrs)
        try:
            yield s
        finally:
            self.finish(s)

    def event(self, name: str, kind: str, **attrs) -> None:
        """A zero-duration span under the current parent."""
        stack = self._stack
        now = _perf_counter() - self._t0
        self._emit(
            Span(
                self._next_id,
                stack[-1] if stack else None,
                name,
                kind,
                now,
                now,
                attrs,
            )
        )
        self._next_id += 1

    # ------------------------------------------------------------------
    def _emit(self, span: Span) -> None:
        self.spans_emitted += 1
        self._pending.append(span)
        if len(self._pending) >= self._buffer_limit:
            self._drain()

    def _drain(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        records = []
        for s in pending:
            if type(s) is tuple:
                # Flat site record appended by _TimedSpanSite /
                # _OperatorSite: the histogram fill was deferred along
                # with serialization to keep the hot path lean.
                sid, parent, name, kind, t0, t1, attr, n, hist = s
                if hist is not None:
                    hist.observe(t1 - t0)
                records.append({
                    "span_id": sid,
                    "parent_id": parent,
                    "name": name,
                    "kind": kind,
                    "t_start": t0,
                    "t_end": t1,
                    "attrs": {attr: _json_safe(n)},
                })
            else:
                records.append(s.to_record())
        if self._records is not None:
            self._records.extend(records)
            return
        self._fh.write(
            "".join(
                json.dumps(rec, separators=(",", ":")) + "\n"
                for rec in records
            )
        )

    def flush(self) -> None:
        self._drain()
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        self.flush()
        if self._owns_fh and self._fh is not None:
            self._fh.close()
            self._fh = None


# ----------------------------------------------------------------------
# replay: JSONL -> span tree
# ----------------------------------------------------------------------
def read_trace(path) -> list[Span]:
    """Parse a trace JSONL file back into :class:`Span` objects.

    Blank lines are skipped; a malformed line raises :class:`TraceError`
    with its line number (a trace is an artifact we control end to end,
    so corruption is a bug, not an input condition).
    """
    spans: list[Span] = []
    with open(Path(path), "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(
                    f"{path}:{lineno}: invalid JSON: {exc}"
                ) from exc
            spans.append(Span.from_record(rec))
    return spans


def build_span_tree(
    spans: Iterable[Span],
) -> tuple[list[Span], dict[int, list[Span]]]:
    """Reconstruct the forest: ``(roots, children_by_parent_id)``.

    Validates the structural invariants the observability layer
    guarantees: unique span ids, every ``parent_id`` resolving to an
    emitted span, and no span ending before it starts.  Raises
    :class:`TraceError` on violation — this is the round-trip check the
    regression suite runs on every emitted trace.
    """
    spans = list(spans)
    by_id: dict[int, Span] = {}
    for span in spans:
        if span.span_id in by_id:
            raise TraceError(f"duplicate span id {span.span_id}")
        by_id[span.span_id] = span
    roots: list[Span] = []
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.t_end is not None and span.t_end < span.t_start:
            raise TraceError(
                f"span {span.span_id} ends before it starts"
            )
        if span.parent_id is None:
            roots.append(span)
        elif span.parent_id not in by_id:
            raise TraceError(
                f"span {span.span_id} has unknown parent "
                f"{span.parent_id}"
            )
        else:
            children.setdefault(span.parent_id, []).append(span)
    return roots, children


def ancestors(span: Span, spans: Iterable[Span]) -> list[Span]:
    """The chain of ancestors of ``span``, nearest first."""
    by_id = {s.span_id: s for s in spans}
    chain: list[Span] = []
    current = span
    while current.parent_id is not None:
        current = by_id[current.parent_id]
        chain.append(current)
    return chain


# ----------------------------------------------------------------------
# the observability switch
# ----------------------------------------------------------------------
#: Module-level state read by the engine-side guards (the
#: scheduler).  ``_ENABLED`` and ``_TRACER`` are separate so
#: histograms can run without a trace sink.
_ENABLED = False
_TRACER: Tracer | None = None


def observability_enabled() -> bool:
    return _ENABLED


def current_tracer() -> Tracer | None:
    return _TRACER


class _TimedSpanSite:
    """A context-manager hook timing one instrumented call site.

    Calling the site with its batch size (tasks, rows, systems) returns
    a context manager; on exit the elapsed seconds land in ``hist`` and
    a span is recorded.  This is the most cost-sensitive code in the
    observability layer — it runs once per solve on the hot path — so
    it trades every convenience for cycles:

    - the site object doubles as its own context manager (one slot of
      per-call state), so the common case allocates nothing;
    - hand-written ``__enter__``/``__exit__`` instead of
      ``@contextmanager`` generators;
    - with a tracer attached, the finished span is appended to the
      tracer's pending buffer as a flat tuple — no :class:`Span`
      object, no attrs dict, and the ``hist`` fill rides along in the
      tuple to be applied at drain time, off the hot path;
    - the clock is read exactly once per side.

    None of the instrumented sites recurses into itself, but if one
    ever did, the busy flag falls back to an allocated per-call
    manager instead of corrupting state.
    """

    __slots__ = (
        "tracer", "hist", "name", "kind", "attr", "_n", "_t0",
        "_sid", "_parent", "_busy",
    )

    def __init__(self, tracer, hist, name, kind, attr):
        self.tracer = tracer
        self.hist = hist
        self.name = name
        self.kind = kind
        self.attr = attr
        self._n = 0
        self._t0 = 0.0
        self._sid = 0
        self._parent = None
        self._busy = False

    def __call__(self, n: int):
        if self._busy:
            return _TimedSpanCM(self, n)
        self._n = n
        return self

    def __enter__(self):
        self._busy = True
        tracer = self.tracer
        if tracer is not None:
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            self._parent = stack[-1] if stack else None
            self._sid = sid
            stack.append(sid)
        self._t0 = _perf_counter()
        return None

    def __exit__(self, exc_type, exc, tb):
        raw = _perf_counter()
        tracer = self.tracer
        if tracer is not None:
            sid = self._sid
            stack = tracer._stack
            # Balanced nesting makes our id the top; the scan below
            # only runs if an inner span collapsed the stack past us.
            if stack and stack[-1] == sid:
                stack.pop()
            elif sid in stack:
                stack.remove(sid)
            tracer.spans_emitted += 1
            pending = tracer._pending
            pending.append((
                sid, self._parent, self.name, self.kind,
                self._t0 - tracer._t0, raw - tracer._t0,
                self.attr, self._n, self.hist,
            ))
            if len(pending) >= tracer._buffer_limit:
                tracer._drain()
        elif self.hist is not None:
            self.hist.observe(raw - self._t0)
        self._busy = False
        return False


class _TimedSpanCM:
    """Allocated per-call fallback for a (theoretical) reentrant site."""

    __slots__ = ("site", "n", "span", "t0")

    def __init__(self, site: _TimedSpanSite, n: int):
        self.site = site
        self.n = n
        self.span = None

    def __enter__(self):
        site = self.site
        raw = _perf_counter()
        self.t0 = raw
        if site.tracer is not None:
            self.span = site.tracer._start_at(
                raw, site.name, site.kind, {site.attr: self.n}
            )
        return self.span

    def __exit__(self, exc_type, exc, tb):
        site = self.site
        raw = _perf_counter()
        if site.hist is not None:
            site.hist.observe(raw - self.t0)
        if self.span is not None:
            site.tracer._finish_at(raw, self.span)
        return False


def _timed_span_hook(
    tracer: Tracer | None,
    hist: Histogram | None,
    name: str,
    kind: str,
    attr: str,
) -> Callable:
    """Build the context-manager hook for one instrumented site."""
    return _TimedSpanSite(tracer, hist, name, kind, attr)


def enable_observability(trace_sink=None) -> Tracer | None:
    """Turn on histograms and (optionally) span tracing.

    ``trace_sink`` is a path, open file, or list for the
    :class:`Tracer`; ``None`` records histograms only.  Installs the
    guarded hooks into :mod:`repro.core.batch_solver`,
    :mod:`repro.core.equation_system` and :mod:`repro.core.plan`; the
    engine-side site (the scheduler) reads this module's state
    directly.

    Returns the tracer (or ``None``).  Enabling twice tears down the
    previous state first, so the hooks never stack.
    """
    global _ENABLED, _TRACER
    if _ENABLED:
        disable_observability()

    from ..core import batch_solver, equation_system, plan

    tracer = Tracer(trace_sink) if trace_sink is not None else None

    batch_solver.set_solver_instrumentation(
        solve_span=_timed_span_hook(
            tracer,
            get_histogram("solver.solve_tasks_seconds"),
            "solve_tasks",
            "solve",
            "tasks",
        ),
        roots_span=_timed_span_hook(
            tracer,
            get_histogram("solver.root_query_seconds"),
            "real_roots",
            "root_query",
            "rows",
        ),
        eigen_observer=_eigen_observer(
            get_histogram("solver.eigensolve_seconds")
        ),
        degree_observer=_degree_observer(),
    )
    equation_system.set_system_instrumentation(
        system_span=_timed_span_hook(
            tracer,
            get_histogram("solver.system_solve_seconds"),
            "equation_system.solve",
            "solve",
            "rows",
        ),
        batch_span=_timed_span_hook(
            tracer,
            get_histogram("solver.system_solve_seconds"),
            "solve_systems_batch",
            "solve",
            "systems",
        ),
    )
    plan.set_operator_trace(
        _operator_trace(tracer) if tracer is not None else None
    )

    _TRACER = tracer
    _ENABLED = True
    return tracer


def disable_observability() -> None:
    """Restore the zero-cost state: every hook back to ``None``."""
    global _ENABLED, _TRACER
    from ..core import batch_solver, equation_system, plan

    batch_solver.set_solver_instrumentation(
        solve_span=None,
        roots_span=None,
        eigen_observer=None,
        degree_observer=None,
    )
    equation_system.set_system_instrumentation(
        system_span=None, batch_span=None
    )
    plan.set_operator_trace(None)
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = None
    _ENABLED = False


@contextmanager
def observability(trace_sink=None) -> Iterator[Tracer | None]:
    """Scoped :func:`enable_observability` / :func:`disable_observability`."""
    tracer = enable_observability(trace_sink)
    try:
        yield tracer
    finally:
        disable_observability()


def _eigen_observer(hist: Histogram) -> Callable[[int, float], None]:
    def observe(n_matrices: int, seconds: float) -> None:
        hist.observe(seconds)

    return observe


def _degree_observer() -> Callable[[int, int, float], None]:
    """Per-degree root-kernel latency: one histogram per degree bucket.

    The solver calls this with ``(degree, n_rows, seconds)`` after each
    closed-form kernel call and each companion degree bucket, so
    ``solver.roots_seconds.degree_3`` (Cardano) is separable from
    ``degree_5``+ (eigensolve fallback) in snapshots and BENCH JSON.
    Histogram handles are cached per degree — steady state pays one
    dict lookup per call, no registry traffic.
    """
    hists: dict[int, Histogram] = {}

    def observe(degree: int, n_rows: int, seconds: float) -> None:
        hist = hists.get(degree)
        if hist is None:
            hist = get_histogram(f"solver.roots_seconds.degree_{degree}")
            hists[degree] = hist
        hist.observe(seconds)

    return observe


class _OperatorSite:
    """Reusable operator-span hook; same shape as :class:`_TimedSpanSite`.

    ``_cascade`` runs plan nodes in a loop (never one inside another),
    so a single slot of per-call state suffices; the busy flag guards
    the theoretical nested case.  Like the timed sites, finished spans
    land in the pending buffer as flat tuples; a run of several inputs
    also records its length as ``segments``, so it lands as a
    :class:`Span` (a run of one keeps the one-attribute record).
    """

    __slots__ = ("tracer", "_label", "_node_id", "_segments", "_sid",
                 "_parent", "_t0", "_busy")

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._label = ""
        self._node_id = 0
        self._segments = 1
        self._sid = 0
        self._parent = None
        self._t0 = 0.0
        self._busy = False

    def __call__(self, label: str, node_id: int, segments: int = 1):
        if self._busy:
            attrs = {"node_id": node_id}
            if segments > 1:
                attrs["segments"] = segments
            return self.tracer.span(label, "operator", **attrs)
        self._label = label
        self._node_id = node_id
        self._segments = segments
        return self

    def __enter__(self):
        self._busy = True
        tracer = self.tracer
        stack = tracer._stack
        sid = tracer._next_id
        tracer._next_id = sid + 1
        self._parent = stack[-1] if stack else None
        self._sid = sid
        stack.append(sid)
        self._t0 = _perf_counter()
        return None

    def __exit__(self, exc_type, exc, tb):
        raw = _perf_counter()
        tracer = self.tracer
        sid = self._sid
        stack = tracer._stack
        if stack and stack[-1] == sid:
            stack.pop()
        elif sid in stack:
            stack.remove(sid)
        tracer.spans_emitted += 1
        pending = tracer._pending
        t0, t1 = self._t0 - tracer._t0, raw - tracer._t0
        if self._segments > 1:
            pending.append(Span(
                sid, self._parent, self._label, "operator", t0, t1,
                {"node_id": self._node_id, "segments": self._segments},
            ))
        else:
            pending.append((
                sid, self._parent, self._label, "operator", t0, t1,
                "node_id", self._node_id, None,
            ))
        if len(pending) >= tracer._buffer_limit:
            tracer._drain()
        self._busy = False
        return False


def _operator_trace(tracer: Tracer) -> Callable:
    return _OperatorSite(tracer)
