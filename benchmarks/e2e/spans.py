"""Per-layer tracing from outside the program, and the traced pass.

The benchmark wraps a table of the program's public entry points
(``module:qualname -> layer``), records a span around each call, and
attributes the wall time of every request to the layers it crossed.  No
file under ``src/`` knows about any of this.

A request's root span is the generator's ``PulseClient.ingest`` (or
``flush``) call.  Spans on the server's threads hang off the root that
is in flight; one request is in flight at a time, so that is
unambiguous.  A span's self time is its busy time minus its same-thread
children's; where spans of different threads overlap inside a root, the
overlapped time is split equally between them, so the layers' self
times plus ``unattributed`` (socket, asyncio, thread hops, unwrapped
code) equal the roots' total exactly.

A table entry that no longer resolves is reported, its layer reads
``null``, and the pass goes on: the table is frozen while the program
keeps changing.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import itertools
import json
import shutil
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import loadgen
import reference

LAYERS = (
    "server.client", "server.protocol", "server.bridge", "engine.wal",
    "fitting", "engine.scheduler", "core.operators",
    "core.equation_system", "core.batch_solver", "core.solve_cache",
    "server.router",
)


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point.

    ``kind``: ``root`` opens a request; ``span`` records one span per
    call; ``leaf`` times every call but keeps one record per (parent,
    entry) -- for entry points called once per tuple; ``count`` only
    counts -- for entry points called dozens of times per tuple;
    ``submit`` is ``EngineBridge.submit``, which times the submitted
    callable on the engine thread.

    ``on_root_thread``: the layer charged when the call happens on the
    generator's thread (``None`` = not recorded there at all).
    ``measure``: an amount summed per call -- ``("arg", i)`` is
    ``len(args[i])``, ``("ret",)`` is ``len(result)``, ``("int",)`` is
    ``int(result)``.  A ``count`` entry's amount is its non-``None``
    results (cache hits).
    """

    target: str
    layer: str
    kind: str = "span"
    on_root_thread: str | None = None
    measure: tuple = ()

    @property
    def name(self) -> str:
        return self.target.split(":", 1)[1]


_P = "repro.server.protocol:"
_B = "repro.core.batch_solver:"
ENTRY_POINTS = (
    Entry("repro.server.client:PulseClient.ingest", "server.client", "root"),
    Entry("repro.server.client:PulseClient.flush", "server.client", "root"),
    Entry(_P + "decode_line", "server.protocol",
          on_root_thread="server.client", measure=("arg", 0)),
    Entry(_P + "encode", "server.protocol",
          on_root_thread="server.client", measure=("ret",)),
    Entry(_P + "validate_request", "server.protocol"),
    Entry(_P + "validate_tuple", "server.protocol", "leaf"),
    Entry(_P + "serialize_results", "server.protocol", measure=("ret",)),
    Entry("repro.server.bridge:EngineBridge.submit", "server.bridge",
          "submit"),
    Entry("repro.engine.durability:Durability.log", "engine.wal"),
    Entry("repro.engine.wal:WriteAheadLog.append", "engine.wal"),
    Entry("repro.engine.wal:WriteAheadLog.sync", "engine.wal"),
    Entry("repro.fitting.model_builder:StreamModelBuilder.add", "fitting",
          "leaf", measure=("ret",)),
    Entry("repro.fitting.model_builder:StreamModelBuilder.finish", "fitting",
          measure=("ret",)),
    Entry("repro.engine.scheduler:QueryRuntime.enqueue", "engine.scheduler",
          "leaf"),
    Entry("repro.engine.scheduler:QueryRuntime.step", "engine.scheduler",
          measure=("int",)),
    Entry("repro.engine.scheduler:QueryRuntime.run_until_idle",
          "engine.scheduler"),
    # EquationSystem has no public ``build``; its structure is built
    # inside ``from_predicate``.
    Entry("repro.core.equation_system:EquationSystem.from_predicate",
          "core.equation_system"),
    Entry("repro.core.equation_system:EquationSystem.solve",
          "core.equation_system"),
    Entry("repro.core.equation_system:solve_systems_batch",
          "core.equation_system", measure=("arg", 0)),
    Entry(_B + "solve_tasks", "core.batch_solver", measure=("arg", 0)),
    Entry(_B + "solve_relation_batch", "core.batch_solver",
          measure=("arg", 0)),
    Entry(_B + "real_roots_batch", "core.batch_solver", measure=("arg", 0)),
    Entry("repro.core.closed_form:cubic_candidates", "core.batch_solver",
          measure=("arg", 0)),
    Entry("repro.core.closed_form:quartic_candidates", "core.batch_solver",
          measure=("arg", 0)),
    Entry("repro.core.solve_cache:SolveCache.get", "core.solve_cache",
          "count"),
    Entry("repro.core.solve_cache:RootCache.get", "core.solve_cache",
          "count"),
    Entry("repro.core.delta:LruMemo.get", "core.solve_cache", "count",
          measure=("hit",)),
    Entry("repro.core.delta:SolutionStore.lookup", "core.solve_cache",
          "count"),
    # Towards workers only: on the generator's thread these two are the
    # inside of the root span, not a layer.
    Entry("repro.server.client:PulseClient.send_request", "server.router"),
    Entry("repro.server.client:PulseClient.read_reply", "server.router"),
)

#: ``process`` of every ContinuousOperator subclass joins the table at
#: install time, one entry per class.
OPERATOR_BASE = "repro.core.operators.base:ContinuousOperator"

#: Modules whose globals may hold ``from x import f`` copies of a
#: wrapped function; imported before patching so none is missed.
PROGRAM_MODULES = (
    "repro.server.server", "repro.server.router", "repro.server.bridge",
    "repro.testing.chaos_server", "repro.core.operators",
    "repro.engine.scheduler", "repro.engine.parallel",
)


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
class _ThreadState:
    __slots__ = ("tid", "stack", "root_depth", "spans", "leaves")

    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list[int] = []  # ids of this thread's open spans
        self.root_depth = 0
        self.spans: list[tuple] = []
        #: (parent id, entry index) -> [start, end, calls, busy]
        self.leaves: dict[tuple[int, int], list] = {}


@dataclass
class EntryStats:
    calls: int = 0
    amount: int = 0
    #: the same two, for calls made on the generator's thread
    root_calls: int = 0
    root_amount: int = 0


class Recorder:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.active = False
        self.root: int | None = None  # id of the request in flight
        self.entries: list[Entry] = []
        self.stats: list[EntryStats] = []
        self.queue_wait_s = 0.0
        self.queue_waits = 0
        self.orphans = 0  # spans outside any request (not recorded)
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self.next_id = itertools.count(1).__next__

    def state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._tls.state = state
            return state

    # -- wrappers ------------------------------------------------------
    def wrap(self, entry: Entry, fn):
        self.entries.append(entry)
        self.stats.append(EntryStats())
        make = getattr(self, f"_wrap_{entry.kind}")
        wrapper = make(entry, len(self.entries) - 1, fn)
        return functools.update_wrapper(wrapper, fn)

    def _measure(self, entry: Entry):
        how = entry.measure
        if not how:
            return None
        if how[0] == "arg":
            position = how[1]
            return lambda args, result: len(args[position])
        if how[0] == "ret":
            return lambda args, result: len(result)
        if how[0] == "int":
            return lambda args, result: int(result)
        raise ValueError(f"unknown measure {how!r}")

    def _wrap_root(self, entry, index, fn):
        name, layer, stats = entry.name, entry.layer, self.stats[index]

        def root(*args, **kwargs):
            if not self.active or self.root is not None:
                return fn(*args, **kwargs)
            state = self.state()
            span_id = self.next_id()
            state.stack.append(span_id)
            state.root_depth += 1
            stats.calls += 1
            self.root = span_id
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.root = None
                state.root_depth -= 1
                state.stack.pop()
                state.spans.append(
                    (span_id, layer, name, state.tid, t0, t1, 0, 1, t1 - t0)
                )

        return root

    def _wrap_span(self, entry, index, fn):
        name, stats = entry.name, self.stats[index]
        measure = self._measure(entry)

        def span(*args, **kwargs):
            root = self.root
            if root is None:
                self.orphans += self.active
                return fn(*args, **kwargs)
            state = self.state()
            on_root = state.root_depth > 0
            layer = entry.on_root_thread if on_root else entry.layer
            if layer is None:
                return fn(*args, **kwargs)
            stack = state.stack
            parent = stack[-1] if stack else root
            span_id = self.next_id()
            stack.append(span_id)
            result = failed = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                failed = exc
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                state.spans.append(
                    (span_id, layer, name, state.tid, t0, t1, parent, 1,
                     t1 - t0)
                )
                amount = 0
                if measure is not None and failed is None:
                    amount = measure(args, result)
                if on_root:
                    stats.root_calls += 1
                    stats.root_amount += amount
                else:
                    stats.calls += 1
                    stats.amount += amount

        return span

    def _wrap_leaf(self, entry, index, fn):
        stats = self.stats[index]
        measure = self._measure(entry)

        def leaf(*args, **kwargs):
            root = self.root
            if root is None:
                return fn(*args, **kwargs)
            state = self.state()
            stack = state.stack
            key = (stack[-1] if stack else root, index)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            t1 = perf_counter()
            record = state.leaves.get(key)
            if record is None:
                state.leaves[key] = [t0, t1, 1, t1 - t0]
            else:
                record[1] = t1
                record[2] += 1
                record[3] += t1 - t0
            stats.calls += 1
            if measure is not None:
                stats.amount += measure(args, result)
            return result

        return leaf

    def _wrap_count(self, entry, index, fn):
        stats = self.stats[index]

        def count(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.root is not None:
                stats.calls += 1
                stats.amount += result is not None
            return result

        return count

    def _wrap_submit(self, entry, index, fn):
        """``EngineBridge.submit(callable)``: the span that matters is
        the callable's run on the engine thread; the wait from submit
        to its start is the bridge's queue wait."""
        name, layer, stats = entry.name, entry.layer, self.stats[index]

        def submit(bridge, command):
            root = self.root
            if root is None:
                return fn(bridge, command)
            submitted = perf_counter()

            def run():
                state = self.state()
                span_id = self.next_id()
                state.stack.append(span_id)
                t0 = perf_counter()
                self.queue_wait_s += t0 - submitted
                self.queue_waits += 1
                try:
                    return command()
                finally:
                    t1 = perf_counter()
                    state.stack.pop()
                    state.spans.append(
                        (span_id, layer, name + ":run", state.tid, t0, t1,
                         root, 1, t1 - t0)
                    )

            stats.calls += 1
            return fn(bridge, run)

        return submit

    # -- results -------------------------------------------------------
    def records(self) -> list[dict]:
        """Every span and coalesced leaf record, as dicts."""
        keys = ("id", "layer", "name", "thread", "start", "end", "parent",
                "calls", "busy")
        out = []
        for state in self._states:
            out += [dict(zip(keys, span)) for span in state.spans]
            for (parent, index), (t0, t1, calls, busy) in state.leaves.items():
                entry = self.entries[index]
                out.append(dict(zip(keys, (
                    self.next_id(), entry.layer, entry.name, state.tid,
                    t0, t1, parent, calls, busy,
                ))))
        return out


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def attribute(records: list[dict]) -> dict:
    """Partition every root's wall time over layers.

    Returns ``{"layers": {layer: seconds}, "unattributed": s,
    "root_total": s, "roots": n, "names": {name: seconds}}``.

    Within a thread, children nest inside their parent and never
    overlap, so ``self = busy - sum(children busy)``.  Across threads
    only the *tops* -- spans whose parent is the root or lives on
    another thread -- can overlap; a sweep over each root's tops gives
    every instant to the tops active in it, in equal shares, and each
    top's subtree is scaled by the share of its interval it was given.
    Uncovered instants, and the gaps between the calls a coalesced
    record stands for, are ``unattributed``.
    """
    by_id = {r["id"]: r for r in records}
    child_busy: dict[int, float] = defaultdict(float)
    tops_of_root: dict[int, list[dict]] = defaultdict(list)
    #: record id -> (top id, root id); a record whose parent was never
    #: recorded maps to (None, None) and is left out.
    place: dict[int, tuple] = {}

    def locate(record) -> tuple:
        found = place.get(record["id"])
        if found is None:
            parent = by_id.get(record["parent"])
            if parent is None:
                found = (None, None)
            elif parent["parent"] == 0:
                found = (record["id"], parent["id"])
            elif parent["thread"] != record["thread"]:
                found = (record["id"], locate(parent)[1])
            else:
                found = locate(parent)
            place[record["id"]] = found
        return found

    roots = [r for r in records if r["parent"] == 0]
    for record in records:
        if record["parent"] == 0:
            continue
        top, root = locate(record)
        if top == record["id"]:
            tops_of_root[root].append(record)
        elif top is not None:
            child_busy[record["parent"]] += record["busy"]

    share: dict[int, float] = {}
    unattributed = 0.0
    for root in roots:
        lo, hi = root["start"], root["end"]
        events = []
        for top in tops_of_root.get(root["id"], ()):
            start, end = max(top["start"], lo), min(top["end"], hi)
            share[top["id"]] = 0.0
            if end > start:
                events.append((start, 1, top["id"]))
                events.append((end, 0, top["id"]))
        events.sort()
        active: set[int] = set()
        given: dict[int, float] = defaultdict(float)
        at = lo
        for when, opening, top_id in events:
            if when > at:
                if active:
                    part = (when - at) / len(active)
                    for member in active:
                        given[member] += part
                else:
                    unattributed += when - at
                at = when
            if opening:
                active.add(top_id)
            else:
                active.discard(top_id)
        unattributed += hi - at
        for top_id, seconds in given.items():
            top = by_id[top_id]
            length = top["end"] - top["start"]
            share[top_id] = seconds / length if length > 0 else 0.0
            # a coalesced record is busy for only part of its interval
            unattributed += (length - top["busy"]) * share[top_id]

    layers: dict[str, float] = defaultdict(float)
    names: dict[str, float] = defaultdict(float)
    for record in records:
        if record["parent"] == 0:
            continue
        own = record["busy"] - child_busy.get(record["id"], 0.0)
        own *= share.get(place[record["id"]][0], 0.0)
        layers[record["layer"]] += own
        names[record["name"]] += own
    return {
        "layers": dict(layers),
        "names": dict(names),
        "unattributed": unattributed,
        "root_total": sum(r["end"] - r["start"] for r in roots),
        "roots": len(roots),
    }


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------
def resolve_target(target: str):
    """``module:qualname`` -> ``(namespace object, attribute name, raw
    attribute)``; raises ``LookupError`` when it no longer exists."""
    module_name, qualname = target.split(":", 1)
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{target}: {exc}") from exc
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{target}: no {part!r}")
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError as exc:
        raise LookupError(f"{target}: no {attr!r}") from exc
    return owner, attr, raw


def operator_entries() -> list[Entry]:
    """One ``process`` entry per ContinuousOperator subclass that
    defines its own."""
    base, _attr, _raw = resolve_target(OPERATOR_BASE + ".process")
    importlib.import_module("repro.core.operators")
    found, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if "process" in vars(cls):
            found.append(Entry(
                f"{cls.__module__}:{cls.__qualname__}.process",
                "core.operators", measure=("ret",),
            ))
    return sorted(found, key=lambda e: e.target)


class Patch:
    """Install the table's wrappers; ``undo()`` puts everything back."""

    def __init__(self, recorder: Recorder, entries=ENTRY_POINTS,
                 with_operators: bool = True):
        self.recorder = recorder
        self.missing: list[str] = []
        self.missing_layers: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []
        for name in PROGRAM_MODULES:
            try:
                importlib.import_module(name)
            except ImportError:
                pass  # whatever it held cannot be stale then
        entries = list(entries)
        if with_operators:
            try:
                entries += operator_entries()
            except LookupError:
                self.missing.append(OPERATOR_BASE)
                self.missing_layers.add("core.operators")
        for entry in entries:
            try:
                owner, attr, raw = resolve_target(entry.target)
            except LookupError:
                self.missing.append(entry.target)
                self.missing_layers.add(entry.layer)
                continue
            self._install(entry, owner, attr, raw)

    def _install(self, entry, owner, attr, raw) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.recorder.wrap(entry, raw.__func__))
        else:
            wrapped = self.recorder.wrap(entry, raw)
        self._set(owner, attr, raw, wrapped)
        if inspect.ismodule(owner):
            # ``from .protocol import encode`` copies made at import
            for module in list(sys.modules.values()):
                if (
                    module is owner
                    or not getattr(module, "__name__", "").startswith("repro.")
                ):
                    continue
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, name, raw, wrapped)

    def _set(self, owner, attr, raw, wrapped) -> None:
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def undo(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()


# ----------------------------------------------------------------------
# the traced pass
# ----------------------------------------------------------------------
@dataclass
class _InProcessServer:
    """``ServerThread``, or ``PulseRouter`` over ``WorkerFleet``
    subprocesses, with the CLI's defaults."""

    workload: object
    workdir: object
    port: int = 0
    _parts: list = field(default_factory=list)

    def start(self, recorder: Recorder | None):
        from repro.server.server import ServerConfig, ServerThread

        w = self.workload
        self.workdir.mkdir(parents=True, exist_ok=True)
        if w.fleet_workers:
            from repro.server.router import PulseRouter, RouterConfig
            from repro.testing.chaos_server import WorkerFleet

            fleet = WorkerFleet(w.fleet_workers, str(self.workdir / "fleet"),
                                checkpoint_every=64, retain_results=4096)
            self._parts.append(fleet)
            router = PulseRouter(RouterConfig(workers=tuple(fleet.start())))
            self._parts.append(router)
            self.port = router.start().port
            return self
        config = ServerConfig(
            num_shards=1,
            wal_dir=str(self.workdir / "wal") if w.wal else None,
        )
        handle = ServerThread(config).start()
        self._parts.append(handle)
        self.port = handle.port
        if recorder is not None:
            bridge = handle.server.bridge
            if getattr(bridge, "on_outputs", None) is not None:
                bridge.on_outputs = recorder.wrap(
                    Entry("repro.server.bridge:EngineBridge.on_outputs",
                          "server.bridge", measure=("arg", 0)),
                    bridge.on_outputs,
                )
        return self

    def stop(self) -> None:
        for part in reversed(self._parts):
            part.stop()
        self._parts.clear()
        shutil.rmtree(self.workdir, ignore_errors=True)


def _drive(workload, tuples, paced_at, recorder, workdir):
    """One in-process pass over the warm-up and the saturate input.

    Returns ``(wall seconds, results, tally, fleet and counter facts)``.
    """
    from repro.engine.metrics import counter_snapshot
    from repro.server.client import PulseClient

    tally = loadgen.Tally()
    server = _InProcessServer(workload, workdir).start(recorder)
    try:
        with PulseClient("127.0.0.1", server.port,
                         timeout=loadgen.REQUEST_TIMEOUT_S) as client:
            client.connect()
            client.register("bench", workload.query, fit=workload.fit)
            sub = client.subscribe("bench", mode=workload.mode,
                                   error_bound=workload.error_bound)
            tally.ack(1, client.ingest(workload.stream, tuples[:1]))
            loadgen.warmup_phase(client, workload, tuples[1:paced_at], tally)
            batch = workload.saturate_batch
            runs = 0
            warm_results = client.drain_results(sub["subscription"])
            counters = dict(counter_snapshot())
            if recorder is not None:
                recorder.active = True
            t0 = perf_counter()
            for lo in range(paced_at, len(tuples), batch):
                chunk = tuples[lo:lo + batch]
                ack = client.ingest(workload.stream, chunk)
                tally.ack(len(chunk), ack)
                runs += int(ack.get("runs", 0))
            client.flush()
            wall = perf_counter() - t0
            if recorder is not None:
                recorder.active = False
            # the program's own counters over the measured window
            counters = {
                name: value - counters.get(name, 0)
                for name, value in counter_snapshot().items()
            }
            measured_results = client.drain_results(sub["subscription"])
            stats = client.stats()
    finally:
        server.stop()
    spread = [w["sent"] for w in stats.get("workers", ())]
    return wall, warm_results + measured_results, tally, {
        "runs": runs, "spread": spread, "counters": counters,
        "measured_results": len(measured_results),
    }


def run_traced(workload, seed: int, seconds: float) -> dict:
    """Untraced then traced in-process pass over the same input."""
    paced_at, _saturate_at, end = workload.offsets(seconds, paced=False)
    tuples, input_digest = workload.generate(seed, end)
    measured = end - paced_at
    loadgen.quiet_heap()
    workroot = loadgen.OUT / "tmp" / f"{workload.name}-traced"
    shm_before = loadgen.shm_names()

    plain_wall, plain_results, tally, _ = _drive(
        workload, tuples, paced_at, None, workroot / "plain")

    recorder = Recorder()
    patch = Patch(recorder)
    try:
        traced_wall, results, traced_tally, facts = _drive(
            workload, tuples, paced_at, recorder, workroot / "traced")
    finally:
        patch.undo()
    shutil.rmtree(workroot, ignore_errors=True)

    # outputs: tracing must not change them, and they must be right
    checked = reference.check(workload, tuples, results, tally)
    if results != plain_results:
        tally.wrong_rows += 1
        tally.notes.append(
            "traced and untraced passes returned different results")
    tally.tuples += traced_tally.tuples
    tally.batches += traced_tally.batches
    tally.lost_tuples += traced_tally.lost_tuples
    records = recorder.records()
    budget = attribute(records)
    loadgen.OUT.mkdir(parents=True, exist_ok=True)
    origin = min((r["start"] for r in records), default=0.0)
    with open(loadgen.OUT / f"trace_{workload.name}.jsonl", "w") as out:
        for r in records:
            r = dict(r, start=r["start"] - origin, end=r["end"] - origin)
            out.write(json.dumps(r) + "\n")

    report = layer_report(recorder, patch, budget, measured, facts)
    report["trace_overhead_share"] = traced_wall / plain_wall - 1.0
    report["untraced_wall_s"] = plain_wall
    report["traced_wall_s"] = traced_wall
    detail = {
        "input_digest": input_digest, "measured_tuples": measured,
        **checked, "trace": report,
    }
    gc.enable()
    return tally.result(flat_metrics(report), detail,
                        loadgen.leftovers(shm_before))


def layer_report(recorder, patch, budget, tuples, facts) -> dict:
    """Everything the traced pass knows, layer by layer."""
    ktuples = tuples / 1000.0
    counters = facts["counters"]
    results = facts["measured_results"]
    by_name: dict[str, EntryStats] = {}
    calls: dict[str, int] = defaultdict(int)
    for entry, stats in zip(recorder.entries, recorder.stats):
        merged = by_name.setdefault(entry.name, EntryStats())
        merged.calls += stats.calls
        merged.amount += stats.amount
        merged.root_calls += stats.root_calls
        merged.root_amount += stats.root_amount
        calls[entry.layer] += stats.calls
        if entry.on_root_thread:
            calls[entry.on_root_thread] += stats.root_calls

    def stat(name) -> EntryStats:
        return by_name.get(name, EntryStats())

    def ratio(a, b):
        return a / b if b else 0.0

    layers = {}
    for layer in LAYERS:
        if layer in patch.missing_layers:
            layers[layer] = None
            continue
        layers[layer] = {
            "self_ms_per_ktuple":
                budget["layers"].get(layer, 0.0) * 1e3 / ktuples,
            "calls": calls.get(layer, 0),
        }
    total = budget["root_total"]
    attributed = sum(budget["layers"].values())
    solves = (stat("EquationSystem.solve").calls
              + stat("solve_systems_batch").amount)
    lookups = sum(stat(n).calls for n in (
        "SolveCache.get", "RootCache.get", "LruMemo.get",
        "SolutionStore.lookup"))
    hits = sum(stat(n).amount for n in (
        "SolveCache.get", "RootCache.get", "LruMemo.get",
        "SolutionStore.lookup"))
    kernel = stat("solve_relation_batch")
    spread = facts["spread"]
    operators = {
        name.split(".")[0]: {
            "segments_in": s.calls, "segments_out": s.amount,
            "self_ms_per_ktuple":
                budget["names"].get(name, 0.0) * 1e3 / ktuples,
        }
        for name, s in by_name.items()
        if name.endswith(".process") and s.calls
    }
    return {
        "layers": layers,
        "unattributed_ms_per_ktuple": budget["unattributed"] * 1e3 / ktuples,
        "root_total_ms_per_ktuple": total * 1e3 / ktuples,
        "unattributed_share": ratio(budget["unattributed"], total),
        "sum_check_residual_ms":
            (attributed + budget["unattributed"] - total) * 1e3,
        "roots": budget["roots"],
        "missing_entry_points": patch.missing,
        "spans_outside_requests": recorder.orphans,
        "operators": operators,
        "extras": {
            "server.protocol.bytes_in_per_tuple":
                ratio(stat("decode_line").amount, tuples),
            "server.protocol.bytes_out_per_result":
                ratio(stat("encode").amount, results),
            "server.bridge.queue_wait_ms_per_batch":
                ratio(recorder.queue_wait_s * 1e3, recorder.queue_waits),
            "server.bridge.fanout_pushes":
                stat("EngineBridge.on_outputs").amount,
            "engine.wal.appends": stat("WriteAheadLog.append").calls,
            # group commits run on the WAL's own thread, out of reach of
            # a wrapper: read the program's counter instead
            "engine.wal.syncs": counters.get("wal.fsyncs", 0),
            "engine.wal.bytes_per_tuple":
                ratio(counters.get("wal.bytes", 0), tuples),
            "fitting.compression": ratio(
                stat("StreamModelBuilder.add").calls,
                stat("StreamModelBuilder.add").amount
                + stat("StreamModelBuilder.finish").amount),
            "engine.scheduler.rounds": stat("QueryRuntime.step").calls,
            "engine.scheduler.items_per_round": ratio(
                stat("QueryRuntime.step").amount,
                stat("QueryRuntime.step").calls),
            "core.equation_system.solves": solves,
            "core.batch_solver.rows_per_kernel_call":
                ratio(kernel.amount, kernel.calls),
            "core.solve_cache.lookups_per_solve": ratio(lookups, solves),
            "core.solve_cache.hit_share": ratio(hits, lookups),
            "server.router.runs_per_ktuple": ratio(facts["runs"], ktuples),
            "server.router.worker_wait_ms_per_ktuple":
                budget["names"].get("PulseClient.read_reply", 0.0)
                * 1e3 / ktuples,
            "server.router.spread_max_share":
                ratio(max(spread, default=0), sum(spread)),
        },
        "entry_points": {
            name: {"calls": s.calls, "amount": s.amount,
                   "generator_calls": s.root_calls}
            for name, s in sorted(by_name.items())
        },
        # the program's own counters over the same pass, read from outside
        "counter_check": {
            "wal.records vs WriteAheadLog.append":
                [counters.get("wal.records", 0),
                 stat("WriteAheadLog.append").calls],
            "server.ingested_tuples vs measured tuples":
                [counters.get("server.ingested_tuples", 0), tuples],
            "server.results_sent vs results":
                [counters.get("server.results_sent", 0), results],
            "solve_cache.hits+misses vs SolveCache.get":
                [counters.get("solve_cache.hits", 0)
                 + counters.get("solve_cache.misses", 0),
                 stat("SolveCache.get").calls],
            "equation_system.row_solves":
                [counters.get("equation_system.row_solves", 0), None],
        },
    }


#: name -> unit of every per-layer metric, in BENCHMARK.json's order.
PER_LAYER_UNITS = {
    **{f"{layer}.self_ms_per_ktuple": "ms/ktuple" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "unattributed_ms_per_ktuple": "ms/ktuple",
    "root_total_ms_per_ktuple": "ms/ktuple",
    "trace_overhead_share": "share",
    "server.protocol.bytes_in_per_tuple": "B",
    "server.protocol.bytes_out_per_result": "B",
    "server.bridge.queue_wait_ms_per_batch": "ms",
    "server.bridge.fanout_pushes": "count",
    "engine.wal.appends": "count",
    "engine.wal.syncs": "count",
    "engine.wal.bytes_per_tuple": "B",
    "fitting.compression": "ratio",
    "engine.scheduler.rounds": "count",
    "engine.scheduler.items_per_round": "ratio",
    "core.equation_system.solves": "count",
    "core.batch_solver.rows_per_kernel_call": "ratio",
    "core.solve_cache.lookups_per_solve": "ratio",
    "core.solve_cache.hit_share": "share",
    "server.router.runs_per_ktuple": "1/ktuple",
    "server.router.worker_wait_ms_per_ktuple": "ms/ktuple",
    "server.router.spread_max_share": "share",
}


def flat_metrics(report: dict) -> dict:
    """The report as ``{name: {"value", "unit"}}``.  A layer whose entry
    points are gone reads ``null`` in the report and 0 here, where the
    result line needs a number."""
    values = dict(report["extras"])
    for layer, numbers in report["layers"].items():
        for key in ("self_ms_per_ktuple", "calls"):
            values[f"{layer}.{key}"] = numbers[key] if numbers else 0
    for key in ("unattributed_ms_per_ktuple", "root_total_ms_per_ktuple",
                "trace_overhead_share"):
        values[key] = report[key]
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
