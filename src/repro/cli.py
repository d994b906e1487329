"""Command-line interface: run queries over generated workloads.

Usage::

    python -m repro explain --query "select * from objects where x > 0"
    python -m repro run --query "..." --workload moving --tuples 2000 \
        --mode both
    python -m repro serve --query "q1=select * from objects where x > 0" \
        --workload moving --port 7433
    python -m repro ingest --port 7433 --stream objects --workload moving \
        --tuples 2000 --subscribe q1
    python -m repro params

``run`` generates the chosen synthetic workload, executes the query on
the discrete engine (tuples) and/or the continuous engine (segments
fitted from the same tuples), and prints result counts, timings and the
first few results from each path.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from .core.transform import to_continuous_plan
from .engine.lowering import to_discrete_plan
from .fitting import build_segments
from .query import explain, parse_query, plan_query

#: Workload name -> (generator factory, modeled attrs, key fields).
_WORKLOADS = {
    "moving": ("moving objects", ("x", "y"), ("id",)),
    "nyse": ("trade feed", ("price",), ("symbol",)),
    "ais": ("vessel feed", ("x", "y"), ("id",)),
}


def _make_generator(name: str, rate: float, seed: int):
    if name == "moving":
        from .workloads import MovingObjectConfig, MovingObjectGenerator

        return MovingObjectGenerator(
            MovingObjectConfig(rate=rate, seed=seed)
        )
    if name == "nyse":
        from .workloads import NyseConfig, NyseTradeGenerator

        return NyseTradeGenerator(NyseConfig(rate=rate, seed=seed))
    if name == "ais":
        from .workloads import AisConfig, AisVesselGenerator

        return AisVesselGenerator(AisConfig(rate=rate, seed=seed))
    raise ValueError(f"unknown workload {name!r}")


def _stream_name(planned) -> str:
    return next(iter(planned.stream_sources))


def cmd_explain(args) -> int:
    planned = plan_query(parse_query(args.query))
    print(explain(planned.root))
    if planned.error_spec:
        kind = "relative" if planned.error_spec.relative else "absolute"
        print(f"error bound: {planned.error_spec.bound} ({kind})")
    if planned.sample_spec:
        print(f"sample period: {planned.sample_spec.period}")
    return 0


def cmd_run(args) -> int:
    planned = plan_query(parse_query(args.query))
    stream = _stream_name(planned)
    label, attrs, key_fields = _WORKLOADS[args.workload]
    gen = _make_generator(args.workload, args.rate, args.seed)
    tuples = list(gen.tuples(args.tuples))
    print(
        f"workload: {label}, {len(tuples)} tuples at {args.rate:g} t/s "
        f"(seed {args.seed})"
    )

    observing = bool(args.metrics_out or args.trace_out)
    if observing:
        from .engine import tracing

        tracing.enable_observability(args.trace_out)

    if args.mode in ("discrete", "both"):
        query = to_discrete_plan(planned)
        start = time.perf_counter()
        outputs = []
        for tup in tuples:
            outputs.extend(query.push(stream, tup))
        outputs.extend(query.flush())
        elapsed = time.perf_counter() - start
        print(
            f"\ndiscrete engine: {len(outputs)} result tuples in "
            f"{elapsed * 1e3:.0f} ms ({len(tuples) / elapsed:,.0f} t/s)"
        )
        for row in outputs[: args.show]:
            print(f"  {dict(row)}")

    if args.mode in ("continuous", "both"):
        start = time.perf_counter()
        segments = build_segments(
            tuples,
            attrs=attrs,
            tolerance=args.tolerance,
            key_fields=key_fields,
            constants=key_fields,
        )
        fit_elapsed = time.perf_counter() - start
        query = to_continuous_plan(planned)
        budget_s = (
            args.slow_solve_ms / 1e3
            if args.slow_solve_ms is not None
            else None
        )
        start = time.perf_counter()
        outputs = []
        if budget_s is not None:
            # The watchdog lives in the runtime's per-arrival timing, so
            # --slow-solve-ms routes the run through it.
            from .engine.scheduler import QueryRuntime

            runtime = QueryRuntime(slow_solve_budget_s=budget_s)
            runtime.register("cli", query)
            for segment in segments:
                runtime.enqueue(stream, segment)
            runtime.run_until_idle()
            outputs = runtime.outputs("cli")
            wd = runtime.resilience_stats()["watchdog"]
            print(
                f"watchdog: {wd['slow_solves']} of "
                f"{wd['items_checked']} arrivals over "
                f"{args.slow_solve_ms:g} ms"
            )
        else:
            for segment in segments:
                outputs.extend(query.push(stream, segment))
        run_elapsed = time.perf_counter() - start
        print(
            f"\ncontinuous engine: {len(segments)} segments "
            f"({len(tuples) / max(len(segments), 1):.0f}x compression, "
            f"fit {fit_elapsed * 1e3:.0f} ms), {len(outputs)} result "
            f"segments in {run_elapsed * 1e3:.0f} ms"
        )
        for seg in outputs[: args.show]:
            attrs_repr = {
                name: repr(poly) for name, poly in seg.models.items()
            }
            print(
                f"  [{seg.t_start:.2f}, {seg.t_end:.2f}) "
                f"key={seg.key} {attrs_repr}"
            )

    if observing:
        from .engine import tracing
        from .engine.metrics import MetricsSnapshot

        # Disable first: the trace flush fills deferred histogram
        # observations, so the snapshot must be collected after it.
        tracing.disable_observability()  # flushes + closes the trace
        if args.metrics_out:
            MetricsSnapshot.collect().write(args.metrics_out)
            print(f"\nmetrics written to {args.metrics_out}")
        if args.trace_out:
            print(f"trace written to {args.trace_out}")
    return 0


def _workload_fit(name: str):
    """Fit spec implied by a workload preset (modeled attrs + keys)."""
    from .server import FitSpec

    _label, attrs, key_fields = _WORKLOADS[name]
    return FitSpec(attrs=attrs, key_fields=key_fields)


def cmd_serve(args) -> int:
    from .server import ServerConfig, ServerThread

    queries = []
    for spec in args.query or ():
        name, sep, text = spec.partition("=")
        if not sep or not name or not text:
            raise ValueError(
                f"--query must look like NAME=QUERY_TEXT, got {spec!r}"
            )
        queries.append((name.strip(), text.strip(), None))
    default_fit = _workload_fit(args.workload) if args.workload else None
    config = ServerConfig(
        host=args.host,
        port=args.port,
        backpressure=args.backpressure,
        queue_capacity=args.queue_capacity,
        slow_solve_budget_s=(
            args.slow_solve_ms / 1e3
            if args.slow_solve_ms is not None
            else None
        ),
        default_tolerance=args.tolerance,
        default_fit=default_fit,
        wal_dir=args.wal_dir,
        checkpoint_every=args.checkpoint_every,
        fsync_every=args.fsync_every,
    )
    if args.trace_out:
        from .engine import tracing

        tracing.enable_observability(args.trace_out)
    handle = ServerThread(config, queries).start()
    names = ", ".join(n for n, _t, _f in queries) or "(none)"
    print(
        f"pulse server listening on {args.host}:{handle.port} "
        f"(queries: {names}); Ctrl-C to stop"
    )
    if args.wal_dir:
        recovery = handle.server.bridge.recovery_report or {}
        print(
            f"durability on: wal_dir={args.wal_dir} "
            f"recovered_seq={recovery.get('recovered_seq', 0)} "
            f"replayed={recovery.get('replayed', 0)} "
            f"corrupt_frames={recovery.get('wal', {}).get('corrupt_frames', 0)}"
        )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nstopping...")
    finally:
        handle.stop()
        if args.trace_out:
            from .engine import tracing

            tracing.disable_observability()
            print(f"trace written to {args.trace_out}")
    print("server stopped")
    return 0


def cmd_route(args) -> int:
    """Run a worker fleet plus the router that fronts it."""
    import tempfile

    from .server.router import PulseRouter, RouterConfig
    from .testing.chaos_server import WorkerFleet

    worker_dir = args.worker_wal_dir or tempfile.mkdtemp(
        prefix="pulse-fleet-"
    )
    default_keys = (
        tuple(_WORKLOADS[args.workload][2]) if args.workload else ()
    )
    fleet = WorkerFleet(
        args.workers,
        worker_dir,
        checkpoint_every=args.checkpoint_every,
        retain_results=args.retain_results,
    )
    addrs = fleet.start()
    router = None
    try:
        router = PulseRouter(
            RouterConfig(
                host=args.host,
                port=args.port,
                workers=tuple(addrs),
                default_key_fields=default_keys,
            )
        ).start()
        worker_list = ", ".join(f"{h}:{p}" for h, p in addrs)
        print(
            f"pulse router listening on {args.host}:{router.port} over "
            f"{args.workers} workers ({worker_list})"
        )
        print(f"worker WAL dirs under {worker_dir}; Ctrl-C to stop")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("\nstopping...")
    finally:
        if router is not None:
            router.stop()
        fleet.stop()
    print("fleet stopped")
    return 0


def cmd_ingest(args) -> int:
    from .server import PulseClient

    if args.trace is None and args.workload is None:
        raise ValueError("pass --trace PATH or --workload NAME")
    with PulseClient(args.host, args.port) as client:
        hello = client.connect(backpressure=args.backpressure)
        print(
            f"connected to {hello['server']} protocol {hello['protocol']}; "
            f"queries: {hello['queries']}"
        )
        sub_id = None
        if args.subscribe:
            ack = client.subscribe(
                args.subscribe, mode=args.mode, error_bound=args.error_bound
            )
            sub_id = ack["subscription"]
            print(
                f"subscribed #{sub_id} to {args.subscribe!r} "
                f"({ack['mode']}, bound {ack['error_bound']})"
            )
        if args.trace is not None:
            from .workloads import read_trace

            tuples = read_trace(args.trace)
        else:
            gen = _make_generator(args.workload, args.rate, args.seed)
            tuples = gen.tuples(args.tuples)
        totals = client.ingest_iter(
            args.stream,
            tuples,
            batch_size=args.batch,
            rate=args.limit_rate,
        )
        ack = client.flush()
        elapsed = totals.pop("elapsed_s")
        sent = totals.pop("sent")
        print(
            f"ingested {sent} tuples in {elapsed:.2f} s "
            f"({sent / max(elapsed, 1e-9):,.0f} t/s): {totals}"
        )
        print(f"flush: {ack['flushed_segments']} trailing segments")
        if sub_id is not None:
            results = client.drain_results(sub_id)
            print(f"received {len(results)} results")
            for row in results[: args.show]:
                print(f"  {row}")
        notices = client.drain_notices()
        for notice in notices[: args.show]:
            print(f"  notice: {notice}")
    return 0


def cmd_params(args) -> int:
    from .bench.params import format_params_table

    print(format_params_table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pulse (ICDE 2008) reproduction: continuous-time query processing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_explain = sub.add_parser("explain", help="show a query's logical plan")
    p_explain.add_argument("--query", required=True, help="StreamSQL query text")
    p_explain.set_defaults(func=cmd_explain)

    p_run = sub.add_parser("run", help="run a query over a synthetic workload")
    p_run.add_argument("--query", required=True, help="StreamSQL query text")
    p_run.add_argument(
        "--workload", choices=sorted(_WORKLOADS), default="moving"
    )
    p_run.add_argument(
        "--mode", choices=("discrete", "continuous", "both"), default="both"
    )
    p_run.add_argument("--tuples", type=int, default=2000)
    p_run.add_argument("--rate", type=float, default=1000.0)
    p_run.add_argument("--tolerance", type=float, default=0.05,
                       help="model-fitting tolerance (absolute)")
    p_run.add_argument("--seed", type=int, default=7)
    p_run.add_argument("--show", type=int, default=3,
                       help="results to print per path")
    p_run.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a metrics snapshot after the run (JSON, or "
        "Prometheus text format when PATH ends in .prom)")
    p_run.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write structured trace spans as JSONL (enables the "
        "observability layer for the run)")
    p_run.add_argument(
        "--slow-solve-ms", type=float, default=None, metavar="MS",
        help="flag arrivals that take longer than MS milliseconds via "
        "the resilience watchdog counters")
    p_run.set_defaults(func=cmd_run)

    p_serve = sub.add_parser(
        "serve", help="run the network ingest/subscribe server"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7433,
                         help="TCP port (0 = ephemeral)")
    p_serve.add_argument(
        "--query", action="append", metavar="NAME=TEXT",
        help="pre-register a query (repeatable)")
    p_serve.add_argument(
        "--workload", choices=sorted(_WORKLOADS), default=None,
        help="derive the default fit spec (modeled attrs, key fields) "
        "from this workload preset")
    p_serve.add_argument("--tolerance", type=float, default=0.05,
                         help="default fitting tolerance")
    p_serve.add_argument(
        "--backpressure", choices=("block", "shed-oldest", "shed-newest"),
        default="block")
    p_serve.add_argument("--queue-capacity", type=int, default=None)
    p_serve.add_argument(
        "--shards", type=int, choices=(1,), default=1,
        help="kept for old launch scripts; only 1 is accepted")
    p_serve.add_argument("--slow-solve-ms", type=float, default=None,
                         metavar="MS")
    p_serve.add_argument("--trace-out", default=None, metavar="PATH")
    p_serve.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help="durability directory (WAL + checkpoints); restores on start",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="auto-checkpoint after N ingested tuples (default: manual)",
    )
    p_serve.add_argument(
        "--fsync-every", type=int, default=32, metavar="N",
        help="WAL fsync batching: records per fsync (1 = every record)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_route = sub.add_parser(
        "route",
        help="run a key-routed multi-node fleet: N durable workers "
        "behind one router",
    )
    p_route.add_argument("--host", default="127.0.0.1")
    p_route.add_argument("--port", type=int, default=7433,
                         help="router TCP port (0 = ephemeral)")
    p_route.add_argument("--workers", type=int, default=3,
                         help="worker server processes to spawn")
    p_route.add_argument(
        "--worker-wal-dir", default=None, metavar="DIR",
        help="base directory for per-worker WAL dirs "
        "(default: a fresh temp dir)")
    p_route.add_argument(
        "--checkpoint-every", type=int, default=64, metavar="N",
        help="worker auto-checkpoint interval (ingested tuples)")
    p_route.add_argument(
        "--retain-results", type=int, default=4096, metavar="N",
        help="per-subscription retained outputs on each worker "
        "(sizes the crash-replay window)")
    p_route.add_argument(
        "--workload", choices=sorted(_WORKLOADS), default=None,
        help="default routing key fields from this workload preset "
        "(otherwise learned from registered fit specs)")
    p_route.set_defaults(func=cmd_route)

    p_ingest = sub.add_parser(
        "ingest", help="stream tuples into a running server"
    )
    p_ingest.add_argument("--host", default="127.0.0.1")
    p_ingest.add_argument("--port", type=int, default=7433)
    p_ingest.add_argument("--stream", default="objects",
                          help="target stream name")
    p_ingest.add_argument("--trace", default=None, metavar="PATH",
                          help="replay a CSV trace file")
    p_ingest.add_argument(
        "--workload", choices=sorted(_WORKLOADS), default=None,
        help="generate tuples instead of replaying a trace")
    p_ingest.add_argument("--tuples", type=int, default=2000)
    p_ingest.add_argument("--rate", type=float, default=1000.0,
                          help="workload generator tuple rate")
    p_ingest.add_argument("--seed", type=int, default=7)
    p_ingest.add_argument("--batch", type=int, default=256,
                          help="tuples per ingest request")
    p_ingest.add_argument(
        "--limit-rate", type=float, default=None, metavar="TPS",
        help="cap the send rate (tuples/second)")
    p_ingest.add_argument(
        "--subscribe", default=None, metavar="QUERY",
        help="also subscribe to this query and print its results")
    p_ingest.add_argument(
        "--mode", choices=("continuous", "discrete"), default="continuous")
    p_ingest.add_argument("--error-bound", type=float, default=None)
    p_ingest.add_argument(
        "--backpressure", choices=("block", "shed-oldest", "shed-newest"),
        default=None, help="per-connection ingest back-pressure policy")
    p_ingest.add_argument("--show", type=int, default=3)
    p_ingest.set_defaults(func=cmd_ingest)

    p_params = sub.add_parser(
        "params", help="print the paper's experimental-parameter table (Fig. 6)"
    )
    p_params.set_defaults(func=cmd_params)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surfaced as a clean CLI error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
