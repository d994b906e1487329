"""In-process reference results, built with the same commit's public API.

``parse_query``/``plan_query`` -> ``to_discrete_plan``, or
``StreamModelBuilder`` + ``to_continuous_plan`` -> ``serialize_results``:
the path a single engine takes without sockets, threads or queues.  The
server's result list must start with exactly these rows.
"""

from __future__ import annotations

import hashlib
import json
import math


def reference_results(workload, tuples: list[dict], flush: bool):
    """``(rows, tail_from)``: the results for ``tuples`` in arrival
    order; with ``flush``, open fitted models are closed at the end as
    the wire ``flush`` op does, and ``rows[tail_from:]`` is what that
    produced."""
    from repro.core.transform import to_continuous_plan
    from repro.engine.lowering import to_discrete_plan
    from repro.engine.tuples import StreamTuple
    from repro.fitting.model_builder import StreamModelBuilder
    from repro.query import parse_query, plan_query
    from repro.server.protocol import serialize_results

    planned = plan_query(parse_query(workload.query))
    stream = workload.stream
    outputs: list = []
    if workload.mode == "discrete":
        query = to_discrete_plan(planned)
        for tup in tuples:
            outputs.extend(query.push(stream, StreamTuple(tup)))
        tail_from = len(outputs)
    else:
        query = to_continuous_plan(planned)
        keys = workload.fit["key_fields"]
        builder = StreamModelBuilder(
            workload.fit["attrs"], workload.error_bound,
            key_fields=keys, constants=keys,
        )
        for tup in tuples:
            for segment in builder.add(StreamTuple(tup)):
                outputs.extend(query.push(stream, segment))
        tail_from = len(outputs)
        if flush:
            for segment in builder.finish():
                outputs.extend(query.push(stream, segment))
    return serialize_results(outputs), tail_from


def result_digest(results: list[dict]) -> str:
    """SHA-256 of the canonical serialized result list."""
    h = hashlib.sha256()
    for row in results:
        h.update(_canonical(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def _canonical(row: dict) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def wrong_rows(results: list[dict], expected: list[dict],
               tail_from: int | None = None) -> int:
    """Rows of ``expected`` that the head of ``results`` does not match,
    position by position (a missing row counts as wrong).

    From ``tail_from`` on -- the rows a flush produced -- only the
    multiset has to match: the router drains a join's flush tail
    worker by worker, not in the single engine's key order.
    """
    head = results[: len(expected)]
    if head == expected:
        return 0
    ordered = len(expected) if tail_from is None else tail_from
    wrong = len(expected) - len(head)
    wrong += sum(
        1 for got, want in zip(head[:ordered], expected[:ordered])
        if got != want
    )
    got_tail = sorted(map(_canonical, head[ordered:]))
    want_tail = sorted(map(_canonical, expected[ordered:len(head)]))
    return wrong + sum(1 for g, w in zip(got_tail, want_tail) if g != w)


def check(workload, tuples, results, tally) -> dict:
    """Output check: the head of the server's result list against the
    in-process reference over a prefix of the input (all of it, flush
    included, when ``reference_share`` is 1)."""
    whole = workload.reference_share >= 1.0
    prefix = len(tuples) if whole else math.ceil(
        workload.reference_share * len(tuples))
    expected, tail_from = reference_results(
        workload, tuples[:prefix], flush=whole)
    tally.rows += len(expected)
    tally.wrong_rows += wrong_rows(results, expected, tail_from)
    if whole and len(results) > len(expected):
        tally.wrong_rows += len(results) - len(expected)
    return {
        "reference_tuples": prefix,
        "reference_rows": len(expected),
        "results": len(results),
        "result_digest": result_digest(results),
    }
