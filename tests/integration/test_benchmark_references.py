"""The benchmark's continuous inputs through the in-process reference.

``benchmarks/e2e`` checks every server run against
``reference.py::reference_results``; here the same reference runs over a
prefix of each continuous workload's input (both modules imported
read-only) so that what the benchmark cannot see from outside is
asserted in tier-1: no sum/avg window-function piece is lost to a
sub-EPS hole between cumulative pieces, and two workloads' answers are
pinned as digests.

Two input-side defects of the paper's contract (the continuous answer
covers what the discrete answer covers, within the bound) are pinned
here as strict ``xfail``s, each naming the ROADMAP item that fixes it.
"""

import sys
from pathlib import Path

import pytest

from repro.core.errors import InvalidSegmentError
from repro.engine.metrics import counter_snapshot, reset_counters
from repro.engine.tuples import StreamTuple
from repro.fitting.model_builder import StreamModelBuilder

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"

#: Tuples per workload: past the first full window, well under a second.
PREFIX = {
    "fit_filter_smooth": 6_000,
    "macd_churn": 8_000,
    "following_churn": 3_000,
}


@pytest.fixture(scope="module")
def e2e():
    sys.path.insert(0, str(E2E))
    try:
        import reference
        import workloads

        yield reference, workloads
    finally:
        sys.path.remove(str(E2E))
        for name in ("reference", "workloads"):
            sys.modules.pop(name, None)


#: ``result_digest`` of those reference runs (seed 11, flush included),
#: recorded before the symmetric self-join rewrite, which must change no
#: answer: ``following_churn`` is the rewritten self-join, ``macd_churn``
#: a self-join of another shape that the rewrite leaves alone.
DIGESTS = {
    "following_churn":
        "559c45d292d96f2b414ff7af40f46c5ae2924b77339d515445dc9a78ef5658d1",
    "macd_churn":
        "aa2176960b8613c78f85ed48ebcb33a35c7fe813ef89e96140e1372fc685a6d6",
}


@pytest.fixture(scope="module")
def reference_runs(e2e):
    """name -> (reference rows, windows skipped), each run once."""
    reference, workloads = e2e
    runs = {}

    def run(name):
        if name not in runs:
            workload = workloads.WORKLOADS[name]
            assert workload.mode == "continuous"
            tuples, _ = workload.generate(11, PREFIX[name])
            reset_counters()
            rows, _ = reference.reference_results(workload, tuples, flush=True)
            skipped = counter_snapshot().get("aggregate.windows_skipped", 0)
            runs[name] = (rows, skipped)
        return runs[name]

    return run


@pytest.mark.parametrize("name", sorted(PREFIX))
def test_reference_run_skips_no_window_function(reference_runs, name):
    rows, skipped = reference_runs(name)
    assert rows
    assert skipped == 0


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_reference_answers_are_pinned(e2e, reference_runs, name):
    reference, _ = e2e
    rows, _ = reference_runs(name)
    assert reference.result_digest(rows) == DIGESTS[name]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 'raw-tuple contract property', stream-end axis: "
    "OnlineSegmenter.finish closes a key's last segment at "
    "[first_t, last_t), so its final tuple is in no segment",
)
def test_flush_covers_every_keys_final_tuple(e2e):
    _, workloads = e2e
    workload = workloads.WORKLOADS["fit_filter_smooth"]
    tuples, _ = workload.generate(11, 4_000)
    keys = workload.fit["key_fields"]
    builder = StreamModelBuilder(
        workload.fit["attrs"], workload.error_bound,
        key_fields=keys, constants=keys,
    )
    segments = []
    for tup in tuples:
        segments.extend(builder.add(StreamTuple(tup)))
    segments.extend(builder.finish())
    final = {tuple(tup[k] for k in keys): tup["time"] for tup in tuples}
    uncovered = [
        key
        for key, t in final.items()
        if not any(
            s.key == key and s.t_start <= t < s.t_end for s in segments
        )
    ]
    assert uncovered == []


@pytest.mark.xfail(
    strict=True,
    raises=InvalidSegmentError,
    reason="ROADMAP 'Results must not depend on where t = 0 is': models "
    "in absolute-time powers and absolute tolerances collapse a segment "
    "to an empty range at a wall-clock origin",
)
def test_reference_runs_at_a_wall_clock_origin(e2e):
    reference, workloads = e2e
    workload = workloads.WORKLOADS["macd_churn"]
    tuples, _ = workload.generate(11, 4_000)
    shifted = [dict(tup, time=tup["time"] + 1.7e9) for tup in tuples]
    rows, _ = reference.reference_results(workload, shifted, flush=True)
    assert rows


def _run_profile_tool(*args):
    import subprocess

    tool = E2E.parents[1] / "tools" / "profile_workload.py"
    done = subprocess.run(
        [sys.executable, str(tool), *args, "--sort", "tottime", "--top", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_profile_tool_runs_a_workload():
    """``tools/profile_workload.py`` is where a perf issue starts."""
    last = _run_profile_tool("fit_filter_smooth", "--tuples", "1500")
    assert "result_digest" in last


def test_profile_tool_profiles_the_saturate_slice(e2e):
    """The warm-up and paced input replay unprofiled; only (the first
    300 tuples of) the benchmark's saturate slice is profiled."""
    _, workloads = e2e
    _, start, _ = workloads.WORKLOADS["macd_churn_fleet2"].offsets(12)
    last = _run_profile_tool(
        "macd_churn_fleet2", "--window", "saturate", "--tuples", "300"
    )
    assert "result_digest" in last
    assert f"tuples {start}-{start + 300} profiled of {start + 300}" in last
