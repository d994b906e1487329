"""Per-key circuit breakers: fault isolation for the continuous path.

Pulse's continuous path is an *optimistic* layer over the discrete
engine: when the model is wrong, Section IV's validation falls back to
raw-tuple processing.  This module generalizes that contract from
"bound violated" to "anything went wrong" — a solver failure, a NaN
model, a validation-violation storm — and bounds the blast radius to
one (query, key) pair:

* **CLOSED** — the key runs the continuous path normally.
* **OPEN** — past ``failure_threshold`` consecutive solver failures, or
  a validation-violation rate above ``violation_threshold`` over the
  sliding window, the breaker trips: the key's arrivals are routed to
  the discrete lowered query (the paper's model-invalidation fallback)
  for ``backoff`` arrivals.
* **HALF_OPEN** — after the backoff, one arrival probes the continuous
  path (re-fitting/re-solving the model); ``probe_successes`` clean
  solves close the breaker, any failure re-opens it.

Every transition is exported through the
:mod:`repro.engine.metrics` registry:

* counters ``resilience.breaker.opened`` / ``.closed`` /
  ``.half_open`` / ``.shed`` / ``.probe_failures``;
* gauge ``resilience.breaker.open_keys`` (current OPEN + HALF_OPEN
  population).

The breaker is deliberately clock-free: backoff is counted in arrivals
for the quarantined key, so replays and tests are deterministic.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterator, Mapping

from .metrics import get_counter, get_gauge

#: A breaker address: (query name, stream key).
BreakerKey = tuple[str, Hashable]


class BreakerState(enum.Enum):
    """Lifecycle of one (query, key) pair's continuous-path health."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class BreakerConfig:
    """Thresholds and pacing for the per-key circuit breakers.

    Attributes
    ----------
    failure_threshold:
        Consecutive solver failures that trip the breaker open.
    violation_window:
        Sliding window (in validated tuples) over which the
        validation-violation rate is measured.
    violation_threshold:
        Violation rate over the window that trips the breaker.
    min_window:
        Observations required before the rate is trusted at all —
        prevents a single early violation from reading as rate 1.0.
    backoff:
        Quarantined arrivals (per key) before a half-open probe is
        allowed.  Counted in arrivals, not seconds, so replays are
        deterministic.
    probe_successes:
        Clean continuous solves required in HALF_OPEN to close.
    """

    failure_threshold: int = 3
    violation_window: int = 32
    violation_threshold: float = 0.5
    min_window: int = 8
    backoff: int = 16
    probe_successes: int = 1


@dataclass
class _KeyHealth:
    """Mutable per-(query, key) breaker bookkeeping."""

    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    #: Recent validation outcomes, ``True`` per violation.
    violations: deque = field(default_factory=deque)
    #: Arrivals shed (routed to fallback) while OPEN, since last opened.
    quarantine_ticks: int = 0
    probe_successes: int = 0
    times_opened: int = 0


class CircuitBreaker:
    """Tracks continuous-path health per (query, key) and gates routing.

    The runtime asks :meth:`allow` before each continuous push and
    reports outcomes via :meth:`record_success` / :meth:`record_failure`
    / :meth:`record_violation` / :meth:`record_valid`.  State only
    accrues for keys that have misbehaved at least once, so the
    population stays proportional to the fault surface, not the key
    space.
    """

    def __init__(self, config: BreakerConfig | None = None):
        self.config = config or BreakerConfig()
        self._health: dict[BreakerKey, _KeyHealth] = {}

    # ------------------------------------------------------------------
    # routing decision
    # ------------------------------------------------------------------
    def allow(self, query: str, key: Hashable) -> bool:
        """Whether this arrival may take the continuous path.

        OPEN keys consume one quarantine tick per refusal; once
        ``backoff`` ticks have passed, the breaker moves to HALF_OPEN
        and the arrival becomes the probe.
        """
        health = self._health.get((query, key))
        if health is None or health.state is BreakerState.CLOSED:
            return True
        if health.state is BreakerState.HALF_OPEN:
            return True
        health.quarantine_ticks += 1
        if health.quarantine_ticks >= self.config.backoff:
            health.state = BreakerState.HALF_OPEN
            health.probe_successes = 0
            get_counter("resilience.breaker.half_open").bump()
            return True
        get_counter("resilience.breaker.shed").bump()
        return False

    def state(self, query: str, key: Hashable) -> BreakerState:
        health = self._health.get((query, key))
        return health.state if health is not None else BreakerState.CLOSED

    # ------------------------------------------------------------------
    # outcome reporting
    # ------------------------------------------------------------------
    def record_failure(self, query: str, key: Hashable) -> BreakerState:
        """A solver/processing failure on the continuous path."""
        health = self._health.setdefault((query, key), _KeyHealth())
        health.consecutive_failures += 1
        if health.state is BreakerState.HALF_OPEN:
            # The probe failed: straight back to quarantine.
            get_counter("resilience.breaker.probe_failures").bump()
            self._open(health)
        elif (
            health.state is BreakerState.CLOSED
            and health.consecutive_failures >= self.config.failure_threshold
        ):
            self._open(health)
        return health.state

    def record_success(self, query: str, key: Hashable) -> BreakerState:
        """A clean continuous-path solve for this key."""
        health = self._health.get((query, key))
        if health is None:
            # Never-misbehaving keys carry no state at all.
            return BreakerState.CLOSED
        health.consecutive_failures = 0
        if health.state is BreakerState.HALF_OPEN:
            health.probe_successes += 1
            if health.probe_successes >= self.config.probe_successes:
                self._close(health)
        return health.state

    def record_violation(self, query: str, key: Hashable) -> BreakerState:
        """A validation violation (model wrong but solver healthy)."""
        health = self._health.setdefault((query, key), _KeyHealth())
        self._push_outcome(health, True)
        if (
            health.state is BreakerState.CLOSED
            and len(health.violations) >= self.config.min_window
            and (
                sum(health.violations) / len(health.violations)
                > self.config.violation_threshold
            )
        ):
            self._open(health)
        return health.state

    def record_valid(self, query: str, key: Hashable) -> BreakerState:
        """A tuple validated clean against its model."""
        health = self._health.get((query, key))
        if health is None:
            return BreakerState.CLOSED
        self._push_outcome(health, False)
        return health.state

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def _open(self, health: _KeyHealth) -> None:
        health.state = BreakerState.OPEN
        health.quarantine_ticks = 0
        health.probe_successes = 0
        health.times_opened += 1
        health.violations.clear()
        get_counter("resilience.breaker.opened").bump()
        self._sync_gauge()

    def _close(self, health: _KeyHealth) -> None:
        health.state = BreakerState.CLOSED
        health.consecutive_failures = 0
        health.quarantine_ticks = 0
        health.violations.clear()
        get_counter("resilience.breaker.closed").bump()
        self._sync_gauge()

    def _push_outcome(self, health: _KeyHealth, violation: bool) -> None:
        health.violations.append(violation)
        while len(health.violations) > self.config.violation_window:
            health.violations.popleft()

    def _sync_gauge(self) -> None:
        get_gauge("resilience.breaker.open_keys").set(
            sum(
                1
                for h in self._health.values()
                if h.state is not BreakerState.CLOSED
            )
        )

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Plain-data serialization of config + every key's health.

        Everything the breaker's routing decisions depend on is
        captured — state, consecutive failures, the violation window
        contents, quarantine tick count (arrival-counted backoff
        progress), probe successes mid-HALF_OPEN, and times_opened —
        so a restored breaker makes the *same* next decision the
        original would have (pinned by the round-trip tests).
        """
        return {
            "config": dataclasses.asdict(self.config),
            "health": [
                {
                    "query": query,
                    "key": key,
                    "state": health.state.value,
                    "consecutive_failures": health.consecutive_failures,
                    "violations": list(health.violations),
                    "quarantine_ticks": health.quarantine_ticks,
                    "probe_successes": health.probe_successes,
                    "times_opened": health.times_opened,
                }
                for (query, key), health in self._health.items()
            ],
        }

    def load_state(self, state: Mapping) -> None:
        """Restore from :meth:`state_dict` (replaces current health)."""
        self.config = BreakerConfig(**dict(state["config"]))
        self._health = {}
        for entry in state["health"]:
            health = _KeyHealth(
                state=BreakerState(entry["state"]),
                consecutive_failures=entry["consecutive_failures"],
                violations=deque(entry["violations"]),
                quarantine_ticks=entry["quarantine_ticks"],
                probe_successes=entry["probe_successes"],
                times_opened=entry["times_opened"],
            )
            self._health[(entry["query"], entry["key"])] = health
        self._sync_gauge()

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def open_keys(self) -> list[BreakerKey]:
        """Every (query, key) currently OPEN or HALF_OPEN."""
        return [
            bk
            for bk, h in self._health.items()
            if h.state is not BreakerState.CLOSED
        ]

    def tracked_keys(self) -> Iterator[BreakerKey]:
        return iter(self._health)

    def recovered_fraction(self) -> float:
        """Fraction of ever-tripped keys now back on the continuous path.

        The acceptance metric for degrade-and-recover runs: 1.0 when
        every key that ever opened has closed again (or none ever
        opened).
        """
        tripped = [h for h in self._health.values() if h.times_opened]
        if not tripped:
            return 1.0
        recovered = sum(
            1 for h in tripped if h.state is BreakerState.CLOSED
        )
        return recovered / len(tripped)

    def snapshot(self) -> dict[str, int]:
        """Population counts per state, for dashboards and tests."""
        counts = {state.value: 0 for state in BreakerState}
        for health in self._health.values():
            counts[health.state.value] += 1
        counts["tracked"] = len(self._health)
        return counts


class SlowSolveWatchdog:
    """Flags arrivals whose end-to-end processing blew a latency budget.

    The observability counterpart of the circuit breaker: where the
    breaker reacts to *failures*, the watchdog surfaces *slowness* — a
    row that solved correctly but took longer than the configured budget
    (e.g. a degree blow-up that stayed inside the guardrails).  The
    scheduler times each arrival and calls :meth:`check`; exceedances
    are exported through the resilience counters:

    * ``resilience.watchdog.items_checked`` — arrivals timed;
    * ``resilience.watchdog.slow_solves`` — budget exceedances;
    * ``resilience.watchdog.worst_seconds`` (gauge) — slowest arrival
      seen since the last counter reset.

    The watchdog never interferes with processing — it observes and
    counts.  Routing slow keys away is the breaker's job; keeping the
    two separate means a latency regression cannot change outputs.
    """

    def __init__(self, budget_s: float):
        if budget_s <= 0:
            raise ValueError("watchdog budget must be positive")
        self.budget_s = budget_s
        self.last_flagged: tuple[str, Hashable, float] | None = None
        self._checked = get_counter("resilience.watchdog.items_checked")
        self._flagged = get_counter("resilience.watchdog.slow_solves")
        self._worst = get_gauge("resilience.watchdog.worst_seconds")

    def check(self, query: str, key: Hashable, seconds: float) -> bool:
        """Record one timed arrival; ``True`` when it blew the budget."""
        self._checked.bump()
        if seconds > self._worst.value:
            self._worst.set(seconds)
        if seconds <= self.budget_s:
            return False
        self._flagged.bump()
        self.last_flagged = (query, key, seconds)
        return True

    @property
    def slow_solves(self) -> int:
        return self._flagged.value

    @property
    def items_checked(self) -> int:
        return self._checked.value
