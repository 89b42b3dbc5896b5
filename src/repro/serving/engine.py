"""The open-loop request lifecycle engine.

A single-served KV service (Redis is single-threaded) lives on one
machine of the heterogeneous pair and serves an
:class:`~repro.serving.traffic.ArrivalTrace` *open-loop*: arrivals
never wait for completions, so overload shows up as queueing delay —
the regime the paper's closed batch experiments (Figs. 12–13) never
enter.  Per-request service time comes from the same cost accounting
the instruction-level interpreter charges (the workload's analytic
instruction budget through the machine's per-class CPIs, via
``datacenter.job.job_duration``), so the serving numbers agree with
the batch layer's.

Live migration reuses the two-phase hand-off shape of the kernel layer
(``kernel/migration.py``): the service drains its in-flight request to
a migration point, then PREPARE (stack transform) → TRANSFER (context
+ hot working set) → PUBLISH (replicated proc-table) → COMMIT
(rebind) — the service is blacked out from drain to commit, and every
request whose wait overlaps that window has the overlap attributed to
migration in its latency breakdown (and, when tracing is on, as a
``serve.stall.migration`` child span on its critical path).  After
COMMIT the next ``warmup_requests`` requests pay the residual
on-demand DSM pull, spread evenly.

Energy follows the consolidation story of the paper's unbalanced
policies: the machine *not* hosting the service is parked (draws no
power — the fleet reclaims or sleeps it), both machines are awake for
the duration of a hand-off, and the hosting machine draws idle or
one-core-busy power from its measured model (ARM optionally through
the McPAT FinFET projection, as in the cluster simulator).

**Failures.**  The engine optionally consumes a
:class:`~repro.faults.inject.FaultSchedule` (node crashes/repairs,
link degradation, partitions) and the PR-4 heartbeat/lease
:class:`~repro.faults.detector.FailureDetector`.  A crash kills the
node's in-flight work at the crash instant (ground truth); *recovery*
waits for the detector's CONFIRM verdict (or happens immediately when
no detector is attached — the omniscient baseline, MTTD 0).  A
confirmed-dead serving node triggers **failover**: the service is
restored on a surviving node of the other ISA (a replicated-proc-table
publish + rebind, with a cold DSM warm-up unless the two-phase
TRANSFER had already landed the hot set there), and crash-killed
requests are replayed there under the resilience layer's retry policy
— or failed *loudly*, never silently dropped.  The
:mod:`repro.serving.resilience` layer adds deadlines, retry budgets
with decorrelated-jitter backoff, hedged requests, per-node circuit
breakers, and admission control; all of it is inert by default, so a
fault-free run with no resilience config is bit-identical to the
pre-resilience engine.  Under ``REPRO_VALIDATE=1`` every run is
audited for request conservation: *offered == completed + shed +
failed-loudly*, each request in exactly one bucket.
"""

from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro import validate
from repro.datacenter.cluster import DEFAULT_INTERCONNECT_BW
from repro.datacenter.energy import RunResult
from repro.datacenter.job import (
    HANDOFF_MESSAGE_S,
    TRANSFORM_S_PER_THREAD,
    JobSpec,
    job_duration,
)
from repro.faults.detector import CONFIRM, FailureDetector
from repro.faults.inject import FaultSchedule
from repro.machine.machine import Machine, make_xeon_e5_1650v2, make_xgene1
from repro.machine.mcpat import project_finfet
from repro.serving.policies import ServingPolicy
from repro.serving.resilience import (
    AdmissionController,
    CircuitBreaker,
    ResilienceConfig,
    RetryBudget,
    next_backoff,
)
from repro.serving.slo import DEFAULT_SLO_S, slo_report
from repro.serving.traffic import ArrivalTrace
from repro.sim.events import Event, EventQueue
from repro.sim.rng import DeterministicRng
from repro.validate.errors import InvariantViolation

#: Seconds between policy decision epochs.
DECISION_PERIOD_S = 0.05
#: Trailing window for the arrival-rate estimate policies see.
RATE_WINDOW_S = 0.5

# Event priorities: same-time events fire in this order.  Arrivals are
# served from a cursor over the trace, not the queue, but keep their
# slot in the order.
(
    _HANDOFF, _DEPARTURE, _HEDGE_DONE, _FAULT, _ARRIVAL,
    _RETRY, _DEADLINE, _HEDGE_LAUNCH, _HEARTBEAT, _EPOCH,
) = range(10)


@dataclass
class Request:
    """One KV request's lifecycle timestamps and latency breakdown."""

    index: int
    arrival_s: float
    start_s: Optional[float] = None
    finish_s: Optional[float] = None
    machine: Optional[str] = None
    #: Wait attributed to an overlapping migration blackout.
    migration_stall_s: float = 0.0
    #: Extra service paid to the post-migration DSM warm-up.
    warmup_extra_s: float = 0.0
    #: Admission priority class (``resilience.PriorityClass`` name).
    priority: str = "std"
    #: Service starts so far (a crash-killed start is replayed).
    attempts: int = 0
    #: Last decorrelated-jitter backoff drawn for this request.
    last_backoff_s: float = 0.0
    #: Served on the non-home machine by the tail-latency hedge.
    hedged: bool = False
    #: Why the request failed loudly (``None`` while alive/completed).
    failed_reason: Optional[str] = None

    @property
    def latency_s(self) -> float:
        """End-to-end latency (completion minus arrival)."""
        if self.finish_s is None:
            raise ValueError(f"request {self.index} not finished")
        return self.finish_s - self.arrival_s

    @property
    def queue_wait_s(self) -> float:
        """Time spent queued before service began."""
        if self.start_s is None:
            raise ValueError(f"request {self.index} never started")
        return self.start_s - self.arrival_s


@dataclass(frozen=True)
class HandoffCosts:
    """Cost model of one live service hand-off: the kernel's two-phase
    protocol, priced with the per-thread transform and message costs
    ``datacenter.job.migration_penalty`` charges.

    After COMMIT the destination holds only the ``hot_fraction`` pushed
    in TRANSFER; the first ``warmup_requests`` requests served there
    pull the cold rest on demand, each paying an equal share.  After a
    cold failover (the source died with the hot set) the same count of
    requests amortises the full footprint instead.
    """

    transform_s: float = TRANSFORM_S_PER_THREAD  # single-threaded service
    transfer_base_s: float = HANDOFF_MESSAGE_S  # the resume-token message
    publish_s: float = HANDOFF_MESSAGE_S  # replicated proc-table write
    commit_s: float = 0.0001  # destination rebind
    hot_fraction: float = 0.1  # working set pushed eagerly in TRANSFER
    warmup_requests: int = 64  # requests sharing the residual DSM pull

    def transfer_s(self, footprint_bytes: int, bandwidth: float) -> float:
        """TRANSFER duration: token plus the eager hot-set push."""
        return self.transfer_base_s + self.hot_fraction * footprint_bytes / bandwidth

    def blackout_s(self, footprint_bytes: int, bandwidth: float) -> float:
        """Drain-to-commit service outage (excluding the drain itself)."""
        return (
            self.transform_s
            + self.transfer_s(footprint_bytes, bandwidth)
            + self.publish_s
            + self.commit_s
        )

    def warmup_extra_s(self, footprint_bytes: int, bandwidth: float) -> float:
        """Per-request surcharge amortising the residual on-demand pull."""
        cold = (1.0 - self.hot_fraction) * footprint_bytes / bandwidth
        return cold / self.warmup_requests


@dataclass(frozen=True)
class ServingView:
    """What a policy sees at a decision epoch (all deterministic)."""

    now: float
    machine: str  # where the service currently lives
    machines: Dict[str, str]  # machine name -> ISA name
    service_s: Dict[str, float]  # per-request service time by machine
    queue_depth: int
    in_service: bool
    migrating: bool
    rate: float  # arrivals/s over the trailing window
    prev_rate: float  # the window before that (trend detection)
    slo_s: float
    blackout_s: float  # engine's hand-off outage estimate
    since_commit_s: float  # seconds since the last hand-off committed
    # ---- resilience-aware placement (defaults keep old views valid) ----
    #: machine -> is it up and unfenced?  ``None`` = no fault wiring.
    nodes_up: Optional[Dict[str, bool]] = None
    #: machine -> is its circuit breaker open?  ``None`` = no breakers.
    breaker_open: Optional[Dict[str, bool]] = None
    #: Requests shed by admission control since the previous epoch.
    shed_recent: int = 0


@dataclass
class _Handoff:
    """One in-flight service hand-off's timeline."""

    src: str
    dst: str
    decided_at: float
    reason: str
    phase: str = "drain"  # drain -> blackout phases -> (committed)
    blackout_start: Optional[float] = None
    phase_ends: List[Tuple[str, float]] = field(default_factory=list)
    #: Chaos-announced phase boundaries still to step through.
    pending: List[Tuple[str, float]] = field(default_factory=list)
    #: Node whose ground-truth crash froze this hand-off (verdict due).
    frozen_by: Optional[str] = None


class ServingEngine:
    """Runs one arrival trace against one policy on the machine pair."""

    def __init__(
        self,
        policy: ServingPolicy,
        trace: ArrivalTrace,
        workload: str = "redis",
        cls: str = "A",
        slo_s: float = DEFAULT_SLO_S,
        tracer=None,
        faults: Optional[FaultSchedule] = None,
        detector: Optional[FailureDetector] = None,
        resilience: Optional[ResilienceConfig] = None,
        rng: Optional[DeterministicRng] = None,
    ):
        if tracer is None:
            from repro.telemetry.spans import maybe_tracer

            tracer = maybe_tracer()
        self.tracer = tracer
        if tracer is not None:
            tracer.bind_clock(self)
        self.policy = policy
        self.trace = trace
        self.spec = JobSpec(workload, cls, 1)
        self.slo_s = slo_s
        self.costs = HandoffCosts()
        self.interconnect_bw = DEFAULT_INTERCONNECT_BW
        machines = [make_xgene1("arm-server"), make_xeon_e5_1650v2("x86-server")]
        self.machines: Dict[str, Machine] = {m.name: m for m in machines}
        self._isa_by_machine = {m.name: m.isa.name for m in machines}
        # ARM through the McPAT FinFET projection, as in the cluster.
        self._powers = {
            m.name: (
                project_finfet(m.power) if m.isa.name == "arm64" else m.power
            )
            for m in machines
        }
        self.service_s = {
            m.name: job_duration(self.spec, m)
            / self.spec.profile().params(cls).elements
            for m in machines
        }
        footprint = self.spec.profile().params(cls).footprint_bytes
        self._footprint = footprint
        bw = self.interconnect_bw
        self.blackout_estimate_s = self.costs.blackout_s(footprint, bw)
        #: Per-request warm-up after a normal hand-off (cold fraction).
        self._warmup_normal = self.costs.warmup_extra_s(footprint, bw)
        #: Per-request warm-up after a cold failover (full footprint —
        #: the source died before TRANSFER could push the hot set).
        self._warmup_cold = footprint / bw / self.costs.warmup_requests
        self._warmup_extra = self._warmup_normal

        self.location = policy.start_machine(self._isa_by_machine)
        if self.location not in self.machines:
            raise KeyError(f"unknown start machine {self.location!r}")

        # ---- faults / detection / resilience ----
        self.faults = faults
        self.detector = detector
        self.resilience = resilience
        self.rng = rng if rng is not None else DeterministicRng(0)
        #: Chaos hook (``at_step(step, roles)``); settable post-ctor.
        self.chaos = None
        self._up = {name: True for name in self.machines}
        self._fenced = set()
        self._crashed_at: Dict[str, float] = {}
        self._mttd_samples: List[float] = []
        breaker_kw = {}
        if resilience is not None:
            breaker_kw = dict(
                failure_threshold=resilience.breaker_failure_threshold,
                reset_s=resilience.breaker_reset_s,
            )
        self._breakers = {
            name: CircuitBreaker(**breaker_kw) for name in self.machines
        }
        self._admission = (
            AdmissionController(resilience) if resilience is not None else None
        )
        self._retry_budget = (
            RetryBudget(resilience.retry_budget_fraction, resilience.min_retry_tokens)
            if resilience is not None
            else None
        )
        self._retry_stream = self.rng.stream("serve.retry")
        self._priority_stream = self.rng.stream("serve.priority")
        #: node -> crash-killed requests awaiting the detector verdict.
        self._orphans: Dict[str, List[Request]] = {}
        #: (ready_at, request) replays waiting out their backoff.
        self._retries: List[Tuple[float, Request]] = []
        self._degradations: List = []  # active LinkDegradation events
        self._partitions: List = []  # active NetworkPartition events
        self._fault_events = self._expand_faults(faults)
        self._fault_idx = 0
        if detector is not None:
            detector.reset(sorted(self.machines), 0.0)
        self._failover_warm = False
        self._outage_since: Optional[float] = None
        self._dead_end = False
        self._shed_recent = 0
        self._retried_indices = set()
        self._retry_attempts = 0
        self._hedged_count = 0

        # ---- mutable run state ----
        self.now = 0.0
        self._events = EventQueue()
        #: priority -> the one pending event of that kind.
        self._timers: Dict[int, Event] = {}
        #: Handler of each event kind, indexed by priority.
        self._actions = (
            self._on_handoff_timer, self._on_departure,
            self._on_hedge_departure, self._apply_due_faults, None,
            self._release_retries, self._expire_deadlines,
            self._launch_hedge, self._heartbeat_round, self._run_epoch,
        )
        self.queue: Deque[Request] = deque()  # FIFO; index 0 is next
        self.current: Optional[Request] = None
        self._handoff: Optional[_Handoff] = None
        self._hedge: Optional[Request] = None
        self._hedge_machine: Optional[str] = None
        self._warmup_left = 0
        self._last_commit = -1e9
        self.completed: List[Request] = []
        self.shed: List[Request] = []
        self.failed: List[Request] = []
        self.migrations = 0
        self.failovers = 0
        self.handoffs_aborted = 0
        self.deferrals = 0
        self.busy_seconds = 0.0
        self.blackout_seconds = 0.0
        self.handoff_seconds = 0.0
        self.energy_joules = {m.name: 0.0 for m in machines}
        #: (start, end, handoff_span_id) of every completed blackout.
        self._blackouts: List[Tuple[float, float, Optional[int]]] = []
        #: Their end times, ascending: a request's stall scan starts at
        #: the first blackout that ended after it arrived.
        self._blackout_ends: List[float] = []

    # ------------------------------------------------------------ helpers

    def _expand_faults(self, faults) -> List[Tuple[float, int, object, Callable]]:
        """Flatten a FaultSchedule into sorted ``(time, rank, payload,
        apply)``; same-time faults apply crash, repair (rank 1), window
        opens, window closes."""
        if faults is None:
            return []
        events = []
        for ev in faults:
            kind = getattr(ev, "kind", None)
            if kind in ("crash", "repair") and ev.node not in self.machines:
                verb = "crashes" if kind == "crash" else "repairs"
                raise ValueError(
                    f"fault schedule {verb} unknown machine {ev.node!r}"
                )
            if kind == "crash":
                events.append((ev.time, 0, ev.node, self._on_node_crash))
                if not ev.permanent:
                    events.append((ev.time + ev.repair_seconds, 1, ev.node,
                                   self._on_node_repair))
            elif kind == "repair":
                events.append((ev.time, 1, ev.node, self._on_node_repair))
            elif kind in ("degrade", "partition"):
                active = (
                    self._degradations if kind == "degrade" else self._partitions
                )
                events.append((ev.time, 2, ev, active.append))
                events.append((ev.time + ev.duration, 3, ev, active.remove))
            else:
                raise ValueError(f"serving cannot apply fault event {ev!r}")
        events.sort(key=lambda e: (e[0], e[1], str(e[2])))
        if events and events[0][0] < 0:
            raise ValueError(f"fault schedule acts before t=0: {events[0]!r}")
        return events

    def _avail(self, name: str) -> bool:
        """Is the node up and unfenced (usable for serving)?"""
        return self._up[name] and name not in self._fenced

    def _other_machine(self) -> Optional[str]:
        """The best available machine that is not the current home."""
        pool = [
            m for m in self.machines if m != self.location and self._avail(m)
        ]
        if not pool:
            return None
        return min(pool, key=lambda m: (self.service_s[m], m))

    def _current_bw(self) -> float:
        """Interconnect bandwidth under active degradation windows."""
        bw = self.interconnect_bw
        for ev in self._degradations:
            bw *= ev.bandwidth_factor
        return bw

    def _site(self, step: str, roles: Optional[Dict[str, str]] = None) -> None:
        """Announce a crashable serving protocol step to the chaos hook."""
        if self.chaos is None:
            return
        if roles is None:
            standby = next(m for m in sorted(self.machines) if m != self.location)
            roles = {"serving": self.location, "standby": standby}
        self.chaos.at_step(step, roles)

    def inject_crash(self, node: str) -> None:
        """Ground-truth crash of ``node`` right now (chaos-harness hook)."""
        if node not in self.machines:
            raise KeyError(f"unknown machine {node!r}")
        self._on_node_crash(node)

    def _set_timer(self, priority: int, at: Optional[float]) -> None:
        """Aim the one pending event of ``priority`` at ``at``.

        ``None`` disarms it.  A stale timer is cancelled rather than
        left to fire: every event splits the energy integral.
        """
        timers = self._timers
        old = timers.get(priority)
        if old is not None:
            if old.time == at:
                return
            old.cancel()
            del timers[priority]
        if at is not None:
            timers[priority] = self._events.push(
                at, self._actions[priority], priority=priority
            )

    def _work_left(self) -> bool:
        """Is anything still queued, in flight, or awaiting a replay?"""
        return bool(
            self.queue
            or self.current is not None
            or self._hedge is not None
            or self._handoff is not None
            or self._retries
            or self._orphans
        )

    def _rate_between(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        return self.trace.arrivals_between(max(t0, 0.0), t1) / (t1 - t0)

    def _accrue(self, dt: float) -> None:
        """Integrate both machines' power over ``dt`` seconds."""
        if dt <= 0:
            return
        for name, power in self._powers.items():
            if not self._up[name] or name in self._fenced:
                watts = 0.0  # dead, or ostracised: the fleet powered it off
            elif name == self.location:
                busy = (
                    1.0
                    if self.current is not None
                    or (self._hedge is not None and self._hedge_machine == name)
                    else 0.0
                )
                watts = power.cpu_power(busy)
            elif self._handoff is not None:
                # Both boxes are awake for the duration of a hand-off.
                watts = power.cpu_power(
                    1.0 if self._handoff.phase != "drain" else 0.0
                )
            elif self._hedge is not None and name == self._hedge_machine:
                watts = power.cpu_power(1.0)  # racing the hedged request
            else:
                watts = 0.0  # parked: the fleet reclaimed the idle box
            self.energy_joules[name] += watts * dt

    # ----------------------------------------------------------- service

    def _start_next(self) -> None:
        """Begin serving the head-of-queue request (if any, and allowed)."""
        if self.current is not None or self._handoff is not None:
            return
        if not self.queue:
            return
        if not self._up[self.location] or self.location in self._fenced:
            return  # home is down; failover/repair will resume service
        if self._hedge is not None and self._hedge_machine == self.location:
            return  # the hedge occupies this box; wait for it to finish
        if self.chaos is not None:
            self._site("serve.serve")
            if not self._avail(self.location):
                return  # the chaos crash fired at the serve site
        request = self.queue.popleft()
        request.start_s = self.now
        request.machine = self.location
        request.attempts += 1
        service = self.service_s[self.location]
        if self._warmup_left > 0:
            request.warmup_extra_s = self._warmup_extra
            service += self._warmup_extra
            self._warmup_left -= 1
            if self._warmup_left == 0:
                self._end_warmup()
        self._attribute_stall(request)
        self.current = request
        self._set_timer(_DEPARTURE, self.now + service)

    def _attribute_stall(self, request: Request) -> None:
        """Attribute wait overlapping past blackouts to migration stall."""
        first = bisect_right(self._blackout_ends, request.arrival_s)
        for b0, b1, _ in self._blackouts[first:]:
            overlap = min(b1, request.start_s) - max(b0, request.arrival_s)
            if overlap > 1e-12:
                request.migration_stall_s += overlap

    def _on_departure(self) -> None:
        if self.chaos is not None:
            self._site("serve.complete")
            if self.current is None or not self._avail(self.location):
                return  # the crash beat the completion: replay, not done
        request, self.current = self.current, None
        self._finish(request, self.location)
        handoff = self._handoff
        if handoff is not None and handoff.phase == "drain":
            if handoff.frozen_by is None:
                self._begin_blackout(handoff)
        else:
            self._start_next()

    def _on_hedge_departure(self) -> None:
        request, self._hedge = self._hedge, None
        machine, self._hedge_machine = self._hedge_machine, None
        self._finish(request, machine)
        self._start_next()

    def _finish(self, request: Request, machine: str) -> None:
        """``request`` completed on ``machine`` just now."""
        request.finish_s = self.now
        self.busy_seconds += self.now - request.start_s
        self.completed.append(request)
        breaker = self._breakers[machine]
        if breaker.state != "closed":
            breaker.record_success(self.now)
        if self.tracer is not None:
            self._emit_request_span(request)

    def _emit_request_span(self, request: Request) -> None:
        tracer = self.tracer
        attrs = {
            "req": request.index,
            "queue_s": round(request.queue_wait_s, 9),
            "service_s": round(request.finish_s - request.start_s, 9),
        }
        if request.warmup_extra_s:
            attrs["warmup_s"] = round(request.warmup_extra_s, 9)
        if request.hedged:
            attrs["hedged"] = True
        if request.attempts > 1:
            attrs["attempts"] = request.attempts
        span = tracer.complete(
            "serve.request", "serve", request.arrival_s,
            request.latency_s, track=request.machine, **attrs,
        )
        if request.migration_stall_s > 0.0:
            # The stall is the part of the wait spent inside blackouts:
            # one child per overlapping blackout, flow-linked to the
            # hand-off that caused it — the request's critical path
            # shows exactly which migration cost it how much.
            for b0, b1, cause in self._blackouts:
                lo = max(b0, request.arrival_s)
                hi = min(b1, request.start_s)
                if hi - lo > 1e-12:
                    stall_attrs = {"req": request.index}
                    if cause is not None:
                        stall_attrs["flow"] = cause
                    tracer.complete(
                        "serve.stall.migration", "serve", lo, hi - lo,
                        track=request.machine, parent=span, **stall_attrs,
                    )
            tracer.metrics.histogram("serve.stall_s").observe(
                request.migration_stall_s
            )
        tracer.metrics.counter("serve.completed").inc()
        tracer.metrics.histogram("serve.latency_s").observe(request.latency_s)
        tracer.metrics.histogram("serve.queue_wait_s").observe(
            request.queue_wait_s
        )

    # ------------------------------------------------------- resilience

    def _fail_request(self, request: Request, reason: str) -> None:
        """The request fails *loudly*: counted, spanned, never dropped."""
        request.failed_reason = reason
        self.failed.append(request)
        if self.tracer is not None:
            self.tracer.instant(
                "serve.failed", "serve", track=self.location,
                req=request.index, reason=reason,
            )
            self.tracer.metrics.counter("serve.failed").inc()

    def _retry_or_fail(self, request: Request, reason: str) -> None:
        """Replay a crash-killed request under the retry policy, or fail."""
        res = self.resilience
        if (
            res is not None
            and request.attempts < res.max_attempts
            and self._retry_budget.allow()
        ):
            self._retry_budget.spend()
            self._retry_attempts += 1
            self._retried_indices.add(request.index)
            backoff = next_backoff(
                res.retry_backoff, request.attempts,
                request.last_backoff_s, self._retry_stream.random(),
            )
            request.last_backoff_s = backoff
            self._retries.append((self.now + backoff, request))
            self._arm_retry_timer()
            if self.tracer is not None:
                self.tracer.instant(
                    "serve.retry", "serve", track=self.location,
                    req=request.index, attempt=request.attempts,
                    backoff_s=round(backoff, 9),
                )
                self.tracer.metrics.counter("serve.retries").inc()
        elif res is not None and request.attempts >= res.max_attempts:
            self._fail_request(request, "retries-exhausted")
        elif res is not None:
            self._fail_request(request, "retry-budget-exhausted")
        else:
            self._fail_request(request, reason)

    def _resolve_orphans(self, node: str) -> None:
        """The verdict on ``node`` is in: replay (or fail) its victims."""
        for request in self._orphans.pop(node, []):
            self._retry_or_fail(request, "service-crashed")

    def _arm_retry_timer(self) -> None:
        """Aim the retry timer at the earliest pending replay."""
        retries = self._retries
        self._set_timer(
            _RETRY, min(t for t, _ in retries) if retries else None
        )

    def _release_retries(self) -> None:
        """Re-queue every replay whose backoff has elapsed."""
        due = [(t, r) for t, r in self._retries if t <= self.now + 1e-12]
        self._retries = [
            (t, r) for t, r in self._retries if t > self.now + 1e-12
        ]
        self._arm_retry_timer()
        # Head insertion in reverse-arrival order keeps the queue
        # sorted by arrival (replays are older than anything queued).
        for _, request in sorted(due, key=lambda e: -e[1].index):
            self.queue.appendleft(request)
        self._start_next()

    def _expire_deadlines(self) -> None:
        """Fail every waiting request whose client gave up."""
        timeout = self.resilience.request_timeout_s
        while self.queue and self.queue[0].arrival_s + timeout <= self.now + 1e-12:
            self._fail_request(self.queue.popleft(), "deadline-exceeded")
        keep = []
        for ready, request in self._retries:
            if request.arrival_s + timeout <= self.now + 1e-12:
                self._fail_request(request, "deadline-exceeded")
            else:
                keep.append((ready, request))
        self._retries = keep
        self._arm_retry_timer()

    def _arm_deadline_timer(self) -> None:
        """Aim the deadline timer at the earliest waiting request's
        deadline (now, if that already passed)."""
        timeout = self.resilience.request_timeout_s
        deadline = None
        if self.queue:
            deadline = self.queue[0].arrival_s + timeout
        for _, request in self._retries:
            d = request.arrival_s + timeout
            if deadline is None or d < deadline:
                deadline = d
        self._set_timer(
            _DEADLINE, None if deadline is None else max(deadline, self.now)
        )

    def _hedge_target(self) -> Optional[str]:
        """The machine a hedge could launch on now, if any (the breaker
        check may half-open it)."""
        if self._hedge is not None or self._handoff is not None or not self.queue:
            return None
        machine = self._other_machine()
        if machine is None or not self._breakers[machine].allow(self.now):
            return None
        return machine

    def _launch_hedge(self) -> None:
        """Race the longest-waiting request on the other (idle) machine."""
        machine = self._hedge_target()
        if machine is None:
            return
        request = self.queue.popleft()
        request.start_s = self.now
        request.machine = machine
        request.attempts += 1
        request.hedged = True
        self._attribute_stall(request)
        self._hedge = request
        self._hedge_machine = machine
        self._set_timer(
            _HEDGE_DONE,
            self.now + self.service_s[machine]
            + self.resilience.hedge_overhead_s,
        )
        self._hedged_count += 1
        if self.tracer is not None:
            self.tracer.instant(
                "serve.hedge", "serve", track=machine, req=request.index,
            )
            self.tracer.metrics.counter("serve.hedges").inc()

    def _arm_hedge_timer(self) -> None:
        """Aim the hedge-launch timer at the oldest waiting request's
        hedge delay (now, if that already passed), while a hedge could
        launch."""
        at = None
        if self._hedge_target() is not None:
            ready = self.queue[0].arrival_s + self.resilience.hedge_delay_s
            at = max(ready, self.now)
        self._set_timer(_HEDGE_LAUNCH, at)

    # ------------------------------------------------- faults & failover

    def _kill_in_flight(self, node: str) -> None:
        """Kill whatever ``node`` is serving into its orphan pool, where
        it waits for the verdict on ``node``."""
        if self.current is not None and self.location == node:
            request, self.current = self.current, None
            self._set_timer(_DEPARTURE, None)
            self._orphan(node, request)
        if self._hedge is not None and self._hedge_machine == node:
            request, self._hedge = self._hedge, None
            self._hedge_machine = None
            self._set_timer(_HEDGE_DONE, None)
            self._orphan(node, request)

    def _orphan(self, node: str, request: Request) -> None:
        self.busy_seconds += self.now - request.start_s
        request.start_s = None
        request.machine = None
        self._orphans.setdefault(node, []).append(request)

    def _on_node_crash(self, node: str) -> None:
        """Ground truth: ``node`` dies *now*.  In-flight work is killed
        immediately; recovery waits for the detector's CONFIRM verdict
        (instantaneous when no detector is attached)."""
        if not self._up[node]:
            return
        self._up[node] = False
        self._crashed_at[node] = self.now
        if self.tracer is not None:
            self.tracer.instant("serve.node.crash", "serve", track=node)
            self.tracer.metrics.counter("serve.node_crashes").inc()
        self._kill_in_flight(node)
        handoff = self._handoff
        if handoff is not None and node in (handoff.src, handoff.dst):
            # The protocol stalls until the detector renders a verdict.
            handoff.frozen_by = node
            self._set_timer(_HANDOFF, None)
        if self.detector is None:
            # Omniscient baseline: crash known the instant it happens.
            self._fenced.add(node)
            self._on_node_confirmed_dead(node)

    def _on_node_repair(self, node: str) -> None:
        if self._up[node]:
            return
        self._up[node] = True
        self._crashed_at.pop(node, None)
        self._fenced.discard(node)
        if self.detector is not None:
            self.detector.clear(node, self.now)
        breaker = self._breakers[node]
        if breaker.state != "closed":
            breaker.touch(self.now)
        if self.tracer is not None:
            self.tracer.instant("serve.node.repair", "serve", track=node)
            self.tracer.metrics.counter("serve.node_repairs").inc()
        self._resolve_orphans(node)
        handoff = self._handoff
        if handoff is not None and handoff.frozen_by == node:
            handoff.frozen_by = None
            if handoff.phase == "failover":
                self._set_timer(
                    _HANDOFF,
                    self.now + self.costs.publish_s + self.costs.commit_s,
                )
            elif handoff.phase == "drain":
                if self.current is None:
                    self._begin_blackout(handoff)
            else:
                self._begin_blackout(handoff)  # the transfer restarts
        self._end_outage("repair-failover")
        self._start_next()

    def _end_outage(self, reason: str) -> None:
        """A node came back: fail over to it if the home is unusable and
        nothing is restoring the service yet."""
        if (
            not self._avail(self.location)
            and self._handoff is None
            and not self._dead_end
        ):
            self._begin_failover(
                reason, warm=False, blackout_start=self._outage_since
            )
            self._outage_since = None

    def _on_node_confirmed_dead(self, node: str) -> None:
        """The detector confirmed ``node`` dead (possibly falsely): fence
        it, trip its breaker, resolve its orphans, and fail over if it
        was hosting the service or party to a hand-off."""
        now = self.now
        crash_t = self._crashed_at.pop(node, None)
        if crash_t is not None:
            self._mttd_samples.append(now - crash_t)
        self._fenced.add(node)
        self._breakers[node].trip(now)
        if self.tracer is not None:
            self.tracer.instant(
                "serve.node.dead", "serve", track=node,
                false=self._up[node],
            )
            self.tracer.metrics.counter("serve.node_deaths").inc()
        if self._up[node]:
            # False confirm: the live node is ostracised — it must stop
            # serving, so its in-flight work is killed like a crash's.
            self._kill_in_flight(node)
        self._resolve_orphans(node)
        handoff = self._handoff
        if handoff is not None:
            if handoff.phase == "failover":
                if node == handoff.dst:
                    self._drop_handoff()
                    self._begin_failover(
                        handoff.reason, warm=False,
                        blackout_start=handoff.blackout_start,
                    )
            elif node == handoff.dst:
                self._abort_handoff("dst-dead")
            elif node == handoff.src:
                transfer_end = dict(handoff.phase_ends).get("transfer")
                death_t = crash_t if crash_t is not None else now
                self._drop_handoff()
                if (
                    transfer_end is not None
                    and death_t >= transfer_end - 1e-12
                ):
                    # TRANSFER landed before the source died: the hot
                    # set is at dst — promote it (warm restore).
                    self.migrations += 1
                    self._begin_failover(
                        "promote-dst", warm=True,
                        blackout_start=handoff.blackout_start,
                    )
                else:
                    self.handoffs_aborted += 1
                    self._begin_failover(
                        "src-dead", warm=False,
                        blackout_start=handoff.blackout_start,
                    )
        if node == self.location and self._handoff is None:
            self._begin_failover("node-dead", warm=False)

    def _drop_handoff(self) -> _Handoff:
        """Detach the in-flight hand-off and disarm its timer."""
        handoff, self._handoff = self._handoff, None
        self._set_timer(_HANDOFF, None)
        return handoff

    def _begin_failover(
        self,
        reason: str,
        warm: bool,
        blackout_start: Optional[float] = None,
    ) -> None:
        """Restore the service on a surviving node (or record an outage)."""
        now = self.now
        survivors = [m for m in sorted(self.machines) if self._avail(m)]
        if not survivors:
            # Total outage: wait for a repair; if none can ever come,
            # every waiting request fails loudly (the dead end).
            self._outage_since = (
                blackout_start if blackout_start is not None else now
            )
            if not self._revive_possible():
                self._fail_everything()
            return
        allowed = [m for m in survivors if self._breakers[m].allow(now)]
        pool = allowed if allowed else survivors
        target = min(pool, key=lambda m: (self.service_s[m], m))
        restore = self.costs.publish_s + self.costs.commit_s
        self._handoff = _Handoff(
            src=self.location, dst=target, decided_at=now, reason=reason,
            phase="failover",
            blackout_start=blackout_start if blackout_start is not None else now,
        )
        self._set_timer(_HANDOFF, now + restore)
        self._failover_warm = warm
        self.failovers += 1
        if self.tracer is not None:
            self.tracer.metrics.counter("serve.failovers").inc()

    def _revive_possible(self) -> bool:
        """Can any machine ever serve again (repair pending, or a live
        fenced node that could rejoin)?"""
        if any(e[1] == 1 for e in self._fault_events[self._fault_idx:]):
            return True  # a repair is still scheduled
        return any(
            self._up[m] and m in self._fenced for m in self.machines
        )

    def _fail_everything(self) -> None:
        """Dead end — no machine can ever serve again.  Every waiting
        request fails loudly so nothing is silently stranded."""
        self._dead_end = True
        while self.queue:
            self._fail_request(self.queue.popleft(), "no-capacity")
        for _, request in self._retries:
            self._fail_request(request, "no-capacity")
        self._retries = []
        self._arm_retry_timer()
        for node in list(self._orphans):
            for request in self._orphans.pop(node):
                self._fail_request(request, "no-capacity")

    # -------------------------------------------------------- detection

    def _heartbeat_round(self) -> None:
        detector = self.detector
        stretch = 1.0
        for ev in self._degradations:
            stretch *= ev.latency_factor
        late = stretch >= detector.config.degradation_miss_factor
        heard = {
            node: self._up[node]
            and not any(node in ev.island for ev in self._partitions)
            and not late
            for node in self.machines
        }
        # A falsely fenced node heard again rejoins (PR-4 semantics).
        for node in sorted(self._fenced):
            if self._up[node] and heard[node]:
                detector.clear(node, self.now)
                self._fenced.discard(node)
                self._breakers[node].touch(self.now)
                self._end_outage("rejoin-failover")
                self._start_next()
        events = detector.observe(self.now, heard, dict(self._up))
        for event, node in events:
            if event == CONFIRM:
                self._on_node_confirmed_dead(node)
        self._set_timer(_HEARTBEAT, self.now + detector.period)

    # ---------------------------------------------------------- hand-off

    def _initiate_handoff(self, target: str, reason: str) -> None:
        handoff = _Handoff(
            src=self.location, dst=target, decided_at=self.now, reason=reason
        )
        self._handoff = handoff
        if self.tracer is not None:
            self.tracer.metrics.counter("serve.handoffs").inc()
        if self.current is None:
            self._begin_blackout(handoff)
        # else: drain — blackout begins when the in-flight request ends.

    def _begin_blackout(self, handoff: _Handoff) -> None:
        handoff.phase = "transform"
        if handoff.blackout_start is None:
            handoff.blackout_start = self.now
        costs = self.costs
        handoff.phase_ends = []
        t = self.now
        for phase, seconds in (
            ("transform", costs.transform_s),
            ("transfer", costs.transfer_s(self._footprint, self._current_bw())),
            ("publish", costs.publish_s),
            ("commit", costs.commit_s),
        ):
            t += seconds
            handoff.phase_ends.append((phase, t))
        if self.chaos is not None:
            # Step through every phase boundary so the chaos harness can
            # crash either party at each protocol site.
            ends = dict(handoff.phase_ends)
            handoff.pending = [
                ("serve.handoff.transfer", ends["transform"]),
                ("serve.handoff.publish", ends["transfer"]),
                ("serve.handoff.commit", ends["publish"]),
            ]
            self._set_timer(_HANDOFF, handoff.pending[0][1])
            self._site(
                "serve.handoff.prepare",
                {"src": handoff.src, "dst": handoff.dst},
            )
        else:
            self._set_timer(_HANDOFF, t)

    def _advance_handoff(self) -> None:
        """Chaos-mode phase stepping: announce the next phase boundary."""
        handoff = self._handoff
        step, _ = handoff.pending.pop(0)
        handoff.phase = step.rsplit(".", 1)[1]
        self._set_timer(
            _HANDOFF,
            handoff.pending[0][1] if handoff.pending else handoff.phase_ends[-1][1],
        )
        self._site(step, {"src": handoff.src, "dst": handoff.dst})

    def _abort_handoff(self, reason: str) -> None:
        handoff = self._drop_handoff()
        self.handoffs_aborted += 1
        self.handoff_seconds += self.now - handoff.decided_at
        if handoff.blackout_start is not None:
            self.blackout_seconds += self.now - handoff.blackout_start
            self._record_blackout(handoff.blackout_start, None)
        if self.tracer is not None:
            self.tracer.instant(
                "serve.handoff.abort", "serve", track=handoff.src,
                dst=handoff.dst, reason=reason,
            )
            self.tracer.metrics.counter("serve.handoffs_aborted").inc()
        if self._avail(self.location):
            self._start_next()

    def _land_handoff(self) -> None:
        """COMMIT (or failover restore): the service lives on ``dst``."""
        handoff = self._drop_handoff()
        failover = handoff.phase == "failover"
        warm = self._failover_warm or not failover
        self.location = handoff.dst
        if not failover:
            self.migrations += 1
        self._warmup_left = self.costs.warmup_requests
        self._warmup_extra = self._warmup_normal if warm else self._warmup_cold
        self._last_commit = self.now
        self.blackout_seconds += self.now - handoff.blackout_start
        self.handoff_seconds += self.now - handoff.decided_at
        span_id = None
        if self.tracer is not None and failover:
            span_id = self.tracer.complete(
                "serve.failover", "serve", handoff.blackout_start,
                self.now - handoff.blackout_start, track=handoff.dst,
                src=handoff.src, dst=handoff.dst, reason=handoff.reason,
                warm=warm,
            ).span_id
        elif self.tracer is not None:
            span_id = self._emit_handoff_spans(handoff)
        self._record_blackout(handoff.blackout_start, span_id)
        self._start_next()

    def _record_blackout(self, start: float, cause: Optional[int]) -> None:
        """A blackout that began at ``start`` ends now."""
        self._blackouts.append((start, self.now, cause))
        self._blackout_ends.append(self.now)

    def _emit_handoff_spans(self, handoff: _Handoff) -> int:
        tracer = self.tracer
        parent = tracer.complete(
            "serve.handoff", "serve", handoff.decided_at,
            self.now - handoff.decided_at, track=handoff.dst,
            src=handoff.src, dst=handoff.dst, reason=handoff.reason,
            service=str(self.spec),
        )
        # PREPARE covers the drain to a migration point plus the stack
        # transform; the remaining children mirror the kernel protocol.
        prepare_end = dict(handoff.phase_ends)["transform"]
        tracer.complete(
            "serve.prepare", "serve", handoff.decided_at,
            prepare_end - handoff.decided_at, track=handoff.src,
            parent=parent,
            drain_s=round(handoff.blackout_start - handoff.decided_at, 9),
            transform_s=self.costs.transform_s,
        )
        cursor = prepare_end
        for name, end in handoff.phase_ends[1:]:
            track = handoff.src if name == "transfer" else handoff.dst
            tracer.complete(
                f"serve.{name}", "serve", cursor, end - cursor,
                track=track, parent=parent,
            )
            cursor = end
        tracer.metrics.histogram("serve.blackout_s").observe(
            self.now - handoff.blackout_start
        )
        return parent.span_id

    def _end_warmup(self) -> None:
        if self.tracer is not None and self._blackouts:
            b0, b1, cause = self._blackouts[-1]
            attrs = {"requests": self.costs.warmup_requests}
            if cause is not None:
                attrs["flow"] = cause
            self.tracer.complete(
                "serve.warmup", "serve", b1, self.now - b1,
                track=self.location, **attrs,
            )

    # ----------------------------------------------------------- policy

    def _run_epoch(self) -> None:
        self._set_timer(_EPOCH, self.now + DECISION_PERIOD_S)
        w = RATE_WINDOW_S
        fault_aware = (
            self.faults is not None
            or self.detector is not None
            or self.resilience is not None
        )
        view = ServingView(
            now=self.now,
            machine=self.location,
            machines=dict(self._isa_by_machine),
            service_s=dict(self.service_s),
            queue_depth=len(self.queue),
            in_service=self.current is not None,
            migrating=self._handoff is not None,
            rate=self._rate_between(self.now - w, self.now),
            prev_rate=self._rate_between(self.now - 2 * w, self.now - w),
            slo_s=self.slo_s,
            blackout_s=self.blackout_estimate_s,
            since_commit_s=self.now - self._last_commit,
            nodes_up=(
                {m: self._avail(m) for m in self.machines}
                if fault_aware
                else None
            ),
            breaker_open=(
                {m: self._breakers[m].is_open for m in self.machines}
                if fault_aware
                else None
            ),
            shed_recent=self._shed_recent,
        )
        self._shed_recent = 0
        decision = self.policy.decide(view)
        if decision is None:
            return
        if self.tracer is not None:
            self.tracer.instant(
                "serve.decision", "serve", track=self.location,
                policy=self.policy.name, target=decision.target,
                reason=decision.reason,
            )
            self.tracer.metrics.counter("serve.decisions").inc()
        if decision.target is None:
            self._defer(decision.reason)
            return
        if decision.target == self.location:
            return
        if decision.target not in self.machines:
            raise KeyError(f"policy chose unknown machine {decision.target!r}")
        if (
            not self._avail(decision.target)
            or not self._avail(self.location)
            or not self._breakers[decision.target].allow(self.now)
            or self._hedge is not None
        ):
            # The engine is the last line of defence: a decision aimed
            # at a dead / fenced / breaker-open node (or landing while
            # a hedge occupies the target) becomes an explicit deferral.
            self._defer("target-unavailable")
            return
        self._initiate_handoff(decision.target, decision.reason)

    def _defer(self, reason: str) -> None:
        self.deferrals += 1
        if self.tracer is not None:
            self.tracer.instant(
                "serve.defer", "serve", track=self.location,
                policy=self.policy.name, reason=reason,
            )
            self.tracer.metrics.counter("serve.deferrals").inc()

    # -------------------------------------------------------------- run

    def run(self) -> RunResult:
        """Drive the trace to completion and summarise the run.

        Arrivals come from a cursor over ``trace.times``; everything
        else is an event on the ``sim`` queue, one pending timer per
        priority.  The run ends when no work is left: trailing faults,
        heartbeats and epochs never stretch the makespan.
        """
        times = self.trace.times
        n = len(times)
        cursor = 0
        queue = self._events
        timers = self._timers
        res = self.resilience
        hedge_on = res is not None and res.hedge_delay_s is not None
        timeout_on = res is not None and res.request_timeout_s is not None
        if self._fault_events:
            self._set_timer(_FAULT, self._fault_events[0][0])
        if self.detector is not None:
            self._set_timer(_HEARTBEAT, self.detector.period)
        self._set_timer(_EPOCH, DECISION_PERIOD_S)

        while True:
            if hedge_on:
                self._arm_hedge_timer()
            if timeout_on:
                self._arm_deadline_timer()
            if cursor >= n and not self._work_left():
                break
            head = queue.peek()
            if cursor < n and (
                head is None
                or times[cursor] < head.time
                or (times[cursor] == head.time and _ARRIVAL < head.priority)
            ):
                t = times[cursor]
                self._accrue(t - self.now)
                self.now = t
                request = Request(index=cursor, arrival_s=t)
                cursor += 1
                if self.tracer is not None:
                    self.tracer.metrics.counter("serve.requests").inc()
                self._admit(request)
            else:
                event = queue.pop()
                del timers[event.priority]
                self._accrue(event.time - self.now)
                self.now = event.time
                event.action()

        if validate.enabled():
            self._check_conservation(n)
        return self._result(n)

    def _on_handoff_timer(self) -> None:
        """The hand-off reached its next protocol boundary."""
        if self._handoff.pending:
            self._advance_handoff()
        else:
            self._land_handoff()

    def _apply_due_faults(self) -> None:
        """Apply every scheduled fault due now, then aim at the next."""
        events = self._fault_events
        while (
            self._fault_idx < len(events)
            and events[self._fault_idx][0] <= self.now + 1e-12
        ):
            _, _, payload, apply = events[self._fault_idx]
            self._fault_idx += 1
            apply(payload)
        if self._fault_idx < len(events):
            self._set_timer(_FAULT, events[self._fault_idx][0])

    def _admit(self, request: Request) -> None:
        """Admission control at the door: classify, gate, enqueue/shed."""
        if self._retry_budget is not None:
            self._retry_budget.offer()
        if self._dead_end:
            self._fail_request(request, "no-capacity")
            return
        self._site("serve.admit")
        admission = self._admission
        if admission is not None:
            if len(admission.cumulative) > 1:
                priority = admission.classify(self._priority_stream.random())
            else:
                priority = admission.cumulative[0][1]
            request.priority = priority.name
            if not admission.admit(self.now, len(self.queue), priority):
                self.shed.append(request)
                self._shed_recent += 1
                if self.tracer is not None:
                    self.tracer.instant(
                        "serve.shed", "serve", track=self.location,
                        req=request.index, reason=admission.last_reason,
                        priority=priority.name,
                    )
                    self.tracer.metrics.counter("serve.shed").inc()
                return
        self._site("serve.enqueue")
        self.queue.append(request)
        self._start_next()

    def _check_conservation(self, offered: int) -> None:
        """REPRO_VALIDATE: every request in exactly one outcome bucket,
        per-request timelines sane."""
        outcomes = Counter(
            r.index for bucket in (self.completed, self.shed, self.failed)
            for r in bucket
        )
        twice = sorted(i for i, count in outcomes.items() if count > 1)
        if twice:
            raise InvariantViolation(
                "serving", "request-exactly-once",
                f"requests with more than one outcome: {twice[:8]}",
                state={"duplicates": len(twice)},
            )
        if len(outcomes) != offered or (outcomes and max(outcomes) >= offered):
            missing = sorted(set(range(offered)) - set(outcomes))[:8]
            raise InvariantViolation(
                "serving", "requests-conserved",
                f"offered {offered}, completed {len(self.completed)} "
                f"+ shed {len(self.shed)} + failed {len(self.failed)} "
                f"= {len(outcomes)} (missing e.g. {missing})",
                state={"queue_depth": len(self.queue)},
            )
        for request in self.completed:
            if not (
                request.arrival_s - 1e-9
                <= request.start_s
                <= request.finish_s + 1e-9
            ):
                raise InvariantViolation(
                    "serving", "request-timeline",
                    f"request {request.index} timestamps out of order",
                    state={
                        "arrival": request.arrival_s,
                        "start": request.start_s,
                        "finish": request.finish_s,
                    },
                )
            if request.migration_stall_s > request.queue_wait_s + 1e-9:
                raise InvariantViolation(
                    "serving", "stall-within-wait",
                    f"request {request.index} stall exceeds its queue wait",
                    state={
                        "stall": request.migration_stall_s,
                        "wait": request.queue_wait_s,
                    },
                )

    def _result(self, admitted: int) -> RunResult:
        latencies = [r.latency_s for r in self.completed]
        report = slo_report(latencies, self.slo_s, admitted)
        in_slo = report.completed - report.violations
        detector = self.detector
        mttd = (
            sum(self._mttd_samples) / len(self._mttd_samples)
            if self._mttd_samples
            else 0.0
        )
        return RunResult(
            policy=self.policy.name,
            makespan=self.now,
            energy_by_machine=dict(self.energy_joules),
            migrations=self.migrations,
            job_count=admitted,
            mean_response=report.mean_s,
            busy_seconds=self.busy_seconds,
            overhead_seconds=self.blackout_seconds,
            handoffs=self.migrations,
            handoffs_aborted=self.handoffs_aborted,
            handoff_seconds=self.handoff_seconds,
            mttd=mttd,
            false_suspicions=(
                detector.stats.false_suspicions if detector is not None else 0
            ),
            false_confirms=(
                detector.stats.false_confirms if detector is not None else 0
            ),
            metrics=(
                self.tracer.metrics.snapshot()
                if self.tracer is not None
                else {}
            ),
            requests=admitted,
            requests_completed=report.completed,
            p50_latency_s=report.p50_s,
            p99_latency_s=report.p99_s,
            p999_latency_s=report.p999_s,
            slo_target_s=self.slo_s,
            slo_violations=report.violations,
            slo_violation_seconds=report.violation_seconds,
            migration_stall_seconds=sum(
                r.migration_stall_s for r in self.completed
            ),
            requests_shed=len(self.shed),
            requests_failed=len(self.failed),
            requests_retried=len(self._retried_indices),
            requests_hedged=self._hedged_count,
            retry_attempts=self._retry_attempts,
            failovers=self.failovers,
            breaker_opens=sum(b.opens for b in self._breakers.values()),
            goodput_rps=in_slo / self.now if self.now > 0 else 0.0,
            slo_attainment=in_slo / admitted if admitted else 0.0,
        )
