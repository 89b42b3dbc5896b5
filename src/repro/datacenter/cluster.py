"""The cluster simulator: processor-sharing DES with migration and
fault injection.

Between events every machine runs its resident jobs under processor
sharing (oversubscription stretches everyone equally); events are job
arrivals, completions, policy-driven migrations — and, when a
:class:`~repro.faults.inject.FaultSchedule` is attached, node crashes,
repairs, interconnect degradation windows and network partitions.
Recovery from a crash is delegated to a
:class:`~repro.faults.recovery.RecoveryPolicy` (evacuate via live
migration, checkpoint/restart, or fail-stop).  With no schedule the
fault machinery is inert and every number is bit-identical to the
fault-free simulator.

Energy integrates each machine's *internal* (on-package) power between
events, as the paper reports ("we only report internal power
readings"), with the McPAT FinFET projection optionally applied to the
ARM board.  A crashed node draws no power until repaired.

One run loop drives both experiments.  Each step advances to the
earliest of the next job completion (computed from remaining work),
the next queued event and the next arrival, then collects finished
jobs, applies due events, admits arrivals and rebalances.
``run_sustained`` (Fig. 12) back-fills one job per departure;
``run_periodic`` (Fig. 13) admits a timed schedule.  Only faults,
hand-offs and heartbeat rounds are queued, on the :mod:`repro.sim`
event queue, each with its own handler.
"""

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro import validate
from repro.datacenter.energy import RunResult
from repro.datacenter.job import Job, JobSpec, JobState, job_duration, migration_penalty
from repro.datacenter.policies import SchedulingPolicy
from repro.linker.layout import PAGE_SIZE
from repro.machine.machine import Machine
from repro.machine.mcpat import project_finfet
from repro.sim.events import Event, Simulator
from repro.telemetry.faultlog import FaultLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.nested import NestedNodeSampler
    from repro.faults.detector import FailureDetector
    from repro.faults.inject import FaultSchedule
    from repro.faults.recovery import RecoveryPolicy

DEFAULT_INTERCONNECT_BW = 64e9 / 8  # Dolphin PXH810


@dataclass
class Handoff:
    """One in-flight two-phase job hand-off (cluster-level PREPARE
    happened at ``prepared_at``; COMMIT is earliest at ``due_at``)."""

    job: Job
    src: str
    dst: str
    kind: str  # "evacuate" | "rebalance"
    prepared_at: float
    due_at: float
    penalty: float


class MachineNode:
    """One machine's scheduling state."""

    def __init__(self, machine: Machine, project_arm_finfet: bool = True):
        self.machine = machine
        power = machine.power
        if project_arm_finfet and machine.isa.name == "arm64":
            power = project_finfet(power)
        self.power = power
        self.jobs: List[Job] = []
        self.energy_joules = 0.0
        self.up = True  # flipped by NodeCrash/repair events

    @property
    def name(self) -> str:
        """The machine's unique name."""
        return self.machine.name

    @property
    def isa_name(self) -> str:
        """The machine's ISA (``"x86-64"`` or ``"arm64"``)."""
        return self.machine.isa.name

    @property
    def threads_in_use(self) -> int:
        """Threads of all resident jobs."""
        return sum(j.threads for j in self.jobs)

    @property
    def busy_cores(self) -> float:
        """Cores kept busy (resident threads, capped at the core count)."""
        return float(min(self.threads_in_use, self.machine.cpu.cores))

    @property
    def contention(self) -> float:
        """Processor-sharing stretch: threads per core, at least 1."""
        cores = self.machine.cpu.cores
        return max(1.0, self.threads_in_use / cores)

    def cpu_power_now(self) -> float:
        """Internal CPU power (W) at the current load."""
        return self.power.cpu_power(self.busy_cores)

    def accrue_energy(self, dt: float) -> None:
        """Charge ``dt`` seconds at the current power."""
        self.energy_joules += self.cpu_power_now() * dt


class ClusterSimulator:
    """Runs one job set under one policy on a set of machines."""

    def __init__(
        self,
        machines: List[Machine],
        policy: SchedulingPolicy,
        interconnect_bw: float = DEFAULT_INTERCONNECT_BW,
        project_arm_finfet: bool = True,
        faults: Optional["FaultSchedule"] = None,
        recovery: Optional["RecoveryPolicy"] = None,
        detector: Optional["FailureDetector"] = None,
        tracer=None,
        nested: Optional["NestedNodeSampler"] = None,
        nested_nodes: Tuple[str, ...] = (),
    ):
        if not machines:
            raise ValueError("cluster needs at least one machine")
        if tracer is None:
            from repro.telemetry.spans import maybe_tracer

            tracer = maybe_tracer()
        # Opt-in span tracer; the cluster itself is the "clock" (its
        # ``now`` attribute is the simulated time).
        self.tracer = tracer
        if tracer is not None:
            tracer.bind_clock(self)
        self.nodes = [MachineNode(m, project_arm_finfet) for m in machines]
        # Name -> node index: placement and migration lookups are O(1)
        # instead of a linear scan per migration.
        self._node_index: Dict[str, MachineNode] = {
            n.name: n for n in self.nodes
        }
        if len(self._node_index) != len(self.nodes):
            raise ValueError("machine names must be unique")
        # Live-node list, rebuilt only on up/down transitions so the
        # per-event admission/rebalance path allocates nothing.
        self._live_cache: Optional[List[MachineNode]] = None
        self.policy = policy
        self.interconnect_bw = interconnect_bw
        # Simulated time lives in a repro.sim Clock and fault/protocol
        # events in its EventQueue; ``now`` is a read-only view.
        self._sim = Simulator()
        self.migrations = 0
        self._durations: Dict[Tuple[JobSpec, str], float] = {}
        self.finished: List[Job] = []
        # Nested-node sampling: jobs landing on these nodes take their
        # duration from a real PopcornSystem execution instead of the
        # analytic summary (repro.datacenter.nested).
        self.nested = nested
        self._nested_nodes = frozenset(nested_nodes)
        if self._nested_nodes and self.nested is None:
            from repro.datacenter.nested import NestedNodeSampler

            self.nested = NestedNodeSampler()
        unknown = self._nested_nodes - set(self._node_index)
        if unknown:
            raise ValueError(f"nested_nodes name unknown nodes {sorted(unknown)}")

        # ---- fault machinery (inert when no schedule is attached) ----
        self.recovery = recovery
        if self.recovery is None and faults is not None:
            from repro.faults.recovery import EvacuateLive

            self.recovery = EvacuateLive()
        if self.recovery is not None:
            self.recovery.reset()
        self.fault_log = FaultLog()
        # Queued events other than the heartbeat: while any is pending,
        # a fault can still create something for the detector to see.
        self._queued = 0
        self._heartbeat: Optional[Event] = None
        for event in faults if faults is not None else ():
            self._schedule(event)
        self.parked: List[Tuple[Job, Optional[str]]] = []
        self._crash_since: Dict[str, float] = {}
        self._mttr_samples: List[float] = []
        self._degradations: List[object] = []
        self._partitions: List[Tuple[str, ...]] = []
        self.fault_events = 0
        self.jobs_evacuated = 0
        self.jobs_restarted = 0
        self.jobs_lost = 0
        self.lost_work_seconds = 0.0
        self.overhead_seconds = 0.0
        self.busy_seconds = 0.0

        # ---- failure detection & two-phase hand-off (inert when off) ----
        # With a detector, crashes are *detected* (heartbeats + lease)
        # instead of known omnisciently: a crashed node's jobs sit in
        # _undetected until the detector confirms the death.
        self.detector = detector
        self._undetected: Dict[str, List[Job]] = {}
        self._fenced_alive: set = set()  # live nodes ostracised by a
        # false confirm; they rejoin when heard again
        self._in_flight: List[Handoff] = []
        self._mttd_samples: List[float] = []
        self.handoffs = 0
        self.handoffs_aborted = 0
        self.handoff_seconds = 0.0
        self.lost_page_count = 0
        if self.detector is not None:
            self.detector.reset([n.name for n in self.nodes], now=0.0)
            self._heartbeat = self._sim.queue.push(
                self.detector.period, self._heartbeat_round
            )
            if tracer is not None:
                self.detector.tracer = tracer
        # Opt-in conservation audit (REPRO_VALIDATE): None when off.
        self._checker = validate.make_cluster_checker()

    # --------------------------------------------------------- plumbing

    @property
    def now(self) -> float:
        """Current simulated time (the shared ``sim`` clock's view)."""
        return self._sim.now

    def duration_on(self, spec: JobSpec, node: MachineNode) -> float:
        """Uncontended run time of ``spec`` on ``node`` (memoized)."""
        key = (spec, node.name)
        if key not in self._durations:
            if node.name in self._nested_nodes:
                self._durations[key] = self.nested.duration(
                    spec, node.machine.isa.name
                )
            else:
                self._durations[key] = job_duration(spec, node.machine)
        return self._durations[key]

    def _node_of(self, job: Job) -> MachineNode:
        node = self._node_index.get(job.machine)
        if node is None:
            raise KeyError(f"job {job} has no node")
        return node

    def live_nodes(self) -> List[MachineNode]:
        """The up nodes, in declaration order (cached between
        up/down transitions; callers must not mutate the list)."""
        if self._live_cache is None:
            self._live_cache = [n for n in self.nodes if n.up]
        return self._live_cache

    def _node_up_changed(self) -> None:
        """Invalidate the live-node cache (a node came up / went down)."""
        self._live_cache = None

    def reachable(self, a: str, b: str) -> bool:
        """Can kernels on ``a`` and ``b`` exchange messages right now?"""
        for island in self._partitions:
            if (a in island) != (b in island):
                return False
        return True

    def effective_bandwidth(self) -> float:
        """Interconnect bandwidth under the open degradation windows."""
        bw = self.interconnect_bw
        for degradation in self._degradations:
            bw *= degradation.bandwidth_factor
        return bw

    def start_job(self, job: Job, node: MachineNode) -> None:
        """Run ``job`` on ``node`` from now on."""
        job.state = JobState.RUNNING
        job.machine = node.name
        job.started_at = self.now
        node.jobs.append(job)
        if self.tracer is not None:
            self.tracer.instant(
                "sched.place", "sched", ts=self.now, track=node.name,
                job=str(job.spec),
            )
            self.tracer.metrics.counter("sched.placements").inc()

    def _admit(self, job: Job) -> None:
        """Place an arriving job, parking it if no node is up."""
        live = self.live_nodes()
        if not live:
            self.park(job, None, reason="no node up at arrival")
            return
        self.start_job(job, self.policy.place(job, live))

    def _advance(self, dt: float) -> None:
        """Progress all jobs and accrue energy for ``dt`` seconds."""
        if dt <= 0:
            return
        for node in self.nodes:
            if not node.up:
                continue  # powered off: no energy, no progress
            node.accrue_energy(dt)
            denom_base = node.contention
            for job in node.jobs:
                demand = self.duration_on(job.spec, node) * denom_base
                job.remaining_fraction -= dt / demand
            self.busy_seconds += dt * len(node.jobs)
        self._sim.clock.advance_by(dt)

    def _collect_finished(self) -> List[Job]:
        done: List[Job] = []
        for node in self.nodes:
            still: List[Job] = []
            for job in node.jobs:
                if job.remaining_fraction <= 1e-9:
                    job.remaining_fraction = 0.0
                    job.state = JobState.DONE
                    job.finished_at = self.now
                    done.append(job)
                    self.finished.append(job)
                else:
                    still.append(job)
            node.jobs = still
        return done

    def _apply_policy_migrations(self) -> None:
        if not self.policy.dynamic:
            return
        for job, dst in self.policy.rebalance(self.live_nodes()):
            src = self._node_of(job)
            if src is dst:
                continue
            if self._partitions and not self.reachable(src.name, dst.name):
                self.fault_log.record(
                    self.now, "blocked", node=dst.name,
                    detail=f"partition blocks {job.spec} "
                    f"{src.name}->{dst.name}",
                )
                continue
            src.jobs.remove(job)
            penalty = migration_penalty(job.spec, self.effective_bandwidth())
            extra = penalty / self.duration_on(job.spec, dst)
            job.remaining_fraction = min(job.remaining_fraction + extra, 1.0)
            job.machine = dst.name
            job.migrations += 1
            dst.jobs.append(job)
            self.migrations += 1
            self.overhead_seconds += penalty
            if self.tracer is not None:
                self.tracer.complete(
                    "sched.rebalance", "sched", self.now, penalty,
                    track=dst.name, job=str(job.spec), src=src.name,
                    dst=dst.name,
                )
                self.tracer.metrics.counter("sched.rebalances").inc()
                self.tracer.metrics.histogram(
                    "sched.rebalance_s"
                ).observe(penalty)

    def _next_completion_dt(self) -> Optional[float]:
        return min(
            (
                job.remaining_fraction
                * (self.duration_on(job.spec, node) * node.contention)
                for node in self.nodes
                for job in node.jobs
            ),
            default=None,
        )

    # ------------------------------------------------- fault machinery

    def _schedule(self, event) -> None:
        """Check one :class:`FaultSchedule` event and queue it with its
        handler."""
        node = getattr(event, "node", None)
        if event.time < 0:
            raise ValueError(f"fault schedule acts before t=0: {event!r}")
        if node is not None and node not in self._node_index:
            raise ValueError(f"fault schedule names unknown node {node!r}")
        apply = {
            "crash": lambda: self._apply_crash(event),
            "repair": lambda: self._apply_repair(node),
            "degrade": lambda: self._open_degradation(event),
            "partition": lambda: self._open_partition(event),
        }.get(event.kind)
        if apply is None:
            raise ValueError(f"cluster cannot apply fault event {event!r}")
        self._queue_fault(event.time, event.kind, node, apply)

    def _queue(self, time: float, action: Callable[[], None]) -> None:
        """Queue a non-heartbeat event."""
        self._queued += 1
        self._sim.queue.push(time, action)

    def _queue_fault(
        self, time: float, kind: str, node: Optional[str],
        apply: Callable[[], None],
    ) -> None:
        """Queue a fault event: firing it counts toward ``fault_events``
        and traces a ``fault.<kind>`` instant before ``apply`` runs."""

        def fire() -> None:
            self.fault_events += 1
            if self.tracer is not None:
                self.tracer.instant(
                    f"fault.{kind}", "fault", ts=self.now,
                    track=node if node is not None else "cluster",
                )
                self.tracer.metrics.counter("fault.events").inc()
            apply()

        self._queue(time, fire)

    def _queue_repair(self, time: float, name: str) -> None:
        self._queue_fault(time, "repair", name, lambda: self._apply_repair(name))

    def _heartbeat_round(self) -> None:
        """One detector round, then re-arm.  Heartbeats are protocol
        traffic, not faults: they are excluded from ``fault_events``."""
        self._run_detector()
        self._heartbeat = self._sim.queue.push(
            self.now + self.detector.period, self._heartbeat_round
        )

    def _apply_due_events(self) -> bool:
        """Run every queued event due at (or before) ``now``."""
        applied = False
        while True:
            event = self._sim.queue.pop_due(self.now + 1e-9)
            if event is None:
                break
            if event is not self._heartbeat:
                self._queued -= 1
            event.action()
            applied = True
        if applied and self._in_flight:
            self._pump_handoffs()
        if applied and self.parked and self.recovery is not None:
            self.recovery.try_unpark(self)
        return applied

    def _open_degradation(self, event) -> None:
        self._degradations.append(event)
        self._queue_fault(
            self.now + event.duration, "degrade-end", None,
            lambda: self._close_window("degrade-end", self._degradations, event),
        )
        self.fault_log.record(
            self.now, "degrade",
            detail=f"bw x{event.bandwidth_factor:g}, "
            f"lat x{event.latency_factor:g} for {event.duration:g}s",
        )

    def _open_partition(self, event) -> None:
        island = tuple(event.island)
        self._partitions.append(island)
        self._queue_fault(
            self.now + event.duration, "heal", None,
            lambda: self._close_window(
                "heal", self._partitions, island, f"island {island}"
            ),
        )
        self.fault_log.record(self.now, "partition", detail=f"island {island}")

    def _close_window(
        self, kind: str, windows: list, window: object, detail: str = ""
    ) -> None:
        """A degradation or partition window ends."""
        windows.remove(window)
        self.fault_log.record(self.now, kind, detail=detail)
        self._attempt_rejoins()

    def _apply_crash(self, event) -> None:
        node = self._node_index[event.node]
        if not node.up:
            if node.name in self._fenced_alive:
                # An ostracised-but-live node really died.  Its jobs
                # were already reclaimed at fencing time; record the
                # death so it can never rejoin from the fence.
                self._fenced_alive.discard(node.name)
                self._crash_since[node.name] = self.now
                self.fault_log.record(
                    self.now, "crash", node=node.name,
                    detail="crashed while fenced",
                )
                if not event.permanent:
                    self._queue_repair(
                        self.now + event.repair_seconds, node.name
                    )
                return
            self.fault_log.record(
                self.now, "crash", node=node.name, detail="already down"
            )
            return
        node.up = False
        self._node_up_changed()
        self._crash_since[node.name] = self.now
        detail = (
            "permanent"
            if event.permanent
            else f"repair in {event.repair_seconds:g}s"
        )
        self.fault_log.record(self.now, "crash", node=node.name, detail=detail)
        victims = node.jobs
        node.jobs = []
        if not event.permanent:
            self._queue_repair(self.now + event.repair_seconds, node.name)
        if victims:
            if self.detector is not None:
                # Nobody knows yet: the jobs are in limbo until the
                # detector confirms the death (that latency is the MTTD).
                self._undetected[node.name] = victims
            else:
                self._recover(node, victims)

    def _apply_repair(self, name: str) -> None:
        node = self._node_index[name]
        if node.up:
            return
        node.up = True
        self._node_up_changed()
        crashed_at = self._crash_since.pop(name, None)
        if crashed_at is not None:
            self._mttr_samples.append(self.now - crashed_at)
        if self.detector is not None:
            self.detector.clear(name, self.now)
        self.fault_log.record(self.now, "repair", node=name)
        victims = self._undetected.pop(name, None)
        if victims:
            # Repaired before the detector ever confirmed the crash —
            # the node is back but its memory is gone, so the victims
            # enter recovery only now.
            self._recover(node, victims)

    def _recover(self, node: MachineNode, victims: List[Job]) -> None:
        """Hand a dead or fenced node's jobs to the recovery policy."""
        if self.recovery is not None:
            self.recovery.on_crash(self, node, victims)
        else:
            for job in victims:
                self.lose_job(job)

    # --------------------------------------- failure detection rounds

    def _latency_stretch(self) -> float:
        stretch = 1.0
        for degradation in self._degradations:
            stretch *= getattr(degradation, "latency_factor", 1.0)
        return stretch

    def _majority_cell(self) -> frozenset:
        """The partition cell whose verdicts count (largest; ties break
        toward the cell holding the smallest node name)."""
        names = [n.name for n in self.nodes]
        cells = {
            frozenset(m for m in names if self.reachable(name, m))
            for name in names
        }
        return sorted(cells, key=lambda c: (-len(c), min(c)))[0]

    def _heartbeat_heard(self, name: str) -> bool:
        """Did the observer majority hear ``name`` this round?"""
        if (
            self.detector is not None
            and self._latency_stretch()
            >= self.detector.config.degradation_miss_factor
        ):
            return False  # heartbeats arrive after their timeout
        if self._partitions and name not in self._majority_cell():
            return False  # cut off from the majority: unheard, not dead
        return True

    def _run_detector(self) -> None:
        detector = self.detector
        heard: Dict[str, bool] = {}
        alive: Dict[str, bool] = {}
        for node in self.nodes:
            name = node.name
            truly_alive = name not in self._crash_since
            alive[name] = truly_alive
            heard[name] = truly_alive and self._heartbeat_heard(name)
        for name in sorted(self._fenced_alive):
            if heard.get(name):
                self._rejoin(name)
        for event, name in detector.observe(self.now, heard, alive):
            if event == "suspect":
                detail = "unheard"
                if alive[name]:
                    detail = "false suspicion (node is alive)"
                self.fault_log.record(
                    self.now, "suspect", node=name, detail=detail
                )
            elif event == "unsuspect":
                self.fault_log.record(self.now, "unsuspect", node=name)
            elif event == "confirm":
                self._confirm_dead(name)

    def _confirm_dead(self, name: str) -> None:
        """The lease expired: the cluster now acts on the death verdict."""
        node = self._node_index[name]
        crashed_at = self._crash_since.get(name)
        if crashed_at is not None:
            # A real crash, finally detected.
            mttd = self.now - crashed_at
            self._mttd_samples.append(mttd)
            self.fault_log.record(
                self.now, "confirm", node=name,
                detail=f"dead, detected after {mttd:.2f}s",
            )
            victims = self._undetected.pop(name, [])
        elif node.up:
            # False confirm: a live node's lease expired.  Fencing makes
            # the verdict safe — the node stops acting until it rejoins —
            # at the price of treating its jobs as crashed.
            node.up = False
            self._node_up_changed()
            self._fenced_alive.add(name)
            victims = node.jobs
            node.jobs = []
            if self.tracer is not None:
                self.tracer.instant(
                    "fault.fence", "fault", ts=self.now, track=name
                )
                self.tracer.metrics.counter("fault.fences").inc()
            self.fault_log.record(
                self.now, "fence", node=name,
                detail="lease expired on a live node (false confirm)",
            )
        else:
            return
        if victims:
            self._recover(node, victims)
        if self._in_flight:
            self._pump_handoffs()

    def _attempt_rejoins(self) -> None:
        for name in sorted(self._fenced_alive):
            if name not in self._crash_since and self._heartbeat_heard(name):
                self._rejoin(name)

    def _rejoin(self, name: str) -> None:
        node = self._node_index[name]
        node.up = True
        self._node_up_changed()
        self._fenced_alive.discard(name)
        if self.detector is not None:
            self.detector.clear(name, self.now)
        if self.tracer is not None:
            self.tracer.instant(
                "fault.rejoin", "fault", ts=self.now, track=name
            )
            self.tracer.metrics.counter("fault.rejoins").inc()
        self.fault_log.record(
            self.now, "rejoin", node=name, detail="fenced node heard again"
        )
        if self.parked and self.recovery is not None:
            self.recovery.try_unpark(self)

    # ------------------------------------------- two-phase job hand-off

    def placement_nodes(self) -> List[MachineNode]:
        """Nodes jobs may be placed on: live, and (with a detector) not
        currently suspected — placing work on a node the detector is
        about to fence would hand it straight to the next confirm."""
        if self.detector is None:
            return self.live_nodes()
        return [
            n
            for n in self.nodes
            if n.up
            and not self.detector.is_suspected(n.name)
            and not self.detector.is_fenced(n.name)
        ]

    def begin_handoff(
        self, job: Job, src_name: str, dst: MachineNode, kind: str = "evacuate"
    ) -> Handoff:
        """PREPARE a job hand-off; COMMIT happens when the transfer is
        due and the destination is still alive, else it aborts."""
        penalty = migration_penalty(job.spec, self.effective_bandwidth())
        job.state = JobState.PENDING
        job.machine = None
        handoff = Handoff(
            job=job,
            src=src_name,
            dst=dst.name,
            kind=kind,
            prepared_at=self.now,
            due_at=self.now + penalty,
            penalty=penalty,
        )
        self._in_flight.append(handoff)
        self._queue(handoff.due_at, self._pump_handoffs)
        self.handoffs += 1
        self.fault_log.record(
            self.now, "handoff-begin", node=dst.name,
            detail=f"{job.spec} {src_name}->{dst.name} ({kind}, "
            f"{penalty * 1e3:.1f} ms in flight)",
        )
        return handoff

    def _pump_handoffs(self) -> None:
        remaining: List[Handoff] = []
        for handoff in self._in_flight:
            dst_node = self._node_index[handoff.dst]
            if not dst_node.up:
                self._abort_handoff(handoff)
            elif self.now + 1e-9 >= handoff.due_at:
                if self.reachable(handoff.src, handoff.dst):
                    self._commit_handoff(handoff, dst_node)
                else:
                    remaining.append(handoff)  # stalled by a partition
            else:
                remaining.append(handoff)
        self._in_flight = remaining

    def _commit_handoff(self, handoff: Handoff, dst_node: MachineNode) -> None:
        job = handoff.job
        self.start_job(job, dst_node)
        job.migrations += 1
        self.migrations += 1
        self.handoff_seconds += self.now - handoff.prepared_at
        if self.tracer is not None:
            in_flight = self.now - handoff.prepared_at
            self.tracer.complete(
                "sched.handoff", "sched", handoff.prepared_at, in_flight,
                track=handoff.dst, job=str(job.spec), src=handoff.src,
                dst=handoff.dst, kind=handoff.kind, committed=True,
            )
            self.tracer.metrics.counter("sched.handoffs").inc()
            self.tracer.metrics.histogram(
                "sched.handoff_s"
            ).observe(in_flight)
        if handoff.kind == "evacuate":
            job.evacuations += 1
            self.jobs_evacuated += 1
        self.fault_log.record(
            self.now, "handoff-commit", node=dst_node.name,
            detail=f"{job.spec} resumed after "
            f"{(self.now - handoff.prepared_at) * 1e3:.1f} ms in flight",
        )

    def _abort_handoff(self, handoff: Handoff) -> None:
        """Destination died in flight: exactly one copy rule says the
        source-side state is still the job — re-drain or park it."""
        job = handoff.job
        self.handoffs_aborted += 1
        if self.tracer is not None:
            self.tracer.complete(
                "sched.handoff", "sched", handoff.prepared_at,
                self.now - handoff.prepared_at, track=handoff.dst,
                job=str(job.spec), src=handoff.src, dst=handoff.dst,
                kind=handoff.kind, committed=False,
            )
            self.tracer.metrics.counter("sched.handoffs_aborted").inc()
        self.fault_log.record(
            self.now, "handoff-abort", node=handoff.dst,
            detail=f"{job.spec}: destination died in flight",
        )
        targets = [
            n for n in self.placement_nodes() if n.name != handoff.dst
        ]
        if not targets:
            self.park(job, None, reason="hand-off aborted, no live target")
            return
        dst = self.policy.place(job, targets)
        self.begin_handoff(job, handoff.src, dst, handoff.kind)

    def park(self, job: Job, required_isa: Optional[str], reason: str = "") -> None:
        """Queue a job until a node satisfying ``required_isa`` is up."""
        job.state = JobState.PENDING
        job.machine = None
        self.parked.append((job, required_isa))
        if self.tracer is not None:
            self.tracer.instant(
                "sched.park", "sched", ts=self.now, track="cluster",
                job=str(job.spec),
            )
            self.tracer.metrics.counter("sched.parked").inc()
        detail = f"{job.spec}"
        if required_isa:
            detail += f" needs {required_isa}"
        if reason:
            detail += f" ({reason})"
        self.fault_log.record(self.now, "park", detail=detail)

    def lose_job(self, job: Job) -> None:
        """Fail ``job`` for good, charging its wasted work and pages."""
        if job.state is JobState.RUNNING and job.started_at is not None:
            # Work invested in a job that will never finish is not
            # goodput.  (Parked jobs were already charged when their
            # progress was rolled back.)
            wasted = self.now - job.started_at
            if wasted > 0.0:
                job.lost_seconds += wasted
                self.lost_work_seconds += wasted
        if job.state is JobState.RUNNING:
            # Every dirty page of a fail-stopped job's working set had
            # its sole copy on the dead node: loudly lost, not silently
            # refetched (mirrors LostPageError at the kernel layer).
            params = job.spec.profile().params(job.spec.cls)
            self.lost_page_count += params.footprint_bytes // PAGE_SIZE
        job.state = JobState.FAILED
        job.machine = None
        self.jobs_lost += 1
        if self.tracer is not None:
            self.tracer.instant(
                "sched.lost", "sched", ts=self.now, track="cluster",
                job=str(job.spec),
            )
            self.tracer.metrics.counter("sched.jobs_lost").inc()
        self.fault_log.record(self.now, "lost", detail=f"{job.spec}")

    def _abandon_parked(self) -> None:
        """No event can ever free a parked job: count it lost."""
        for job, _ in self.parked:
            self.lose_job(job)
        self.parked = []

    def _work_left(self) -> bool:
        """Is any admitted job still resident, parked, in flight or
        waiting for its node's death to be detected?"""
        return bool(
            self._in_flight
            or self._undetected
            or self.parked
            or any(n.jobs for n in self.nodes)
        )

    # ------------------------------------------------------ experiment

    def _step(
        self,
        next_arrival: Optional[float] = None,
        admit: Optional[Callable[[int], bool]] = None,
    ) -> bool:
        """Advance to the next completion, queued event or
        ``next_arrival`` and apply it; ``admit(freed)`` gets the count
        of jobs that finished or were lost and says whether it admitted
        any.  False, having done nothing, when nothing is left."""
        queue = self._sim.queue
        head = queue.peek()
        if head is not None and head is self._heartbeat and not (
            self._undetected
            or self._in_flight
            or self._fenced_alive
            or self.detector.pending()
            or self._queued
        ):
            # Nothing left that a heartbeat round could detect or
            # unblock: let the recurring chain die so quiescent runs
            # terminate instead of ticking forever.
            queue.pop()
            self._heartbeat = None
            head = queue.peek()
        due = (next_arrival, None if head is None else head.time)
        dts = [t - self.now for t in due if t is not None]
        dt_done = self._next_completion_dt()
        if dt_done is not None:
            dts.append(dt_done)
        if not dts:
            return False
        self._advance(max(min(dts), 0.0))
        if self.recovery is not None:
            self.recovery.note_progress(self)
        lost_before = self.jobs_lost
        done = self._collect_finished()
        changed = self._apply_due_events() or bool(done)
        if admit is not None and admit(
            len(done) + self.jobs_lost - lost_before
        ):
            changed = True
        if changed:
            self._apply_policy_migrations()
        return True

    def _run(
        self,
        total: int,
        pending: Deque[Job],
        next_arrival: Callable[[], Optional[float]],
        admit: Callable[[int], bool],
    ) -> RunResult:
        """Step until no arrival is due and no job is left in the
        system; ``pending`` holds the jobs not yet admitted."""
        if self._checker is not None:
            self._checker.begin(total)
        while next_arrival() is not None or self._work_left():
            if not self._step(next_arrival(), admit):
                self._abandon_parked()
                if self._work_left():
                    raise RuntimeError("jobs in flight but none progressing")
                break
            if self._checker is not None:
                self._checker.check(self, outstanding=len(pending))
        return self._result(total, outstanding=len(pending))

    def run_sustained(self, specs: List[JobSpec], concurrency: int) -> RunResult:
        """Closed system: keep ``concurrency`` jobs in flight (Fig. 12);
        each job that finishes or is lost is replaced by the next one."""
        pending = deque(Job(s, arrival=0.0) for s in specs)
        total = len(pending)

        def backfill(freed: int) -> bool:
            admitted = min(freed, len(pending))
            for _ in range(admitted):
                job = pending.popleft()
                job.arrival = self.now
                self._admit(job)
            return admitted > 0

        backfill(concurrency)
        self._apply_policy_migrations()
        return self._run(total, pending, lambda: None, backfill)

    def run_periodic(self, arrivals: List[Tuple[float, JobSpec]]) -> RunResult:
        """Open system with timed arrivals (Fig. 13)."""
        pending = deque(sorted(
            (Job(spec, arrival=t) for t, spec in arrivals),
            key=lambda j: (j.arrival, j.job_id),
        ))

        def admit_due(freed: int) -> bool:
            admitted = False
            while pending and pending[0].arrival <= self.now + 1e-9:
                self._admit(pending.popleft())
                admitted = True
            return admitted

        return self._run(
            len(pending), pending,
            lambda: pending[0].arrival if pending else None, admit_due,
        )

    def _result(self, job_count: int, outstanding: int = 0) -> RunResult:
        if self._checker is not None:
            self._checker.check(self, outstanding=outstanding, final=True)
        useful = max(
            self.busy_seconds - self.lost_work_seconds - self.overhead_seconds,
            0.0,
        )
        return RunResult(
            policy=self.policy.name,
            makespan=self.now,
            energy_by_machine={n.name: n.energy_joules for n in self.nodes},
            migrations=self.migrations,
            job_count=job_count,
            mean_response=(
                sum(j.response_time() for j in self.finished) / len(self.finished)
                if self.finished
                else 0.0
            ),
            fault_events=self.fault_events,
            jobs_evacuated=self.jobs_evacuated,
            jobs_restarted=self.jobs_restarted,
            jobs_lost=self.jobs_lost,
            lost_work_seconds=self.lost_work_seconds,
            overhead_seconds=self.overhead_seconds,
            busy_seconds=self.busy_seconds,
            mttr=(
                sum(self._mttr_samples) / len(self._mttr_samples)
                if self._mttr_samples
                else 0.0
            ),
            goodput=useful / self.now if self.now > 0 else 0.0,
            fault_trace=list(self.fault_log.entries),
            mttd=(
                sum(self._mttd_samples) / len(self._mttd_samples)
                if self._mttd_samples
                else 0.0
            ),
            false_suspicions=(
                self.detector.stats.false_suspicions
                if self.detector is not None
                else 0
            ),
            lost_pages=self.lost_page_count,
            handoffs=self.handoffs,
            handoffs_aborted=self.handoffs_aborted,
            handoff_seconds=self.handoff_seconds,
            metrics=(
                self.tracer.metrics.snapshot()
                if self.tracer is not None
                else {}
            ),
        )
