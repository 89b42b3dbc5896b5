"""Heterogeneous distributed shared memory (hDSM, Section 5.1).

Page-granularity MSI-style coherence across kernels:

* every page has an owner kernel and a set of kernels holding a valid
  copy;
* a read from a kernel without a valid copy fetches the page (one RPC +
  one page payload) and joins the sharer set;
* a write from a non-owner fetches + invalidates the other copies and
  takes ownership ("migrates pages in order to make subsequent memory
  accesses local");
* pages of *aliased* regions (per-ISA ``.text``, vDSO) are always local
  everywhere and never transferred — that is the memory-region aliasing
  the paper added for heterogeneity.

Bulk first-touch after a migration is served by :meth:`ensure_range`
with pipelined bandwidth-limited timing — the multithreaded page-pull
burst visible in Figure 11.

Coherence is per page, but the directory is stored per *extent*: a run
of consecutive pages in the same state is one entry of an
:class:`ExtentMap`, so bulk operations cost one step per run of pages
with the same state rather than one per page.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.linker.layout import PAGE_SIZE, page_of
from repro.runtime.address_space import AddressSpace

# Directory state of one extent: (owner, sharers, dirty, backup holder).
# ``sharers`` holds every kernel with a valid copy, owner included;
# ``dirty`` records a write through a coherence event (clean sole copies
# of a dead kernel are refetchable from the binary image, dirty ones are
# lost); ``backup`` names the kernel holding an out-of-band backup copy.
PageState = Tuple[str, FrozenSet[str], bool, Optional[str]]


class ExtentMap:
    """Sorted, non-overlapping extents ``[start, end)`` of page states.

    The map covers every page number: piece ``i`` spans
    ``[starts[i], starts[i + 1])`` (the last one is unbounded) and holds
    ``states[i]``, where ``None`` means untracked.  Neighbouring pieces
    never hold equal states, so a run of pages in one state is one piece
    however long it is.
    """

    def __init__(self):
        self.starts: List[int] = [0]
        self.states: List[object] = [None]

    def get(self, page: int):
        """State of ``page`` (``None`` if untracked)."""
        return self.states[bisect_right(self.starts, page) - 1]

    def pieces(self, lo: int, hi: int) -> List[Tuple[int, int, object]]:
        """``(start, end, state)`` runs covering ``[lo, hi)``, clipped,
        untracked gaps included."""
        starts, states = self.starts, self.states
        i = bisect_right(starts, lo) - 1
        last = len(starts) - 1
        out = []
        while True:
            end = starts[i + 1] if i < last else hi
            if end >= hi:
                out.append((lo, hi, states[i]))
                return out
            out.append((lo, end, states[i]))
            lo = end
            i += 1

    def assign(self, lo: int, hi: int, state) -> None:
        """Set every page of ``[lo, hi)`` to ``state``, splitting the
        pieces the range cuts and merging equal neighbours."""
        starts, states = self.starts, self.states
        i = bisect_left(starts, lo)
        j = bisect_right(starts, hi)
        tail = states[j - 1]  # the state in force at ``hi``
        new_starts, new_states = [], []
        if i == 0 or states[i - 1] != state:
            new_starts.append(lo)
            new_states.append(state)
        if tail != state:
            new_starts.append(hi)
            new_states.append(tail)
        starts[i:j] = new_starts
        states[i:j] = new_states

    def extents(self) -> List[Tuple[int, int, object]]:
        """``(start, end, state)`` of every tracked extent, in order."""
        starts, states = self.starts, self.states
        return [
            (starts[i], starts[i + 1], state)
            for i, state in enumerate(states) if state is not None
        ]

    def rewrite(self, fn: Callable[[int, int, object], object]) -> None:
        """Replace each tracked extent's state with ``fn(start, end,
        state)`` (``None`` untracks it), in page order, then merge."""
        starts, states = [], []
        old_starts = self.starts
        for i, state in enumerate(self.states):
            if state is not None:
                state = fn(old_starts[i], old_starts[i + 1], state)
            if states and states[-1] == state:
                continue
            starts.append(old_starts[i])
            states.append(state)
        self.starts, self.states = starts, states


class LostPageError(RuntimeError):
    """An access touched a page whose only valid copy died with a kernel.

    The directory scrub marks such pages *lost* instead of leaving a
    stale owner entry; faulting on one fails loudly (the alternative —
    silently serving zeros — would corrupt the computation invisibly).
    """

    def __init__(self, page: int, kernel: str, dead_kernel: str):
        super().__init__(
            f"page {page:#x} accessed from {kernel} was lost when its only "
            f"valid copy died with kernel {dead_kernel}"
        )
        self.page = page
        self.kernel = kernel
        self.dead_kernel = dead_kernel


@dataclass
class DsmStats:
    """Page-traffic counters, per process."""

    faults: int = 0
    page_transfers: int = 0
    invalidations: int = 0
    bytes_transferred: int = 0
    # Backup-home replication mode (opt-in ablation).
    backup_pushes: int = 0
    backup_bytes: int = 0

    def snapshot(self) -> "DsmStats":
        """An independent copy of the counters."""
        return DsmStats(
            self.faults,
            self.page_transfers,
            self.invalidations,
            self.bytes_transferred,
            self.backup_pushes,
            self.backup_bytes,
        )


@dataclass
class ScrubReport:
    """What a directory scrub did after one kernel's confirmed death."""

    dead_kernel: str
    dropped_copies: int = 0  # stale sharer entries removed
    reowned: int = 0  # ownership rebuilt from a surviving sharer
    reowned_from_backup: int = 0  # recovered via the backup-home copy
    refetchable: int = 0  # clean sole copies, refetchable from the image
    lost: int = 0  # dirty sole copies: marked lost, accesses fail loudly


def _local(state, kernel: str, write: bool) -> bool:
    """Can ``kernel`` access a page in ``state`` without a fault?"""
    if state is None:
        return True  # first touch anywhere is local (zero page)
    sharers = state[1]
    if write:
        return state[0] == kernel and len(sharers) == 1 and kernel in sharers
    return kernel in sharers


class DsmService:
    """Per-process page coherence across the replicated kernels."""

    def __init__(
        self,
        space: AddressSpace,
        messaging,
        home_kernel: str,
        machines: Optional[List[str]] = None,
        backup: bool = False,
    ):
        self.space = space
        self.messaging = messaging
        self.home = home_kernel
        # Aliased pages as intervals (state True), one per aliased VMA.
        self._aliased = ExtentMap()
        for vma in space.vmas():
            if vma.aliased:
                pages = vma.pages
                self._aliased.assign(pages.start, pages.stop, True)
        # The coherence directory: page extents -> PageState.  Untracked
        # pages (untouched zero pages) are owned by whoever touches them
        # first.  Backup copies are *not* coherence sharers: they never
        # serve faults, so MSI behaviour is unchanged by them.
        self._dir = ExtentMap()
        self.stats = DsmStats()
        # Monotonic epoch: bumped on every residency change; lets the
        # engine cache "this whole range is local" checks.
        self.epoch = 0
        # Kernels party to the most recent charged coherence operation
        # (requester, owners that served a copy, invalidated sharers,
        # backup targets).  The engine scopes interconnect-busy (IO
        # power) accounting to exactly these machines.
        self.last_parties: Tuple[str, ...] = ()
        # ---- crash recovery (all empty/off on the fault-free path) ----
        # Machine ring: determines where backup copies go.
        self.machines = list(machines) if machines else []
        # Opt-in dirty-page backup-home replication (ablation): every
        # dirtying coherence event pushes the page to the owner's ring
        # successor, trading steady-state wire bandwidth for lost work.
        self.backup = bool(backup) and len(self.machines) > 1
        # page -> dead kernel whose crash lost the page.
        self.lost_pages: Dict[int, str] = {}
        self._dead: Set[str] = set()
        self.scrubs: List[ScrubReport] = []

    # ----------------------------------------------------------- faults

    def is_local(self, kernel: str, page: int, write: bool) -> bool:
        """Can ``kernel`` read (or write) ``page`` without a coherence
        fault?  Aliased and untouched pages are local everywhere."""
        if self._aliased.get(page):
            return True
        return _local(self._dir.get(page), kernel, write)

    def access(self, kernel: str, addr: int, write: bool) -> float:
        """Account one access; returns fault service time in seconds."""
        page = page_of(addr)
        if self.lost_pages and page in self.lost_pages:
            raise LostPageError(page, kernel, self.lost_pages[page])
        self.last_parties = (kernel,)
        if self._aliased.get(page):
            return 0.0
        state = self._dir.get(page)
        if not _local(state, kernel, write):
            return self._fault(kernel, page, write)
        home = self._touch_local(kernel, page, page + 1, state, write)
        return 0.0 if home is None else self._push_backup(kernel, home)

    def _touch_local(
        self, kernel: str, lo: int, hi: int, state, write: bool
    ) -> Optional[str]:
        """Record a fault-free touch of ``[lo, hi)``, all in ``state``.

        A first touch takes ownership; a first *write* marks the pages
        dirty (the engine's residency cache guarantees the first write
        of a page reaches the directory, so dirtiness tracking at
        coherence granularity is complete).  Returns the backup home
        each page must be pushed to, or ``None``.
        """
        if state is None:
            home = self._backup_home(kernel) if write else None
            self._dir.assign(lo, hi, (kernel, frozenset((kernel,)), write, home))
            return home
        if not write:
            return None
        owner, sharers, _dirty, backup = state
        home = self._backup_home(kernel) if backup is None else None
        new = (owner, sharers, True, backup if home is None else home)
        if new != state:
            self._dir.assign(lo, hi, new)
        return home

    def _backup_home(self, owner: str) -> Optional[str]:
        """The live ring successor that backs up ``owner``'s dirty pages
        (``None`` when backup replication is off or impossible)."""
        machines = self.machines
        if not self.backup or owner not in machines:
            return None
        target = machines[(machines.index(owner) + 1) % len(machines)]
        return None if target in self._dead else target

    def _push_backup(self, owner: str, target: str) -> float:
        """Replicate one dirty page to the owner's ring successor."""
        self.stats.backup_pushes += 1
        self.stats.backup_bytes += PAGE_SIZE
        self.last_parties = tuple(
            sorted(set(self.last_parties) | {owner, target})
        )
        return self.messaging.send("dsm.backup", owner, target, PAGE_SIZE)

    def _fault(self, kernel: str, page: int, write: bool) -> float:
        owner, sharers, dirty, backup = self._dir.get(page)
        if self.messaging.chaos is not None:
            if self.messaging.chaos_step(
                "dsm.page", faulter=kernel, owner=owner
            ):
                # The step crashed a kernel; the directory has been
                # scrubbed under our feet.  Re-dispatch from scratch.
                from repro.kernel.kernel import KernelCrashed

                if kernel in self.messaging.fenced:
                    raise KernelCrashed(kernel)
                return self.access(kernel, page * PAGE_SIZE, write)
        self.stats.faults += 1
        cost = 0.0
        invalidated = 0
        # The page payload crosses the wire only when the faulting
        # kernel holds no valid copy.  A write to a page it already
        # shares (S->M upgrade, or the owner with stale sharers) costs
        # invalidation traffic only — no page transfer, no self-RPC.
        transferred = kernel not in sharers
        parties = {kernel}
        if transferred:
            parties.add(owner)
        if write:
            parties.update(k for k in sharers if k != kernel)
        self.last_parties = tuple(sorted(parties))
        if transferred:
            cost += self.messaging.rpc(
                "dsm.page", kernel, owner, request_bytes=32,
                reply_bytes=PAGE_SIZE,
            )
            self.stats.page_transfers += 1
            self.stats.bytes_transferred += PAGE_SIZE
        if write:
            # Invalidate all other copies and take ownership.
            others = [k for k in sharers if k != kernel]
            if others:
                cost += self.messaging.broadcast(
                    "dsm.inval", kernel, others, payload_bytes=32
                )
                self.stats.invalidations += len(others)
                invalidated = len(others)
            home = self._backup_home(kernel)
            self._dir.assign(page, page + 1, (
                kernel, frozenset((kernel,)), True,
                backup if home is None else home,
            ))
            if home is not None:
                cost += self._push_backup(kernel, home)
        else:
            self._dir.assign(
                page, page + 1, (owner, sharers | {kernel}, dirty, backup)
            )
        self.epoch += 1
        tracer = getattr(self.messaging, "tracer", None)
        if tracer is not None:
            tracer.complete(
                "dsm.page", "dsm", tracer.now(), cost, track=kernel,
                page=page, owner=owner, write=write,
                bytes=PAGE_SIZE if transferred else 0,
                invalidations=invalidated,
            )
            metrics = tracer.metrics
            metrics.counter("dsm.page_faults").inc()
            if transferred:
                metrics.counter("dsm.bytes").inc(PAGE_SIZE)
            if invalidated:
                metrics.counter("dsm.invalidations").inc(invalidated)
            metrics.histogram("dsm.fault_s").observe(cost)
        return cost

    # ------------------------------------------------------------- bulk

    def ensure_range(self, kernel: str, base: int, span: int, write: bool) -> Tuple[float, int]:
        """Make [base, base+span) locally accessible from ``kernel``.

        Returns (seconds, pages_transferred).  Transfers are pipelined:
        one round-trip of latency plus bandwidth-limited payload time,
        modelling the multithreaded hDSM pulling pages in bulk.  The
        range is classified and rewritten one extent at a time, and
        every count is the extent length times the per-page amount, so
        the accounting equals that of one ``access`` per page.
        """
        if span <= 0:
            return (0.0, 0)
        first = page_of(base)
        last = page_of(base + span - 1)
        if self.lost_pages:
            for lost_page, dead in self.lost_pages.items():
                if first <= lost_page <= last:
                    raise LostPageError(lost_page, kernel, dead)
        touched = []  # fault-free runs a touch may change: (lo, hi, state)
        missing = []  # runs that fault: (lo, hi, state)
        for lo, hi, aliased in self._aliased.pieces(first, last + 1):
            if aliased:
                continue
            for piece in self._dir.pieces(lo, hi):
                state = piece[2]
                if not _local(state, kernel, write):
                    missing.append(piece)
                elif write or state is None:
                    touched.append(piece)
        if self.messaging.chaos is not None:
            owners = sorted({state[0] for _lo, _hi, state in missing})
            if self.messaging.chaos_step(
                "dsm.bulk", puller=kernel,
                **{f"owner{i}": o for i, o in enumerate(owners)},
            ):
                from repro.kernel.kernel import KernelCrashed

                if kernel in self.messaging.fenced:
                    raise KernelCrashed(kernel)
                return self.ensure_range(kernel, base, span, write)
        cost = 0.0
        self.last_parties = (kernel,)
        for lo, hi, state in touched:
            home = self._touch_local(kernel, lo, hi, state, write)
            if home is not None:
                for _ in range(hi - lo):
                    cost += self._push_backup(kernel, home)
        if not missing:
            return (cost, 0)
        parties = set(self.last_parties)
        faults = 0
        transfers = 0
        backups = 0
        invalidated = 0
        inval_groups = set()
        home = self._backup_home(kernel) if write else None
        own_copy = frozenset((kernel,))
        for lo, hi, (owner, sharers, dirty, backup) in missing:
            pages = hi - lo
            faults += pages
            parties.add(owner)
            # Same accounting as a sequence of single faults: a page the
            # kernel already shares (write upgrade) moves no payload.
            if kernel not in sharers:
                transfers += pages
            if write:
                others = sharers - own_copy
                if others:
                    # Invalidation *counts* match the single-fault path
                    # (one per stale copy), but the messages are batched:
                    # a bulk pull invalidates a contiguous range with one
                    # range-invalidate broadcast per distinct sharer
                    # group, not one message per page.
                    inval_groups.add(others)
                    parties.update(others)
                    invalidated += len(others) * pages
                if home is not None:
                    parties.add(home)
                    backups += pages
                    backup = home
                self._dir.assign(lo, hi, (kernel, own_copy, True, backup))
            else:
                self._dir.assign(
                    lo, hi, (owner, sharers | own_copy, dirty, backup)
                )
        self.stats.invalidations += invalidated
        for group in sorted(inval_groups, key=sorted):
            cost += self.messaging.broadcast(
                "dsm.inval", kernel, sorted(group), payload_bytes=32
            )
        self.last_parties = tuple(sorted(parties))
        # One logical fault per missing page — the bulk path is cheaper
        # than N single faults only in *time* (one round trip of latency
        # amortised over a pipelined burst), never in *accounting*.
        self.stats.faults += faults
        self.stats.page_transfers += transfers
        self.stats.bytes_transferred += transfers * PAGE_SIZE
        if transfers:
            interconnect = self.messaging.interconnect
            cost += (
                interconnect.latency_s * 2
                + (transfers * (PAGE_SIZE + 64)) / interconnect.bandwidth_bytes_per_s
                + interconnect.per_message_cpu_s
            )
            self.messaging.record_bulk("dsm.bulk", transfers, PAGE_SIZE + 64)
        if backups:
            # Backup pushes ride the same pipelined burst: one extra
            # page payload per dirtied page to the ring successor.
            interconnect = self.messaging.interconnect
            cost += (
                (backups * (PAGE_SIZE + 64)) / interconnect.bandwidth_bytes_per_s
                + interconnect.per_message_cpu_s
            )
            self.messaging.record_bulk("dsm.backup", backups, PAGE_SIZE + 64)
            self.stats.backup_pushes += backups
            self.stats.backup_bytes += backups * PAGE_SIZE
        self.epoch += 1
        tracer = getattr(self.messaging, "tracer", None)
        if tracer is not None:
            tracer.complete(
                "dsm.bulk", "dsm", tracer.now(), cost, track=kernel,
                pages=faults, transfers=transfers,
                bytes=transfers * PAGE_SIZE, write=write,
                invalidations=invalidated,
            )
            metrics = tracer.metrics
            metrics.counter("dsm.bulk_pulls").inc()
            metrics.counter("dsm.page_faults").inc(faults)
            metrics.counter("dsm.bytes").inc(transfers * PAGE_SIZE)
            if invalidated:
                metrics.counter("dsm.invalidations").inc(invalidated)
            metrics.histogram("dsm.bulk_s").observe(cost)
        return (cost, transfers)

    # ------------------------------------------------------- inspection

    def extents(self) -> List[Tuple[int, int, PageState]]:
        """``(start, end, state)`` of every tracked directory extent."""
        return self._dir.extents()

    def _page_view(self, field: int) -> Dict[int, object]:
        """Per-page dict of one ``PageState`` field, untracked and
        ``None`` values left out."""
        view: Dict[int, object] = {}
        for lo, hi, state in self._dir.extents():
            if state[field] is not None:
                view.update(dict.fromkeys(range(lo, hi), state[field]))
        return view

    def owner_map(self) -> Dict[int, str]:
        """Per-page view: page -> owner kernel (built on each call)."""
        return self._page_view(0)

    def valid_map(self) -> Dict[int, FrozenSet[str]]:
        """Per-page view: page -> kernels holding a valid copy (built on
        each call)."""
        return self._page_view(1)

    def backup_map(self) -> Dict[int, str]:
        """Per-page view: page -> kernel holding its backup copy (built
        on each call)."""
        return self._page_view(3)

    def dirty_pages(self) -> Set[int]:
        """Per-page view: tracked pages dirtied by a coherence event
        (built on each call)."""
        dirty: Set[int] = set()
        for lo, hi, state in self._dir.extents():
            if state[2]:
                dirty.update(range(lo, hi))
        return dirty

    def resident_pages(self, kernel: str) -> int:
        """Number of pages ``kernel`` holds a valid copy of."""
        return sum(
            hi - lo for lo, hi, state in self._dir.extents()
            if kernel in state[1]
        )

    def owner_of(self, addr: int) -> Optional[str]:
        """Owner kernel of the page holding ``addr`` (``None`` if the
        page is untouched or aliased)."""
        state = self._dir.get(page_of(addr))
        return None if state is None else state[0]

    def all_threads_migrated_cleanup(self, kernel: str) -> int:
        """Drop residual copies once no thread runs on ``kernel``.

        "After migration, the process's data is kept on the source
        kernel until there are residual dependencies."  Returns the
        number of copies dropped.
        """
        dropped = 0
        drop = frozenset((kernel,))

        def without(lo, hi, state):
            nonlocal dropped
            owner, sharers, dirty, backup = state
            if kernel not in sharers or owner == kernel:
                return state
            dropped += hi - lo
            return (owner, sharers - drop, dirty, backup)

        self._dir.rewrite(without)
        if dropped:
            self.epoch += 1
        return dropped

    # ---------------------------------------------------- crash recovery

    def scrub_dead_kernel(self, dead: str) -> ScrubReport:
        """Reconcile the directory after ``dead``'s confirmed death.

        Ownership is reconstructed from surviving sharers (smallest
        kernel name wins, deterministically).  Sole copies are recovered
        from their backup-home replica when one exists; otherwise clean
        pages revert to untouched (their content is refetchable from
        the binary image) and dirty pages are marked *lost* — any later
        access raises :class:`LostPageError` instead of reading zeros.
        Backup copies stored *on* the dead kernel die with it.
        """
        report = ScrubReport(dead)
        self._dead.add(dead)
        gone = frozenset((dead,))

        def scrub(lo, hi, state):
            pages = hi - lo
            owner, sharers, dirty, backup = state
            if backup == dead:
                backup = None
            if dead in sharers:
                sharers = sharers - gone
                if owner != dead:
                    report.dropped_copies += pages
            if owner != dead:
                return (owner, sharers, dirty, backup)
            if sharers:
                report.reowned += pages
                return (min(sharers), sharers, dirty, backup)
            if backup is not None and backup not in self._dead:
                # The backup holder becomes the new owner; the copy it
                # holds is the page as of its last replication.
                report.reowned_from_backup += pages
                return (backup, frozenset((backup,)), dirty, backup)
            if dirty:
                self.lost_pages.update(dict.fromkeys(range(lo, hi), dead))
                report.lost += pages
            else:
                # Never dirtied: content is still the loaded image, so
                # the next toucher re-materialises it like a first touch.
                report.refetchable += pages
            return None

        self._dir.rewrite(scrub)
        self.scrubs.append(report)
        # Residency caches across the system are stale now.
        self.epoch += 1
        tracer = getattr(self.messaging, "tracer", None)
        if tracer is not None:
            tracer.instant(
                "dsm.scrub", "fault", track=dead, dead=dead,
                dropped=report.dropped_copies, reowned=report.reowned,
                from_backup=report.reowned_from_backup,
                refetchable=report.refetchable, lost=report.lost,
            )
            tracer.metrics.counter("dsm.scrubs").inc()
            if report.lost:
                tracer.metrics.counter("dsm.lost_pages").inc(report.lost)
        return report

    def references_kernel(self, kernel: str) -> bool:
        """Does any directory entry still route at ``kernel``?"""
        return any(
            state[0] == kernel or kernel in state[1]
            for _lo, _hi, state in self._dir.extents()
        )
