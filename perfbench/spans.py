"""Host wall-clock spans around repro's public layer functions.

The benchmark times each layer from outside the program: :class:`SpanRecorder`
replaces a public function or method with a wrapper that records a span
(name, start, end, parent, trace id) and restores the original on exit.
The program's own code is untouched, so an unwrapped run is the untraced
baseline.

Calls that happen tens of thousands of times per pass (policy decisions,
telemetry span writes, event-queue operations, admission checks, detector
observations) are timed and counted the same way but are folded into
their parent span as ``{name: [calls, seconds]}`` instead of being stored
one by one, so the trace of a serving pass stays a few thousand records.

A layer's self time is its spans' duration minus the time covered by their
direct child spans.  Because the benchmark is single-threaded, children
nest strictly inside their parent, so the covered time is the sum of the
children's durations.
"""

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class Hook:
    """One function to wrap.

    ``owner`` is the module or class holding ``attr``.  Calls are timed
    under ``span`` (several hooks may share one span name, e.g. the three
    ``Tracer`` entry points) and counted under ``span/attr``.  ``hot`` calls
    are aggregated into their parent instead of stored.  ``note`` gets
    ``(counters, args, result)`` after each call to add argument-derived
    counts such as pages classified.
    """

    def __init__(self, owner, attr: str, span: str, hot: bool = False,
                 note: Optional[Callable] = None):
        self.owner = owner
        self.attr = attr
        self.span = span
        self.hot = hot
        self.note = note

    @property
    def count_key(self) -> str:
        return f"{self.span}/{self.attr}"


class SpanRecorder:
    """Collects spans and per-span totals while its hooks are installed."""

    def __init__(self, hooks: List[Hook]):
        self.hooks = hooks
        # Stored spans: (trace_id, span_id, parent_id, name, start, end,
        # folded hot children {name: [calls, seconds]}).
        self.spans: List[Tuple] = []
        # span name -> [inclusive seconds, self seconds]; inclusive time
        # counts only the outermost active call of a name.
        self.times: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self._stack: List[list] = []
        self._active: Dict[str, int] = {}
        self._trace_id = ""
        self._next_id = 1
        self._saved: List[Tuple[object, str, object]] = []
        self.origin = _clock()

    # ------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every hook's function in place (all or none)."""
        try:
            for hook in self.hooks:
                original = _own_attr(hook.owner, hook.attr)
                self._saved.append((hook.owner, hook.attr, original))
                setattr(hook.owner, hook.attr, self._wrap(hook, original))
        except AttributeError:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original function back, newest wrapper first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------- spans

    @contextmanager
    def trace(self, trace_id: str, name: str):
        """Open a root span for one program or cell under ``trace_id``."""
        previous = self._trace_id
        self._trace_id = trace_id
        frame = self._enter(name, hot=False)
        try:
            yield
        finally:
            self._exit(frame)
            self._trace_id = previous

    def _enter(self, name: str, hot: bool) -> list:
        parent = self._stack[-1] if self._stack else None
        span_id = 0
        if not hot:
            span_id = self._next_id
            self._next_id += 1
        # [name, span_id, parent frame, start, child seconds, folded, hot]
        frame = [name, span_id, parent, 0.0, 0.0, None, hot]
        self._stack.append(frame)
        self._active[name] = self._active.get(name, 0) + 1
        frame[3] = _clock()
        return frame

    def _exit(self, frame: list) -> None:
        end = _clock()
        name, span_id, parent, start, child_s, folded, hot = frame
        self._stack.pop()
        duration = end - start
        self._active[name] -= 1
        times = self.times.setdefault(name, [0.0, 0.0])
        if not self._active[name]:
            times[0] += duration
        times[1] += duration - child_s
        if parent is not None:
            parent[4] += duration
            if hot:
                if parent[5] is None:
                    parent[5] = {}
                agg = parent[5].setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += duration
        if not hot:
            parent_id = parent[1] if parent is not None else 0
            self.spans.append((
                self._trace_id, span_id, parent_id, name,
                start - self.origin, end - self.origin, folded,
            ))

    def _wrap(self, hook: Hook, original):
        enter, exit_ = self._enter, self._exit
        counts = self.counts
        span, hot, note, key = hook.span, hook.hot, hook.note, hook.count_key

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = enter(span, hot)
            try:
                result = original(*args, **kwargs)
            finally:
                exit_(frame)
            counts[key] = counts.get(key, 0) + 1
            if note is not None:
                note(counts, args, result)
            return result

        return wrapper

    # ------------------------------------------------------- results

    def inclusive(self, name: str) -> float:
        return self.times.get(name, (0.0, 0.0))[0]

    def self_time(self, name: str) -> float:
        return self.times.get(name, (0.0, 0.0))[1]

    def count(self, key: str) -> float:
        return self.counts.get(key, 0)

    def write(self, path, extra: Optional[Dict] = None) -> None:
        """Write the stored spans, per-span self times and ``extra`` as
        JSON."""
        records = [
            {
                "trace": trace_id, "id": span_id, "parent": parent_id,
                "name": name, "start_s": round(start, 9),
                "end_s": round(end, 9),
                **({"folded": folded} if folded else {}),
            }
            for trace_id, span_id, parent_id, name, start, end, folded
            in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({**(extra or {}), "self_s": {
                name: round(times[1], 9)
                for name, times in sorted(self.times.items())
            }, "spans": records}, fh, indent=0)
            fh.write("\n")


def _own_attr(owner, attr: str):
    """The function stored on ``owner`` itself under ``attr``.

    An inherited method is refused: wrapping it on a subclass would leave
    the subclass with its own copy after :meth:`SpanRecorder.uninstall`.
    """
    if attr not in vars(owner):
        raise AttributeError(
            f"{getattr(owner, '__name__', owner)} does not define {attr!r}"
        )
    return vars(owner)[attr]
