"""Spans recorded from outside the program.

The tracer replaces module attributes that callers resolve at call time
(for example ``patchslide.stepper.solve_step_info``, which ``step`` looks
up in its module's globals) with wrappers that time each call.  Nothing
under ``src/`` changes; ``uninstall`` puts the original functions back.
Spans stay in memory until the harness takes them.
"""

from __future__ import annotations

import csv
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int
    run: int | None
    self_ns: int
    ok: bool
    info: object = None


@dataclass
class LayerStats:
    """What one layer did within one batch of spans."""

    count: int = 0
    errors: int = 0
    total_ns: int = 0
    self_ns: int = 0
    durations_ns: list = field(default_factory=list)
    infos: list = field(default_factory=list)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        # the harness sets this before each run so spans of one run share it
        self.run_id: int | None = None
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self, targets) -> None:
        """Wrap each (module, attribute, span name, info function) target.

        The info function, when given, receives the call's arguments and
        result and returns what the span should record about them (for
        example the solver's iteration count)."""
        for module, attr, name, info in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, info))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, name, info_fn):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                info = info_fn(args, result) if ok and info_fn is not None else None
                tracer.spans.append(
                    Span(sid, name, start, end, parent, tracer.run_id, dur - frame[1], ok, info)
                )

        return traced


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    out: dict[str, LayerStats] = {}
    for s in spans:
        st = out.get(s.name)
        if st is None:
            st = out[s.name] = LayerStats()
        st.count += 1
        st.errors += not s.ok
        dur = s.end_ns - s.start_ns
        st.total_ns += dur
        st.self_ns += s.self_ns
        st.durations_ns.append(dur)
        if s.info is not None:
            st.infos.append(s.info)
    return out


def write_spans(spans: list[Span], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("id", "name", "start_ns", "end_ns", "parent", "run", "self_ns", "ok"))
        for s in spans:
            w.writerow((s.sid, s.name, s.start_ns, s.end_ns, s.parent, s.run, s.self_ns, int(s.ok)))
