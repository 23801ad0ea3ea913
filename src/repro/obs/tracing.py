"""Span-based tracing stamped with the simulation clock.

A *span* is one named, possibly-nested unit of work.  Every span carries
two clocks:

* the **simulation clock** (integer nanoseconds) — read from the clock
  callable the owning subsystem installs (the fleet engine points it at
  its event loop's current time), or ``None`` for spans outside any
  simulation (a sweep batch settling figure points has no sim time);
* a **wall clock** — a monotonic ``time.perf_counter`` duration, so the
  trace doubles as a profiler.  Wall durations vary run to run and are
  deliberately excluded from any determinism contract.

Spans are *observers only*: opening or closing one reads clocks and
appends to a list, so tracing cannot perturb the traced system (the
zero-perturbation guarantee in ``docs/OBSERVABILITY.md``).

Emission is canonical JSONL, one finished span per line, in completion
order (children before parents, like OpenTelemetry exporters).
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional


#: Canonical (sorted-key, compact) JSON of a plain structure, through
#: the package's one encoder: byte-identical to ``json.dumps(value,
#: sort_keys=True, separators=(",", ":"))``, which builds a fresh encoder
#: per call.  Defined here, the lowest layer that renders JSON, because
#: :mod:`repro.sim.cache` (which re-exports it) imports this package.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class Span:
    """One in-flight (or finished) traced operation."""

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start_sim_ns: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_sim_ns = start_sim_ns
        self.end_sim_ns: Optional[int] = None
        self.attrs = attrs
        self._start_wall = time.perf_counter()
        self.wall_seconds: Optional[float] = None

    def annotate(self, **attrs: Any) -> "Span":
        """Attach attributes after the span opened (chainable)."""
        self.attrs.update(attrs)
        return self

    # -- context manager protocol --------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able record of a finished span."""
        record: Dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "sim_ns": self.start_sim_ns,
            "sim_end_ns": self.end_sim_ns,
            "wall_ms": (
                None
                if self.wall_seconds is None
                else round(self.wall_seconds * 1e3, 6)
            ),
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class _NullSpan:
    """The disabled tracer's span: every operation is a no-op."""

    __slots__ = ()

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: Shared do-nothing span, handed out when tracing is disabled.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects nested spans; emits them as canonical JSONL.

    Single-threaded by design (the simulators are single-threaded):
    nesting is tracked with a plain stack, and span ids are sequential
    integers — deterministic across runs of the same workload.
    """

    def __init__(self) -> None:
        self._clock: Optional[Callable[[], Optional[int]]] = None
        self._stack: List[Span] = []
        self._finished: List[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    # Clock plumbing
    # ------------------------------------------------------------------
    def set_clock(
        self, clock: Optional[Callable[[], Optional[int]]]
    ) -> Optional[Callable[[], Optional[int]]]:
        """Install the simulation-clock reader; returns the previous one.

        Subsystems that own a simulated clock (the fleet engine) install a
        reader for the duration of their run and restore the previous one
        after, so nested simulations stamp their own time.
        """
        previous, self._clock = self._clock, clock
        return previous

    def _now_sim(self) -> Optional[int]:
        if self._clock is None:
            return None
        return self._clock()

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span (use as a context manager)."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            tracer=self,
            span_id=self._next_id,
            parent_id=parent,
            name=name,
            start_sim_ns=self._now_sim(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.wall_seconds = time.perf_counter() - span._start_wall
        span.end_sim_ns = self._now_sim()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # pragma: no cover - misuse guard (out-of-order exit)
            self._stack = [s for s in self._stack if s is not span]
        self._finished.append(span)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Finished spans, in completion order."""
        return list(self._finished)

    def __len__(self) -> int:
        return len(self._finished)

    def find(self, name: str) -> List[Span]:
        """Finished spans with the given name."""
        return [s for s in self._finished if s.name == name]

    def lines(self) -> List[str]:
        """Canonical JSONL lines, one finished span per line."""
        return [canonical_json(span.to_dict()) for span in self._finished]

    def write_jsonl(self, path: str) -> None:
        """Dump the trace as one canonical JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.lines():
                handle.write(line + "\n")
