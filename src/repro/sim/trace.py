"""Structured trace log for simulations.

Every state transition the runner performs (arrival, start, finish,
ECC application, dedicated promotion, ...) is recorded as a
:class:`TraceRecord`.  Tests use traces to assert *event-level*
invariants — e.g. "no job ever started before it arrived", "capacity
was never exceeded between any two consecutive records" — rather than
only end-of-run aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One audited simulation transition.

    Attributes:
        time: Simulation instant of the transition.
        kind: Short machine-readable tag (``"arrive"``, ``"start"``,
            ``"finish"``, ``"ecc"``, ``"promote"``, ...).
        data: Free-form payload (job ids, sizes, deltas).
    """

    time: float
    kind: str
    data: dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        payload = ", ".join(f"{k}={v!r}" for k, v in sorted(self.data.items()))
        return f"[{self.time:>10.1f}] {self.kind}({payload})"


class TraceLog:
    """Append-only trace with query helpers and an optional sink.

    Tracing can be disabled (``enabled=False``) for large sweeps; the
    API stays identical so call-sites never branch.  A ``sink`` — any
    callable taking one :class:`TraceRecord` — receives every record
    as it is produced; with ``store=False`` records go *only* to the
    sink, so streaming a long run to disk
    (:class:`repro.obs.trace_io.TraceWriter`) keeps memory flat.
    """

    def __init__(
        self,
        enabled: bool = True,
        *,
        sink: Optional[Callable[[TraceRecord], None]] = None,
        store: bool = True,
    ) -> None:
        self.enabled = enabled
        self.sink = sink
        self._store = store
        self._records: list[TraceRecord] = []

    def record(self, time: float, kind: str, **data: Any) -> None:
        """Append a record (no-op when tracing is disabled)."""
        if not self.enabled:
            return
        record = TraceRecord(time=time, kind=kind, data=data)
        if self._store:
            self._records.append(record)
        if self.sink is not None:
            self.sink(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._records[index]

    def of_kind(self, *kinds: str) -> list[TraceRecord]:
        """All records whose ``kind`` is among ``kinds``, in time order."""
        wanted = set(kinds)
        return [r for r in self._records if r.kind in wanted]

    def kinds(self) -> set[str]:
        """Set of distinct record kinds seen."""
        return {r.kind for r in self._records}

    def between(self, t0: float, t1: float) -> list[TraceRecord]:
        """Records with ``t0 <= time <= t1``."""
        return [r for r in self._records if t0 <= r.time <= t1]

    def is_time_ordered(self) -> bool:
        """True when record times are non-decreasing (sanity check)."""
        times = [r.time for r in self._records]
        return all(a <= b for a, b in zip(times, times[1:]))

    def extend(self, records: Iterable[TraceRecord]) -> None:
        """Bulk-append (used when merging sub-traces in tests)."""
        if not self.enabled:
            return
        if self.sink is not None:
            records = list(records)
            for record in records:
                self.sink(record)
        if self._store:
            self._records.extend(records)


__all__ = ["TraceLog", "TraceRecord"]
