"""Open-loop load generator: one connection, task *i* sent at ``start + i/rate``.

The schedule ignores the trace's arrival times and the service's replies, so
a slow service meets the same offered load and its backlog grows.  Every
latency is timed from the request's *due* time, which charges a generator
stall to the requests it delayed, and the generator's own lateness is
reported so a run that could not keep its schedule is visible.

A task's first decision comes only when a later submission advances the
virtual clock, so its latency is mostly the send schedule and the trace: the
next send, and for a task that waits unmapped, as many sends as its wait
spans in virtual time.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field


@dataclass
class PhaseOutcome:
    """Client-side record of one open-loop phase."""

    due: list[float]
    sent: list[float]
    accepted: list[float | None]
    first_decision: list[float | None]
    rejected: int = 0
    errors: list[dict] = field(default_factory=list)
    decisions: list[dict] = field(default_factory=list)
    closed: dict | None = None
    end: float = 0.0

    def decided(self) -> list[float]:
        return [t for t in self.first_decision if t is not None]

    def first_decision_ms(self) -> list[float]:
        """Due time to first decision; an undecided task counts until the phase ended."""
        return [
            ((decided if decided is not None else self.end) - due) * 1e3
            for due, decided in zip(self.due, self.first_decision)
        ]

    def throughput(self) -> float:
        """Tasks decided per second, from the first send to the last first decision."""
        decided = self.decided()
        return len(decided) / (max(decided) - self.sent[0]) if decided else 0.0

    def undecided(self) -> int:
        return sum(t is None for t in self.first_decision)


async def open_loop(reader, writer, specs, rate: float, timeout: float) -> PhaseOutcome:
    """Send ``specs`` at ``rate``/s, then ``flush`` and ``close``; collect every event."""
    from repro.serve.protocol import decode_line, encode_line, spec_to_payload

    n = len(specs)
    lines = [encode_line({"op": "submit", "task": spec_to_payload(s)}) for s in specs]
    index_of = {spec.task_id: i for i, spec in enumerate(specs)}
    start = time.perf_counter() + 0.05
    out = PhaseOutcome(
        due=[start + i / rate for i in range(n)],
        sent=[0.0] * n,
        accepted=[None] * n,
        first_decision=[None] * n,
    )
    flushed = asyncio.Event()
    closed = asyncio.Event()

    async def collect() -> None:
        while True:
            line = await reader.readline()
            now = time.perf_counter()
            if not line:
                # EOF: release the sender; ``closed`` stays None, a failure.
                flushed.set()
                closed.set()
                return
            event = decode_line(line)
            kind = event.get("event")
            if kind == "decision":
                out.decisions.append(event)
                i = index_of[event["task_id"]]
                if out.first_decision[i] is None:
                    out.first_decision[i] = now
            elif kind == "accepted":
                if event["accepted"]:
                    out.accepted[index_of[event["task_id"]]] = now
                else:
                    out.rejected += 1
            elif kind == "flushed":
                flushed.set()
            elif kind == "closed":
                out.closed = event
                closed.set()
                return
            else:
                out.errors.append(event)

    async def send() -> None:
        for i, line in enumerate(lines):
            delay = out.due[i] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            writer.write(line)
            out.sent[i] = time.perf_counter()
            await writer.drain()
        delay = start + n / rate - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        writer.write(encode_line({"op": "flush"}))
        await writer.drain()
        await flushed.wait()
        writer.write(encode_line({"op": "close"}))
        await writer.drain()
        await closed.wait()

    collector = asyncio.create_task(collect())
    try:
        await asyncio.wait_for(send(), timeout)
    except asyncio.TimeoutError:
        out.errors.append({"event": "timeout", "seconds": timeout})
    finally:
        out.end = time.perf_counter()
        collector.cancel()
        try:
            await collector
        except asyncio.CancelledError:
            pass
    return out
