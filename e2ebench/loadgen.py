"""NDJSON load generator for the ``repro-eba serve`` daemon (one asyncio loop).

Requests are pipelined: each connection has one reader task that matches
response frames to requests by ``id``, so a slow request never holds
back the sending of later ones.  Streaming ``monitor`` requests complete
on their final (non-stream) frame.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: A stream reader's line limit (the daemon's explain frames are large).
_LINE_LIMIT = 1 << 24


@dataclass
class Sample:
    """One request and what came back for it."""

    id: int
    op: str
    params: Dict[str, Any]
    due: float = 0.0
    sent: float = 0.0
    done: Optional[float] = None
    frame: Optional[Dict[str, Any]] = None
    stream_events: int = 0
    future: Any = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.frame is not None and bool(self.frame.get("ok"))


class Connection:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: Dict[int, Sample] = {}
        self.task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, socket_path: str) -> "Connection":
        reader, writer = await asyncio.open_unix_connection(
            socket_path, limit=_LINE_LIMIT
        )
        return cls(reader, writer)

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            frame = json.loads(line)
            sample = self.pending.get(frame.get("id"))
            if sample is None:
                continue
            if frame.get("stream"):
                sample.stream_events += 1
                continue
            sample.done = time.perf_counter()
            sample.frame = frame
            del self.pending[sample.id]
            if not sample.future.done():
                sample.future.set_result(sample)
        for sample in self.pending.values():
            if not sample.future.done():
                sample.future.set_result(sample)
        self.pending.clear()

    def send(self, sample: Sample) -> None:
        sample.future = asyncio.get_running_loop().create_future()
        self.pending[sample.id] = sample
        sample.sent = time.perf_counter()
        frame = {"id": sample.id, "op": sample.op, "params": sample.params}
        self.writer.write(json.dumps(frame).encode("utf-8") + b"\n")

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass


async def _settle(samples: List[Sample], timeout: float) -> None:
    futures = [s.future for s in samples if s.future is not None]
    if futures:
        await asyncio.wait(futures, timeout=timeout)


async def sequential(socket_path: str, requests: List[Dict[str, Any]],
                     first_id: int, timeout: float) -> List[Sample]:
    """One caller: each request waits for the previous reply."""
    conn = await Connection.open(socket_path)
    samples = []
    try:
        for offset, request in enumerate(requests):
            sample = Sample(first_id + offset, request["op"],
                            request["params"])
            conn.send(sample)
            sample.due = sample.sent
            await _settle([sample], timeout)
            samples.append(sample)
    finally:
        await conn.close()
    return samples


async def open_loop(socket_path: str, schedule: List[Dict[str, Any]],
                    first_id: int, connections: int,
                    drain_timeout: float) -> List[Sample]:
    """Send each request at its scheduled offset, whatever is in flight.

    ``due`` is the scheduled send time, so a stall that delays later
    sends is charged to their latency; ``sent - due`` is how late the
    generator ran.
    """
    conns = [await Connection.open(socket_path) for _ in range(connections)]
    samples: List[Sample] = []
    try:
        start = time.perf_counter() + 0.05
        for index, request in enumerate(schedule):
            due = start + request["at"]
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sample = Sample(first_id + index, request["op"],
                            request["params"], due=due)
            conns[index % connections].send(sample)
            samples.append(sample)
        await _settle(samples, drain_timeout)
    finally:
        for conn in conns:
            await conn.close()
    return samples


async def closed_loop(socket_path: str, requests: List[Dict[str, Any]],
                      first_id: int, connections: int, seconds: float,
                      timeout: float):
    """*connections* callers, each sending its next request on a reply.

    Returns ``(samples, elapsed)``; callers draw from one shared list in
    order (cycling), so the request sequence is fixed by the inputs.
    """
    conns = [await Connection.open(socket_path) for _ in range(connections)]
    samples: List[Sample] = []
    cursor = itertools.count()
    deadline = time.perf_counter() + seconds

    async def caller(conn: Connection) -> None:
        for index in cursor:
            if time.perf_counter() >= deadline:
                return
            request = requests[index % len(requests)]
            sample = Sample(first_id + index, request["op"],
                            request["params"])
            conn.send(sample)
            sample.due = sample.sent
            samples.append(sample)
            await _settle([sample], timeout)

    started = time.perf_counter()
    try:
        await asyncio.gather(*(caller(conn) for conn in conns))
    finally:
        elapsed = time.perf_counter() - started
        for conn in conns:
            await conn.close()
    return samples, elapsed
