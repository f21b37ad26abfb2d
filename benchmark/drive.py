"""Load generation and answer checking for one measured phase.

The generator, both parties and the checker share one process, one
thread and one event loop: there is no socket front end to put between
them.  Every reconstructed answer is compared with the table of the
epoch its request was pinned to; one mismatch raises
:class:`WrongAnswer`, which aborts the run before any metric exists.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from benchmark.workloads import OPEN, Inputs, Stack, make_schedule, make_table, reframe


class WrongAnswer(Exception):
    """A reconstructed answer differs from the table row it asked for."""


@dataclass
class Outcome:
    """What one measured window produced (the warm-up is discarded)."""

    attempted: int = 0  # requests sent inside the window
    failed: int = 0  # of those: shed, typed failure or exception
    failures: dict[str, int] = field(default_factory=dict)
    queries: int = 0  # correctly answered queries
    wire_bytes: int = 0  # request + reply frames of both parties
    latencies_s: list[float] = field(default_factory=list)
    sent_s: list[float] = field(default_factory=list)  # when each latency began
    late_s: list[float] = field(default_factory=list)  # open loop: send - due
    updates_s: list[float] = field(default_factory=list)  # update due -> flipped
    wall_s: float = 0.0


class Session:
    """One stack under one workload's traffic."""

    def __init__(self, inputs: Inputs, stack: Stack):
        self.inputs = inputs
        self.spec = inputs.spec
        self.stack = stack
        self.pool = inputs.pool
        self.tables = {0: inputs.table}
        self.outcome = Outcome()
        self._in_flight: dict[int, int] = {}  # pinned epoch -> open requests
        self.measure_from = 0.0
        self._last_done = 0.0

    async def _exchange(self, frames: tuple[bytes, bytes]) -> list[bytes]:
        """One request frame to each party; both reply frames back."""
        if not self.stack.loops:
            return [
                server.handle(frame) for server, frame in zip(self.stack.servers, frames)
            ]
        # Both parties run to completion even when one fails, so no
        # orphaned submission lingers in the other's queue.
        replies = await asyncio.gather(
            *(loop.submit(frame) for loop, frame in zip(self.stack.loops, frames)),
            return_exceptions=True,
        )
        for reply in replies:
            if isinstance(reply, BaseException):
                raise reply
        return replies

    async def request(self, slot: int, timed_from: float, measured: bool) -> None:
        """Send pool entry ``slot`` to both parties, reconstruct, check."""
        batch = self.pool[slot % len(self.pool)]
        out = self.outcome
        if measured:
            out.attempted += 1
        self._in_flight[batch.epoch] = self._in_flight.get(batch.epoch, 0) + 1
        try:
            replies = await self._exchange(batch.requests)
            values = self.inputs.client.reconstruct(batch, *replies)
        except Exception as exc:  # whatever a caller would see as "failed"
            if measured:
                out.failed += 1
                name = type(exc).__name__
                out.failures[name] = out.failures.get(name, 0) + 1
            return
        finally:
            self._in_flight[batch.epoch] -= 1
        done = time.perf_counter()
        expected = self.tables[batch.epoch][list(batch.indices)]
        if not np.array_equal(values, expected):
            raise WrongAnswer(
                f"{self.spec.name}: request {batch.request_id} at epoch "
                f"{batch.epoch} reconstructed {values.tolist()}, table holds "
                f"{expected.tolist()}"
            )
        if measured:
            out.queries += batch.batch_size
            out.wire_bytes += sum(map(len, batch.requests)) + sum(map(len, replies))
            out.latencies_s.append(done - timed_from)
            out.sent_s.append(timed_from)
            self._last_done = max(self._last_done, done)

    async def run(self, warmup_s: float, seconds: float) -> Outcome:
        """Warm up, measure for ``seconds``, return the window's outcome."""
        start = time.perf_counter()
        self.measure_from = self._last_done = start + warmup_s
        stop = self.measure_from + seconds
        if self.spec.traffic == OPEN:
            traffic = [self._arrivals(start, warmup_s, seconds)]
        else:
            traffic = [self._caller(first, stop) for first in range(self.spec.clients)]
        tasks = [asyncio.create_task(coro) for coro in traffic]
        if self.spec.update_every_s:
            tasks.append(asyncio.create_task(self._writer(start, stop)))
        try:
            await asyncio.gather(*tasks[: len(traffic)])
        finally:
            # A wrong answer in one caller ends the phase for all.
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        self.outcome.wall_s = self._last_done - self.measure_from
        return self.outcome

    async def _caller(self, first: int, stop: float) -> None:
        """Closed loop: the next request goes out when the reply is in."""
        slot = first
        sent_any = False
        while (now := time.perf_counter()) < stop or not sent_any:
            measured = now >= self.measure_from
            await self.request(slot, now, measured)
            sent_any = sent_any or measured
            slot += self.spec.clients

    async def _arrivals(self, start: float, warmup_s: float, seconds: float) -> None:
        """Open loop: requests leave on schedule whatever the backlog."""
        tasks = []
        try:
            for slot, due in enumerate(
                make_schedule(self.inputs.seed, self.spec, warmup_s, seconds)
            ):
                delay = start + due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                measured = due >= warmup_s
                if measured:
                    self.outcome.late_s.append(time.perf_counter() - (start + due))
                # Latency runs from the due time, so a stalled generator
                # charges the wait to the requests it delayed.
                tasks.append(
                    asyncio.create_task(self.request(slot, start + due, measured))
                )
            await asyncio.gather(*tasks)
        finally:
            for task in tasks:
                task.cancel()

    async def _writer(self, start: float, stop: float) -> None:
        """Publish a new table every ``update_every_s`` on both parties."""
        servers = self.stack.servers
        epoch = 0
        while True:
            epoch += 1
            due = start + epoch * self.spec.update_every_s
            if due >= stop:
                return
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            # The servers retain two epochs, so publishing the next one
            # retires the one before the current: wait out its requests.
            while any(n for pinned, n in self._in_flight.items() if pinned < epoch - 1):
                await asyncio.sleep(0.001)
            table = make_table(self.inputs.seed, self.spec, epoch)
            for server in servers:
                server.begin_update(table.copy())
            for shard in range(self.spec.shards):
                for server in servers:
                    server.ingest_shard(shard)
                await asyncio.sleep(0)  # serving continues between shards
            for server in servers:
                server.flip()
            # Callers learn the new epoch at once: later requests carry
            # the same keys, framed for the new table.
            self.tables[epoch] = table
            self.pool = [reframe(batch, epoch) for batch in self.inputs.pool]
            if due >= self.measure_from:
                # Timed from the due time: the wait for a dispatch that
                # holds the event loop is part of what an update costs.
                self.outcome.updates_s.append(time.perf_counter() - due)
