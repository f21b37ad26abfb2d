"""Streaming load generation against a pair of async PIR servers.

The serving loop is only interesting under *concurrent* traffic, so
this module models a population of independent clients:
:func:`generate_load` takes the index stream, splits it into
per-client requests (:meth:`~repro.pir.PirClient.query_many`), fires
them at both servers' :meth:`~repro.serve.loop.AsyncPirServer.submit`
concurrently — optionally paced to an offered QPS — and reconstructs
every answer, recording per-request latency.  The resulting
:class:`LoadReport` is what the tests and ``scripts/serve_smoke.py``
check answers, QPS and p50 / p99 against; it also carries the servers'
retry/failure deltas so a chaos scenario's recovery cost is
measurable.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.pir.client import PirClient, QueryBatch
from repro.serve.loop import AsyncPirServer, PirServerOverloaded


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one generated load session.

    Attributes:
        indices: The queried indices, in request order, for the
            requests that were *answered* (shed requests drop out).
        answers: ``(len(indices),)`` uint64 reconstructed table values,
            aligned with ``indices``.
        latencies_s: Per-request wall latency, aligned with the
            answered requests — measured from the request's *intended*
            release time to both replies reconstructed, so late
            releases under load count as latency rather than being
            coordinated-omission blind spots.
        shed: Queries rejected by admission control.
        retried: Queries the serving loops requeued after failed batch
            dispatches during this session (summed over both parties —
            the chaos scenario's recovery-overhead number).
        failed: Queries that exhausted their retry budget during this
            session (summed over both parties).
        wall_s: Wall time of the whole session.
        offered_qps: The pacing target (0 = unpaced burst).
    """

    indices: tuple[int, ...]
    answers: np.ndarray
    latencies_s: tuple[float, ...]
    shed: int
    retried: int
    failed: int
    wall_s: float
    offered_qps: float

    @property
    def answered(self) -> int:
        """Answered *queries* — same unit as ``shed``, so
        ``answered + shed`` equals the queries offered (when no request
        failed outright)."""
        return len(self.indices)

    @property
    def answered_requests(self) -> int:
        """Answered requests (one latency sample each)."""
        return len(self.latencies_s)

    @property
    def achieved_qps(self) -> float:
        """Answered queries per second of session wall time."""
        return self.answered / self.wall_s if self.wall_s > 0 else 0.0

    def latency_percentile_ms(self, pct: float) -> float:
        """Latency percentile in milliseconds (0 if nothing answered).

        Args:
            pct: Percentile in [0, 100].
        """
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.array(self.latencies_s), pct) * 1e3)

    @property
    def p50_ms(self) -> float:
        return self.latency_percentile_ms(50)

    @property
    def p99_ms(self) -> float:
        return self.latency_percentile_ms(99)


async def generate_load(
    client: PirClient,
    servers: Sequence[AsyncPirServer],
    indices: Sequence[int],
    queries_per_request: int = 1,
    offered_qps: float = 0.0,
) -> LoadReport:
    """Fire a stream of concurrent client requests and collect answers.

    Args:
        client: Query generator / reconstructor shared by the simulated
            client population (request ids stay distinct per request).
        servers: The two non-colluding parties' serving loops (must
            already be started).
        indices: Secret indices to retrieve, split into requests of
            ``queries_per_request`` in order.
        queries_per_request: Batch size each simulated client sends.
        offered_qps: Pacing target in *queries* per second; request
            ``i`` is released at ``i * queries_per_request /
            offered_qps``.  0 releases everything at once (a burst —
            maximum aggregation pressure).

    Returns:
        A :class:`LoadReport`; requests shed by admission control are
        counted, not retried client-side (server-side retries are the
        loops' business and surface in ``retried``).

    Raises:
        ValueError: If ``servers`` is not exactly the two parties.
    """
    if len(servers) != 2:
        raise ValueError(f"two-server PIR needs exactly 2 servers, got {len(servers)}")
    batches = client.query_many(indices, queries_per_request=queries_per_request)
    retried_before = sum(server.stats.retried for server in servers)
    failed_before = sum(server.stats.failed for server in servers)
    start = time.perf_counter()

    async def one(
        batch: QueryBatch, release_at: float
    ) -> tuple[QueryBatch, np.ndarray, float] | None:
        # Both parties are awaited to completion even when one sheds, so
        # no orphaned submission lingers in the other queue; the
        # surviving party's reply (work it cannot retract) is discarded.
        replies = await asyncio.gather(
            servers[0].submit(batch.requests[0]),
            servers[1].submit(batch.requests[1]),
            return_exceptions=True,
        )
        failures = [r for r in replies if isinstance(r, BaseException)]
        if failures:
            for failure in failures:
                if not isinstance(failure, PirServerOverloaded):
                    raise failure
            return None
        values = client.reconstruct(batch, replies[0], replies[1])
        # Latency is measured from the *intended* release time, not
        # from when this task got scheduled — a saturated event loop
        # that releases clients late must show up as latency, not be
        # silently absorbed (the coordinated-omission trap).
        return batch, values, time.perf_counter() - release_at

    tasks = []
    released = 0
    for batch in batches:
        if offered_qps > 0:
            release_at = start + released / offered_qps
            delay = release_at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        else:
            release_at = time.perf_counter()
        released += batch.batch_size
        tasks.append(asyncio.create_task(one(batch, release_at)))
    outcomes = await asyncio.gather(*tasks)
    wall = time.perf_counter() - start

    answered_indices: list[int] = []
    answer_chunks: list[np.ndarray] = []
    latencies: list[float] = []
    shed = 0
    for batch, outcome in zip(batches, outcomes):
        if outcome is None:
            shed += batch.batch_size
            continue
        done_batch, values, latency = outcome
        answered_indices.extend(done_batch.indices)
        answer_chunks.append(values)
        latencies.append(latency)
    answers = (
        np.concatenate(answer_chunks)
        if answer_chunks
        else np.zeros(0, dtype=np.uint64)
    )
    return LoadReport(
        indices=tuple(answered_indices),
        answers=answers,
        latencies_s=tuple(latencies),
        shed=shed,
        retried=sum(server.stats.retried for server in servers) - retried_before,
        failed=sum(server.stats.failed for server in servers) - failed_before,
        wall_s=wall,
        offered_qps=offered_qps,
    )
