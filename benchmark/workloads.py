"""The four served-PIR workloads: parameters, seeded inputs, server stacks.

Everything the program under test sees is generated here from the
``--seed`` argument: tables, secret indices, DPF key randomness, the
open-loop arrival schedule and the update tables.  The stacks are built
the way a user gets them, through public constructors with default
arguments except where a workload names a value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.pir import FRAME_HEADER_BYTES, PirClient, PirQuery, PirServer, QueryBatch
from repro.serve import AsyncPirServer, ShardedPirServer

CLOSED, OPEN = "closed", "open"


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one stack.

    ``ladder_batch`` is the batch size the layer ladder is timed at: the
    batch the workload's traffic is expected to form per dispatch.
    """

    name: str
    prf: str
    log_domain: int
    traffic: str
    queries_per_request: int
    pool_requests: int
    ladder_batch: int
    serve: bool = True
    shards: int = 0
    clients: int = 0
    rate_rps: float = 0.0
    update_every_s: float = 0.0

    @property
    def domain(self) -> int:
        return 1 << self.log_domain


WORKLOADS = {
    w.name: w
    for w in (
        # Saturation: 64 callers that each wait for a reply keep every
        # batch pinned at the default max_batch of 64.
        Workload("serve_sat", "aes128", 10, CLOSED, 1, 256, 64, clients=64),
        # Independent users on serve_sat's own stack: 40 requests/s is
        # ~35 % busy even if every request were dispatched alone
        # (4.7 ms per party at B=1), so batches stay ~1-2 keys and
        # deadline-flushed and only latency can move.  At L=2^12 a lone
        # request costs 25-40 ms of the shared thread, 40-60 requests/s
        # is past the knee, and mean latency is bimodal run to run.
        Workload("serve_paced", "aes128", 10, OPEN, 1, 256, 2, rate_rps=40.0),
        # Writes beside reads: the recsys multi-lookup shape (4 keys per
        # request) over two shards, with a table flip every 5 s.
        Workload(
            "sharded_update", "aes128", 10, CLOSED, 4, 64, 64,
            shards=2, clients=16, update_every_s=5.0,
        ),
        # The paper's large-table / large-batch regime as far as numpy
        # allows: one caller, no serving loop, the other fast PRF.
        Workload(
            "offline_batch", "siphash", 16, CLOSED, 32, 4, 32, serve=False, clients=1
        ),
    )
}


@dataclass(frozen=True)
class Scale:
    """How much of a workload one run does besides ``--seconds``."""

    warmup_s: float
    setup_repeats: int
    pool_keys: int | None  # None: the workload's own pool size
    offline_log_domain: int | None  # None: the workload's own table size
    update_every_s: float | None  # None: the workload's own period


SCALES = {
    "full": Scale(2.0, 5, None, None, None),
    # Tier-1 smoke: same code paths, a fraction of the work.
    "smoke": Scale(0.2, 1, 64, 12, 0.25),
}


def scaled(spec: Workload, scale: Scale) -> Workload:
    """``spec`` with the scale's reductions applied."""
    changes = {}
    if scale.pool_keys is not None:
        changes["pool_requests"] = scale.pool_keys // spec.queries_per_request
    if scale.offline_log_domain is not None and not spec.serve:
        changes["log_domain"] = scale.offline_log_domain
    if scale.update_every_s is not None and spec.update_every_s:
        changes["update_every_s"] = scale.update_every_s
    return replace(spec, **changes)


def _rng(seed: int, spec: Workload, stream: int) -> np.random.Generator:
    """One independent generator per (seed, workload, purpose)."""
    return np.random.default_rng([seed, list(WORKLOADS).index(spec.name), stream])


def make_table(seed: int, spec: Workload, epoch: int) -> np.ndarray:
    """The table published as ``epoch`` (epoch 0 is the initial table)."""
    return _rng(seed, spec, 2 + epoch).integers(
        0, 1 << 64, size=spec.domain, dtype=np.uint64
    )


def make_schedule(seed: int, spec: Workload, warmup_s: float, seconds: float) -> np.ndarray:
    """Open-loop due times, in seconds from the start of the warm-up.

    A Poisson process conditioned on its count (sorted uniforms), drawn
    separately for the warm-up and the measured window, so every seed
    offers exactly ``rate_rps * seconds`` measured requests and the
    schedule's own count noise stays out of the metrics.
    """
    rng = _rng(seed, spec, 1)
    spans = ((0.0, warmup_s), (warmup_s, seconds))
    return np.concatenate(
        [
            start + np.sort(rng.random(round(spec.rate_rps * length))) * length
            for start, length in spans
        ]
    )


@dataclass
class Inputs:
    """Everything generated from the seed for one workload."""

    spec: Workload
    seed: int
    table: np.ndarray
    client: PirClient
    pool: list[QueryBatch]
    gen_s: float

    @property
    def keys(self) -> int:
        return len(self.pool) * self.spec.queries_per_request


def make_inputs(seed: int, spec: Workload) -> Inputs:
    """Table, secret indices and the pre-generated key pool.

    The pool is cycled during a run: the program keeps no per-query
    cache, so a repeated key costs what a fresh one does.
    """
    table = make_table(seed, spec, 0)
    rng = _rng(seed, spec, 0)
    indices = rng.integers(0, spec.domain, size=spec.pool_requests * spec.queries_per_request)
    client = PirClient(spec.domain, spec.prf, rng=rng)
    start = time.perf_counter()
    pool = client.query_many(indices, queries_per_request=spec.queries_per_request)
    return Inputs(spec, seed, table, client, pool, time.perf_counter() - start)


def reframe(batch: QueryBatch, epoch: int) -> QueryBatch:
    """The same keys pinned to another table epoch (keys are reused)."""
    frames = tuple(
        PirQuery(
            request_id=batch.request_id,
            count=batch.batch_size,
            key_bytes=frame[FRAME_HEADER_BYTES:],
            epoch=epoch,
        ).to_bytes()
        for frame in batch.requests
    )
    return replace(batch, requests=frames, epoch=epoch)


class Stack:
    """Both parties' servers for one workload, in one process.

    ``servers`` are the synchronous parties; ``loops`` wrap them in the
    serving loop for the serving workloads and are empty otherwise.  Each
    party holds its own copy of the table; ``inputs.table`` stays the
    checker's oracle.
    """

    def __init__(self, inputs: Inputs, tracer=None):
        spec = inputs.spec
        if spec.shards:
            self.servers = [
                ShardedPirServer(
                    inputs.table.copy(), shards=spec.shards, prf_name=spec.prf
                )
                for _ in range(2)
            ]
        else:
            self.servers = [
                PirServer(inputs.table.copy(), prf_name=spec.prf) for _ in range(2)
            ]
        self.loops = (
            [AsyncPirServer(server, tracer=tracer) for server in self.servers]
            if spec.serve
            else []
        )

    async def start(self) -> None:
        for loop in self.loops:
            await loop.start()

    async def stop(self) -> None:
        for loop in self.loops:
            await loop.stop()
