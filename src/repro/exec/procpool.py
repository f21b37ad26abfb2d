"""Multi-process execution: real core-parallelism for shard workers.

Everything upstream of this module parallelizes inside one Python
process, so a sharded front-end walking its shards still runs them
sequentially on one core.  :class:`MultiProcessBackend` is the
:class:`~repro.exec.backend.ExecutionBackend` that finally crosses the
process boundary: a persistent pool of N worker processes, each holding
its own :class:`~repro.exec.plan_cache.PlanCache`, its own
:class:`~repro.exec.backend.SingleGpuBackend`, and (when installed) its
own resident slice of the table — the process-pool analogue of the
paper's one-GPU-per-shard deployment.

Three design rules keep it bit-exact and cheap on the wire:

* **Wire bytes cross the pipe, never pickled arrays.**  A batch ships
  as :meth:`~repro.gpu.arena.KeyArena.to_wire` output and the worker
  re-parses with the vectorized
  :meth:`~repro.gpu.arena.KeyArena.from_wire` — the same (round-trip
  property-tested) format the PIR wire layer already speaks, an order
  of magnitude denser than pickling the structure-of-arrays arena, and
  immune to pickle-protocol drift between parent and worker.
* **Workers are persistent.**  The pool starts once (lazily on first
  use, or eagerly via :meth:`start`) and each worker's plan cache and
  resident table slice survive across batches — the steady state does
  zero per-batch setup in the workers too.
* **The answer path is additive.**  :meth:`run` row-splits the batch
  across workers (each evaluates a contiguous key sub-batch; the
  parent concatenates — bit-exact because DPF rows are independent).
  :meth:`run_combined` goes further for the sharded serving path: the
  installed table slice is *column*-split across workers, each returns
  only its ``(B,)`` partial dot product, and the parent sums mod 2^64
  — tiny replies (8 bytes per query per worker) and exactly the
  partition-additivity argument :mod:`repro.serve.shard` already
  proves.

Fronted unchanged by :class:`~repro.serve.shard.ReplicaSet` /
:class:`~repro.serve.shard.ShardedPirServer`: the replica machinery
duck-types ``install_table`` / ``drop_table`` / ``run_combined``, so a
replica backed by this pool gets per-worker resident slices and the
combined fast path, while any other backend keeps the classic
run-then-dot path.  Worker exceptions are caught, serialized, and
re-raised in the parent as the typed :class:`WorkerFailure`, so retry /
eject / failover treat a crashed worker computation exactly like any
other backend fault.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection

import numpy as np

from repro.exec.backend import (
    ExecutionBackend,
    MultiGpuBackend,
    merged_cost,
)
from repro.exec.plan_cache import PlanCache
from repro.exec.request import EvalRequest, EvalResult, ExecutionPlan
from repro.gpu.device import DeviceSpec, V100


class WorkerFailure(RuntimeError):
    """A worker process raised while evaluating.

    Carries the original exception's type name and message so chaos
    and property tests can still tell a crypto ValueError from an
    injected fault; the parent's retry machinery treats it like any
    backend fault.
    """

    def __init__(self, worker: int, exc_type: str, message: str):
        super().__init__(f"worker {worker} failed: {exc_type}: {message}")
        self.worker = worker
        self.exc_type = exc_type


def _split_counts(total: int, parts: int) -> list[int]:
    """Near-equal split of ``total`` items over ``parts`` (may be 0s)."""
    base, extra = divmod(total, parts)
    return [base + (1 if index < extra else 0) for index in range(parts)]


def _worker_main(
    conn: multiprocessing.connection.Connection,
    device: DeviceSpec,
    cache_entries: int,
) -> None:
    """Worker loop: one backend + plan cache + resident slices, forever.

    Runs in the child process.  Every request arrives as wire bytes and
    is re-parsed with the vectorized ``from_wire``; every exception is
    serialized back instead of killing the worker, so one poisoned
    batch never takes the pool down.
    """
    # Imported here (not at module top-level use sites) only for
    # clarity: the child inherits the module via fork anyway.
    from repro.exec.backend import SingleGpuBackend
    from repro.gpu.arena import KeyArena

    backend = SingleGpuBackend(device)
    cache = PlanCache(max_entries=cache_entries)
    tables: dict[int, tuple[int, np.ndarray]] = {}

    def build_request(payload: tuple) -> EvalRequest:
        wire, prf_name, entry_bytes, resident, eval_range = payload
        return EvalRequest(
            keys=KeyArena.from_wire(wire),
            prf_name=prf_name,
            entry_bytes=entry_bytes,
            resident=resident,
            eval_range=eval_range,
        )

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        op = msg[0]
        if op == "stop":
            conn.send(("ok", None))
            return
        try:
            if op == "run":
                request = build_request(msg[1])
                result = cache.run(backend, request)
                answers = np.ascontiguousarray(result.answers)
                conn.send(("ok", (answers.tobytes(), answers.shape)))
            elif op == "install":
                _, epoch, lo, table_bytes = msg
                tables[epoch] = (lo, np.frombuffer(table_bytes, dtype=np.uint64))
                conn.send(("ok", None))
            elif op == "drop":
                tables.pop(msg[1], None)
                conn.send(("ok", None))
            elif op == "combined":
                request = build_request(msg[1])
                epoch = msg[2]
                lo, table_slice = tables[epoch]
                batch = request.arena().batch
                if table_slice.size == 0:
                    partial = np.zeros(batch, dtype=np.uint64)
                else:
                    restricted = request.restrict(lo, lo + table_slice.size)
                    partial = cache.run(backend, restricted).answers @ table_slice
                conn.send(("ok", partial.tobytes()))
            elif op == "cache_stats":
                stats = cache.stats
                conn.send(("ok", (stats.hits, stats.misses, stats.evictions)))
            else:
                conn.send(("err", "ValueError", f"unknown op {op!r}"))
        except Exception as exc:  # noqa: BLE001 — serialized to parent
            conn.send(("err", type(exc).__name__, str(exc)))


class MultiProcessBackend(ExecutionBackend):
    """A persistent worker-pool backend over N processes.

    Args:
        workers: Worker process count (>= 1).
        device: Modeled device each worker evaluates on; planning and
            ``model_latency_s`` price the pool as a ``workers``-way
            homogeneous fleet of this device.
        cache_entries: Each worker's :class:`PlanCache` LRU bound.

    The pool starts lazily on first use; call :meth:`start` to pay the
    fork eagerly (a serving loop should, from its main thread, before
    any executor threads exist).  Always :meth:`close` when done — the
    context-manager form does — though workers are daemonic, so a
    leaked pool cannot outlive the parent.
    """

    name = "multi_process"

    def __init__(
        self,
        workers: int = 2,
        device: DeviceSpec = V100,
        cache_entries: int = 32,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.device = device
        self.cache_entries = cache_entries
        self._model = MultiGpuBackend([device] * workers)
        self._procs: list[multiprocessing.Process] = []
        self._conns: list[multiprocessing.connection.Connection] = []
        self._tables: dict[int, tuple[int, int]] = {}
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self._procs)

    def start(self) -> None:
        """Fork the worker pool now (idempotent).

        Raises:
            RuntimeError: If the pool was already closed.
        """
        if self._closed:
            raise RuntimeError("cannot restart a closed MultiProcessBackend")
        if self._procs:
            return
        ctx = multiprocessing.get_context()
        for index in range(self.workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, self.device, self.cache_entries),
                name=f"pir-worker-{index}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def close(self) -> None:
        """Stop every worker and reap the processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            try:
                if conn.poll(1.0):
                    conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._procs = []
        self._conns = []

    def __enter__(self) -> "MultiProcessBackend":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_started(self) -> None:
        if not self._procs:
            self.start()

    # -- dispatch plumbing ---------------------------------------------

    @staticmethod
    def _payload(request: EvalRequest, arena_slice) -> tuple:
        return (
            arena_slice.to_wire(),
            request.prf_name,
            request.entry_bytes,
            request.resident,
            request.eval_range,
        )

    def _dispatch(self, messages: list[tuple[int, tuple]]) -> list:
        """Send each ``(worker, message)``; return the payloads in order.

        Every worker that *was* successfully sent to is always drained
        (even when another send or recv fails), so the pipes stay
        aligned for the next dispatch — a stale reply read against a
        later request would be a silent wrong answer.  The first
        failure — a dead worker's broken pipe at send, a closed pipe at
        recv, or a serialized worker exception — is re-raised as the
        typed :class:`WorkerFailure` so retry/eject machinery treats a
        crashed worker process like any other backend fault.
        """
        send_failures: list[tuple[int, BaseException]] = []
        sent: list[int] = []
        for worker, message in messages:
            try:
                self._conns[worker].send(message)
                sent.append(worker)
            except OSError as exc:
                send_failures.append((worker, exc))
        replies = []
        for index in sent:
            try:
                replies.append((index, self._conns[index].recv()))
            except (EOFError, OSError) as exc:
                replies.append((index, ("err", type(exc).__name__, str(exc))))
        if send_failures:
            worker, exc = send_failures[0]
            raise WorkerFailure(worker, type(exc).__name__, str(exc))
        for index, (status, *rest) in replies:
            if status != "ok":
                exc_type, message = rest
                raise WorkerFailure(index, exc_type, message)
        return [reply[1][1] for reply in replies]

    def _broadcast(self, message: tuple) -> list:
        """Send one message to every worker; collect every reply."""
        self._ensure_started()
        return self._dispatch([(worker, message) for worker in range(self.workers)])

    # -- the ExecutionBackend protocol ---------------------------------

    @property
    def plan_key(self) -> tuple:
        return (self.name, self.device.name, self.workers)

    def plan(self, request: EvalRequest) -> ExecutionPlan:
        """Price the pool as a homogeneous ``workers``-way fleet."""
        inner = self._model.plan(request)
        return ExecutionPlan(
            backend=self.name, resident=inner.resident, stats=inner.stats
        )

    def model_latency_s(
        self,
        batch_size: int,
        table_entries: int,
        prf_name: str = "aes128",
        resident: bool = False,
        entry_bytes: int = 8,
    ) -> float | None:
        return self._model.model_latency_s(
            batch_size,
            table_entries,
            prf_name=prf_name,
            resident=resident,
            entry_bytes=entry_bytes,
        )

    def run(self, request: EvalRequest) -> EvalResult:
        """Row-split the batch across workers; concatenate the answers.

        Each worker evaluates a contiguous sub-batch through its own
        plan cache.  Row independence of DPF evaluation makes the
        concatenation bit-exact to a single-process run; the property
        tests pin that against :class:`SingleGpuBackend` across
        ingest / residency / range combinations.  A reducer is a
        callable and cannot cross the pipe: the workers return their
        share matrices and it runs once, here, on the whole of them.
        """
        self._ensure_started()
        arena = request.arena()
        plan = self.plan(request)
        counts = _split_counts(arena.batch, min(self.workers, arena.batch))
        offsets: list[tuple[int, int, int]] = []  # (worker, lo, hi)
        row = 0
        for worker, count in enumerate(counts):
            if count:
                offsets.append((worker, row, row + count))
                row += count
        replies = self._dispatch(
            [
                (worker, ("run", self._payload(request, arena[lo:hi])))
                for worker, lo, hi in offsets
            ]
        )
        parts = [
            np.frombuffer(raw, dtype=np.uint64).reshape(shape)
            for raw, shape in replies
        ]
        answers = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return EvalResult(
            answers=request.reduced(answers),
            plan=plan,
            cost=merged_cost(plan.stats, eval_range=request.resolved_range()),
        )

    # -- the sharded-serving fast path (duck-typed by ReplicaSet) ------

    def install_table(self, epoch: int, lo: int, table_slice: np.ndarray) -> None:
        """Install one epoch's resident rows, column-split over workers.

        Worker ``w`` holds a contiguous sub-slice of ``table_slice``
        (rows ``[lo, lo + len))`` of the full table), so
        :meth:`run_combined` parallelizes over the *domain* dimension —
        each worker expands only its sub-range and dots locally.
        """
        self._ensure_started()
        table_slice = np.ascontiguousarray(np.asarray(table_slice, dtype=np.uint64))
        counts = _split_counts(int(table_slice.size), self.workers)
        messages = []
        col = 0
        for worker, count in enumerate(counts):
            part = table_slice[col : col + count]
            messages.append((worker, ("install", epoch, lo + col, part.tobytes())))
            col += count
        self._dispatch(messages)
        self._tables[epoch] = (lo, lo + int(table_slice.size))

    def drop_table(self, epoch: int) -> None:
        """Drop one epoch's resident rows from every worker."""
        if not self._procs:
            self._tables.pop(epoch, None)
            return
        self._broadcast(("drop", epoch))
        self._tables.pop(epoch, None)

    def run_combined(self, request: EvalRequest, epoch: int) -> np.ndarray:
        """``(B,)`` partial dot product against the installed rows.

        The whole batch's wire bytes go to every worker; each expands
        its own column sub-range (through its plan cache) and returns
        only the 8-bytes-per-query partial; the parent sums mod 2^64.
        Disjoint sub-ranges partition the installed range, so the sum
        is bit-identical to ``answers @ table_slice`` in one process.

        Raises:
            KeyError: ``epoch`` was never installed.
            ValueError: The request's ``eval_range`` does not match the
                installed rows (a control-plane bug, failed loudly).
            WorkerFailure: A worker raised while evaluating.
        """
        if epoch not in self._tables:
            raise KeyError(
                f"epoch {epoch} has no installed table on this pool"
            )
        lo, hi = self._tables[epoch]
        if request.resolved_range() != (lo, hi):
            raise ValueError(
                f"request covers rows {request.resolved_range()} but epoch "
                f"{epoch} installed rows [{lo}, {hi})"
            )
        # Workers re-restrict to their own sub-ranges; ship the request
        # unrestricted so each builds its sub-range view itself.
        unrestricted = EvalRequest(
            keys=request.arena(),
            prf_name=request.prf_name,
            entry_bytes=request.entry_bytes,
            resident=request.resident,
            _arena=request.arena(),
        )
        payload = self._payload(unrestricted, unrestricted.arena())
        replies = self._broadcast(("combined", payload, epoch))
        total = np.zeros(request.arena().batch, dtype=np.uint64)
        for raw in replies:
            np.add(total, np.frombuffer(raw, dtype=np.uint64), out=total)
        return total

    # -- observability -------------------------------------------------

    def worker_cache_stats(self) -> list[tuple[int, int, int]]:
        """Each worker's ``(hits, misses, evictions)``, in worker order."""
        return self._broadcast(("cache_stats",))
