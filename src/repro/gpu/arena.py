"""Persistent key arenas: stacked key material for the serving hot path.

A server answering a stream of PIR batches spends its constant factors
*around* the cryptography: re-packing `DpfKey` objects into stacked
arrays on every ``eval_batch`` call, re-stacking per fused batch,
and — worst of all — building one Python object per wire key before any
vectorized work can start.  :class:`KeyArena` removes all three:

* :meth:`KeyArena.from_keys` stacks key objects once (the former
  private ``_stack_keys`` in :mod:`repro.gpu.strategies`).
* :meth:`KeyArena.generate` is the client's side of the same idea: one
  batched tree walk (:func:`repro.dpf.dpf.gen_batch`) lands both
  parties' keys in arenas, and :meth:`KeyArena.to_wire` frames them —
  no key object on the way out either.
* :meth:`KeyArena.from_wire` parses a concatenated buffer of ``DPF3``
  records (:func:`repro.dpf.keys.pack_keys`) with one ``np.frombuffer``,
  a fixed-stride reshape and one ``np.unpackbits`` of the packed
  control bits — zero per-key Python object construction.
* Slicing (``arena[a:b]``) returns *views*, so a fused batch splits
  back into its requests (:meth:`repro.exec.EvalRequest.unmerge`)
  without copying a byte.

On the modeled device the arena is what stays resident in global memory
between batches (the kernel plans' ``resident_bytes``), which is what
lets the resident-keys serving mode amortize ``host_bytes_in`` to zero.

:class:`ExpansionWorkspace` is the companion scratch discipline: the
ping-pong frontier and tile buffers (and the cipher staging copy) that
the expansion loops would otherwise reallocate per call, kept alive and
grown on demand across repeated ``eval_batch`` invocations — PR 2's AES
scratch workspace, lifted to the expansion loop.  A thread walks in one
(:func:`thread_workspace`), whatever servers, shards and replicas it serves.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.crypto.prf import SEED_BYTES, Prf, prf_wire_id
from repro.dpf.dpf import gen_batch
from repro.dpf.ggm import LEAF_WORDS, log2_ceil, tree_depth
from repro.dpf.keys import (
    HEADER_BYTES,
    _HEADER_FMT,
    _MAGIC,
    _bit_bytes,
    _read_header,
    _record_size,
    CorrectionWord,
    DpfKey,
    split_wire,
)

_OUTPUT_CW = slice(10, 10 + 8 * LEAF_WORDS)
"""Header bytes of the output-correction words (after magic, party, PRF
id and the 4-byte domain)."""
_ROOT = slice(HEADER_BYTES, HEADER_BYTES + SEED_BYTES)
"""Record bytes of the root seed, right after the header."""


def _headers_agree(mat: np.ndarray) -> bool:
    """Every record row has party 0 or 1 and the first row's magic, PRF
    id and domain (header bytes 0-3 and 5-9)."""
    return bool(
        (mat[:, 4] <= 1).all()
        and (mat[:, :4] == mat[0, :4]).all()
        and (mat[:, 5:10] == mat[0, 5:10]).all()
    )

KeySource = Union["KeyArena", Sequence[DpfKey], bytes, bytearray, memoryview]
"""Anything a batch entry point accepts as key material: an arena
(used as-is), a sequence of key objects (stacked), or a concatenated
wire buffer (parsed vectorized).  :meth:`KeyArena.ingest` is the single
normalization point."""


@dataclass(frozen=True, eq=False)
class KeyArena:
    """A batch of same-domain DPF keys in structure-of-arrays layout.

    This is the layout every strategy's vectorized traversal consumes
    directly, and the layout that would be uploaded once per batch to a
    real device.  All arrays share the leading batch axis; slicing the
    arena slices them as views.

    Attributes:
        batch: Number of keys B.
        depth: Levels n of the word-packed tree,
            ``tree_depth(domain_size)`` (one fewer than the keys'
            ``log_domain`` from two rows up).
        domain_size: Addressable table rows L (shared by every key).
        prf_name: PRF registry name (shared by every key).
        roots: ``(B, 16)`` uint8 root seeds.
        root_ts: ``(B,)`` uint8 root control bits.
        cw_seeds: ``(B, n, 16)`` uint8 correction seeds.
        cw_t_left: ``(B, n)`` uint8 left control-bit corrections.
        cw_t_right: ``(B, n)`` uint8 right control-bit corrections.
        output_cws: ``(B, 2)`` uint64 output correction words, one per
            row of a leaf.
        negate: ``(B,)`` bool — party-1 rows get sign-flipped.
    """

    batch: int
    depth: int
    domain_size: int
    prf_name: str
    roots: np.ndarray
    root_ts: np.ndarray
    cw_seeds: np.ndarray
    cw_t_left: np.ndarray
    cw_t_right: np.ndarray
    output_cws: np.ndarray
    negate: np.ndarray

    # -- construction --------------------------------------------------

    @classmethod
    def from_keys(cls, keys: list[DpfKey], prf_name: str | None = None) -> "KeyArena":
        """Stack key objects into an arena.

        Args:
            keys: Non-empty batch of same-domain, same-PRF keys.
            prf_name: When given, the PRF the evaluator will use; a
                mismatch raises instead of silently diverging.

        Raises:
            ValueError: On an empty batch, mixed domains/PRFs, or a
                ``prf_name`` mismatch.
        """
        if not keys:
            raise ValueError("need at least one key")
        first = keys[0]
        want_prf = prf_name if prf_name is not None else first.prf_name
        for key in keys:
            if key.prf_name != want_prf:
                raise ValueError(
                    f"key was generated for PRF {key.prf_name!r} but evaluation "
                    f"uses {want_prf!r}; the parties would not reconstruct"
                )
            if key.domain_size != first.domain_size:
                raise ValueError("all keys in a batch must share the same domain")
        b, n = len(keys), first.depth
        if n:
            cw_seeds = np.array(
                [[cw.seed for cw in key.correction_words] for key in keys],
                dtype=np.uint8,
            ).reshape(b, n, 16)
            cw_bits = np.array(
                [
                    [(cw.t_left, cw.t_right) for cw in key.correction_words]
                    for key in keys
                ],
                dtype=np.uint8,
            ).reshape(b, n, 2)
            cw_tl = np.ascontiguousarray(cw_bits[:, :, 0])
            cw_tr = np.ascontiguousarray(cw_bits[:, :, 1])
        else:
            cw_seeds = np.zeros((b, 0, 16), dtype=np.uint8)
            cw_tl = np.zeros((b, 0), dtype=np.uint8)
            cw_tr = np.zeros((b, 0), dtype=np.uint8)
        return cls(
            batch=b,
            depth=n,
            domain_size=first.domain_size,
            prf_name=want_prf,
            roots=np.stack([k.root_seed for k in keys]),
            root_ts=np.array([k.root_t for k in keys], dtype=np.uint8),
            cw_seeds=cw_seeds,
            cw_t_left=cw_tl,
            cw_t_right=cw_tr,
            output_cws=np.array([k.output_cw for k in keys], dtype=np.uint64),
            negate=np.array([k.party == 1 for k in keys]),
        )

    @classmethod
    def generate(
        cls,
        alphas: Sequence[int] | np.ndarray,
        domain_size: int,
        prf: Prf,
        rng: np.random.Generator,
        beta: int | Sequence[int] | np.ndarray = 1,
    ) -> tuple["KeyArena", "KeyArena"]:
        """Generate keys for ``alphas`` straight into the two parties' arenas.

        One :func:`repro.dpf.dpf.gen_batch` walk (same arguments, same
        errors); arena ``p`` is server ``p``'s and row ``i`` of each is
        the key for ``alphas[i]``.  No per-key object is built: the
        correction arrays are shared by both arenas.
        """
        batch = gen_batch(alphas, domain_size, prf, rng, beta)
        count = len(batch)
        return tuple(
            cls(
                batch=count,
                depth=batch.cw_seeds.shape[1],
                domain_size=domain_size,
                prf_name=batch.prf_name,
                roots=np.ascontiguousarray(batch.roots[:, party]),
                root_ts=np.full(count, party, dtype=np.uint8),
                cw_seeds=batch.cw_seeds,
                cw_t_left=batch.cw_t_left,
                cw_t_right=batch.cw_t_right,
                output_cws=batch.output_cws,
                negate=np.full(count, party == 1),
            )
            for party in (0, 1)
        )

    @classmethod
    def from_wire(cls, data: bytes) -> "KeyArena":
        """Parse a concatenated wire buffer into an arena, vectorized.

        The buffer is :func:`repro.dpf.keys.pack_keys` output:
        back-to-back ``DPF3`` records of one fixed size (it follows from
        the shared domain), whether they came in one frame or were
        concatenated from several.  The whole parse is one
        ``np.frombuffer`` + fixed-stride reshape + column slices and one
        ``np.unpackbits`` of the control bits; no per-key Python objects
        are built.  The checks are vectorized too: every record carries
        the first one's magic, PRF id and domain, a party of 0 or 1 and
        zero padding bits.  A buffer that fails them is handed to
        :func:`repro.dpf.keys.split_wire`, which walks it record by
        record to name the first bad one.

        Raises:
            ValueError: On an empty or truncated buffer, a bad or retired
                magic, an invalid party byte, an unknown PRF id, non-zero
                padding bits, or records that do not all share the first
                record's domain and PRF.
        """
        if len(data) < HEADER_BYTES:
            raise ValueError("truncated DPF key batch")
        _, prf_name, domain_size, _, record = _read_header(data)
        depth = tree_depth(domain_size)
        seeds_end = _ROOT.stop + SEED_BYTES * depth
        b, tail = divmod(len(data), record)
        mat = np.frombuffer(data, dtype=np.uint8, count=b * record).reshape(b, record)
        bits = np.unpackbits(mat[:, seeds_end:], axis=1, bitorder="little")
        if tail or bits[:, 2 * depth :].any() or (b > 1 and not _headers_agree(mat)):
            split_wire(data)  # raises, naming the first bad record
            raise ValueError("malformed DPF key batch")

        parties = mat[:, 4]
        output_cws = (
            np.ascontiguousarray(mat[:, _OUTPUT_CW]).view("<u8").astype(np.uint64, copy=False)
        )
        pairs = bits[:, : 2 * depth].reshape(b, depth, 2)
        return cls(
            batch=b,
            depth=depth,
            domain_size=domain_size,
            prf_name=prf_name,
            roots=np.ascontiguousarray(mat[:, _ROOT]),
            root_ts=parties.copy(),
            cw_seeds=np.ascontiguousarray(mat[:, _ROOT.stop : seeds_end]).reshape(
                b, depth, SEED_BYTES
            ),
            cw_t_left=np.ascontiguousarray(pairs[:, :, 0]),
            cw_t_right=np.ascontiguousarray(pairs[:, :, 1]),
            output_cws=output_cws,
            negate=parties == 1,
        )

    @classmethod
    def ingest(cls, source: KeySource, prf_name: str | None = None) -> "KeyArena":
        """Normalize any accepted key source into a non-empty arena.

        This is the one batch-entry point the execution stack shares:
        strategies and the :mod:`repro.exec` backends all route their
        ``keys`` argument through it instead of each re-implementing the
        arena/objects/wire dispatch.

        Args:
            source: An existing arena (returned as-is after validation),
                a sequence of :class:`DpfKey` objects (stacked via
                :meth:`from_keys`), or concatenated wire bytes (parsed
                via :meth:`from_wire`).
            prf_name: When given, the PRF the evaluator will use; a
                mismatch raises instead of silently diverging.

        Raises:
            ValueError: On an empty source, malformed wire bytes, mixed
                domains/PRFs, or a ``prf_name`` mismatch.
            TypeError: On a source of an unsupported type.
        """
        if isinstance(source, KeyArena):
            if source.batch == 0:
                raise ValueError("need at least one key")
            arena = source
        elif isinstance(source, (bytes, bytearray, memoryview)):
            arena = cls.from_wire(bytes(source))
        elif isinstance(source, Sequence) and not isinstance(source, str):
            return cls.from_keys(list(source), prf_name=prf_name)
        else:
            # str is a Sequence but never key material — reject it here
            # rather than dying on str.prf_name inside from_keys.
            raise TypeError(
                f"cannot ingest keys from {type(source).__name__}; pass a "
                "KeyArena, a sequence of DpfKey, or wire bytes"
            )
        if prf_name is not None:
            arena.require_prf(prf_name)
        return arena

    @classmethod
    def concat(cls, arenas: Sequence["KeyArena"]) -> "KeyArena":
        """Stack several same-shape arenas into one merged batch.

        This is the aggregation primitive the serving loop uses to fuse
        many concurrent clients' key batches into one kernel-sized
        batch: key ``i`` of arena ``j`` becomes row
        ``sum(len(arenas[:j])) + i`` of the result, so callers can slice
        the merged answers back out by offset.  The copy is one
        ``np.concatenate`` per field — no per-key Python objects.

        Args:
            arenas: Non-empty sequence of arenas sharing the same
                domain, depth, and PRF.  A single arena is returned
                as-is (no copy).

        Raises:
            ValueError: On an empty sequence or arenas whose domains or
                PRFs disagree (the merged batch would be meaningless).
        """
        if not arenas:
            raise ValueError("need at least one arena")
        first = arenas[0]
        for arena in arenas[1:]:
            if (arena.domain_size, arena.depth) != (first.domain_size, first.depth):
                raise ValueError("all arenas in a merge must share the same domain")
            if arena.prf_name != first.prf_name:
                raise ValueError("all arenas in a merge must share the same PRF")
        if len(arenas) == 1:
            return first
        return cls(
            batch=sum(arena.batch for arena in arenas),
            depth=first.depth,
            domain_size=first.domain_size,
            prf_name=first.prf_name,
            roots=np.concatenate([a.roots for a in arenas]),
            root_ts=np.concatenate([a.root_ts for a in arenas]),
            cw_seeds=np.concatenate([a.cw_seeds for a in arenas]),
            cw_t_left=np.concatenate([a.cw_t_left for a in arenas]),
            cw_t_right=np.concatenate([a.cw_t_right for a in arenas]),
            output_cws=np.concatenate([a.output_cws for a in arenas]),
            negate=np.concatenate([a.negate for a in arenas]),
        )

    # -- views and round trips -----------------------------------------

    def to_wire(self) -> bytes:
        """Serialize back to the concatenated wire format, vectorized.

        The exact inverse of :meth:`from_wire` (and byte-identical to
        ``pack_keys(arena.to_keys())``), built as one ``(B, record)``
        uint8 matrix with column assignments — no per-key Python
        objects.  This is how the PIR client frames a generated batch
        for the wire; a server re-parses it with the vectorized
        ``from_wire``.
        """
        b, depth = self.batch, self.depth
        seeds_end = _ROOT.stop + SEED_BYTES * depth
        mat = np.empty((b, _record_size(depth)), dtype=np.uint8)
        # Header template with party and output_cw zeroed; both are
        # overwritten column-wise below.
        mat[:, :HEADER_BYTES] = np.frombuffer(
            struct.pack(
                _HEADER_FMT, _MAGIC, 0, prf_wire_id(self.prf_name), self.domain_size, 0, 0
            ),
            dtype=np.uint8,
        )
        mat[:, 4] = self.negate
        mat[:, _OUTPUT_CW] = np.ascontiguousarray(self.output_cws, dtype="<u8").view(
            np.uint8
        )
        mat[:, _ROOT] = self.roots
        mat[:, _ROOT.stop : seeds_end] = self.cw_seeds.reshape(b, SEED_BYTES * depth)
        bits = np.zeros((b, 8 * _bit_bytes(depth)), dtype=np.uint8)
        bits[:, 0 : 2 * depth : 2] = self.cw_t_left
        bits[:, 1 : 2 * depth : 2] = self.cw_t_right
        mat[:, seeds_end:] = np.packbits(bits, axis=1, bitorder="little")
        return mat.tobytes()

    def __eq__(self, other: object) -> bool:
        """Field-for-field equality (array fields compared by value)."""
        if not isinstance(other, KeyArena):
            return NotImplemented
        scalars = ("batch", "depth", "domain_size", "prf_name")
        arrays = (
            "roots",
            "root_ts",
            "cw_seeds",
            "cw_t_left",
            "cw_t_right",
            "output_cws",
            "negate",
        )
        return all(getattr(self, f) == getattr(other, f) for f in scalars) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in arrays
        )

    def __len__(self) -> int:
        return self.batch

    def __getitem__(self, index: slice) -> "KeyArena":
        """Zero-copy shard: every array of the result views this arena."""
        if not isinstance(index, slice):
            raise TypeError("KeyArena supports slice indexing only")
        roots = self.roots[index]
        return KeyArena(
            batch=roots.shape[0],
            depth=self.depth,
            domain_size=self.domain_size,
            prf_name=self.prf_name,
            roots=roots,
            root_ts=self.root_ts[index],
            cw_seeds=self.cw_seeds[index],
            cw_t_left=self.cw_t_left[index],
            cw_t_right=self.cw_t_right[index],
            output_cws=self.output_cws[index],
            negate=self.negate[index],
        )

    @property
    def nbytes(self) -> int:
        """Bytes of stacked key material (the device-resident footprint)."""
        return (
            self.roots.nbytes
            + self.root_ts.nbytes
            + self.cw_seeds.nbytes
            + self.cw_t_left.nbytes
            + self.cw_t_right.nbytes
            + self.output_cws.nbytes
            + self.negate.nbytes
        )

    def require_prf(self, prf_name: str) -> None:
        """Raise unless the arena's keys were generated for ``prf_name``."""
        if self.prf_name != prf_name:
            raise ValueError(
                f"key was generated for PRF {self.prf_name!r} but evaluation "
                f"uses {prf_name!r}; the parties would not reconstruct"
            )

    def to_keys(self) -> list[DpfKey]:
        """The per-key objects (object-ingest callers, tests, debugging)."""
        keys = []
        for i in range(self.batch):
            cws = [
                CorrectionWord(
                    seed=self.cw_seeds[i, level].copy(),
                    t_left=int(self.cw_t_left[i, level]),
                    t_right=int(self.cw_t_right[i, level]),
                )
                for level in range(self.depth)
            ]
            keys.append(
                DpfKey(
                    party=1 if self.negate[i] else 0,
                    domain_size=self.domain_size,
                    log_domain=log2_ceil(self.domain_size),
                    root_seed=self.roots[i].copy(),
                    root_t=int(self.root_ts[i]),
                    correction_words=cws,
                    output_cw=tuple(self.output_cws[i].tolist()),
                    prf_name=self.prf_name,
                )
            )
        return keys


class ExpansionWorkspace:
    """Grow-on-demand scratch buffers for repeated ``eval_batch`` calls.

    Each breadth-first expansion loop ping-pongs its frontier between
    two flat buffer pairs of its own slot.  Every loop shares one buffer
    for a level's seed corrections (or a tile's leaf products) and one
    for a contiguous copy of a parent frontier that a range clip left
    strided, because both are dead once the level is written.  Without
    a workspace those buffers are reallocated on every call; a server
    evaluating batch after batch against the same arena passes one
    workspace instead and the buffers persist, growing monotonically to
    the largest shape seen.  A call with a reducer takes nothing more:
    each tile's leaves are converted in place, in the words of the
    tile's own seeds, so no share matrix and no separate window exists.

    Buffers are handed out as prefix views, and every expansion loop
    fully overwrites a view before reading it, so reuse cannot leak
    state between calls (``test_workspace_reuse_is_bit_identical``).
    The returned shares are *never* workspace-backed, so results stay
    valid after the next call.  One walk runs at a time on a workspace,
    so each thread walks in its own (:func:`thread_workspace`), and a
    reducer must not start another walk on its thread: its ``shares``
    are the workspace's.
    """

    def __init__(self):
        self._frontiers: dict[str, tuple[np.ndarray, ...]] = {}
        self._scratch = np.empty(0, dtype=np.uint64)
        self._stage = np.empty((0, 16), dtype=np.uint8)

    @property
    def nbytes(self) -> int:
        """Total bytes currently retained across all slots."""
        total = sum(sum(a.nbytes for a in bufs) for bufs in self._frontiers.values())
        return total + self._scratch.nbytes + self._stage.nbytes

    def frontier(self, name: str, even: int, odd: int) -> tuple[np.ndarray, ...]:
        """Flat ping-pong buffers for one expansion loop.

        Flat, so that a level's ``(B, W)`` frontier is the leading
        ``B * W`` nodes of a buffer, reshaped: an exact-shape contiguous
        view, which the cipher reads with no staging copy.

        Args:
            name: Slot name; loops that are live at the same time (the
                walk's frontier, a group of tiles and one of its tiles)
                must use distinct names.
            even: The most nodes (``B`` times a level's width) the loop
                writes into buffer 0: its source, then the children of
                every second level.
            odd: The most nodes it writes into buffer 1.

        Returns:
            ``(seeds_0, seeds_1, ts_0, ts_1)``: uint8 seed buffers of at
            least ``16 * even`` and ``16 * odd`` bytes and uint8
            control-bit buffers of at least ``even`` and ``odd``.
        """
        entry = self._frontiers.get(name)
        if entry is None or entry[2].size < even or entry[3].size < odd:
            if entry is not None:
                even, odd = max(even, entry[2].size), max(odd, entry[3].size)
            entry = (
                np.empty(16 * even, dtype=np.uint8),
                np.empty(16 * odd, dtype=np.uint8),
                np.empty(even, dtype=np.uint8),
                np.empty(odd, dtype=np.uint8),
            )
            self._frontiers[name] = entry
        return entry

    def scratch(self, words: int) -> np.ndarray:
        """A flat uint64 buffer of at least ``words``, shared by every slot.

        It holds a level's seed corrections, or a tile's ``t * CW_out``
        leaf plane: dead once the level or the leaves are written.
        """
        if self._scratch.size < words:
            self._scratch = np.empty(words, dtype=np.uint64)
        return self._scratch

    def stage(self, rows: int) -> np.ndarray:
        """A contiguous ``(rows, 16)`` uint8 staging buffer."""
        if self._stage.shape[0] < rows:
            self._stage = np.empty((rows, 16), dtype=np.uint8)
        return self._stage[:rows]


_THREAD = threading.local()


def thread_workspace() -> ExpansionWorkspace:
    """The calling thread's workspace, built on its first walk: what
    ``Strategy.eval_batch`` walks in when it is handed none."""
    if not hasattr(_THREAD, "workspace"):
        _THREAD.workspace = ExpansionWorkspace()
    return _THREAD.workspace
