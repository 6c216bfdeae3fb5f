"""Append-only, integrity-tagged logs of checkpoints and control inputs.

Each sub-system owns two logs: its checkpoints, whose times are the save
times, and the control inputs it applied.  Every appended record extends
a keyed-hash chain: its tag is HMAC-SHA256 over the previous record's tag
followed by the canonical payload.  So any in-place change to a stored
payload or tag is detected by :meth:`SecureStore.verify_integrity`.
Truncating a suffix of a log is NOT detected by the chain alone; only the
in-memory record counts reveal it.

:meth:`SecureStore.retrieve` verifies the whole store, every chain of
every sub-system, before it returns anything, so recovery never proceeds
from a store holding a corrupt record, even one outside the requested
range.  The check is incremental but content-based.  Once a chain has
passed a full walk, it keeps a keyed MAC, its *seal*, over the exact bytes
of the records walked, with every payload and tag length framed in.  A
later check recomputes that MAC over the chain's first records and walks
the chain only over the records appended since; the same pass, continued
over those records, gives the new seal.  A changed payload byte, tag or
record boundary breaks the seal, and so does a truncation below the sealed
count; either forces a full walk.  The verdict is therefore always the full
walk's.

Each chain also keeps an integer-microsecond index of its record times,
so ``retrieve`` finds its range by bisection and decodes only the records
it returns.

The store is in-memory first.  ``save``/``load`` provide an optional binary
persistence format for post-run analysis: per record
``[u32 length][subsystem NUL payload][32-byte tag]``, little-endian,
IEEE-754 doubles.  ``load`` recomputes every record's tag and raises
:class:`IntegrityError` when it differs from the stored one, which catches
a changed payload byte and a wrong key alike.

The integrity key comes from the ``CPSRECOVER_STORE_KEY`` environment
variable or the constructor; the built-in default key is for simulation
convenience only and offers no security.
"""

from __future__ import annotations

import hmac
import hashlib
import os
import struct
from array import array
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .timebase import to_us

DEFAULT_KEY = b"cpsrecover-insecure-default-key"
_TAG_LEN = 32
_ZERO_TAG = b"\x00" * _TAG_LEN
_TIME = struct.Struct("<d")  # every payload's time, after its kind byte


class IntegrityError(RuntimeError):
    """A stored record failed integrity verification."""


class MonotonicityError(ValueError):
    """An append would violate the strictly-increasing time order."""


@dataclass(frozen=True)
class Checkpoint:
    """Timestamped cyber-physical snapshot: estimate plus detector flags."""

    t: float
    x_hat: np.ndarray
    ads_flags: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_hat", np.asarray(self.x_hat, float))
        object.__setattr__(self, "ads_flags",
                           np.asarray(self.ads_flags, int).ravel())


@dataclass(frozen=True)
class ControlRecord:
    """Control input applied at time ``t``."""

    t: float
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, float))


def _pack_checkpoint(cp: Checkpoint) -> bytes:
    return (b"C" + struct.pack("<dII", cp.t, cp.x_hat.size, cp.ads_flags.size)
            + cp.x_hat.astype("<f8").tobytes()
            + cp.ads_flags.astype("<u1").tobytes())


def _unpack_checkpoint(payload: bytes) -> Checkpoint:
    t, nx, nf = struct.unpack_from("<dII", payload, 1)
    off = 1 + struct.calcsize("<dII")
    x = np.frombuffer(payload, "<f8", nx, off)
    flags = np.frombuffer(payload, "<u1", nf, off + 8 * nx).astype(int)
    return Checkpoint(t, x.copy(), flags)


def _pack_control(rec: ControlRecord) -> bytes:
    return (b"U" + struct.pack("<dI", rec.t, rec.u.size)
            + rec.u.astype("<f8").tobytes())


def _unpack_control(payload: bytes) -> ControlRecord:
    t, nu = struct.unpack_from("<dI", payload, 1)
    off = 1 + struct.calcsize("<dI")
    return ControlRecord(t, np.frombuffer(payload, "<f8", nu, off).copy())


def _time_of(payload: bytes) -> float:
    return _TIME.unpack_from(payload, 1)[0]


class _Chain:
    """One append-only log with a keyed hash chain and a time index.

    ``times_us`` and ``last_t`` are set by :meth:`append` and never re-read
    from the payloads.  :meth:`verify` checks the payload and tag lists
    themselves, so a record changed in place fails it before ``retrieve``
    consults the index.
    """

    def __init__(self, mac):
        self._mac = mac                # keyed HMAC-SHA256 holding no data
        self.payloads: list[bytes] = []
        self.tags: list[bytes] = []
        self.times_us = array("q")     # record times, integer microseconds
        self.last_t: float | None = None
        self._sealed = 0               # records covered by the seal
        self._seal = self._seal_of(self._seal_streams(0, 0))

    def _tag(self, payload: bytes, prev: bytes) -> bytes:
        h = self._mac.copy()
        h.update(prev)
        h.update(payload)
        return h.digest()

    def next_tag(self, payload: bytes) -> bytes:
        """The tag ``payload`` gets when appended now."""
        return self._tag(payload, self.tags[-1] if self.tags else _ZERO_TAG)

    def append(self, payload: bytes, t: float) -> None:
        self.tags.append(self.next_tag(payload))
        self.payloads.append(payload)
        self.times_us.append(to_us(t))
        self.last_t = t

    def between(self, lo_us: int, hi_us: int) -> list[bytes]:
        """Payloads with ``lo_us <= t < hi_us``, in append order."""
        i = bisect_left(self.times_us, lo_us)
        return self.payloads[i:bisect_left(self.times_us, hi_us, i)]

    def times(self) -> list[float]:
        """Every record's time, read from its payload."""
        return [_time_of(p) for p in self.payloads]

    def _seal_streams(self, lo: int, hi: int, streams=None) -> list:
        """The seal's keyed MAC streams, extended over records ``lo..hi-1``.

        Payload lengths, tag lengths, payloads and tags each go to their own
        stream, so the streams over ``n`` records can be continued over the
        records after them.
        """
        if streams is None:
            streams = [self._mac.copy() for _ in range(4)]
        payloads, tags = self.payloads[lo:hi], self.tags[lo:hi]
        payload_lengths, tag_lengths, payload_bytes, tag_bytes = streams
        payload_lengths.update(struct.pack(f"<{len(payloads)}Q",
                                           *map(len, payloads)))
        tag_lengths.update(struct.pack(f"<{len(tags)}Q", *map(len, tags)))
        payload_bytes.update(b"".join(payloads))
        tag_bytes.update(b"".join(tags))
        return streams

    @staticmethod
    def _seal_of(streams) -> bytes:
        return b"".join(h.digest() for h in streams)

    def verify(self) -> bool:
        """True iff every record's tag matches its chain position.

        One pass over the sealed records checks the seal and, continued
        over the records after them, yields the new seal.
        """
        k = min(len(self.payloads), len(self.tags))  # the pairs a walk sees
        start = self._sealed
        streams = self._seal_streams(0, start) if start <= k else None
        if streams is None or not hmac.compare_digest(
                self._seal_of(streams), self._seal):
            start, streams = 0, None
        prev = self.tags[start - 1] if start else _ZERO_TAG
        for payload, tag in zip(self.payloads[start:k], self.tags[start:k]):
            if not hmac.compare_digest(self._tag(payload, prev), tag):
                return False
            prev = tag
        if start < k or self._sealed != k:
            self._sealed = k
            self._seal = self._seal_of(self._seal_streams(start, k, streams))
        return True


class SecureStore:
    """Per-subsystem checkpoint and control logs."""

    def __init__(self, key: bytes | None = None):
        if key is None:
            key = os.environb.get(b"CPSRECOVER_STORE_KEY", DEFAULT_KEY)
        self._mac = hmac.new(key, digestmod=hashlib.sha256)
        self._checkpoints: dict[str, _Chain] = {}
        self._controls: dict[str, _Chain] = {}

    def _chains(self, subsystem: str) -> tuple[_Chain, _Chain]:
        if subsystem not in self._checkpoints:
            self._checkpoints[subsystem] = _Chain(self._mac)
            self._controls[subsystem] = _Chain(self._mac)
        return self._checkpoints[subsystem], self._controls[subsystem]

    # -- writes ---------------------------------------------------------

    @staticmethod
    def _append(chain: _Chain, subsystem: str, kind: str, t: float,
                payload: bytes) -> None:
        if chain.last_t is not None and t <= chain.last_t:
            raise MonotonicityError(
                f"{subsystem}: {kind} time {t} not after {chain.last_t}")
        chain.append(payload, t)

    def append_checkpoint(self, subsystem: str, cp: Checkpoint) -> None:
        """Append a checkpoint; its time is the save time."""
        self._append(self._chains(subsystem)[0], subsystem, "checkpoint",
                     cp.t, _pack_checkpoint(cp))

    def append_control(self, subsystem: str, rec: ControlRecord) -> None:
        self._append(self._chains(subsystem)[1], subsystem, "control",
                     rec.t, _pack_control(rec))

    # -- reads ----------------------------------------------------------
    # Reads never create chains: an unknown sub-system has empty logs.

    def subsystems(self) -> list[str]:
        return list(self._checkpoints)

    def save_times(self, subsystem: str) -> list[float]:
        chain = self._checkpoints.get(subsystem)
        return chain.times() if chain else []

    def checkpoints(self, subsystem: str) -> list[Checkpoint]:
        chain = self._checkpoints.get(subsystem)
        return [_unpack_checkpoint(p) for p in chain.payloads] if chain else []

    def controls(self, subsystem: str) -> list[ControlRecord]:
        chain = self._controls.get(subsystem)
        return [_unpack_control(p) for p in chain.payloads] if chain else []

    def retrieve(self, subsystem: str, t_from: float, t_to: float):
        """Records with ``t in [t_from, t_to)``; verifies integrity first.

        Returns ``(checkpoints, save_times, controls)``.  The whole store is
        verified, not just the range, because recovery must not proceed
        from a corrupt store; an integrity failure is a hard error.
        """
        if t_from > t_to:
            raise ValueError("t_from must be <= t_to")
        if not self.verify_integrity():
            raise IntegrityError("store integrity check failed")
        if subsystem not in self._checkpoints:
            return [], [], []
        lo, hi = to_us(t_from), to_us(t_to)
        cps = [_unpack_checkpoint(p)
               for p in self._checkpoints[subsystem].between(lo, hi)]
        ctl = [_unpack_control(p)
               for p in self._controls[subsystem].between(lo, hi)]
        return cps, [c.t for c in cps], ctl

    def verify_integrity(self) -> bool:
        """True iff every chain in every subsystem validates."""
        for sub in self._checkpoints:
            if not self._checkpoints[sub].verify():
                return False
            if not self._controls[sub].verify():
                return False
        return True

    # -- persistence ----------------------------------------------------

    def save(self, path) -> None:
        """Write all logs as length-prefixed tagged records."""
        with open(path, "wb") as fh:
            for sub in sorted(self._checkpoints):
                for chain in (self._checkpoints[sub], self._controls[sub]):
                    for payload, tag in zip(chain.payloads, chain.tags):
                        rec = sub.encode() + b"\x00" + payload
                        fh.write(struct.pack("<I", len(rec)))
                        fh.write(rec)
                        fh.write(tag)

    @classmethod
    def load(cls, path, key: bytes | None = None) -> "SecureStore":
        """Read a file written by :meth:`save`, checking every stored tag.

        Raises :class:`IntegrityError` if a record is cut short or its tag
        differs from the one recomputed under ``key``.
        """
        store = cls(key=key)
        with open(path, "rb") as fh:
            while True:
                hdr = fh.read(4)
                if not hdr:
                    break
                length = int.from_bytes(hdr, "little")
                rec, tag = fh.read(length), fh.read(_TAG_LEN)
                if len(hdr) != 4 or len(rec) != length or len(tag) != _TAG_LEN:
                    raise IntegrityError(f"{path}: truncated record")
                sub, _, payload = rec.partition(b"\x00")
                subsystem = sub.decode()
                ckpts, ctrls = store._chains(subsystem)
                kind, chain = (("checkpoint", ckpts) if payload[:1] == b"C"
                               else ("control", ctrls))
                if not hmac.compare_digest(chain.next_tag(payload), tag):
                    raise IntegrityError(
                        f"{path}: a {subsystem} {kind} record fails its tag")
                store._append(chain, subsystem, kind, _time_of(payload),
                              payload)
        return store

    # test hook: deliberately corrupt a stored payload
    def _tamper(self, subsystem: str, which: str = "control", index: int = 0,
                byte: int = -1) -> None:
        chain = (self._controls if which == "control"
                 else self._checkpoints)[subsystem]
        p = bytearray(chain.payloads[index])
        p[byte] ^= 0x01
        chain.payloads[index] = bytes(p)
