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
passed a walk, it keeps the *walked copy*: the payload and tag ``bytes``
that walk hashed.  A later check compares the chain's first records with
that copy, a plain list comparison with no hashing, and walks the chain
only over the records appended since.  A changed payload byte, tag or
record boundary, or a truncation below the copy's length, fails the
comparison and forces a walk from the first record.  The verdict is
therefore always the full walk's.  The copy needs no key: code that can
edit the records in place can also reach the key beside them.

Each chain also keeps its record times in append order, so ``retrieve``
finds its range by bisection and decodes only the records it returns.

The store is in-memory first.  ``save``/``load`` provide an optional binary
persistence format for post-run analysis: per record
``[u32 length][subsystem NUL payload][32-byte tag]``, little-endian,
IEEE-754 doubles.  ``load`` recomputes every record's tag and raises
:class:`IntegrityError` when it differs from the stored one, which catches
a changed payload byte and a wrong key alike, or when a correctly tagged
payload is not a checkpoint or control record of its header's length.

The integrity key comes from the ``CPSRECOVER_STORE_KEY`` environment
variable or the constructor; the built-in default key is for simulation
convenience only and offers no security.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import os
import struct
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


def _well_formed(payload: bytes) -> bool:
    """True iff ``payload`` is a checkpoint or control record whose length
    matches the sizes in its header."""
    kind, n = payload[:1], len(payload)
    if kind == b"C" and n >= 17:
        _, nx, nf = struct.unpack_from("<dII", payload, 1)
        return n == 17 + 8 * nx + nf
    if kind == b"U" and n >= 13:
        _, nu = struct.unpack_from("<dI", payload, 1)
        return n == 13 + 8 * nu
    return False


class _Chain:
    """One append-only log with a keyed hash chain and its record times.

    ``times`` is set by :meth:`append` and never re-read from the payloads.
    :meth:`verify` checks the payload and tag lists themselves, so a record
    changed in place fails it before ``retrieve`` consults ``times``.
    """

    def __init__(self, mac):
        self._mac = mac                # keyed HMAC-SHA256 holding no data
        self.payloads: list[bytes] = []
        self.tags: list[bytes] = []
        self.times: list[float] = []   # record times, in append order
        # the bytes of the records the last passing walk hashed
        self._walked_payloads: list[bytes] = []
        self._walked_tags: list[bytes] = []

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
        self.times.append(float(t))

    def between(self, lo_us: int, hi_us: int) -> list[bytes]:
        """Payloads with ``lo_us <= t < hi_us``, in append order."""
        i = bisect_left(self.times, lo_us, key=to_us)
        return self.payloads[i:bisect_left(self.times, hi_us, i, key=to_us)]

    def verify(self) -> bool:
        """True iff every record's tag matches its chain position.

        Records equal to the walked copy are not hashed again; the walk
        starts after them, or from the first record when they differ.
        """
        k = min(len(self.payloads), len(self.tags))  # the pairs a walk sees
        n = len(self._walked_tags)
        if (self.payloads[:n] != self._walked_payloads
                or self.tags[:n] != self._walked_tags):
            n = 0
            self._walked_payloads, self._walked_tags = [], []
        prev = self._walked_tags[-1] if n else _ZERO_TAG
        payloads = [bytes(p) for p in self.payloads[n:k]]
        tags = [bytes(t) for t in self.tags[n:k]]
        for payload, tag in zip(payloads, tags):
            if not hmac.compare_digest(self._tag(payload, prev), tag):
                return False
            prev = tag
        self._walked_payloads += payloads
        self._walked_tags += tags
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
        if not math.isfinite(t):
            raise MonotonicityError(f"{subsystem}: {kind} time {t} not finite")
        if chain.times and t <= chain.times[-1]:
            raise MonotonicityError(
                f"{subsystem}: {kind} time {t} not after {chain.times[-1]}")
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
        return list(chain.times) if chain else []

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

        Raises :class:`IntegrityError` if a record is cut short, its tag
        differs from the one recomputed under ``key``, its payload is not a
        checkpoint or control record of the length its header gives, its
        time is not finite or not after the log's last, or its sub-system id
        is not UTF-8.
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
                try:
                    subsystem = sub.decode()
                except UnicodeDecodeError:
                    raise IntegrityError(
                        f"{path}: a sub-system id is not UTF-8") from None
                ckpts, ctrls = store._chains(subsystem)
                kind, chain = (("checkpoint", ckpts) if payload[:1] == b"C"
                               else ("control", ctrls))
                if not hmac.compare_digest(chain.next_tag(payload), tag):
                    raise IntegrityError(
                        f"{path}: a {subsystem} {kind} record fails its tag")
                if not _well_formed(payload):
                    raise IntegrityError(
                        f"{path}: a {subsystem} record is malformed")
                try:
                    store._append(chain, subsystem, kind, _time_of(payload),
                                  payload)
                except MonotonicityError as exc:
                    raise IntegrityError(f"{path}: {exc}") from None
        return store

    # test hook: deliberately corrupt a stored payload
    def _tamper(self, subsystem: str, which: str = "control", index: int = 0,
                byte: int = -1) -> None:
        chain = (self._controls if which == "control"
                 else self._checkpoints)[subsystem]
        p = bytearray(chain.payloads[index])
        p[byte] ^= 0x01
        chain.payloads[index] = bytes(p)
