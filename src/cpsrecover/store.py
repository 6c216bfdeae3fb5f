"""Append-only, integrity-tagged logs of checkpoints and control inputs.

Each sub-system owns two logs: its checkpoints, whose times are the save
times, and the control inputs it applied.  Every appended record extends
a keyed-hash chain: its tag is HMAC-SHA256 over the previous record's tag
followed by the canonical payload.  So any in-place change to a stored
payload or tag is detected by :meth:`SecureStore.verify_integrity`, as is a
record without its tag or time.  Truncating a suffix of all three alike is
NOT detected by the chain alone.

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

An appended record joins the walked copy too, when the copy covers every
record of the chain and the chain's last tag is the copy's own last tag
object: its tag was just computed from that tag, so the copy stays a chain
that passes a walk, and each record is hashed once.  Otherwise it waits
for the next check's walk.

Each chain also keeps its record times in append order, so ``retrieve``
finds its range by bisection and decodes only the records it returns.

Every record enters a chain through ``_Chain.append``, which checks its
time, finite and after the chain's last, and computes and returns its tag.
The writes pack a record and append it; so does ``load``.

The store is in-memory first.  ``save``/``load`` provide an optional binary
persistence format for post-run analysis: per record
``[u32 length][subsystem NUL payload][32-byte tag]``, little-endian,
IEEE-754 doubles.  ``load`` decodes each payload, reading only inside it,
checks that it packs back to the same bytes, appends it and compares the
tag the append computed with the stored one, so it hashes each record once.
A malformed record, a bad time or a differing tag, as after a changed byte
or under a wrong key, raises :class:`IntegrityError`; the store is dropped.

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
_BLOCK = 64                                   # SHA-256 block size, bytes
_IPAD = bytes(b ^ 0x36 for b in range(256))   # byte translation tables
_OPAD = bytes(b ^ 0x5C for b in range(256))


def _keyed_sha256(key: bytes) -> tuple:
    """HMAC-SHA256's inner and outer hashes with the padded key absorbed
    (RFC 2104).  A tag copies both, which costs less than copying an
    ``hmac`` object, and equals ``hmac.new(key, msg, sha256).digest()``."""
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK, b"\x00")
    return (hashlib.sha256(key.translate(_IPAD)),
            hashlib.sha256(key.translate(_OPAD)))


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
        # little-endian, as it is packed: the native float64 on most hosts
        object.__setattr__(self, "u", np.asarray(self.u, "<f8"))


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


_CONTROL_HEAD = struct.Struct("<dI")      # a control record's t and size
_F8 = np.dtype("<f8")                     # parsed once, not per record


def _pack_control(t: float, u) -> bytes:
    if u.__class__ is not np.ndarray or u.dtype is not _F8:
        u = np.asarray(u, _F8)
    return b"U" + _CONTROL_HEAD.pack(t, u.size) + u.tobytes()


def _unpack_control(payload: bytes) -> ControlRecord:
    t, nu = _CONTROL_HEAD.unpack_from(payload, 1)
    off = 1 + _CONTROL_HEAD.size
    return ControlRecord(t, np.frombuffer(payload, "<f8", nu, off).copy())


class _Chain:
    """One append-only log with a keyed hash chain and its record times.

    ``times`` is set by :meth:`append` and never re-read from the payloads.
    :meth:`verify` checks the payload and tag lists themselves, so a record
    changed in place fails it before ``retrieve`` consults ``times``.
    """

    def __init__(self, mac: tuple, label: str):
        self._mac = mac                # from _keyed_sha256, holding no data
        self.label = label             # "<sub-system>: <kind>", for errors
        self.payloads: list[bytes] = []
        self.tags: list[bytes] = []
        self.times: list[float] = []   # record times, in append order
        # the bytes of the records the last passing walk hashed
        self._walked_payloads: list[bytes] = []
        self._walked_tags: list[bytes] = []

    def _tag(self, payload: bytes, prev: bytes) -> bytes:
        inner, outer = self._mac[0].copy(), self._mac[1].copy()
        inner.update(prev)
        inner.update(payload)
        outer.update(inner.digest())
        return outer.digest()

    def append(self, payload: bytes, t: float) -> bytes:
        """Append ``payload`` at ``t``, finite and after the last time, and
        return its tag; else raise :class:`MonotonicityError`."""
        times = self.times
        if not math.isfinite(t):
            raise MonotonicityError(f"{self.label} time {t} not finite")
        if times and t <= times[-1]:
            raise MonotonicityError(
                f"{self.label} time {t} not after {times[-1]}")
        tag = self._tag(payload, self.tags[-1] if self.tags else _ZERO_TAG)
        walked = self._walked_tags
        # the copy stays a chain that passes a walk only when the new tag is
        # computed from the copy's own last tag; an edited tag is another
        # object, since the copy holds immutable bytes
        if (len(walked) == len(self.tags) == len(self.payloads)
                and (not walked or self.tags[-1] is walked[-1])):
            self._walked_payloads.append(bytes(payload))
            walked.append(tag)
        self.tags.append(tag)
        self.payloads.append(payload)
        times.append(float(t))
        return tag

    def complete(self) -> bool:   # every record has a tag and a time
        return len(self.payloads) == len(self.tags) == len(self.times)

    def between(self, lo_us: int, hi_us: int) -> list[bytes]:
        """Payloads with ``lo_us <= t < hi_us``, in append order."""
        i = bisect_left(self.times, lo_us, key=to_us)
        return self.payloads[i:bisect_left(self.times, hi_us, i, key=to_us)]

    def verify(self) -> bool:
        """True iff every record has a tag and a time, and every tag
        matches its chain position.

        Records equal to the walked copy are not hashed again; the walk
        starts after them, or from the first record when they differ.  When
        the copy holds every record, as after appends alone, this only
        compares.
        """
        if not self.complete():
            return False
        n = len(self._walked_tags)
        if (self.payloads[:n] != self._walked_payloads
                or self.tags[:n] != self._walked_tags):
            n = 0
            self._walked_payloads, self._walked_tags = [], []
        prev = self._walked_tags[-1] if n else _ZERO_TAG
        payloads = [bytes(p) for p in self.payloads[n:]]
        tags = [bytes(t) for t in self.tags[n:]]
        for payload, tag in zip(payloads, tags):
            if not hmac.compare_digest(self._tag(payload, prev), tag):
                return False
            prev = tag
        self._walked_payloads += payloads
        self._walked_tags += tags
        return True


class SecureStore:
    """Per-subsystem checkpoint and control logs.

    A saved record ends its sub-system id at a NUL byte, so the first
    append under an id holding a NUL character raises ``ValueError``.
    """

    def __init__(self, key: bytes | None = None):
        if key is None:
            key = os.environb.get(b"CPSRECOVER_STORE_KEY", DEFAULT_KEY)
        self._mac = _keyed_sha256(key)
        self._checkpoints: dict[str, _Chain] = {}
        self._controls: dict[str, _Chain] = {}

    def _chains(self, subsystem: str) -> tuple[_Chain, _Chain]:
        if subsystem not in self._checkpoints:
            if "\x00" in subsystem:
                raise ValueError(
                    f"sub-system id {subsystem!r} contains a NUL character")
            self._checkpoints[subsystem] = _Chain(
                self._mac, f"{subsystem}: checkpoint")
            self._controls[subsystem] = _Chain(
                self._mac, f"{subsystem}: control")
        return self._checkpoints[subsystem], self._controls[subsystem]

    # -- writes ---------------------------------------------------------

    def append_checkpoint(self, subsystem: str, cp: Checkpoint) -> None:
        """Append a checkpoint; its time is the save time."""
        self._chains(subsystem)[0].append(_pack_checkpoint(cp), cp.t)

    def append_control(self, subsystem: str, t: float, u) -> None:
        """Append the control input ``u`` applied at time ``t``; it is read
        back as a :class:`ControlRecord`."""
        chain = self._controls.get(subsystem) or self._chains(subsystem)[1]
        chain.append(_pack_control(t, u), t)

    # -- reads ----------------------------------------------------------
    # Reads never create chains: an unknown sub-system has empty logs.

    def subsystems(self) -> list[str]:
        return list(self._checkpoints)

    def save_times(self, subsystem: str) -> list[float]:
        chain = self._checkpoints.get(subsystem)
        return list(chain.times) if chain else []

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
        """Write all logs as length-prefixed tagged records; raises
        :class:`IntegrityError` if a log's record and tag counts differ."""
        if not all(c.complete() for c in [*self._checkpoints.values(),
                                          *self._controls.values()]):
            raise IntegrityError(
                f"{path}: a log's record, tag and time counts differ")
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

        Raises :class:`IntegrityError` if a record is cut short, its
        sub-system id is not UTF-8, its payload does not decode to a record
        that packs back to the same bytes, its append fails, or the tag its
        append computed under ``key`` differs from the stored one.
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
                chain, pack, unpack = (
                    (ckpts, _pack_checkpoint, _unpack_checkpoint)
                    if payload[:1] == b"C"
                    else (ctrls, lambda r: _pack_control(r.t, r.u),
                          _unpack_control))
                try:
                    record = unpack(payload)
                except (struct.error, ValueError):
                    record = None
                if record is None or pack(record) != payload:
                    raise IntegrityError(
                        f"{path}: a {subsystem} record is malformed")
                try:
                    appended = chain.append(payload, record.t)
                except MonotonicityError as exc:
                    raise IntegrityError(f"{path}: {exc}") from None
                if not hmac.compare_digest(appended, tag):
                    raise IntegrityError(
                        f"{path}: {chain.label} record fails its tag")
        return store

    # test hook: deliberately corrupt a stored payload
    def _tamper(self, subsystem: str, which: str = "control", index: int = 0,
                byte: int = -1) -> None:
        chain = (self._controls if which == "control"
                 else self._checkpoints)[subsystem]
        p = bytearray(chain.payloads[index])
        p[byte] ^= 0x01
        chain.payloads[index] = bytes(p)
