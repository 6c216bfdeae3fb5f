"""Append-only, integrity-tagged logs of checkpoints and control inputs.

Each sub-system owns two logs: its checkpoints, whose times are the save
times, and the control inputs it applied.  Every appended record extends
a keyed-hash chain: its tag is a keyed BLAKE2s (Aumasson et al., "BLAKE2:
simpler, smaller, fast as MD5", ACNS 2013) over the previous record's tag
followed by the canonical payload.  Any key is first hashed to 32 bytes,
so an empty one still keys the hash.  Each log has a key of its own: the
store key's BLAKE2s of the log's kind byte and sub-system id.  So a record
is bound to its log.  Each log keeps one keyed hasher, which a tag copies:
one hash per record, on append.

A store holds only what recovery can still use.  :meth:`SecureStore.drop_before`
drops, from every log, the records older than a time, after the store
passes a check; the engine calls it at each checkpoint instant with the
consistent checkpoint ``k1`` of that instant, which no later recovery
precedes.  Each log keeps its dropped prefix as an *anchor*: the prefix's
record count and its last record's time and tag.  The chain continues from
the anchor's tag, zero until something is dropped, so every retained tag
still commits to the whole history (Schneier & Kelsey, "Secure Audit Logs
to Support Computer Forensics", ACM TISSEC 1999).  A log's times stay after
its anchor's, and ``retrieve`` refuses a range that starts at or before the
anchor's time rather than return part of it.

:meth:`SecureStore.retrieve` verifies the whole store, every log of every
sub-system, before it returns anything, so recovery never proceeds from a
store holding a corrupt record, even one outside the requested range.
Each log keeps a *sealed copy*: the records, the tags and the anchor (its
count, tag and time) that its own ``append``, ``drop_before`` and ``load``
left.  :meth:`SecureStore.verify_integrity` compares each log's public
lists and anchor with that copy, content for content, and hashes nothing.
So any in-place change fails it: a changed payload byte, tag, record
boundary, anchor tag, anchor time or dropped count, a record without its
tag, and a log cut short, which a hash chain alone cannot detect.  The
copy needs no key: code that can edit the records in place can also reach
the key beside them.  It holds references to the appended records, not
new bytes.

Every record time the store reads comes from the record's own payload,
where it follows the kind byte: ``retrieve`` finds its range by bisection
over the payloads, after the check, and decodes only the records it
returns.  The reads that select by time before any check, ``save_times``
and an append's order check, read the sealed copy.

Every record enters a log through ``_Chain.append``, which checks its
time, finite and after the log's last (or its anchor's), and computes and
returns its tag.  The writes pack a record and append it; so does
``load``.

The store is in-memory first.  ``save``/``load`` provide an optional binary
persistence format for post-run analysis: per record
``[u32 length][subsystem NUL payload][32-byte tag]``, little-endian,
IEEE-754 doubles.  ``save`` refuses a store that fails the check.  A log
with a dropped prefix is led by an anchor record of the same layout: its
payload is ``b"A"``, the log's kind byte, the dropped count (u64), the last
dropped time (double) and the anchor tag, and its tag field holds its MAC:
the log's own tag of that payload after a zero tag.  A store with nothing
dropped has no anchor records.  ``load`` decodes each payload, reading
only inside it, checks that it packs back to the same bytes, appends it
and compares the tag the append computed with the stored one, so it hashes
each record once, and each anchor once.  A malformed record, a bad time, a
differing tag, or an anchor that fails its MAC or does not lead its log,
as after a changed byte, a front cut, a moved anchor, records moved to
another log or a wrong key, raises :class:`IntegrityError`; the store is
dropped.  So does a file saved with the HMAC-SHA256 tags of earlier
versions.  A file cut short after a whole record still loads: the chain
alone cannot tell its end.

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
    u: np.ndarray     # little-endian float64, as it is packed


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


_CONTROL_HEAD = struct.Struct("<cdI")     # a control record's kind, t, size
# an anchor record's kind, log kind, dropped count and last dropped time;
# its anchor tag follows
_ANCHOR_HEAD = struct.Struct("<ccQd")
_F8 = np.dtype("<f8")                     # parsed once, not per record
_TIME = struct.Struct("<d")


def _pack_control(t: float, u) -> bytes:
    if u.__class__ is not np.ndarray or u.dtype is not _F8:
        u = np.asarray(u, _F8)
    return _CONTROL_HEAD.pack(b"U", t, u.size) + u.tobytes()


def _unpack_control(payload: bytes) -> ControlRecord:
    _, t, nu = _CONTROL_HEAD.unpack_from(payload)
    return ControlRecord(t, np.frombuffer(payload, "<f8", nu,
                                          _CONTROL_HEAD.size).copy())


def _time(payload) -> float:
    """A record's time: the double right after its kind byte."""
    return _TIME.unpack_from(payload, 1)[0]


def _us(payload) -> int:
    return to_us(_time(payload))


class _Chain:
    """One append-only log with a keyed hash chain and its sealed copy.

    The public lists hold the records kept since the last
    :meth:`drop_before`; the anchor stands for the ones dropped before
    them.  The sealed copy holds what the log's own writes left, and
    :meth:`verify` compares the public lists and anchor with it.
    """

    def __init__(self, key: bytes, label: str):
        self._mac = hashlib.blake2s(key=key)   # keyed, holding no data
        self.label = label             # "<sub-system>: <kind>", for errors
        self.payloads: list[bytes] = []
        self.tags: list[bytes] = []
        # the dropped prefix: its record count, and its last record's tag,
        # from which the chain continues, and time
        self.dropped = 0
        self.anchor = _ZERO_TAG
        self.anchor_t = -math.inf
        # the sealed copy: the records, tags and (dropped, anchor,
        # anchor_t) that this log's own writes left
        self._payloads: list[bytes] = []
        self._tags: list[bytes] = []
        self._anchor = (0, _ZERO_TAG, -math.inf)

    def _tag(self, payload: bytes, prev: bytes) -> bytes:
        h = self._mac.copy()
        h.update(prev)
        h.update(payload)
        return h.digest()

    def append(self, payload: bytes, t: float) -> bytes:
        """Append ``payload``, whose time is ``t``, finite and after the
        sealed last time, and return its tag, chained from the sealed last
        tag; else raise :class:`MonotonicityError`."""
        sealed = self._payloads
        last = _time(sealed[-1]) if sealed else self._anchor[2]
        if not last < t < math.inf:          # also false for a NaN ``t``
            if not math.isfinite(t):
                raise MonotonicityError(f"{self.label} time {t} not finite")
            raise MonotonicityError(f"{self.label} time {t} not after {last}")
        tag = self._tag(payload, self._tags[-1] if sealed else self._anchor[1])
        sealed.append(payload)
        self._tags.append(tag)
        self.payloads.append(payload)
        self.tags.append(tag)
        return tag

    def between(self, lo_us, hi_us) -> list[bytes]:
        """Payloads with ``lo_us <= t < hi_us``, in append order; a bound
        may be an infinity, an open end."""
        i = bisect_left(self.payloads, lo_us, key=_us)
        return self.payloads[i:bisect_left(self.payloads, hi_us, i, key=_us)]

    def verify(self) -> bool:
        """True iff the public lists and anchor equal the sealed copy,
        content for content."""
        return ((self.dropped, self.anchor, self.anchor_t) == self._anchor
                and self.payloads == self._payloads
                and self.tags == self._tags)

    def drop_before(self, t_us: int) -> None:
        """Drop the records with ``t < t_us`` microseconds; the last one
        becomes the anchor.  The chain must have just passed
        :meth:`verify`."""
        i = bisect_left(self._payloads, t_us, key=_us)
        if i:
            self.dropped, self.anchor, self.anchor_t = self._anchor = (
                self._anchor[0] + i, self._tags[i - 1],
                _time(self._payloads[i - 1]))
            for records in (self.payloads, self.tags, self._payloads,
                            self._tags):
                del records[:i]


class SecureStore:
    """Per-subsystem checkpoint and control logs.

    A saved record ends its sub-system id, in UTF-8, at a NUL byte, so the
    first append under an id holding a NUL character, or one that does not
    encode, raises ``ValueError``.
    """

    def __init__(self, key: bytes | None = None):
        if key is None:
            key = os.environb.get(b"CPSRECOVER_STORE_KEY", DEFAULT_KEY)
        # any key, the empty one too, becomes a 32-byte BLAKE2s key
        self._key = hashlib.blake2s(key).digest()
        self._checkpoints: dict[str, _Chain] = {}
        self._controls: dict[str, _Chain] = {}

    def _chains(self, subsystem: str) -> tuple[_Chain, _Chain]:
        if subsystem not in self._checkpoints:
            if "\x00" in subsystem:
                raise ValueError(
                    f"sub-system id {subsystem!r} contains a NUL character")
            sid = subsystem.encode()
            # each log's key is a keyed BLAKE2s of its kind byte and its id
            self._checkpoints[subsystem], self._controls[subsystem] = (
                _Chain(hashlib.blake2s(kind + sid, key=self._key).digest(),
                       f"{subsystem}: {name}")
                for kind, name in ((b"C", "checkpoint"), (b"U", "control")))
        return self._checkpoints[subsystem], self._controls[subsystem]

    # -- writes ---------------------------------------------------------

    def append_checkpoint(self, subsystem: str, cp: Checkpoint) -> None:
        """Append a checkpoint; its time is the save time."""
        self._chains(subsystem)[0].append(_pack_checkpoint(cp), cp.t)

    def append_control(self, subsystem: str, t: float, u) -> None:
        """Append the control input ``u`` applied at time ``t``; it is read
        back as a :class:`ControlRecord`."""
        try:
            chain = self._controls[subsystem]
        except KeyError:
            chain = self._chains(subsystem)[1]
        chain.append(_pack_control(t, u), t)

    def drop_before(self, t: float) -> None:
        """Drop, from every log, the records older than ``t``; records at
        ``t`` and after stay.  Each log's last dropped record becomes its
        anchor.  The store is verified first, so no record is dropped
        unchecked: an integrity failure raises :class:`IntegrityError` and
        drops nothing.  A ``t`` that is not finite raises ``ValueError``."""
        if not math.isfinite(t):
            raise ValueError(f"drop time {t} is not finite")
        if not self.verify_integrity():
            raise IntegrityError("store integrity check failed")
        t_us = to_us(t)
        for chain in [*self._checkpoints.values(), *self._controls.values()]:
            chain.drop_before(t_us)

    # -- reads ----------------------------------------------------------
    # Reads never create chains: an unknown sub-system has empty logs.

    def subsystems(self) -> list[str]:
        return list(self._checkpoints)

    def save_times(self, subsystem: str) -> list[float]:
        """A loop's checkpoint times, read from its sealed copy."""
        chain = self._checkpoints.get(subsystem)
        return [_time(p) for p in chain._payloads] if chain else []

    def retrieve(self, subsystem: str, t_from: float, t_to: float):
        """Records with ``t in [t_from, t_to)``; verifies integrity first.

        Returns ``(checkpoints, save_times, controls)``.  The whole store is
        verified, not just the range, because recovery must not proceed
        from a corrupt store; an integrity failure is a hard error.  An
        infinite bound is an open end.  A NaN bound, or a ``t_from`` at or
        before the time of a record dropped from either log, whose range
        would lack that record, raises ``ValueError``.
        """
        for name, bound in (("t_from", t_from), ("t_to", t_to)):
            if math.isnan(bound):
                raise ValueError(f"{name} is NaN")
        if t_from > t_to:
            raise ValueError("t_from must be <= t_to")
        if not self.verify_integrity():
            raise IntegrityError("store integrity check failed")
        if subsystem not in self._checkpoints:
            return [], [], []
        lo, hi = (b if math.isinf(b) else to_us(b) for b in (t_from, t_to))
        chains = self._checkpoints[subsystem], self._controls[subsystem]
        for chain in chains:
            if chain.dropped and lo <= to_us(chain.anchor_t):
                raise ValueError(
                    f"{chain.label}: t_from {t_from} is not after "
                    f"{chain.anchor_t}, the last dropped record's time")
        cps = [_unpack_checkpoint(p) for p in chains[0].between(lo, hi)]
        ctl = [_unpack_control(p) for p in chains[1].between(lo, hi)]
        return cps, [c.t for c in cps], ctl

    def verify_integrity(self) -> bool:
        """True iff every chain in every subsystem validates."""
        return all(self._checkpoints[sub].verify()
                   and self._controls[sub].verify()
                   for sub in self._checkpoints)

    # -- persistence ----------------------------------------------------

    def save(self, path) -> None:
        """Write all logs as length-prefixed tagged records, each log with
        a dropped prefix led by its anchor record; raises
        :class:`IntegrityError`, writing nothing, if the store fails
        :meth:`verify_integrity`."""
        if not self.verify_integrity():
            raise IntegrityError(f"{path}: store integrity check failed")
        with open(path, "wb") as fh:
            for sub in sorted(self._checkpoints):
                for kind, chain in ((b"C", self._checkpoints[sub]),
                                    (b"U", self._controls[sub])):
                    records = zip(chain.payloads, chain.tags)
                    if chain.dropped:
                        body = _ANCHOR_HEAD.pack(
                            b"A", kind, chain.dropped, chain.anchor_t
                        ) + bytes(chain.anchor)
                        # its MAC is the log's tag of ``body`` after a zero
                        # tag; no record's payload begins with b"A"
                        records = [(body, chain._tag(body, _ZERO_TAG)),
                                   *records]
                    for payload, tag in records:
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
        append computed under ``key`` differs from the stored one; or if an
        anchor record is malformed, follows a record or an anchor of its
        log, or fails its MAC under ``key``.
        """
        store = cls(key=key)
        with open(path, "rb") as fh:
            while hdr := fh.read(4):
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
                if payload[:1] == b"A":
                    _anchor(path, ckpts, ctrls, payload, tag)
                    continue
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


def _anchor(path, ckpts: _Chain, ctrls: _Chain, body: bytes,
            mac: bytes) -> None:
    """Set the anchor an anchor record ``body`` gives its log, one of
    ``ckpts`` and ``ctrls`` by its kind byte, after checking its layout, its
    place before every record of the log and its MAC ``mac``."""
    try:
        _, kind, dropped, t = _ANCHOR_HEAD.unpack_from(body)
    except struct.error:
        kind = None
    if (kind not in (b"C", b"U") or len(body) != _ANCHOR_HEAD.size + _TAG_LEN
            or dropped < 1 or not math.isfinite(t)):
        raise IntegrityError(f"{path}: an anchor record is malformed")
    chain = ckpts if kind == b"C" else ctrls
    if chain.dropped or chain.payloads:
        raise IntegrityError(f"{path}: {chain.label} anchor does not lead "
                             "its log")
    if not hmac.compare_digest(chain._tag(body, _ZERO_TAG), mac):
        raise IntegrityError(f"{path}: {chain.label} anchor fails its MAC")
    chain.dropped, chain.anchor, chain.anchor_t = chain._anchor = (
        dropped, body[_ANCHOR_HEAD.size:], t)
