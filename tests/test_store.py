import hashlib
import hmac
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cpsrecover import config as cfgmod
from cpsrecover import sim, store as storemod
from cpsrecover.store import (DEFAULT_KEY, Checkpoint, IntegrityError,
                              MonotonicityError, SecureStore)
from cpsrecover.timebase import to_us
from helpers import (checkpoints_of, controls_of, full_store, ieee_vectors,
                     reference_pack_control, reference_tag)


def small_store():
    s = SecureStore()
    for t in (0.0, 1.0, 2.0, 3.0):
        s.append_checkpoint("outer", Checkpoint(t, [t, -t], [0, 0]))
    for k in range(40):
        s.append_control("outer", k * 0.1, [float(k)])
    return s


def test_first_append():
    s = SecureStore()
    s.append_checkpoint("outer", Checkpoint(0.0, [1.0], [0]))
    assert s.save_times("outer") == [0.0]
    assert len(checkpoints_of(s, "outer")) == 1


def test_monotonicity_enforced():
    s = SecureStore()
    s.append_checkpoint("o", Checkpoint(1.0, [0.0], [0]))
    with pytest.raises(MonotonicityError):
        s.append_checkpoint("o", Checkpoint(1.0, [0.0], [0]))
    s.append_control("o", 1.0, [0.0])
    with pytest.raises(MonotonicityError):
        s.append_control("o", 0.5, [0.0])


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_times_are_rejected(t):
    """A NaN or infinite time is refused by both logs, naming the sub-system
    and the log, and leaves the store as it was."""
    s = SecureStore()
    with pytest.raises(MonotonicityError, match="outer: control time"):
        s.append_control("outer", t, [0.0])
    s.append_control("outer", 0.5, [1.0])
    with pytest.raises(MonotonicityError, match="outer: checkpoint time"):
        s.append_checkpoint("outer", Checkpoint(t, [0.0], [0]))
    assert s.save_times("outer") == []
    assert [c.t for c in s.retrieve("outer", 0.0, 1.0)[2]] == [0.5]


def test_save_times_match_checkpoint_times():
    s = small_store()
    assert s.save_times("outer") == [c.t for c in checkpoints_of(s, "outer")]


def test_roundtrip_preserves_payloads():
    s = small_store()
    cp = checkpoints_of(s, "outer")[2]
    assert cp.t == 2.0
    np.testing.assert_array_equal(cp.x_hat, [2.0, -2.0])
    np.testing.assert_array_equal(cp.ads_flags, [0, 0])
    rec = controls_of(s, "outer")[13]
    assert rec.t == 1.3 and rec.u[0] == 13.0


def test_retrieve_half_open_range():
    s = small_store()
    cps, times, ctl = s.retrieve("outer", 3.0, 3.5)
    assert times == [3.0]
    assert [round(c.t, 10) for c in ctl] == [3.0, 3.1, 3.2, 3.3, 3.4]


def test_retrieve_insertion_order():
    s = small_store()
    _, _, ctl = s.retrieve("outer", 0.0, 4.0)
    ts = [to_us(c.t) for c in ctl]
    assert ts == sorted(ts)


def test_retrieve_empty_and_invalid_range():
    s = small_store()
    cps, times, ctl = s.retrieve("outer", 3.41, 3.42)
    assert cps == [] and ctl == []
    with pytest.raises(ValueError):
        s.retrieve("outer", 2.0, 1.0)


def test_tamper_detected():
    s = small_store()
    assert s.verify_integrity()
    s._tamper("outer", which="control", index=5)
    assert not s.verify_integrity()
    with pytest.raises(IntegrityError):
        s.retrieve("outer", 0.0, 4.0)


def test_tamper_checkpoint_payload():
    s = small_store()
    s._tamper("outer", which="checkpoint", index=0)
    assert not s.verify_integrity()


def test_a_log_cut_short_fails_the_check():
    """Removing a suffix of records and tags alike keeps a valid chain
    prefix, which a hash chain alone cannot tell from the whole log; the
    sealed copy still holds the cut records, so the check fails."""
    s = small_store()
    chain = s._controls["outer"]
    chain.payloads.pop()
    chain.tags.pop()
    assert not s.verify_integrity()
    with pytest.raises(IntegrityError):
        s.retrieve("outer", 0.0, 4.0)


def test_a_log_cut_short_after_a_check_fails_it(tmp_path):
    """A log cut short after a passing check is not served the shortened
    range, and ``save`` refuses it, writing nothing."""
    s = small_store()
    assert s.verify_integrity()
    chain = s._controls["outer"]
    del chain.payloads[-3:]
    del chain.tags[-3:]
    assert not s.verify_integrity()
    with pytest.raises(IntegrityError):
        s.retrieve("outer", 3.0, 4.0)
    path = tmp_path / "store.bin"
    with pytest.raises(IntegrityError, match="store integrity check failed"):
        s.save(path)
    assert not path.exists()


def _anchored_store() -> SecureStore:
    """Five checkpoints and five controls at 0-4 s, cut at 2 s."""
    s = SecureStore()
    for k in range(5):
        s.append_checkpoint("a", Checkpoint(float(k), [k, -k], [0]))
        s.append_control("a", float(k), [k / 3])
    s.drop_before(2.0)
    return s


@pytest.mark.parametrize("field, value", [("anchor_t", 0.5), ("dropped", 1),
                                          ("dropped", 3)])
def test_an_edited_anchor_time_or_count_fails_the_check(field, value):
    """Each log's anchor time and dropped count are checked with its tag:
    an anchor time moved back would let ``retrieve`` serve a range whose
    first records were dropped."""
    s = _anchored_store()
    assert s.retrieve("a", 2.5, 4.0)[0] != []
    with pytest.raises(ValueError, match="last dropped record"):
        s.retrieve("a", 1.0, 4.0)
    for chain in (s._checkpoints["a"], s._controls["a"]):
        setattr(chain, field, value)
    assert not s.verify_integrity()
    with pytest.raises(IntegrityError):
        s.retrieve("a", 1.0, 4.0)


@pytest.mark.parametrize("which", ["checkpoint", "control"])
@pytest.mark.parametrize("byte", [1, 4, 8])
def test_a_payload_whose_time_changed_fails_the_check(which, byte):
    """A record's time is read from its payload, right after the kind
    byte; a changed time byte fails the check before any read by time, and
    ``save_times`` reports the times as saved."""
    s = _anchored_store()
    before = s.save_times("a")
    chain = (s._checkpoints if which == "checkpoint" else s._controls)["a"]
    _tamper_payload(chain, 1, byte)
    assert not s.verify_integrity()
    assert s.save_times("a") == before == [2.0, 3.0, 4.0]
    with pytest.raises(IntegrityError):
        s.retrieve("a", 2.5, 4.0)
    with pytest.raises(IntegrityError):
        s.drop_before(3.0)


@pytest.mark.parametrize("last", [storemod._pack_control(9.0, [4 / 3]),
                                  b"U"], ids=["later", "cut-short"])
def test_an_append_reads_the_sealed_last_time(last):
    """An append checks its time against the last record it sealed, not
    against a last payload edited in place: a later time, or one cut short
    before its time, neither refuses the next append nor raises from it,
    and the check still fails."""
    s = _anchored_store()
    s._controls["a"].payloads[-1] = last
    s.append_control("a", 5.0, [5.0])
    with pytest.raises(MonotonicityError, match="not after 5.0"):
        s.append_control("a", 5.0, [5.0])
    assert not s.verify_integrity()


def test_a_record_without_its_tag_fails_verification(tmp_path):
    """A rewritten last payload whose tag is dropped is not served: the
    log differs from its sealed copy, so the check fails and ``save``
    refuses the store, writing nothing."""
    s = SecureStore()
    for k in range(5):
        s.append_control("outer", k * 0.1, [float(k)])
    chain = s._controls["outer"]
    chain.payloads[-1] = storemod._pack_control(0.4, [99.0])
    chain.tags.pop()
    assert not s.verify_integrity()
    with pytest.raises(IntegrityError):
        s.retrieve("outer", 0.0, 1.0)
    path = tmp_path / "store.bin"
    with pytest.raises(IntegrityError, match="store integrity check failed"):
        s.save(path)
    assert not path.exists()


def test_persistence_roundtrip(tmp_path):
    s = small_store()
    path = tmp_path / "store.bin"
    s.save(path)
    loaded = SecureStore.load(path)
    assert loaded.verify_integrity()
    assert loaded.save_times("outer") == s.save_times("outer")
    np.testing.assert_array_equal(controls_of(loaded, "outer")[7].u,
                                  controls_of(s, "outer")[7].u)


def _flip_payload_byte(path, record: int) -> None:
    """Flip the last payload byte of the ``record``-th record of a file."""
    data = bytearray(path.read_bytes())
    off = 0
    for _ in range(record):
        off += 4 + struct.unpack_from("<I", data, off)[0] + 32
    (length,) = struct.unpack_from("<I", data, off)
    data[off + 4 + length - 1] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("record", [0, 3, 20, 43])
def test_load_rejects_flipped_payload_byte(tmp_path, record):
    path = tmp_path / "store.bin"
    small_store().save(path)
    _flip_payload_byte(path, record)
    with pytest.raises(IntegrityError):
        SecureStore.load(path)


def test_load_rejects_wrong_key(tmp_path):
    path = tmp_path / "store.bin"
    s = SecureStore(key=b"the key that wrote it")
    s.append_control("outer", 0.0, [1.0])
    s.save(path)
    loaded = SecureStore.load(path, key=b"the key that wrote it")
    assert controls_of(loaded, "outer")[0].u[0] == 1.0
    with pytest.raises(IntegrityError):
        SecureStore.load(path, key=b"some other key")


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "store.bin"
    small_store().save(path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(IntegrityError):
        SecureStore.load(path)


# a control record's body after its kind byte: time 0, one input of 1.0
_ONE_INPUT = struct.pack("<dI", 0.0, 1) + struct.pack("<d", 1.0)
# the two doubles of a two-state estimate
_TWO_STATES = struct.pack("<2d", 1.0, 2.0)


@pytest.mark.parametrize("payload", [
    b"U\x01",                           # shorter than its kind and time
    b"X" + _ONE_INPUT,                  # neither checkpoint nor control
    b"C" + struct.pack("<d", 0.0),      # a checkpoint holding only its time
    b"U" + _ONE_INPUT + b"\x00",        # a control with one extra byte
    # a checkpoint whose header claims 1000 states but holds two
    b"C" + struct.pack("<dII", 0.0, 1000, 0) + _TWO_STATES,
    # a control whose header claims 2**32 - 1 inputs but holds one
    b"U" + struct.pack("<dI", 0.0, 2**32 - 1) + struct.pack("<d", 1.0),
    # a well-formed checkpoint (two states, one flag) and one byte more
    b"C" + struct.pack("<dII", 0.0, 2, 1) + _TWO_STATES + b"\x00" + b"\x00",
], ids=["short", "kind-X", "time-only-checkpoint", "extra-byte",
        "nx-1000", "nu-max", "checkpoint-extra-byte"])
def test_load_rejects_malformed_records(tmp_path, payload):
    """A record with a valid tag but a payload that is not a checkpoint or
    control of the length its header gives fails the load."""
    rec = b"outer\x00" + payload
    kind = b"C" if payload[:1] == b"C" else b"U"
    tag = reference_tag(DEFAULT_KEY, kind, b"outer", b"\x00" * 32, payload)
    path = tmp_path / "store.bin"
    path.write_bytes(struct.pack("<I", len(rec)) + rec + tag)
    with pytest.raises(IntegrityError, match=r"store\.bin: .*outer"):
        SecureStore.load(path, key=DEFAULT_KEY)


def _tagged_controls(path, times):
    """Write one ``outer`` control record per time, each correctly tagged
    under the default key, as ``save`` would."""
    prev, data = b"\x00" * 32, b""
    for t in times:
        payload = b"U" + struct.pack("<dI", t, 1) + struct.pack("<d", 1.0)
        prev = reference_tag(DEFAULT_KEY, b"U", b"outer", prev, payload)
        rec = b"outer\x00" + payload
        data += struct.pack("<I", len(rec)) + rec + prev
    path.write_bytes(data)


@pytest.mark.parametrize("times", [
    [float("inf")], [0.0, float("nan")], [1.0, 0.5],
], ids=["inf", "nan", "out-of-order"])
def test_load_rejects_bad_times(tmp_path, times):
    """A correctly tagged record whose time is not finite, or not after its
    log's last, fails the load with the file named."""
    path = tmp_path / "store.bin"
    _tagged_controls(path, times)
    with pytest.raises(IntegrityError, match=r"store\.bin: outer: control"):
        SecureStore.load(path, key=DEFAULT_KEY)


def test_load_rejects_a_non_utf8_subsystem_id(tmp_path):
    path = tmp_path / "store.bin"
    small_store().save(path)
    data = bytearray(path.read_bytes())
    assert data[4:10] == b"outer\x00"
    data[4] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(IntegrityError, match=r"store\.bin: .*UTF-8"):
        SecureStore.load(path)


def test_retrieve_takes_an_infinite_bound_as_an_open_end():
    s = small_store()
    cps, times, ctl = s.retrieve("outer", 2.0, math.inf)
    assert times == [2.0, 3.0]
    assert [c.u[0] for c in ctl] == list(range(20, 40))
    _, times, ctl = s.retrieve("outer", -math.inf, 1.0)
    assert times == [0.0] and [c.u[0] for c in ctl] == list(range(10))
    _, times, ctl = s.retrieve("outer", -math.inf, math.inf)
    assert times == [0.0, 1.0, 2.0, 3.0] and len(ctl) == 40
    assert s.retrieve("outer", math.inf, math.inf) == ([], [], [])


@pytest.mark.parametrize("t_from, t_to, name", [
    (math.nan, 1.0, "t_from"), (0.0, math.nan, "t_to"),
    (math.nan, math.nan, "t_from")])
def test_retrieve_names_a_nan_bound(t_from, t_to, name):
    with pytest.raises(ValueError, match=f"^{name} is NaN$"):
        small_store().retrieve("outer", t_from, t_to)


def test_a_drop_keeps_the_records_from_its_time_on():
    """Records older than the drop time go, from every log; the rest, and
    what a range starting after the last dropped record returns, stay as
    they were.  A range reaching a dropped record is refused, never cut
    short, and so is an append at or before it."""
    s = small_store()
    s.append_control("inner", 0.05, [1.0])
    whole = s.retrieve("outer", 1.95, math.inf)
    s.drop_before(2.0)
    assert s.save_times("outer") == [2.0, 3.0]
    assert _records(s.retrieve("outer", 1.95, math.inf)) == _records(whole)
    chains = s._checkpoints["outer"], s._controls["outer"]
    assert [(c.dropped, c.anchor_t) for c in chains] == [(2, 1.0),
                                                        (20, 19 * 0.1)]
    assert s._controls["inner"].payloads == [] and \
        s._controls["inner"].dropped == 1
    for t_from, log in ((1.9, "control"), (1.0, "checkpoint"),
                        (-math.inf, "checkpoint")):
        with pytest.raises(ValueError, match=f"^outer: {log}: t_from"):
            s.retrieve("outer", t_from, 4.0)
    with pytest.raises(MonotonicityError, match="not after 0.05"):
        s.append_control("inner", 0.05, [1.0])
    s.append_control("inner", 0.06, [1.0])
    assert s.verify_integrity()
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="drop time"):
            s.drop_before(t)


def test_a_drop_checks_the_store_first():
    """A record changed before a drop is found by the drop's check, even
    one the drop would remove, and nothing is dropped."""
    s = small_store()
    s._tamper("outer", which="control", index=3)
    with pytest.raises(IntegrityError):
        s.drop_before(2.0)
    assert s.save_times("outer") == [0.0, 1.0, 2.0, 3.0]
    assert len(s._controls["outer"].payloads) == 40


def test_a_cut_store_round_trips_through_a_file(tmp_path):
    s = small_store()
    s.drop_before(1.0)
    s.drop_before(2.5)
    s.append_control("outer", 4.0, [40.0])
    path = tmp_path / "store.bin"
    s.save(path)
    loaded = SecureStore.load(path)
    assert _chain_states(loaded) == _chain_states(s)
    assert loaded.verify_integrity()
    loaded.append_control("outer", 4.1, [41.0])
    s.append_control("outer", 4.1, [41.0])
    assert _chain_states(loaded) == _chain_states(s)


def _records(retrieved) -> list:
    """A ``retrieve`` result as comparable tuples."""
    cps, times, ctl = retrieved
    return [times, [(c.t, c.x_hat.tobytes(), c.ads_flags.tobytes())
                    for c in cps], [(c.t, c.u.tobytes()) for c in ctl]]


def _chain_states(store) -> list:
    """Each log's records, tags and anchor."""
    return [(c.label, c.payloads, c.tags, c.anchor, c.anchor_t, c.dropped)
            for c in [*store._checkpoints.values(), *store._controls.values()]]


def test_reads_of_unknown_subsystem_have_no_side_effect():
    s = small_store()
    before = s.subsystems()
    assert s.save_times("nope") == []
    assert s.retrieve("nope", 0.0, 4.0) == ([], [], [])
    assert s.subsystems() == before


def test_verify_after_appends_past_the_seal():
    s = small_store()
    assert s.verify_integrity()
    s.append_control("outer", 4.0, [40.0])
    assert s.verify_integrity()
    s._tamper("outer", which="control", index=40)
    assert not s.verify_integrity()


# -- properties -----------------------------------------------------------

# record times in nanoseconds, so distinct times can share a microsecond
_times_ns = st.lists(st.integers(0, 5_000_000), max_size=30, unique=True)


def _store_from(cp_ns, ctl_ns) -> SecureStore:
    s = SecureStore()
    for i, ns in enumerate(sorted(cp_ns)):
        s.append_checkpoint("a", Checkpoint(ns / 1e9, [i, -i], [i % 2]))
    for i, ns in enumerate(sorted(ctl_ns)):
        s.append_control("a", ns / 1e9, [float(i)])
    s.append_control("b", 0.0, [0.0])
    return s


@settings(max_examples=60, deadline=None)
@given(cp_ns=_times_ns, ctl_ns=_times_ns,
       ends=st.tuples(st.integers(-10, 5_000_010), st.integers(-10, 5_000_010)))
def test_retrieve_matches_brute_force_filter(cp_ns, ctl_ns, ends):
    s = _store_from(cp_ns, ctl_ns)
    t_from, t_to = sorted(e / 1e9 for e in ends)
    lo, hi = to_us(t_from), to_us(t_to)
    cps, times, ctl = s.retrieve("a", t_from, t_to)
    want_cps = [c for c in checkpoints_of(s, "a") if lo <= to_us(c.t) < hi]
    want_ctl = [c for c in controls_of(s, "a") if lo <= to_us(c.t) < hi]
    assert times == [c.t for c in want_cps] == [c.t for c in cps]
    for got, want in zip(cps, want_cps):
        np.testing.assert_array_equal(got.x_hat, want.x_hat)
        np.testing.assert_array_equal(got.ads_flags, want.ads_flags)
    assert [c.t for c in ctl] == [c.t for c in want_ctl]
    for got, want in zip(ctl, want_ctl):
        np.testing.assert_array_equal(got.u, want.u)


def _tamper_payload(chain, i, byte):
    p = bytearray(chain.payloads[i])
    p[byte % len(p)] ^= 0x01
    chain.payloads[i] = bytes(p)


def _tamper_tag(chain, i, byte):
    t = bytearray(chain.tags[i])
    t[byte % len(t)] ^= 0x80
    chain.tags[i] = bytes(t)


def _shift_boundary(chain, i, _):
    """Move the last byte of record ``i`` to the front of the next one."""
    j = min(i, len(chain.payloads) - 2)
    a, b = chain.payloads[j], chain.payloads[j + 1]
    chain.payloads[j], chain.payloads[j + 1] = a[:-1], a[-1:] + b


@settings(max_examples=80, deadline=None)
@given(n_sealed=st.integers(2, 25), n_new=st.integers(0, 10),
       which=st.sampled_from(["checkpoint", "control"]),
       how=st.sampled_from([_tamper_payload, _tamper_tag, _shift_boundary]),
       where=st.integers(0, 10_000), byte=st.integers(0, 255))
def test_tamper_after_verify_is_detected(n_sealed, n_new, which, how, where,
                                         byte):
    s = SecureStore()
    for k in range(n_sealed + n_new):
        if k == n_sealed:
            assert s.verify_integrity()  # passes on the first n_sealed records
        s.append_checkpoint("a", Checkpoint(k * 0.5, [k, 2.0 * k], [0]))
        s.append_control("a", k * 0.5, [k / 3])
    if n_new == 0:
        assert s.verify_integrity()
    chain = (s._checkpoints if which == "checkpoint" else s._controls)["a"]
    how(chain, where % len(chain.payloads), byte)
    assert not s.verify_integrity()
    with pytest.raises(IntegrityError):
        s.retrieve("a", 0.0, 1.0)


def _tamper_anchor(chain, byte):
    a = bytearray(chain.anchor)
    a[byte % len(a)] ^= 0x10
    chain.anchor = bytes(a)


def _shift_tag_boundary(chain, i, _):
    """Move the last byte of tag ``i`` to the front of the next one."""
    j = min(i, len(chain.tags) - 2)
    a, b = chain.tags[j], chain.tags[j + 1]
    chain.tags[j], chain.tags[j + 1] = a[:-1], a[-1:] + b


@settings(max_examples=100, deadline=None)
@given(n_first=st.integers(2, 15), n_more=st.integers(1, 10),
       which=st.sampled_from(["checkpoint", "control"]),
       how=st.sampled_from([_tamper_payload, _tamper_tag, _shift_boundary,
                            _shift_tag_boundary]),
       where=st.integers(0, 10_000), byte=st.integers(0, 255))
def test_tamper_under_a_continued_seal_is_detected(n_first, n_more, which,
                                                   how, where, byte):
    """A check passed before newer appends leaves every record covered."""
    s = SecureStore()
    for k in range(n_first + n_more):
        if k == n_first:
            assert s.verify_integrity()  # passes on the first n_first records
        s.append_checkpoint("a", Checkpoint(k * 0.5, [k, 2.0 * k], [0]))
        s.append_control("a", k * 0.5, [k / 3])
    assert s.verify_integrity()          # and on the rest
    chain = (s._checkpoints if which == "checkpoint" else s._controls)["a"]
    how(chain, where % len(chain.payloads), byte)
    assert not s.verify_integrity()


_KEY = b"property key"


def _full_walk(store) -> bool:
    """Every chain checked from its anchor, with nothing remembered; a
    chain whose record and tag counts differ fails."""
    for kind, logs in ((b"C", store._checkpoints), (b"U", store._controls)):
        for sid, chain in logs.items():
            if len(chain.payloads) != len(chain.tags):
                return False
            prev = chain.anchor
            for payload, tag in zip(chain.payloads, chain.tags):
                want = reference_tag(_KEY, kind, sid.encode(), bytes(prev),
                                     bytes(payload))
                if not hmac.compare_digest(want, bytes(tag)):
                    return False
                prev = tag
    return True


def _as_kept(chains, kept, anchors) -> bool:
    """Every list and anchor of ``chains`` equal, content for content,
    what the API appended and kept: the records and tags of ``kept`` and
    the (dropped, anchor, anchor_t) of ``anchors``."""
    return all([bytes(p) for p in c.payloads] == [p for p, _ in kept[k]]
               and [bytes(t) for t in c.tags] == [t for _, t in kept[k]]
               and (c.dropped, bytes(c.anchor), c.anchor_t) == anchors[k]
               for k, c in chains.items())


_edits = ["flip_payload", "flip_tag", "restore", "to_bytearray", "poke",
          "truncate", "shift", "drop_tag", "drop", "flip_anchor"]


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(st.tuples(
    st.sampled_from(["append", "verify", "to_bytearray", "poke"] * 2
                    + _edits),
    st.sampled_from(["checkpoint", "control"]),
    st.integers(0, 20), st.integers(0, 255)), max_size=40))
@example(ops=[("append", "control", 0, 2), ("to_bytearray", "control", 0, 0),
              ("verify", "control", 0, 0), ("poke", "control", 0, 0),
              ("verify", "control", 0, 0)])
@example(ops=[("append", "control", 0, 2), ("to_bytearray", "control", 0, 1),
              ("verify", "control", 0, 0), ("poke", "control", 0, 1),
              ("verify", "control", 0, 0)])
# a record appended after a tag edit is tagged from the sealed tag, so
# restoring the edit passes
@example(ops=[("append", "control", 0, 0), ("flip_tag", "control", 0, 0),
              ("append", "control", 0, 0), ("restore", "control", 0, 0),
              ("verify", "control", 0, 0)])
# a rewritten last payload whose tag is dropped: the check must not stop
# at the shorter list
@example(ops=[("append", "control", 0, 3), ("verify", "control", 0, 0),
              ("flip_payload", "control", 0, 0), ("drop_tag", "control", 0, 0),
              ("verify", "control", 0, 0)])
# a flipped anchor: the chain's first record no longer follows it
@example(ops=[("append", "control", 0, 3), ("verify", "control", 0, 0),
              ("drop", "control", 2, 0), ("flip_anchor", "control", 0, 5),
              ("verify", "control", 0, 0)])
# a drop before any verify, and a drop over an edit it would remove
@example(ops=[("append", "control", 0, 2), ("drop", "control", 1, 0),
              ("verify", "control", 0, 0)])
@example(ops=[("append", "control", 0, 2), ("flip_payload", "control", 3, 0),
              ("drop", "control", 0, 0), ("verify", "control", 0, 0)])
# an append right after a drop, on a log the drop emptied and on one it
# did not
@example(ops=[("append", "control", 0, 1), ("drop", "control", 0, 0),
              ("append", "checkpoint", 0, 0), ("append", "control", 0, 0),
              ("verify", "control", 0, 0)])
def test_verify_equals_what_the_api_kept_under_any_edit_sequence(ops):
    """Whatever was appended, edited, restored, cut or dropped between
    checks, ``verify_integrity`` is True exactly when every list and anchor
    equal what the API appended and kept; whenever it is True, a walk over
    every record from the anchor passes; and a drop succeeds exactly when
    it is True.

    Edits count records from the newest.  ``truncate`` cuts records and
    tags alike, which a walk accepts and the check does not, until a
    ``restore``.  ``drop`` cuts every log at the time of a record the API
    kept in one, never below an earlier cut.
    """
    s = SecureStore(key=_KEY)
    s.append_checkpoint("a", Checkpoint(0.0, [0.0, 0.0], [0]))
    s.append_control("a", 0.0, [0.0])
    s.append_control("b", 0.0, [0.0])
    chains = {"checkpoint": s._checkpoints["a"], "control": s._controls["a"]}
    kept = {kind: list(zip(chain.payloads, chain.tags))   # as appended
            for kind, chain in chains.items()}
    anchors = {kind: (0, chain.anchor, -math.inf)
               for kind, chain in chains.items()}

    def check() -> bool:
        ok = s.verify_integrity()
        assert ok == _as_kept(chains, kept, anchors)
        assert not ok or _full_walk(s)
        return ok

    clock = cut = 0
    for op, kind, back, byte in ops:
        if op == "verify":
            check()
            continue
        chain = chains[kind]
        if op == "drop" and kept[kind]:
            times = [struct.unpack_from("<d", p, 1)[0] for p, _ in kept[kind]]
            cut = max(cut, times[-1 - back % len(times)])
            passes = check()
            try:
                s.drop_before(cut)
            except IntegrityError:
                assert not passes
                continue
            assert passes
            for k, c in chains.items():
                del kept[k][:len(kept[k]) - len(c.payloads)]
                anchors[k] = (c.dropped, c.anchor, c.anchor_t)
            continue
        if op == "flip_anchor":
            _tamper_anchor(chain, byte)
            continue
        if op == "append":
            for _ in range(1 + byte % 4):
                clock += 1
                if kind == "checkpoint":
                    s.append_checkpoint("a", Checkpoint(clock / 8,
                                                        [clock, -clock], [1]))
                else:
                    s.append_control("a", clock / 8, [clock / 3])
                kept[kind].append((chain.payloads[-1], chain.tags[-1]))
            continue
        if len(chain.payloads) < 2:
            continue
        i = len(chain.payloads) - 1 - back % len(chain.payloads)
        records = chain.tags if byte % 2 else chain.payloads
        if op == "flip_payload" and chain.payloads[i]:
            _tamper_payload(chain, i, byte)
        elif op == "flip_tag" and i < len(chain.tags):
            _tamper_tag(chain, i, byte)
        elif op == "restore":   # equal bytes, but new objects
            chain.payloads[:] = [bytes(bytearray(p)) for p, _ in kept[kind]]
            chain.tags[:] = [bytes(bytearray(t)) for _, t in kept[kind]]
            chain.anchor = bytes(bytearray(anchors[kind][1]))
        elif op == "to_bytearray":   # equal content, but mutable
            records[i:] = map(bytearray, records[i:])
        elif op == "poke":      # change a bytearray record in place
            mutable = [r for r in chain.payloads + chain.tags
                       if isinstance(r, bytearray) and r]
            if mutable:
                r = mutable[back % len(mutable)]
                r[byte % len(r)] ^= 0x04
        elif op == "truncate":
            n = 1 + back % (len(chain.payloads) - 1)
            del chain.payloads[-n:]
            del chain.tags[-n:]
        elif op == "shift":
            _shift_boundary(chain, i, byte)
        elif op == "drop_tag" and i < len(chain.tags):
            del chain.tags[i]
    check()


def _file_records(data: bytes) -> list:
    """A saved store's records as ``[sub-system id, payload, tag]``."""
    records, off = [], 0
    while off < len(data):
        (length,) = struct.unpack_from("<I", data, off)
        sub, _, payload = data[off + 4:off + 4 + length].partition(b"\x00")
        off += 4 + length + 32
        records.append([sub, payload, data[off - 32:off]])
    return records


def _file_of(records) -> bytes:
    return b"".join(struct.pack("<I", len(sub) + 1 + len(payload)) + sub
                    + b"\x00" + payload + tag for sub, payload, tag in records)


_FILE_MUTATIONS = ["front_cut", "reanchored_front_cut", "drop_anchor",
                   "flip_anchor", "move_anchor", "repeat_anchor",
                   "rename_log"]


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(3, 8), min_size=1, max_size=3),
       cuts=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       mutation=st.sampled_from([None, *_FILE_MUTATIONS]),
       pick=st.integers(0, 10_000), byte=st.integers(0, 10_000))
def test_an_anchored_file_loads_only_as_saved(tmp_path_factory, sizes, cuts,
                                              mutation, pick, byte):
    """A store cut once or more, saved to a file, loads to equal chains,
    anchors included.  Each mutation of the file fails the load: one more
    record cut from the front of a log, with or without its anchor
    rewritten to match the cut; an anchor dropped, one bit flipped in its
    payload or MAC, moved to lead another log, or repeated after a record
    of its own log, which ``save`` never writes; or a log renamed, anchor
    and records, to another loop id, whose key every tag and the anchor's
    MAC depend on.  Every log keeps at least two records, since cutting a
    log's only record is also cutting its suffix, which a hash chain cannot
    detect."""
    s = SecureStore(key=_KEY)
    for i, n in enumerate(sizes):      # n checkpoints and 5 n controls
        for k in range(n):
            s.append_checkpoint(f"s{i}", Checkpoint(k * 0.5, [k, -k], [0]))
        for k in range(5 * n):
            s.append_control(f"s{i}", k * 0.1, [k / 3])
    for j in sorted(cuts):
        s.drop_before(min(j, min(sizes) - 2) * 0.5)
    path = tmp_path_factory.mktemp("store") / "store.bin"
    s.save(path)
    records = _file_records(path.read_bytes())
    anchors = [i for i, (_, payload, _) in enumerate(records)
               if payload[:1] == b"A"]
    assert len(anchors) == 2 * len(sizes)
    if mutation is None:
        assert _chain_states(SecureStore.load(path, key=_KEY)) == \
            _chain_states(s)
        return
    a = anchors[pick % len(anchors)]
    sub, body, mac = records[a]
    if mutation == "front_cut":       # a log's first record follows its anchor
        del records[a + 1]
    elif mutation == "reanchored_front_cut":
        _, first, tag = records.pop(a + 1)
        _, kind, dropped, _ = storemod._ANCHOR_HEAD.unpack_from(body)
        (t,) = struct.unpack_from("<d", first, 1)
        records[a][1] = storemod._ANCHOR_HEAD.pack(
            b"A", kind, dropped + 1, t) + tag
    elif mutation == "drop_anchor":
        del records[a]
    elif mutation == "rename_log":    # the anchor, then its log's records
        end = a + 1
        while end < len(records) and records[end][0] == sub \
                and records[end][1][:1] == body[1:2]:
            end += 1
        for r in records[a:end]:
            r[0] = sub + b"x"
    elif mutation == "repeat_anchor":
        records.insert(a + 2, list(records[a]))
    elif mutation == "flip_anchor":
        blob = bytearray(body + mac)
        blob[byte % len(blob)] ^= 1 << byte % 8
        records[a][1:] = bytes(blob[:len(body)]), bytes(blob[len(body):])
    else:       # in place of another log's anchor, relabelled for that log
        b = anchors[(pick + 1 + byte % (len(anchors) - 1)) % len(anchors)]
        other = records[b]
        records[b] = [other[0], b"A" + other[1][1:2] + body[2:], mac]
    path.write_bytes(_file_of(records))
    with pytest.raises(IntegrityError):
        SecureStore.load(path, key=_KEY)


@pytest.mark.parametrize("horizon", [2.0, 10.0])
def test_swapping_two_logs_ids_fails_the_load(tmp_path, horizon):
    """The seed-42 run's store, saved and then given ``inner-1``'s id on
    every ``inner-2`` record and the reverse, fails the load: each log
    tags under a key of its own id.  The 2 s run has dropped nothing, so
    no anchor MAC is there to catch the swap; the 10 s run's logs each lead
    with one."""
    res = sim.run_scenario(cfgmod.build_case_study(seed=42, horizon=horizon))
    path = tmp_path / "store.bin"
    res.store.save(path)
    records = _file_records(path.read_bytes())
    anchors = sum(payload[:1] == b"A" for _, payload, _ in records)
    assert anchors == (0 if horizon == 2.0 else 6)
    swap = {b"inner-1": b"inner-2", b"inner-2": b"inner-1"}
    for record in records:
        record[0] = swap.get(record[0], record[0])
    path.write_bytes(_file_of(records))
    with pytest.raises(IntegrityError, match="fails its"):
        SecureStore.load(path)


# the seed-42 run's own store, as saved: its records from 8 s on, each log
# led by its anchor
PINNED_CUT_SIZE = 28_222
PINNED_CUT_SHA256 = \
    "ab251f881db6c0f2ab96037a45fdec78ed2e3d2e86c882b3703f2f94cac9a665"


def test_saved_store_format_is_pinned(tmp_path, monkeypatch):
    """Every record the default seed-42 run appended saves to the same
    bytes as before the store was cut; the run's own store saves to bytes
    pinned as well."""
    monkeypatch.delenv("CPSRECOVER_STORE_KEY", raising=False)
    res = sim.run_scenario(cfgmod.build_case_study(seed=42))
    path = tmp_path / "store.bin"
    full_store(res).save(path)
    data = path.read_bytes()
    assert len(data) == 139_036
    assert hashlib.sha256(data).hexdigest() == \
        "454f89d339cf3812902512ce8bb1a4ecfae6a25667b5de5d3b74310aa4d591a2"
    res.store.save(path)
    data = path.read_bytes()
    assert len(data) == PINNED_CUT_SIZE
    assert hashlib.sha256(data).hexdigest() == PINNED_CUT_SHA256


@settings(max_examples=100, deadline=None)
@given(key=st.binary(max_size=200), prev=st.binary(min_size=32, max_size=32),
       payload=st.binary(max_size=100))
@example(key=b"k" * 64, prev=b"\x00" * 32, payload=b"")
@example(key=b"k" * 65, prev=b"\x00" * 32, payload=b"U")
def test_chain_tags_are_keyed_blake2s(key, prev, payload):
    """Each log tags under its own key, derived from the store key; an
    empty key still keys the hash."""
    for kind, chain in zip((b"C", b"U"), SecureStore(key=key)._chains("a")):
        tag = chain._tag(payload, prev)
        assert tag == reference_tag(key, kind, b"a", prev, payload)
        assert tag != hashlib.blake2s(prev + payload).digest()


def test_a_default_run_hashes_each_record_once(monkeypatch):
    """Appends join the sealed copy, so the checks before each recovery
    only compare: one MAC per appended record over the whole run."""
    macs = [0]
    tag = storemod._Chain._tag

    def counting_tag(chain, payload, prev):
        macs[0] += 1
        return tag(chain, payload, prev)

    monkeypatch.setattr(storemod._Chain, "_tag", counting_tag)
    result = sim.run_scenario(cfgmod.build_case_study(seed=42))
    assert np.isfinite(result.traces["outer"]["k1"]).any()   # it recovered
    run_macs = macs[0]
    assert result.store.verify_integrity()
    assert macs[0] == run_macs
    full = full_store(result)
    chains = [*full._checkpoints.values(), *full._controls.values()]
    assert run_macs == sum(len(c.payloads) for c in chains) > 0


def test_load_hashes_each_record_once(case_result, tmp_path, monkeypatch):
    """``load`` appends each record as a write does and compares the tag
    that append computed: one MAC per record and one per anchor, and the
    loaded store's first check only compares."""
    path = tmp_path / "store.bin"
    case_result.store.save(path)
    macs = [0]
    tag = storemod._Chain._tag

    def counting_tag(chain, payload, prev):
        macs[0] += 1
        return tag(chain, payload, prev)

    monkeypatch.setattr(storemod._Chain, "_tag", counting_tag)
    loaded = SecureStore.load(path)
    chains = [*loaded._checkpoints.values(), *loaded._controls.values()]
    anchors = sum(1 for c in chains if c.dropped)
    assert anchors == len(chains)
    assert macs[0] == sum(len(c.payloads) for c in chains) + anchors
    assert loaded.verify_integrity()
    assert macs[0] == sum(len(c.payloads) for c in chains) + anchors


def test_case_study_store_invariants(case_result):
    store = full_store(case_result)
    horizon_us = to_us(cfgmod.default_config()["horizon"])
    # the detected-anomaly intervals of the default schedule
    detected = [(3.5, 5.0), (8.5, 10.0)]
    for sid in ("outer", "inner-1", "inner-2"):
        times = store.save_times(sid)
        assert times == [c.t for c in checkpoints_of(store, sid)]
        assert times == [0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0]
        for t in times:
            assert not any(a <= t < b for a, b in detected)
        # control log has a record at every tick with no gaps
        ctl = controls_of(store, sid)
        dt_us = 100_000 if sid == "outer" else 10_000
        ts = [to_us(c.t) for c in ctl]
        assert ts == list(range(0, horizon_us, dt_us))


def test_tick_counts(case_result):
    store = full_store(case_result)
    assert len(controls_of(store, "outer")) == 100
    assert len(controls_of(store, "inner-1")) == 1000
    assert len(controls_of(store, "inner-2")) == 1000


@settings(max_examples=200, deadline=None)
@given(u=st.integers(0, 3).flatmap(ieee_vectors),
       form=st.sampled_from(["<f8", ">f8", "<f4", "list"]))
def test_a_control_packs_as_its_little_endian_doubles(u, form):
    """A control record's payload is the same whatever form ``u`` takes:
    a float64 array is packed without a copy, any other form through
    ``asarray(u, "<f8")``."""
    with np.errstate(all="ignore"):     # doubles past float32's range
        u = u.tolist() if form == "list" else u.astype(form)
    assert (storemod._pack_control(0.5, u)
            == reference_pack_control(0.5, u))


def test_a_subsystem_id_holding_nul_is_refused():
    """``save`` ends a record's sub-system id at its first NUL, so such an
    id is refused on its first append, by name, and the store stays
    empty."""
    s = SecureStore()
    for append in (lambda: s.append_control("a\x00a", 0.0, [1.0]),
                   lambda: s.append_checkpoint(
                       "a\x00a", Checkpoint(0.0, [1.0], [0]))):
        with pytest.raises(ValueError, match=re.escape(repr("a\x00a"))):
            append()
    assert s.subsystems() == [] and s.verify_integrity()
