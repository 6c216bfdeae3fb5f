import hashlib
import hmac
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
from helpers import (checkpoints_of, controls_of, ieee_vectors,
                     reference_pack_control)


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


def test_truncation_not_detected_by_chain():
    # removing a suffix of records, tags and times alike keeps a valid
    # chain prefix; documented semantics
    s = small_store()
    chain = s._controls["outer"]
    chain.payloads.pop()
    chain.tags.pop()
    chain.times.pop()
    assert s.verify_integrity()


def test_truncation_after_verify_not_detected_by_chain():
    # truncating below the sealed count falls back to a full walk
    s = small_store()
    assert s.verify_integrity()
    chain = s._controls["outer"]
    del chain.payloads[-3:]
    del chain.tags[-3:]
    del chain.times[-3:]
    assert s.verify_integrity()
    _, _, ctl = s.retrieve("outer", 3.0, 4.0)
    assert [round(c.t, 10) for c in ctl] == [3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6]


def test_a_record_without_its_tag_fails_verification(tmp_path):
    """A rewritten last payload whose tag is dropped is not served: the
    chain's payload and tag counts differ, so the check fails and
    ``save`` refuses the store, writing nothing."""
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
    with pytest.raises(IntegrityError, match="counts differ"):
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
    tag = hmac.new(DEFAULT_KEY, b"\x00" * 32 + payload, hashlib.sha256)
    path = tmp_path / "store.bin"
    path.write_bytes(struct.pack("<I", len(rec)) + rec + tag.digest())
    with pytest.raises(IntegrityError, match=r"store\.bin: .*outer"):
        SecureStore.load(path, key=DEFAULT_KEY)


def _tagged_controls(path, times):
    """Write one ``outer`` control record per time, each correctly tagged
    under the default key, as ``save`` would."""
    prev, data = b"\x00" * 32, b""
    for t in times:
        payload = b"U" + struct.pack("<dI", t, 1) + struct.pack("<d", 1.0)
        prev = hmac.new(DEFAULT_KEY, prev + payload, hashlib.sha256).digest()
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
            assert s.verify_integrity()  # seals the first n_sealed records
        s.append_checkpoint("a", Checkpoint(k * 0.5, [k, 2.0 * k], [0]))
        s.append_control("a", k * 0.5, [k / 3])
    if n_new == 0:
        assert s.verify_integrity()
    chain = (s._checkpoints if which == "checkpoint" else s._controls)["a"]
    how(chain, where % len(chain.payloads), byte)
    assert not s.verify_integrity()
    with pytest.raises(IntegrityError):
        s.retrieve("a", 0.0, 1.0)


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
    """A seal extended over newer records still covers every record."""
    s = SecureStore()
    for k in range(n_first + n_more):
        if k == n_first:
            assert s.verify_integrity()  # seals the first n_first records
        s.append_checkpoint("a", Checkpoint(k * 0.5, [k, 2.0 * k], [0]))
        s.append_control("a", k * 0.5, [k / 3])
    assert s.verify_integrity()          # extends the seal over the rest
    chain = (s._checkpoints if which == "checkpoint" else s._controls)["a"]
    how(chain, where % len(chain.payloads), byte)
    assert not s.verify_integrity()


_KEY = b"property key"


def _full_walk(store) -> bool:
    """Every chain checked from its first record, with nothing remembered;
    a chain whose record, tag and time counts differ fails."""
    for chain in [*store._checkpoints.values(), *store._controls.values()]:
        if not len(chain.payloads) == len(chain.tags) == len(chain.times):
            return False
        prev = b"\x00" * 32
        for payload, tag in zip(chain.payloads, chain.tags):
            want = hmac.new(_KEY, bytes(prev) + bytes(payload),
                            hashlib.sha256).digest()
            if not hmac.compare_digest(want, bytes(tag)):
                return False
            prev = tag
    return True


_edits = ["flip_payload", "flip_tag", "restore", "to_bytearray", "poke",
          "truncate", "shift", "drop_tag"]


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
# a record appended after a tag edit is tagged from the edited tag, so it
# must not join the walked copy: restoring the edit would then pass
@example(ops=[("append", "control", 0, 0), ("flip_tag", "control", 0, 0),
              ("append", "control", 0, 0), ("restore", "control", 0, 0),
              ("verify", "control", 0, 0)])
# a rewritten last payload whose tag is dropped: the walk must not stop at
# the shorter list
@example(ops=[("append", "control", 0, 3), ("verify", "control", 0, 0),
              ("flip_payload", "control", 0, 0), ("drop_tag", "control", 0, 0),
              ("verify", "control", 0, 0)])
def test_verify_equals_a_full_walk_under_any_edit_sequence(ops):
    """Whatever was appended, edited, restored or cut between checks,
    ``verify_integrity`` gives the verdict of a walk over every record.

    Edits count records from the newest, where the walked copy ends.
    ``truncate`` cuts records and tags but not times, so from then on both
    verdicts are False.
    """
    s = SecureStore(key=_KEY)
    s.append_checkpoint("a", Checkpoint(0.0, [0.0, 0.0], [0]))
    s.append_control("a", 0.0, [0.0])
    s.append_control("b", 0.0, [0.0])
    chains = {"checkpoint": s._checkpoints["a"], "control": s._controls["a"]}
    originals = {kind: list(zip(chain.payloads, chain.tags))
                 for kind, chain in chains.items()}   # records as appended
    clock = 0
    for op, kind, back, byte in ops:
        if op == "verify":
            assert s.verify_integrity() == _full_walk(s)
            continue
        chain = chains[kind]
        if op == "append":
            for _ in range(1 + byte % 4):
                clock += 1
                if kind == "checkpoint":
                    s.append_checkpoint("a", Checkpoint(clock / 8,
                                                        [clock, -clock], [1]))
                else:
                    s.append_control("a", clock / 8, [clock / 3])
                originals[kind].append((chain.payloads[-1], chain.tags[-1]))
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
            chain.payloads[:] = [bytes(bytearray(p))
                                 for p, _ in originals[kind]]
            chain.tags[:] = [bytes(bytearray(t)) for _, t in originals[kind]]
        elif op == "to_bytearray":   # equal content, but mutable
            records[i:] = map(bytearray, records[i:])
        elif op == "poke":      # change a bytearray record in place
            mutable = [r for r in chain.payloads + chain.tags
                       if isinstance(r, bytearray) and r]
            if mutable:
                r = mutable[back % len(mutable)]
                r[byte % len(r)] ^= 0x04
        elif op == "truncate":
            cut = 1 + back % (len(chain.payloads) - 1)
            del chain.payloads[-cut:]
            del chain.tags[-cut:]
            del originals[kind][-cut:]
        elif op == "shift":
            _shift_boundary(chain, i, byte)
        elif op == "drop_tag" and i < len(chain.tags):
            del chain.tags[i]
    assert s.verify_integrity() == _full_walk(s)


def test_saved_store_format_is_pinned(tmp_path, monkeypatch):
    """The default seed-42 store saves to the same bytes as before."""
    monkeypatch.delenv("CPSRECOVER_STORE_KEY", raising=False)
    path = tmp_path / "store.bin"
    sim.run_scenario(cfgmod.build_case_study(seed=42)).store.save(path)
    data = path.read_bytes()
    assert len(data) == 139_036
    assert hashlib.sha256(data).hexdigest() == \
        "aa2a9f17e513f497c1c33525b6c16b202aff572e1e3a8d969191621d80dd1cc4"


@settings(max_examples=100, deadline=None)
@given(key=st.binary(max_size=200), prev=st.binary(min_size=32, max_size=32),
       payload=st.binary(max_size=100))
@example(key=b"k" * 64, prev=b"\x00" * 32, payload=b"")
@example(key=b"k" * 65, prev=b"\x00" * 32, payload=b"U")
def test_chain_tags_are_hmac_sha256(key, prev, payload):
    chain = storemod._Chain(storemod._keyed_sha256(key), "a: control")
    assert chain._tag(payload, prev) == hmac.new(
        key, prev + payload, hashlib.sha256).digest()


def test_a_default_run_hashes_each_record_once(monkeypatch):
    """Appends join the walked copy, so the checks before each recovery
    only compare: one MAC per appended record over the whole run."""
    macs = [0]
    tag = storemod._Chain._tag

    def counting_tag(chain, payload, prev):
        macs[0] += 1
        return tag(chain, payload, prev)

    monkeypatch.setattr(storemod._Chain, "_tag", counting_tag)
    result = sim.run_scenario(cfgmod.build_case_study(seed=42))
    assert np.isfinite(result.traces["outer"]["k1"]).any()   # it recovered
    chains = [*result.store._checkpoints.values(),
              *result.store._controls.values()]
    assert macs[0] == sum(len(c.payloads) for c in chains) > 0
    assert result.store.verify_integrity()
    assert macs[0] == sum(len(c.payloads) for c in chains)


def test_load_hashes_each_record_once(case_result, tmp_path, monkeypatch):
    """``load`` appends each record as a write does and compares the tag
    that append computed: one MAC per record, and the loaded store's first
    check only compares."""
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
    assert macs[0] == sum(len(c.payloads) for c in chains) > 0
    assert loaded.verify_integrity()
    assert macs[0] == sum(len(c.payloads) for c in chains)


def test_case_study_store_invariants(case_result):
    store = case_result.store
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
    store = case_result.store
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
