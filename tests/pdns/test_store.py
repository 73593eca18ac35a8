"""Segmented store tests: oracle equality, compaction, corruption."""

import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.core.container import (FormatError, read_frame, read_header,
                                  write_frame)
from repro.core.records import rr_sort_key
from repro.dns.message import RRType
from repro.pdns.database import (PassiveDnsDatabase, PdnsBackend,
                                 wildcard_aggregated_size)
from repro.pdns.segments import (SEGMENT_MAGIC, SEGMENT_SUFFIX,
                                 SEGMENT_VERSION, build_segment_bytes,
                                 open_segment)
from repro.pdns.store import SegmentedPdnsStore
from tests.oracles.compaction import compacted_bytes

DAYS = [f"2011-04-{day:02d}" for day in range(1, 9)]


def day_keys(index):
    """Per-day RR keys: fresh names, a stable overlap set, and CNAMEs."""
    keys = [(f"d{index}-{j}.pool{j % 3}.cdn.example.com",
             RRType.A, f"10.{index}.0.{j}") for j in range(12)]
    keys += [(f"stable{j}.core.example.net", RRType.A,
              f"192.168.1.{j}") for j in range(6)]
    keys += [(f"alias{index}.other.org", RRType.CNAME,
              f"target{index % 2}.other.org")]
    return keys


def populate(backend):
    for index, day in enumerate(DAYS):
        backend.ingest_rrs(day, day_keys(index))
    return backend


@pytest.fixture
def oracle():
    return populate(PassiveDnsDatabase())


def layout_plain(root):
    """One segment per day."""
    return populate(SegmentedPdnsStore(root))


def layout_compacted(root):
    """Everything merged into one segment."""
    store = populate(SegmentedPdnsStore(root))
    store.compact()
    return store


def layout_partial(root):
    """Small segments merged, recent days left alone, tiny LRU."""
    store = populate(SegmentedPdnsStore(root, max_resident=1))
    store.compact(max_rows=13)
    return store


LAYOUTS = [layout_plain, layout_compacted, layout_partial]


@pytest.mark.parametrize("layout", LAYOUTS,
                         ids=["per-day", "compacted", "partial"])
class TestOracleEquality:
    def test_len_and_keys(self, tmp_path, oracle, layout):
        store = layout(tmp_path)
        assert len(store) == len(oracle)
        assert sorted(store.rr_keys(), key=rr_sort_key) == \
            sorted(oracle.rr_keys(), key=rr_sort_key)

    def test_first_seen_every_key(self, tmp_path, oracle, layout):
        store = layout(tmp_path)
        for key in oracle.rr_keys():
            assert store.first_seen(key) == oracle.first_seen(key)
        missing = ("absent.example.com", RRType.A, "0.0.0.0")
        assert store.first_seen(missing) is None
        assert missing not in store

    def test_entries_for_name(self, tmp_path, oracle, layout):
        store = layout(tmp_path)
        for name in ["stable0.core.example.net",
                     "d3-7.pool1.cdn.example.com", "alias2.other.org",
                     "never-stored.example.com"]:
            assert sorted(store.entries_for_name(name),
                          key=lambda e: rr_sort_key(e.rr_key())) == \
                sorted(oracle.entries_for_name(name),
                       key=lambda e: rr_sort_key(e.rr_key()))

    def test_entries_for_rdata(self, tmp_path, oracle, layout):
        store = layout(tmp_path)
        for rdata in ["192.168.1.3", "target0.other.org", "10.2.0.5",
                      "203.0.113.1"]:
            assert sorted(store.entries_for_rdata(rdata),
                          key=lambda e: rr_sort_key(e.rr_key())) == \
                sorted(oracle.entries_for_rdata(rdata),
                       key=lambda e: rr_sort_key(e.rr_key()))

    def test_names_under_zone(self, tmp_path, oracle, layout):
        store = layout(tmp_path)
        for zone in ["cdn.example.com", "example.com", "core.example.net",
                     "other.org", "org", "unknown.tld"]:
            assert store.names_under_zone(zone) == \
                oracle.names_under_zone(zone)

    def test_new_records_per_day(self, tmp_path, oracle, layout):
        store = layout(tmp_path)
        assert store.new_records_per_day() == oracle.new_records_per_day()
        assert store.ingested_days() == sorted(oracle.ingested_days())

    def test_wildcard_aggregation(self, tmp_path, oracle, layout):
        store = layout(tmp_path)
        groups = {("pool0.cdn.example.com", 5), ("other.org", 3)}
        assert wildcard_aggregated_size(store, groups) == \
            wildcard_aggregated_size(oracle, groups)

    def test_novel_keys(self, tmp_path, oracle, layout):
        store = layout(tmp_path)
        probe = day_keys(2)[:10] + [("fresh.new.example.org", RRType.A,
                                     "198.51.100.7")]
        assert store.novel_keys(probe) == oracle.novel_keys(probe)


class TestIngest:
    def test_reports_match_oracle(self, tmp_path):
        store = SegmentedPdnsStore(tmp_path)
        oracle = PassiveDnsDatabase()
        for index, day in enumerate(DAYS):
            ours = store.ingest_rrs(day, day_keys(index))
            theirs = oracle.ingest_rrs(day, day_keys(index))
            assert (ours.new_records, ours.duplicate_records,
                    ours.total_records_seen) == \
                (theirs.new_records, theirs.duplicate_records,
                 theirs.total_records_seen)

    def test_zero_new_day_still_accounted(self, tmp_path):
        store = SegmentedPdnsStore(tmp_path)
        store.ingest_rrs(DAYS[0], day_keys(0))
        report = store.ingest_rrs(DAYS[1], day_keys(0))  # all duplicates
        assert report.new_records == 0
        assert store.new_records_per_day()[DAYS[1]] == 0
        assert DAYS[1] in store.ingested_days()
        store.compact()
        assert store.new_records_per_day()[DAYS[1]] == 0
        assert DAYS[1] in store.ingested_days()

    def test_first_ingest_wins(self, tmp_path):
        store = SegmentedPdnsStore(tmp_path)
        key = ("a.example.com", RRType.A, "10.0.0.1")
        store.ingest_rrs(DAYS[0], [key])
        store.ingest_rrs(DAYS[1], [key])
        assert store.first_seen(key) == DAYS[0]
        assert len(store) == 1

    def test_reingest_same_day_is_idempotent(self, tmp_path):
        store = SegmentedPdnsStore(tmp_path)
        store.ingest_rrs(DAYS[0], day_keys(0))
        ledger = store.new_records_per_day()
        report = store.ingest_rrs(DAYS[0], day_keys(0))
        assert report.new_records == 0
        assert report.duplicate_records == len(day_keys(0))
        # No redundant empty segment duplicating the day roster.
        assert store.stats().n_segments == 1
        assert store.new_records_per_day() == ledger
        assert store.ingested_days() == [DAYS[0]]
        store.compact()
        assert len(store) == len(dict.fromkeys(day_keys(0)))

    def test_reingest_empty_day_is_idempotent(self, tmp_path):
        store = SegmentedPdnsStore(tmp_path)
        store.ingest_rrs(DAYS[0], [])
        assert store.stats().n_segments == 1  # ledger day preserved
        store.ingest_rrs(DAYS[0], [])
        assert store.stats().n_segments == 1
        assert store.new_records_per_day() == {DAYS[0]: 0}

    def test_reopen_from_disk(self, tmp_path):
        populate(SegmentedPdnsStore(tmp_path))
        reopened = SegmentedPdnsStore(tmp_path)
        oracle = populate(PassiveDnsDatabase())
        assert len(reopened) == len(oracle)
        assert reopened.new_records_per_day() == \
            oracle.new_records_per_day()


class TestCompaction:
    def _segment_digests(self, root):
        return sorted(
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in root.glob("*.pdnsseg"))

    def test_merge_order_is_byte_identical(self, tmp_path):
        root_a = tmp_path / "a"
        root_b = tmp_path / "b"
        populate(SegmentedPdnsStore(root_a)).compact()
        staged = populate(SegmentedPdnsStore(root_b))
        staged.compact(max_rows=13)   # merge small segments first ...
        staged.compact()              # ... then everything
        assert self._segment_digests(root_a) == \
            self._segment_digests(root_b)

    def test_preserves_first_seen_and_order(self, tmp_path, oracle):
        store = populate(SegmentedPdnsStore(tmp_path))
        before = list(store.iter_rr_items())
        report = store.compact()
        assert report.merged_segments == len(DAYS)
        assert report.bytes_after < report.bytes_before
        after = list(store.iter_rr_items())
        assert dict(after) == dict(before)
        keys = [key for key, _ in after]
        assert keys == sorted(keys, key=rr_sort_key)
        for key in oracle.rr_keys():
            assert store.first_seen(key) == oracle.first_seen(key)

    def test_nothing_to_merge(self, tmp_path):
        store = SegmentedPdnsStore(tmp_path)
        store.ingest_rrs(DAYS[0], day_keys(0))
        report = store.compact()
        assert report.merged_segments == 0
        assert report.bytes_before == report.bytes_after

    def test_identity_merge_does_not_destroy_rows(self, tmp_path):
        """Regression: when the merged output's content key equals a
        merged input's key (identity merge), compact() must not delete
        the output it just published.

        A stray empty segment whose day roster duplicates a sibling's
        (possible in stores written before re-ingest became idempotent)
        makes the merge a no-op content-wise: merged bytes == the
        non-empty input's bytes == the same content-addressed key.  The
        delete loop used to remove that key, silently destroying every
        row."""
        store = SegmentedPdnsStore(tmp_path)
        store.ingest_rrs(DAYS[0], day_keys(0))
        before = dict(store.iter_rr_items())
        assert before
        # Plant the legacy duplicate-roster empty segment directly.
        data = build_segment_bytes({}, days=[DAYS[0]])
        digest = hashlib.sha256(data).hexdigest()[:16]
        name = f"{DAYS[0]}--{DAYS[0]}--{digest}{SEGMENT_SUFFIX}"
        (tmp_path / name).write_bytes(data)
        store = SegmentedPdnsStore(tmp_path)
        assert store.stats().n_segments == 2
        report = store.compact()
        assert report.merged_segments == 2
        assert report.bytes_after > 0
        assert dict(store.iter_rr_items()) == before
        first_key = day_keys(0)[0]
        assert store.first_seen(first_key) == DAYS[0]
        # Survives a reopen: the merged bytes really are on disk.
        reopened = SegmentedPdnsStore(tmp_path)
        assert dict(reopened.iter_rr_items()) == before

    def test_failed_input_delete_raises_then_recompacts(self, tmp_path,
                                                        oracle,
                                                        monkeypatch):
        """An input that cannot be unlinked fails compact() instead of
        reporting success; the store then serves what is on disk, and
        compacting again once the fault clears gives a clean result."""
        root = tmp_path / "faulty"
        store = populate(SegmentedPdnsStore(root))
        real_unlink = Path.unlink
        failed = []

        def unlink_once_denied(path, *args, **kwargs):
            if not failed:
                failed.append(path)
                raise PermissionError(13, "injected", str(path))
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", unlink_once_denied)
        with pytest.raises(PermissionError):
            store.compact()
        monkeypatch.undo()
        assert failed[0].exists()
        on_disk = sorted(root.glob("*.pdnsseg"))
        # The first failure stops the deletes: every input is left.
        assert store.stats().n_segments == len(on_disk) == len(DAYS) + 1

        store.compact()
        assert len(store) == len(oracle)
        assert store.new_records_per_day() == oracle.new_records_per_day()
        for key in oracle.rr_keys():
            assert store.first_seen(key) == oracle.first_seen(key)
        clean = tmp_path / "clean"
        populate(SegmentedPdnsStore(clean)).compact()
        assert self._segment_digests(root) == self._segment_digests(clean)


class TestPrefilterCounters:
    def test_point_lookup_skips_most_segments(self, tmp_path):
        store = populate(SegmentedPdnsStore(tmp_path))
        store.reset_counters()
        key = day_keys(5)[0]  # fresh name unique to day 5
        assert store.first_seen(key) == DAYS[5]
        assert store.segments_skipped >= 5
        assert store.segments_opened <= 2

    def test_zone_miss_opens_nothing(self, tmp_path):
        store = populate(SegmentedPdnsStore(tmp_path))
        store.reset_counters()
        assert store.names_under_zone("absent.example.io") == set()
        assert store.segments_opened == 0
        assert store.segments_skipped == len(DAYS)

    def test_stats_render(self, tmp_path):
        store = populate(SegmentedPdnsStore(tmp_path))
        stats = store.stats()
        assert stats.n_segments == len(DAYS)
        assert stats.n_rows == len(store)
        assert stats.total_bytes == store.storage_bytes()
        assert "segments" in stats.render()


def string_days(data):
    """A segment whose header ``days`` is one string, not a list."""
    handle = io.BytesIO(data)
    header, _ = read_header(handle, SEGMENT_MAGIC, SEGMENT_VERSION,
                            ("filters", "payload"), len(data), "<t>")
    header["days"] = header["days"][0]
    line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return SEGMENT_MAGIC + line.encode() + b"\n" + data[handle.tell():]


def foreign_payload(data):
    """A segment as a foreign writer might emit it: every checksum
    matches, but the payload's column header names an unknown dtype."""
    header, (filters, payload) = read_frame(
        data, SEGMENT_MAGIC, SEGMENT_VERSION, ("filters", "payload"), "<t>")
    fields = {key: header[key]
              for key in ("days", "n_names", "n_rows", "version")}
    broken = bytes(payload).replace(b'"dtype":"<i4"', b'"dtype":"zzz"')
    assert broken != payload
    return write_frame(SEGMENT_MAGIC, fields,
                       {"filters": bytes(filters), "payload": broken})


class TestCorruption:
    def _corrupt_one(self, root, flip=-4):
        path = sorted(root.glob("*.pdnsseg"))[0]
        data = bytearray(path.read_bytes())
        data[flip] ^= 0xFF
        path.write_bytes(bytes(data))
        return path

    def test_raise_mode_names_path(self, tmp_path):
        populate(SegmentedPdnsStore(tmp_path))
        bad = self._corrupt_one(tmp_path, flip=20)  # header damage
        with pytest.raises(FormatError, match=str(bad)):
            SegmentedPdnsStore(tmp_path)

    def test_skip_mode_reports_and_serves_the_rest(self, tmp_path):
        populate(SegmentedPdnsStore(tmp_path))
        bad = sorted(tmp_path.glob("*.pdnsseg"))[0]
        pristine = bad.read_bytes()
        flipped = bytearray(pristine)
        flipped[20] ^= 0xFF
        # Header damage, then headers that are valid JSON of the wrong
        # shape: not an object, and a days field that is one string.
        for damaged in (bytes(flipped), SEGMENT_MAGIC + b"[1]\n",
                        string_days(pristine)):
            bad.write_bytes(damaged)
            store = SegmentedPdnsStore(tmp_path, on_corrupt="skip")
            reports = store.corrupt_segments()
            assert [str(bad)] == [path for path, _ in reports]
            assert str(bad) in reports[0][1]
            assert store.stats().corrupt_segments == 1
            key = day_keys(5)[0]
            assert store.first_seen(key) == DAYS[5]

    def test_lazy_payload_corruption_quarantines_in_skip_mode(
            self, tmp_path):
        populate(SegmentedPdnsStore(tmp_path))
        bad = sorted(tmp_path.glob("*.pdnsseg"))[0]
        pristine = bad.read_bytes()
        flipped = bytearray(pristine)
        flipped[-4] ^= 0xFF
        # Payload damage, then an undecodable payload whose checksum
        # matches.
        for damaged in (bytes(flipped), foreign_payload(pristine)):
            bad.write_bytes(damaged)
            store = SegmentedPdnsStore(tmp_path, on_corrupt="skip")
            assert not store.corrupt_segments()  # opens fine, filters OK
            keys = store.rr_keys()  # forces every payload
            assert keys
            assert [str(bad)] == [path
                                  for path, _ in store.corrupt_segments()]

    def test_skip_mode_compaction_merges_around_a_corrupt_payload(
            self, tmp_path):
        """A payload found corrupt mid-compaction is quarantined and
        left on disk; the rest merge to the dict-merge oracle's bytes."""
        populate(SegmentedPdnsStore(tmp_path))
        bad = self._corrupt_one(tmp_path, flip=-4)
        healthy = [open_segment(str(path))
                   for path in sorted(tmp_path.glob("*.pdnsseg"))
                   if path != bad]
        expected = compacted_bytes(healthy)
        store = SegmentedPdnsStore(tmp_path, on_corrupt="skip")
        report = store.compact()
        assert report.merged_segments == len(DAYS) - 1
        assert [str(bad)] == [path for path, _ in store.corrupt_segments()]
        assert bad.exists()
        merged = sorted(set(tmp_path.glob("*.pdnsseg")) - {bad})
        assert [path.read_bytes() for path in merged] == [expected]

    def test_lazy_payload_corruption_raises_by_default(self, tmp_path):
        populate(SegmentedPdnsStore(tmp_path))
        bad = self._corrupt_one(tmp_path, flip=-4)
        store = SegmentedPdnsStore(tmp_path)
        with pytest.raises(FormatError, match=str(bad)):
            store.rr_keys()


class TestMaintenance:
    def test_prune_drops_segments(self, tmp_path):
        store = populate(SegmentedPdnsStore(tmp_path))
        removed = store.prune(0)
        assert len(removed) == len(DAYS)
        assert len(store) == 0
        assert store.stats().n_segments == 0

    def test_release_evicts_payloads(self, tmp_path):
        store = populate(SegmentedPdnsStore(tmp_path, max_resident=8))
        store.rr_keys()
        assert store.stats().resident_segments > 0
        store.release()
        assert store.stats().resident_segments == 0

    def test_residency_is_bounded(self, tmp_path):
        store = populate(SegmentedPdnsStore(tmp_path, max_resident=2))
        store.rr_keys()  # touches every segment
        assert store.stats().resident_segments <= 2

    def test_invalid_options_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="on_corrupt"):
            SegmentedPdnsStore(tmp_path, on_corrupt="ignore")
        with pytest.raises(ValueError, match="max_resident"):
            SegmentedPdnsStore(tmp_path, max_resident=0)


class TestProtocol:
    def test_both_backends_satisfy_protocol(self, tmp_path):
        assert isinstance(PassiveDnsDatabase(), PdnsBackend)
        assert isinstance(SegmentedPdnsStore(tmp_path), PdnsBackend)

    def test_storage_bytes_is_measured(self, tmp_path):
        store = populate(SegmentedPdnsStore(tmp_path))
        on_disk = sum(path.stat().st_size
                      for path in tmp_path.glob("*.pdnsseg"))
        assert store.storage_bytes() == on_disk
        assert store.storage_is_measured
        assert not PassiveDnsDatabase().storage_is_measured
