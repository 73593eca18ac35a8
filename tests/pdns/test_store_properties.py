"""Property-based tests (hypothesis): the segmented store is
observationally equal to the in-memory database on arbitrary ingest
schedules, segment bytes are a pure function of logical content, and
compaction writes the bytes the row writer makes of a dict merge."""

import hashlib
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import rr_sort_key
from repro.dns.message import RRType
from repro.pdns.database import PassiveDnsDatabase
from repro.pdns.segments import (SEGMENT_SUFFIX, build_segment_bytes,
                                 open_segment)
from repro.pdns.store import SegmentedPdnsStore
from tests.oracles.compaction import compacted_bytes

label_st = st.text(alphabet=string.ascii_lowercase + string.digits,
                   min_size=1, max_size=6)
domain_st = st.lists(label_st, min_size=1, max_size=4).map(".".join)
rdata_st = st.sampled_from(
    [f"10.0.0.{octet}" for octet in range(8)] + ["host.example.net"])
qtype_st = st.sampled_from([RRType.A, RRType.AAAA, RRType.CNAME])
rr_key_st = st.tuples(domain_st, qtype_st, rdata_st)

#: An ingest schedule: 1-5 days, each with 0-15 RR keys.
schedule_st = st.lists(st.lists(rr_key_st, max_size=15),
                       min_size=1, max_size=5)

DAY_LABELS = [f"2011-05-{day:02d}" for day in range(1, 6)]


def ingest_all(backend, schedule):
    reports = []
    for day, keys in zip(DAY_LABELS, schedule):
        reports.append(backend.ingest_rrs(day, keys))
    return reports


class TestStoreMatchesOracle:
    @settings(max_examples=25, deadline=None)
    @given(schedule_st)
    def test_reports_ledger_and_keys(self, tmp_path_factory, schedule):
        root = tmp_path_factory.mktemp("store")
        store = SegmentedPdnsStore(root)
        oracle = PassiveDnsDatabase()
        ours = ingest_all(store, schedule)
        theirs = ingest_all(oracle, schedule)
        for mine, ref in zip(ours, theirs):
            assert (mine.new_records, mine.duplicate_records) == \
                (ref.new_records, ref.duplicate_records)
        assert len(store) == len(oracle)
        assert store.new_records_per_day() == oracle.new_records_per_day()
        assert sorted(store.rr_keys(), key=rr_sort_key) == \
            sorted(oracle.rr_keys(), key=rr_sort_key)

    @settings(max_examples=25, deadline=None)
    @given(schedule_st)
    def test_point_and_zone_queries(self, tmp_path_factory, schedule):
        root = tmp_path_factory.mktemp("store")
        store = SegmentedPdnsStore(root, max_resident=1)
        oracle = PassiveDnsDatabase()
        ingest_all(store, schedule)
        ingest_all(oracle, schedule)
        seen_keys = {key for keys in schedule for key in keys}
        for key in sorted(seen_keys, key=rr_sort_key):
            assert store.first_seen(key) == oracle.first_seen(key)
            name = key[0]
            assert sorted(store.entries_for_name(name),
                          key=lambda e: rr_sort_key(e.rr_key())) == \
                sorted(oracle.entries_for_name(name),
                       key=lambda e: rr_sort_key(e.rr_key()))
            zone = name.split(".", 1)[-1] if "." in name else name
            assert store.names_under_zone(zone) == \
                oracle.names_under_zone(zone)

    @settings(max_examples=15, deadline=None)
    @given(schedule_st)
    def test_compaction_changes_nothing_observable(self, tmp_path_factory,
                                                   schedule):
        root = tmp_path_factory.mktemp("store")
        store = SegmentedPdnsStore(root)
        oracle = PassiveDnsDatabase()
        ingest_all(store, schedule)
        ingest_all(oracle, schedule)
        store.compact()
        assert store.new_records_per_day() == oracle.new_records_per_day()
        assert store.ingested_days() == sorted(oracle.ingested_days())
        for keys in schedule:
            for key in keys:
                assert store.first_seen(key) == oracle.first_seen(key)


class TestSegmentBytesArePure:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(rr_key_st, st.sampled_from(DAY_LABELS)),
                    max_size=20),
           st.randoms(use_true_random=False))
    def test_input_order_never_leaks_into_bytes(self, items, rng):
        rows = {}
        for key, day in items:
            rows.setdefault(key, day)
        shuffled = list(rows.items())
        rng.shuffle(shuffled)
        assert build_segment_bytes(dict(shuffled), days=DAY_LABELS) == \
            build_segment_bytes(rows, days=DAY_LABELS)


#: Labels with one non-ASCII lowercase letter and NUL: neither backend
#: normalises names, and the column merge orders pool strings as UTF-8
#: bytes, where a trailing NUL must still tell two strings apart.
wide_label_st = st.text(alphabet=string.ascii_lowercase + "\u00e9\x00",
                        min_size=1, max_size=4)
#: Longer than the merge's 32-byte sort key, so strings that share it
#: tie on the key and must be compared whole.
LONG = "l" * 40
wide_domain_st = st.tuples(
    st.sampled_from(["", LONG + "."]),
    st.lists(wide_label_st, min_size=1, max_size=3).map(".".join),
).map("".join)
wide_rdata_st = st.sampled_from(
    ["10.0.0.1", "10.0.0.1\x00", "10.0.0.10", "", "h\u00e9.example.net",
     "he.example.net", LONG, LONG + "\x00", LONG + "\u00e9", LONG + "a"])
wide_rr_key_st = st.tuples(wide_domain_st, qtype_st, wide_rdata_st)


def segment_bytes(root):
    return sorted(path.read_bytes()
                  for path in root.glob(f"*{SEGMENT_SUFFIX}"))


def expected_compaction(root, max_rows):
    """Segment bytes after ``compact(max_rows)`` by the dict-merge
    oracle: unmerged segments unchanged, the rest merged into one."""
    segments = [open_segment(str(path))
                for path in sorted(root.glob(f"*{SEGMENT_SUFFIX}"))]
    merged = [segment for segment in segments
              if max_rows is None or segment.meta.n_rows <= max_rows]
    if len(merged) < 2:
        return segment_bytes(root)
    kept = [open(segment.path, "rb").read() for segment in segments
            if segment not in merged]
    return sorted(kept + [compacted_bytes(merged)])


class TestCompactionMatchesDictMerge:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(wide_rr_key_st, max_size=12), min_size=1,
                    max_size=5),
           st.integers(min_value=0, max_value=12))
    def test_compacted_bytes_equal_row_writer(self, tmp_path_factory,
                                              schedule, max_rows):
        root = tmp_path_factory.mktemp("store")
        store = SegmentedPdnsStore(root)
        ingest_all(store, schedule)
        for limit in (max_rows, None):
            expected = expected_compaction(root, limit)
            store.compact(max_rows=limit)
            assert segment_bytes(root) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.tuples(wide_rr_key_st,
                                       st.sampled_from(DAY_LABELS)),
                             max_size=8),
                    min_size=2, max_size=4),
           st.data())
    def test_first_copy_in_roster_order_wins(self, tmp_path_factory,
                                             planted, data):
        """Segments that store one key with different first-seen days
        merge as the dict merge does: the copy earliest in roster order
        is kept."""
        root = tmp_path_factory.mktemp("planted")
        pool = [key for items in planted for key, _ in items]
        for items in planted:
            rows = dict(items)
            if pool:  # re-store keys other segments hold
                for key in data.draw(st.lists(st.sampled_from(pool),
                                              max_size=3)):
                    rows.setdefault(key, data.draw(
                        st.sampled_from(DAY_LABELS)))
            days = sorted(set(rows.values())) or [DAY_LABELS[0]]
            blob = build_segment_bytes(rows, days=days)
            digest = hashlib.sha256(blob).hexdigest()[:16]
            (root / f"{days[0]}--{days[-1]}--{digest}{SEGMENT_SUFFIX}"
             ).write_bytes(blob)
        store = SegmentedPdnsStore(root)
        expected = expected_compaction(root, None)
        store.compact()
        assert segment_bytes(root) == expected
