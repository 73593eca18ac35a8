"""Tests for repro.core.interning — the interned name table and the
columnar day digest.

The digest is only useful if it is *provably* the same day the
per-entry scans see, so most tests here are equalities against the
:class:`repro.core.records.FpDnsDataset` aggregates and the
:mod:`tests.oracles` functions, on both hand-built edge-case datasets
and a simulated day.
"""

import numpy as np

from repro.core.hitrate import hit_rates_from_digest
from repro.core.interning import DayDigest, NameTable, build_day_digest
from repro.core.names import is_subdomain
from repro.core.groups import name_matches_groups
from repro.core.suffix import default_suffix_list
from repro.dns.message import RCode, RRType
from repro.core.records import FpDnsDataset, FpDnsEntry

from tests.oracles import build_tree_for_day, compute_hit_rates


def _entry(ts, name, rdata, client=1, ttl=300, qtype=RRType.A,
           rcode=RCode.NOERROR):
    return FpDnsEntry(timestamp=ts, client_id=client, qname=name,
                      qtype=qtype, rcode=rcode, ttl=ttl, rdata=rdata)


def _tiny_dataset():
    ds = FpDnsDataset(day="t")
    ds.below.append(_entry(0.0, "a.example.com", "1.1.1.1"))
    ds.below.append(_entry(1.0, "a.example.com", "1.1.1.1", client=2))
    ds.below.append(_entry(2.0, "b.example.com", "2.2.2.2", ttl=None))
    ds.below.append(_entry(3.0, "missing.example.com", None,
                           rcode=RCode.NXDOMAIN, ttl=None))
    ds.above.append(_entry(0.5, "a.example.com", "1.1.1.1", client=None,
                           ttl=600))
    ds.above.append(_entry(2.5, "pre.example.com", "3.3.3.3", client=None))
    return ds


class TestNameTable:
    def test_ids_are_dense_in_first_appearance_order(self):
        table = NameTable()
        assert table.intern("b.com") == 0
        assert table.intern("a.com") == 1
        assert table.intern("b.com") == 0  # idempotent
        assert len(table) == 2
        assert table.names == ["b.com", "a.com"]

    def test_lookup_roundtrip(self):
        table = NameTable()
        nid = table.intern("x.example.com")
        assert table.name(nid) == "x.example.com"
        assert table.id_of("x.example.com") == nid
        assert table.id_of("unknown.com") is None
        assert "x.example.com" in table
        assert "unknown.com" not in table

    def test_names_property_returns_copy(self):
        table = NameTable()
        table.intern("a.com")
        table.names.append("mutated")
        assert table.names == ["a.com"]

    def test_label_counts_match_and_are_memoised(self):
        table = NameTable()
        for name in ("com", "example.com", "a.b.example.com"):
            table.intern(name)
        counts = table.label_counts()
        assert counts.tolist() == [1, 2, 4]
        assert table.label_counts() is counts

    def test_effective_2ld_ids_match_suffix_list(self):
        suffixes = default_suffix_list()
        table = NameTable()
        names = ["a.example.com", "example.com", "b.example.com",
                 "x.other.org", "com"]
        for name in names:
            table.intern(name)
        ids, zones = table.effective_2ld_ids(suffixes)
        for nid, name in enumerate(names):
            expected = suffixes.effective_2ld(name)
            if expected is None:
                assert ids[nid] == -1
            else:
                assert zones[ids[nid]] == expected
        # Memoised for the same suffix-list object.
        again, _ = table.effective_2ld_ids(suffixes)
        assert again is ids

    def test_subdomain_mask_matches_is_subdomain(self):
        table = NameTable()
        names = ["a.example.com", "example.com", "examplexcom.net",
                 "deep.a.example.com", "other.org"]
        for name in names:
            table.intern(name)
        zones = ("example.com", "missing.net")
        mask = table.subdomain_mask(zones)
        expected = [any(is_subdomain(name, zone) for zone in zones)
                    for name in names]
        assert mask.tolist() == expected
        assert table.subdomain_mask(zones) is mask  # memoised per key

    def test_match_mask_matches_name_matches_groups(self):
        table = NameTable()
        names = ["x.cdn.example.com", "cdn.example.com", "y.example.com",
                 "x.cdn.other.org"]
        for name in names:
            table.intern(name)
        groups = {("cdn.example.com", 4), ("other.org", 4)}
        mask = table.match_mask(groups)
        expected = [name_matches_groups(name, groups) for name in names]
        assert mask.tolist() == expected
        assert table.match_mask(groups) is mask


class TestDigestEqualsDataset:
    """Every dataset-level aggregate the digest re-derives must equal
    the legacy per-entry scan, on a simulated day."""

    def test_volumes(self, tiny_day):
        digest = build_day_digest(tiny_day)
        assert digest.below_volume() == tiny_day.below_volume()
        assert digest.above_volume() == tiny_day.above_volume()
        assert digest.nxdomain_volume_below() == \
            tiny_day.nxdomain_volume_below()
        assert digest.nxdomain_volume_above() == \
            tiny_day.nxdomain_volume_above()

    def test_domain_populations(self, tiny_day):
        digest = build_day_digest(tiny_day)
        assert digest.queried_domains() == tiny_day.queried_domains()
        assert digest.resolved_domains() == tiny_day.resolved_domains()
        assert digest.distinct_rrs() == tiny_day.distinct_rrs()
        assert digest.distinct_rr_count() == len(tiny_day.distinct_rrs())
        assert set(digest.distinct_rr_keys_ordered()) == \
            tiny_day.distinct_rrs()

    def test_per_rr_aggregates(self, tiny_day):
        digest = build_day_digest(tiny_day)
        assert digest.below_counts_by_rr() == tiny_day.below_counts_by_rr()
        assert digest.above_counts_by_rr() == tiny_day.above_counts_by_rr()
        assert digest.ttls_by_rr() == tiny_day.ttls_by_rr()

    def test_hit_rate_table_identical(self, tiny_day):
        legacy = compute_hit_rates(tiny_day)
        columnar = hit_rates_from_digest(build_day_digest(tiny_day))
        assert len(columnar) == len(legacy)
        assert columnar.day == legacy.day
        for rate in legacy.records():
            other = columnar.get(rate.key)
            assert other is not None
            assert other.queries_below == rate.queries_below
            assert other.misses_above == rate.misses_above

    def test_resolved_names_ordered(self, tiny_day):
        digest = build_day_digest(tiny_day)
        ordered = digest.resolved_names_ordered()
        assert set(ordered) == tiny_day.resolved_domains()
        assert len(ordered) == len(set(ordered))
        # Deterministic: sorted by interned id (first-appearance order).
        ids = [digest.names.id_of(name) for name in ordered]
        assert ids == sorted(ids)

    def test_mining_roots_match_tree_effective_2lds(self, tiny_day):
        digest = build_day_digest(tiny_day)
        suffixes = default_suffix_list()
        tree = build_tree_for_day(tiny_day)
        assert digest.mining_roots(suffixes) == tree.effective_2lds(suffixes)

    def test_digest_is_deterministic(self, tiny_day):
        first = build_day_digest(tiny_day)
        second = build_day_digest(tiny_day)
        assert first.names.names == second.names.names
        assert first.rr_keys == second.rr_keys
        assert np.array_equal(first.below.name_ids, second.below.name_ids)
        assert np.array_equal(first.above.rr_ids, second.above.rr_ids)


class TestDigestEdgeCases:
    def test_tiny_dataset_aggregates(self):
        ds = _tiny_dataset()
        digest = build_day_digest(ds)
        assert digest.queried_domains() == ds.queried_domains()
        assert digest.resolved_domains() == ds.resolved_domains()
        assert digest.below_counts_by_rr() == ds.below_counts_by_rr()
        assert digest.above_counts_by_rr() == ds.above_counts_by_rr()
        assert digest.ttls_by_rr() == ds.ttls_by_rr()
        assert digest.nxdomain_volume_below() == 1

    def test_ttl_above_max_wins_over_below(self):
        ds = FpDnsDataset(day="t")
        key = ("a.com", RRType.A, "1.1.1.1")
        ds.below.append(_entry(0.0, "a.com", "1.1.1.1", ttl=50))
        ds.above.append(_entry(0.1, "a.com", "1.1.1.1", client=None, ttl=100))
        ds.above.append(_entry(0.2, "a.com", "1.1.1.1", client=None, ttl=300))
        digest = build_day_digest(ds)
        assert digest.ttls_by_rr()[key] == 300
        assert digest.ttls_by_rr() == ds.ttls_by_rr()

    def test_ttl_below_fallback_is_first_observation(self):
        # The legacy dict fills on first TTL-bearing sight below; later
        # (even larger) below TTLs must not override it.
        ds = FpDnsDataset(day="t")
        key = ("a.com", RRType.A, "1.1.1.1")
        ds.below.append(_entry(0.0, "a.com", "1.1.1.1", ttl=None))
        ds.below.append(_entry(1.0, "a.com", "1.1.1.1", ttl=70))
        ds.below.append(_entry(2.0, "a.com", "1.1.1.1", ttl=500))
        digest = build_day_digest(ds)
        assert digest.ttls_by_rr()[key] == 70
        assert digest.ttls_by_rr() == ds.ttls_by_rr()

    def test_ttl_absent_when_never_recorded(self):
        ds = FpDnsDataset(day="t")
        ds.below.append(_entry(0.0, "a.com", "1.1.1.1", ttl=None))
        digest = build_day_digest(ds)
        assert digest.ttls_by_rr() == {}
        assert digest.ttls_by_rr() == ds.ttls_by_rr()

    def test_empty_day(self):
        digest = build_day_digest(FpDnsDataset(day="empty"))
        assert isinstance(digest, DayDigest)
        assert digest.below_volume() == 0
        assert digest.queried_domains() == set()
        assert digest.distinct_rrs() == set()
        assert digest.ttls_by_rr() == {}
        assert digest.mining_roots(default_suffix_list()) == []

    def test_client_counts_by_name(self):
        ds = FpDnsDataset(day="t")
        ds.below.append(_entry(0.0, "a.com", "1.1.1.1", client=1))
        ds.below.append(_entry(1.0, "a.com", "1.1.1.1", client=1))
        ds.below.append(_entry(2.0, "a.com", "1.1.1.1", client=9))
        ds.below.append(_entry(3.0, "b.com", "2.2.2.2", client=4))
        ds.below.append(_entry(4.0, "c.com", None, client=5,
                               rcode=RCode.NXDOMAIN, ttl=None))
        digest = build_day_digest(ds)
        name_ids, counts = digest.client_counts_by_name()
        by_name = {digest.names.name(int(nid)): int(count)
                   for nid, count in zip(name_ids, counts)}
        assert by_name == {"a.com": 2, "b.com": 1}

    def test_match_counts_equal_legacy_sweeps(self, tiny_day):
        digest = build_day_digest(tiny_day)
        # Use a real zone from the day so the mask is non-trivial.
        some_name = sorted(tiny_day.resolved_domains())[0]
        zone = ".".join(some_name.split(".")[-2:])
        groups = {(zone, zone.count(".") + 2)}
        queried, resolved, rrs = digest.match_counts(groups)
        assert queried == sum(
            1 for name in tiny_day.queried_domains()
            if name_matches_groups(name, groups))
        assert resolved == sum(
            1 for name in tiny_day.resolved_domains()
            if name_matches_groups(name, groups))
        assert rrs == sum(
            1 for (name, _, _) in tiny_day.distinct_rrs()
            if name_matches_groups(name, groups))
