"""SOA parse hygiene in the centralization analysis.

The §IV-B SOA fallback used to swallow every parse failure silently;
it now narrows the exception and counts skipped records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.centralization import CentralizationAnalysis
from repro.dns.name import DnsName
from repro.dns.rdata import SOA
from repro.net.clock import year_bounds

YEAR_2020 = year_bounds(2020)


@dataclass
class FakeRecord:
    rdata: str
    active: bool = True

    def active_during(self, start: float, end: float) -> bool:
        return self.active


class FakePdns:
    def __init__(self, records):
        self._records = records

    def lookup(self, name, rrtype):
        return self._records


class FakeReplication:
    def __init__(self, records):
        self.pdns = FakePdns(records)

    def year_states(self):
        return {}


def analysis_for(records) -> CentralizationAnalysis:
    return CentralizationAnalysis(FakeReplication(records))


class TestSoaParseHygiene:
    def test_valid_soa_parses_without_skips(self):
        analysis = analysis_for(
            [FakeRecord("ns1.example.com. hostmaster.example.com. 1 2 3 4 5")]
        )
        soa = analysis._soa_for(DnsName.parse("a.gov.zz"), *YEAR_2020)
        assert isinstance(soa, SOA)
        assert soa.mname == DnsName.parse("ns1.example.com")
        assert analysis.soa_parse_failures == 0

    def test_malformed_mname_is_counted_not_swallowed(self):
        analysis = analysis_for(
            [
                FakeRecord("bad..name. hostmaster.example.com."),
                FakeRecord("ns1.example.com. hostmaster.example.com."),
            ]
        )
        soa = analysis._soa_for(DnsName.parse("a.gov.zz"), *YEAR_2020)
        assert isinstance(soa, SOA)  # falls through to the parseable row
        assert analysis.soa_parse_failures == 1

    def test_short_rdata_is_counted(self):
        analysis = analysis_for([FakeRecord("lonetoken")])
        assert analysis._soa_for(DnsName.parse("a.gov.zz"), *YEAR_2020) is None
        assert analysis.soa_parse_failures == 1

    def test_inactive_records_do_not_count_as_failures(self):
        analysis = analysis_for([FakeRecord("bad..name. x.", active=False)])
        assert analysis._soa_for(DnsName.parse("a.gov.zz"), *YEAR_2020) is None
        assert analysis.soa_parse_failures == 0

    def test_failures_accumulate_across_calls(self):
        analysis = analysis_for([FakeRecord("bad..name. hostmaster.x.")])
        analysis._soa_for(DnsName.parse("a.gov.zz"), *YEAR_2020)
        analysis._soa_for(DnsName.parse("b.gov.zz"), *YEAR_2020)
        assert analysis.soa_parse_failures == 2
