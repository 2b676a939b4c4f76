"""Good fixture: the materializer adds built records on trust (REP011)."""

from repro.dnssim.records import ResourceRecord


def add_record(zone: object, name: str, rdata: object) -> None:
    zone._add_rr(ResourceRecord(name, 300, rdata))
