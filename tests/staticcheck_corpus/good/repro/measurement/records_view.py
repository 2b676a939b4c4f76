"""Good fixture: outside dnssim, records come from the public constructor
(REP011)."""

from repro.dnssim.records import ResourceRecord


def answer_record(name: str, rdata: object) -> object:
    return ResourceRecord(name, 300, rdata)
