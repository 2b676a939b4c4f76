"""Bad fixture: REP011 — measurement building a record on trust."""

from repro.dnssim.records import ResourceRecord


def answer_record(name: str, rdata: object) -> object:
    return ResourceRecord._make(name, 300, rdata, 1)
