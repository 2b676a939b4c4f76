"""Bad fixture: REP008 — set iteration order leaking into output."""


def emit(hostnames: set) -> list:
    rows = [host for host in hostnames]
    for host in hostnames:
        rows.append(host)
    return rows


def render(tags: frozenset) -> str:
    return ",".join(tags)


def header_row(columns: set) -> str:
    # dict.fromkeys inherits the set's (non)order; the leak surfaces at
    # the join, and the finding anchors back at the fromkeys argument.
    ordered = dict.fromkeys(columns)
    return "|".join(ordered)
