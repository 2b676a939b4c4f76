"""Good fixture: sanitized order flows REP007/REP008 must not flag.

``checksum`` iterates a raw set, yet needs neither ``sorted()`` nor a
waiver: REP008 stays quiet because ``iterorder`` taint does not survive
commutative accumulation.
"""


def hostnames_in_order(hostnames: set) -> list:
    out = []
    for name in sorted(hostnames):
        out.append(name)
    return out


def tag_line(tags: set) -> str:
    return ",".join(sorted(tags))


def checksum(values: set) -> int:
    total = 0
    for value in values:
        total ^= value
    return total
