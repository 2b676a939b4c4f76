"""REP011 — trusted paths stay inside the modules that own them.

The DNS simulator has fast paths that take their inputs on trust
(DESIGN §8, "Canonical names"): ``_make`` fills a record's or a
question's slots and checks nothing, ``Zone._lookup`` and
``AuthoritativeServer._zone_for`` answer for a name that is canonical
already, ``DnsCache._peek`` reads the cache without counting, and
``Zone._add_rr`` adds a built record without normalizing it. Each is
safe only where its caller holds canonical values: inside
``repro.dnssim`` and in the world materializer. A caller elsewhere could
feed one a raw name, and nothing would fail; the lookup would just miss.

The rule flags every use of one of those attribute names (a call, or a
reference such as ``make = ARecord._make`` that would launder one)
outside the trusted modules (``TRUSTED_CALLERS``). It goes by the
attribute's name, so an unrelated method of the same name outside them
is flagged too; name it differently.
"""

from __future__ import annotations

import ast

from repro.staticcheck.config import LintConfig
from repro.staticcheck.model import Finding, ModuleInfo
from repro.staticcheck.rules.base import Rule


# The attribute names of the paths that take canonical values on trust
# (record and question ``_make``, ``Zone._lookup``, ``Zone._add_rr``,
# ``AuthoritativeServer._zone_for``, ``DnsCache._peek``), and the modules
# or packages that may use them.
TRUSTED_ATTRS = frozenset({"_make", "_lookup", "_add_rr", "_zone_for", "_peek"})
TRUSTED_CALLERS = frozenset({"repro.dnssim", "repro.worldgen.materialize"})


def _trusted(module: str) -> bool:
    return any(
        module == caller or module.startswith(caller + ".")
        for caller in TRUSTED_CALLERS
    )


class TrustedPathRule(Rule):
    rule_id = "REP011"
    title = "trusted constructors and paths stay in dnssim and the materializer"

    def check(self, module: ModuleInfo, config: LintConfig) -> list[Finding]:
        if _trusted(module.module):
            return []
        return [
            self.finding(
                module,
                node,
                f"{node.attr} takes canonical values on trust; only "
                f"{', '.join(sorted(TRUSTED_CALLERS))} may "
                f"use it (call the public constructor or method instead)",
            )
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Attribute) and node.attr in TRUSTED_ATTRS
        ]
