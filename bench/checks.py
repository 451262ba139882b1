"""Output checks for the benchmark's CLI operations.

Each command's report is reduced to the fields that existed when the
benchmark was defined.  For the default seed (and for every op whose inputs
do not depend on the seed) those fields must equal the values recorded in
`expected.json`; later versions of freewalk may add report keys but must not
change these values.  Seeded ops on other seeds are checked for invariants:
the expected exit code, `exact: true` from verify, and exact-mode
coefficients printed as fractions.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected.json"

REPORTS = {"audit": "audit.json", "decompose": "decomposition.json",
           "verify": "stationarity.json", "moments": "moments.json"}
AUDIT_FIELDS = ["beta", "D0", "D_nu", "T_nu", "worst_measured_C",
                "spikes_checked", "spikes_failed"]


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def read_report(command: str, out: Path) -> dict:
    return json.loads((out / REPORTS[command]).read_text())


def _digest(values: list) -> dict:
    """A list pinned by length and SHA-256 of its JSON: exact, but short
    (moments coefficients run to thousands of digits)."""
    text = json.dumps(values, separators=(",", ":"))
    return {"len": len(values), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def extract(command: str, doc: dict) -> dict:
    """The report fields whose values are pinned.  Coefficients are compared
    as a set of (word, value) pairs, so their listing order is free."""
    if command == "audit":
        return {k: doc[k] for k in AUDIT_FIELDS}
    if command == "verify":
        return {"exact": doc["exact"], "max_cell_error": doc["max_cell_error"]}
    fields = {"coefficients": _digest(sorted(doc["coefficients"])),
              "residual_trace": _digest(doc["residual_trace"])}
    if command == "moments":
        fields["envelope_checks"] = doc["envelope"]["checks"]
    return fields


def _is_fraction(text) -> bool:
    num, sep, den = str(text).partition("/")
    return sep == "/" and num.lstrip("-").isdigit() and den.isdigit()


def invariant_problems(command: str, doc: dict) -> list:
    problems = []
    if command == "verify" and doc.get("exact") is not True:
        problems.append("verify is not exact")
    if command in ("decompose", "moments"):
        if not doc.get("coefficients"):
            problems.append("no coefficients")
        bad = [c for _, c in doc.get("coefficients", []) if not _is_fraction(c)]
        if bad:
            problems.append(f"coefficients not exact fractions: {bad[:3]}")
    return problems


def check(op: dict, rc, out: Path, expected) -> list:
    """Problems with one operation's outcome; empty when it is correct.
    `expected` is the op's pinned fields, or None to check invariants only."""
    if rc != op["expect_exit"]:
        return [f"{op['name']}: exit {rc}, expected {op['expect_exit']}"]
    try:
        doc = read_report(op["command"], out)
        problems = invariant_problems(op["command"], doc)
        if expected is not None:
            got = extract(op["command"], doc)
            problems += [f"{k} = {got[k]!r}, expected {v!r}"
                         for k, v in expected.items() if got.get(k) != v]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
    return [f"{op['name']}: {p}" for p in problems]
