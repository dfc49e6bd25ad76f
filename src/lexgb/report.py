"""Verdict records for verification checks."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
OBSERVED = "observed"

VERDICTS = (PASS, FAIL, SKIPPED, OBSERVED)


@dataclass
class CheckReport:
    """Outcome of one check.

    A fail always carries at least one witness.  "observed" means the
    check's hypothesis (radicality) was not guaranteed, so the outcome is
    recorded without being asserted; witnesses then mark empirical
    failures and an empty list an empirical pass.
    """

    name: str
    verdict: str
    witnesses: list = field(default_factory=list)
    notes: str = ""

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == FAIL and not self.witnesses:
            raise ValueError(f"fail verdict for {self.name} without a witness")

    @property
    def ok(self) -> bool:
        return self.verdict != FAIL

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "notes": self.notes,
        }


def gated_report(name: str, radical: bool, witnesses: list) -> CheckReport:
    """Build the verdict for a radicality-gated check.

    Asserted (pass/fail) when the instance is radical by construction,
    recorded as observed otherwise.
    """
    if radical:
        return CheckReport(name, FAIL if witnesses else PASS, witnesses)
    notes = "radicality not guaranteed; outcome recorded, not asserted"
    return CheckReport(name, OBSERVED, witnesses, notes)
