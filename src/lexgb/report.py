"""Verdict records for verification checks.

A record says what each verdict means.  Which verdict a check earns is
decided in `checks.py` alone, by `_report` for every check of the runner
table; `verify_all` skips the checks past a gatekeeper that did not pass.
"""

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

