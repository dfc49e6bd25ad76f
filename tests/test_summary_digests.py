"""Golden digests of three campaign summaries.

Each digest is the sha256 of the exact bytes `lexgb campaign` writes for
the summary (`json.dumps(summary, indent=2) + "\\n"`), so any change in a
count, a failure record, a witness or the key order shows up here.  A
change that alters a summary on purpose regenerates the file and says so:

    PYTHONPATH=src python tests/test_summary_digests.py
"""

import hashlib
import json
from pathlib import Path

from lexgb.campaign import CampaignConfig, run_campaign

DIGESTS = Path(__file__).parent / "data" / "summary_digests.json"

CONFIGS = {
    "seed7": CampaignConfig(seed=7),
    "p1009-seed3": CampaignConfig(prime=1009, radical_count=60, nonradical_count=20, seed=3),
    "p7-seed5": CampaignConfig(prime=7, radical_count=60, nonradical_count=20, seed=5),
}


def digest(config: CampaignConfig) -> str:
    blob = json.dumps(run_campaign(config), indent=2) + "\n"
    return hashlib.sha256(blob.encode()).hexdigest()


def all_digests() -> dict:
    return {name: digest(config) for name, config in CONFIGS.items()}


def test_summary_digests():
    pinned = json.loads(DIGESTS.read_text())
    current = all_digests()
    changed = sorted(n for n in pinned.keys() | current.keys() if pinned.get(n) != current.get(n))
    assert not changed, f"campaign summaries differ from the pinned digests on {changed}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
