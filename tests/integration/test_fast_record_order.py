"""Fast-mode record order is pinned, not just the aggregate.

``aggregate_signature()`` ignores the order of mismatch records, and
the worker-count tests compare a tree only with itself, so a change
that reordered ``database.records`` would pass both.  Each case here
hashes every record of a ``workers=1`` fast study, in order, and
compares the digest with one pinned from a known-good tree.
"""

import hashlib
import json

import pytest

from repro.measure.persist import record_to_dict
from repro.study import StudyConfig, StudyRunner

CASES = [
    # (study, seed, scale, records, sha256 over the records in order)
    (2, 42, 0.0075, 380, "392769c4c14488684d2ad37da2354076c04f75af166b3ef96c60c029c5c825ef"),
    (2, 9, 0.02, 981, "861b609a5aedfdf7925ada1df5b40fbbe9bb6a8bb5e6b9a46f10d7ec345e9f9b"),
    (1, 7, 0.002, 21, "317213a6f4555d8cca96c0507aaa0f947cbb79372834289bf12e708f911f3a26"),
]


def record_digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record_to_dict(record), sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "study,seed,scale,count,expected",
    CASES,
    ids=[f"study{c[0]}-seed{c[1]}-scale{c[2]}" for c in CASES],
)
def test_fast_records_keep_their_order(study, seed, scale, count, expected):
    result = StudyRunner(
        StudyConfig(study=study, seed=seed, scale=scale, mode="fast", workers=1)
    ).run()
    records = result.database.records
    assert len(records) == count
    assert record_digest(records) == expected
