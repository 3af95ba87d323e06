"""Outputs stay byte-identical to the recorded digests (see ``golden.py``)."""

from __future__ import annotations

import json

from golden import GOLDEN, compute_digests


def test_outputs_match_recorded_digests():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = compute_digests()
    assert sorted(current) == sorted(recorded)
    changed = sorted(name for name in recorded if current[name] != recorded[name])
    assert changed == []
