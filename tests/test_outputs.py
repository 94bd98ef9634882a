"""The default command-line outputs against the committed manifest (outputs.py)."""

import json

from outputs import MANIFEST, manifest, platform_key


def moved(expected: dict, current: dict) -> list[str]:
    """One line per entry that differs, naming each field that moved."""
    lines = []
    for label in sorted(expected.keys() | current.keys()):
        old, new = expected.get(label, {}), current.get(label, {})
        changes = [
            f"{field} {old.get(field)} -> {new.get(field)}"
            for field in sorted(old.keys() | new.keys())
            if old.get(field) != new.get(field)
        ]
        if changes:
            lines.append(f"{label}: {', '.join(changes)}")
    return lines


def test_default_outputs_match_the_manifest():
    recorded = json.loads(MANIFEST.read_text())
    current = manifest()
    key = platform_key()
    if key in recorded:
        lines = moved(recorded[key], current)
        assert not lines, f"outputs moved on {key}:\n" + "\n".join(lines)
        return
    # A platform with no recorded manifest may differ in last bits, not in exit statuses.
    for other, expected in sorted(recorded.items()):
        statuses = {label: entry["status"] for label, entry in expected.items()}
        assert {label: entry["status"] for label, entry in current.items()} == statuses, other
        lines = moved(expected, current)
        print(f"{key}: {len(lines)} entries differ from {other}", *lines, sep="\n  ")
