"""Golden SHA-256 digests of CLI outputs that must stay byte-identical.

Regenerate (only when an output change is intended) from the repository
root with:

    PYTHONPATH=src python3 perfbench/golden.py
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

COMMANDS = {
    "success-fig4": ["success", "--preset", "fig4"],
    "success-fig5a": ["success", "--preset", "fig5a"],
    "success-fig5b": ["success", "--preset", "fig5b"],
    "phase-curve": ["phase-curve"],
}


def digests(out_path: str) -> dict[str, str]:
    """SHA-256 of each golden command's CSV output, written to out_path."""
    from cavityqft import cli

    out = {}
    for name, argv in COMMANDS.items():
        code = cli.main(argv + ["--out", out_path])
        if code != 0:
            out[name] = f"exit code {code}"
            continue
        with open(out_path, "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def mismatches(out_path: str) -> list[str]:
    """Names of the golden commands whose output no longer matches."""
    with open(GOLDEN_PATH) as fh:
        expected = json.load(fh)
    got = digests(out_path)
    return [name for name in COMMANDS if got[name] != expected.get(name)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        result = digests(os.path.join(tmp, "out.csv"))
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
