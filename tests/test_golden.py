"""CLI outputs pinned byte for byte.

`golden_outputs.json` holds, for every fixture x every command x both
formats, plus randomized `verify --seed 3`, the sha256 digests of stdout
and stderr and the exit code.  A change that must leave the output alone
keeps this test passing; a change that alters it on purpose regenerates
the file with

    PYTHONPATH=src python tests/test_golden.py

and says which outputs moved and why.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from bouquetdet.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden_outputs.json"
COMMANDS = ["check", "matrix", "det", "rho", "verify", "dot"]


def cases() -> dict[str, list[str]]:
    """Case id -> argv, with fixture paths relative to the tests folder."""
    out = {}
    for path in sorted(FIXTURES.glob("*.json")):
        kind = path.name.split("_")[0]
        fixture = f"fixtures/{path.name}"
        for fmt in ("json", "text"):
            for command in COMMANDS:
                out[f"{command} {path.name} {fmt}"] = [
                    command, fixture, "--kind", kind, "--format", fmt]
            out[f"verify-randomized {path.name} {fmt}"] = [
                "verify", fixture, "--kind", kind, "--format", fmt,
                "--mode", "randomized", "--seed", "3"]
    return out


def digest(argv: list[str]) -> dict:
    """Run the CLI in-process from the tests folder; hash what it prints."""
    argv = [str(Path(__file__).parent / a) if a.startswith("fixtures/") else a
            for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    sha = lambda s: hashlib.sha256(s.getvalue().encode()).hexdigest()
    return {"exit": code, "stdout": sha(stdout), "stderr": sha(stderr)}


GOLDEN_DIGESTS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_every_case_pinned():
    assert set(GOLDEN_DIGESTS) == set(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_output_unchanged(case):
    assert digest(cases()[case]) == GOLDEN_DIGESTS[case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: digest(a) for c, a in sorted(cases().items())},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases())} cases to {GOLDEN}", file=sys.stderr)
