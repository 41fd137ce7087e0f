"""The per-trace quality ledger of scripts/check_reports.py, on the smoke pool."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_reports.py"

NUMBER = r"[-+0-9.e]+|nan|inf"
TRACE = re.compile(
    rf"smoke smoke#\d+ [0-9a-f]{{64}} (same|differs) iterations \d+ x({NUMBER}|-)"
    rf" error ({NUMBER}) x({NUMBER}) verdict \S+ (agrees|differs)")
IDENTICAL = re.compile(r"smoke identical \d+/8, failed checks \d+")
TOTALS = re.compile(rf"smoke totals iterations x({NUMBER}|-), error ratio geomean ({NUMBER})"
                    rf" max ({NUMBER}), verdicts \d+/8 agree")


def run_smoke() -> bytes:
    done = subprocess.run([sys.executable, str(SCRIPT), "smoke"], capture_output=True,
                          timeout=120)
    assert done.returncode in (0, 1), done.stderr.decode()
    return done.stdout


def test_smoke_ledger_format_and_determinism():
    first = run_smoke()
    lines = first.decode().splitlines()
    assert len(lines) == 10
    for line in lines[:8]:
        assert TRACE.fullmatch(line), line
    assert IDENTICAL.fullmatch(lines[8]), lines[8]
    assert TOTALS.fullmatch(lines[9]), lines[9]
    assert "time" not in first.decode()  # no wall time, so two checkouts diff exactly
    assert run_smoke() == first
