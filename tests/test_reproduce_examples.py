"""The example report script, pinned byte for byte."""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parent.parent / "scripts"
          / "reproduce_examples.py")

# SHA-256 of the script's full stdout on the bundled fixtures
REPORT_SHA256 = \
    "ed4aebc00768a676e68072983ac030157d5f6b6a527bd2b461078c86a9a61473"


def test_reproduce_examples_report_is_unchanged():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == REPORT_SHA256
