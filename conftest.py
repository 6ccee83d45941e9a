"""Session setup for every test directory.

The benchmark's command-line goldens write their SVGs into
``.perfbench_out/cli-fixtures/``, which only ``perfbench/run.py``
creates.  A fresh checkout has no such directory, so it is made here
when tests are collected.
"""

from pathlib import Path


def pytest_collection(session):
    (Path(__file__).parent / ".perfbench_out" / "cli-fixtures").mkdir(
        parents=True, exist_ok=True)
