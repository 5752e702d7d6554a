"""List the test ids collected at a git ref but missing from the working tree.

Usage::

    python3 tools/test_ids.py --base HEAD~1
    make test-ids BASE=<git-ref>

Exports ``--base`` into a temporary directory (``tools/bench_ab.py``'s
``export()``), runs ``pytest --collect-only -q`` on ``tests/`` in both
trees and prints every id the ref collects that the working tree does
not, then their count.  Exits 1 when any id is missing.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_ab import ROOT, export  # noqa: E402


def collect(tree: Path) -> set[str]:
    """The test ids ``pytest`` collects under ``tree/tests``."""
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-o", "addopts=", "-p", "no:cacheprovider", "tests"],
        cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
        capture_output=True, text=True, check=True,
    ).stdout
    return {line for line in out.splitlines() if "::" in line}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="test-ids-") as tmp:
        export(args.base, Path(tmp))
        missing = sorted(collect(Path(tmp)) - collect(ROOT))
    for test_id in missing:
        print(test_id)
    print(f"{len(missing)} test id(s) collected at {args.base} are missing")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
