"""Make the benchmark's modules importable as top-level names, as ``run.py`` does."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent

if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))
