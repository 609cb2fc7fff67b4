"""Lets the benchmark's tests import its modules and the package under
test.  Run from the repository root:

    python -m pytest perfbench -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
