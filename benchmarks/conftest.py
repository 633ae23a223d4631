"""Benchmark fixtures.

The repository root goes on ``sys.path`` so benchmarks can use the
test-side reference oracles (``tests/reference``) and the tier-1 suite's
fixtures.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from tests.conftest import reference_vm  # noqa: E402,F401
