"""Fix numpy's SIMD dispatch for the whole test session.

numpy picks its loops for exp, log and related functions by CPU feature, and
the AVX512 loops round a few results differently in the last bit from the
AVX2 ones.  The bit-for-bit and hash pins of the tests hold for one set of
loops, so the session disables the AVX512 ones here, before numpy is first
imported, and every host with AVX2 runs the same loops.  The variable is
inherited by the subprocesses a test starts.  On a host whose numpy does not
dispatch these features, numpy only emits an ImportWarning for the variable.
"""

import os
import sys

DISPATCH_VARIABLE = "NPY_DISABLE_CPU_FEATURES"
DISPATCH_DISABLED = "X86_V4 AVX512_ICL AVX512_SPR"

if "numpy" in sys.modules and os.environ.get(DISPATCH_VARIABLE) != DISPATCH_DISABLED:
    raise RuntimeError(
        f"numpy was imported before tests/conftest.py could set {DISPATCH_VARIABLE}="
        f"{DISPATCH_DISABLED!r}, so the pinned results would depend on this CPU's SIMD loops; "
        f"set it in the environment of the test process")
os.environ[DISPATCH_VARIABLE] = DISPATCH_DISABLED
