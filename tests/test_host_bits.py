"""The goldens at another SIMD level (ROADMAP item 18, step 1).

numpy picks its log2, log1p, arccos, power and other elementary-function
loops by CPU at import, and the goldens pin the bits of its AVX-512 loops.
NPY_DISABLE_CPU_FEATURES makes one process use the AVX2 loops, as a host
without AVX-512 would; it changes nothing outside that process.  The golden
tests run there in a child pytest, which fails until item 18 picks a remedy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).parents[1]
AVX2_ONLY = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}
GOLDEN_TESTS = [
    "tests/test_kernel_digest.py::test_kernel_digest",
    "tests/test_set_api_golden.py",
    "tests/test_scenarios_golden.py",
]


@pytest.mark.skipif(not any(on for name, on in __cpu_features__.items() if name.startswith("AVX512")),
                    reason="numpy runs no AVX-512 loops here, so the child would run the same loops")
@pytest.mark.xfail(strict=True, reason="item 18: the goldens hold only under numpy's AVX-512 loops")
def test_goldens_hold_under_the_avx2_loops():
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *GOLDEN_TESTS],
        cwd=ROOT, env={**os.environ, **AVX2_ONLY}, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stdout[-4000:]
