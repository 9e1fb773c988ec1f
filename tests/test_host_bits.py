"""The goldens at another SIMD level and BLAS kernel (ROADMAP items 18 and 22, step 1).

numpy picks its log2, log1p, arccos, power and other elementary-function
loops by CPU at import, and the goldens pin the bits of its AVX-512 loops.
NPY_DISABLE_CPU_FEATURES makes one process use the AVX2 loops, as a host
without AVX-512 would; it changes nothing outside that process.  The golden
tests run there in a child pytest, which fails until item 18 picks a remedy.

Every weighted sum is one OpenBLAS ddot, whose kernel OpenBLAS picks by CPU
and which splits a long sum over threads.  OPENBLAS_CORETYPE=Haswell gives
one process the kernel of an AVX2 host, and OPENBLAS_NUM_THREADS its thread
count.  Both pins fail until item 22 takes BLAS out of the value path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).parents[1]
ITEM_22 = "item 22: weighted sums take their bits from OpenBLAS's ddot kernel and thread count"
# dist_wu and entropy_ifs, in hex, on seeded sets of 10,001 and 25,000
# elements with uniform weights, where the ddot splits over threads
BLAS_BITS = """
import numpy as np
from ifsim import IFS, dist_wu, entropy_ifs, uniform_weights
rng = np.random.default_rng(7)
for n in (10_001, 25_000):
    xy = rng.random((2, n, 2))
    over = xy.sum(axis=-1) > 1.0
    xy[over] = 1.0 - xy[over]
    a, b = (IFS.from_pairs(p) for p in xy)
    w = uniform_weights(n)
    print(n, dist_wu(a, b, w).hex(), entropy_ifs(a, w).hex())
"""
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


@pytest.mark.skipif(not __cpu_features__.get("AVX2"), reason="OpenBLAS's Haswell kernel needs AVX2")
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_22)
def test_set_api_golden_holds_under_the_haswell_ddot():
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "tests/test_set_api_golden.py"],
        cwd=ROOT, env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
        capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stdout[-4000:]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread on one CPU")
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_22)
def test_weighted_sums_keep_their_bits_over_blas_threads():
    outs = [subprocess.run(
        [sys.executable, "-c", BLAS_BITS],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads},
        capture_output=True, text=True, timeout=600, check=True,
    ).stdout for threads in ("1", "2")]
    assert outs[0] == outs[1]
