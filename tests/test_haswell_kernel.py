"""The lane and block bitwise cases on OpenBLAS's AVX2 (Haswell) dgemm.

numpy's bundled OpenBLAS picks its kernel at run time, and
``OPENBLAS_CORETYPE`` forces one. The Haswell dgemm, which CPUs without
AVX-512 get, rounds a run of rows that starts at an odd row differently from
the whole product, so every lane and block of conv images must start at an
even row. This runs ``tests/test_lanes.py`` and ``tests/test_conv_blocks.py``
in a subprocess on that kernel, whatever kernel this process uses, and
checks that a run's ``env.json`` would record the kernel the variable forced.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo") as info:
            return {flag for line in info if line.startswith("flags")
                    for flag in line.split(":", 1)[1].split()}
    except OSError:
        return set()


needs_avx2 = pytest.mark.skipif(
    "avx2" not in _cpu_flags(),
    reason="the CPU lacks AVX2 (no avx2 flag in /proc/cpuinfo), so it cannot run OpenBLAS's "
           "Haswell kernel")


@needs_avx2
def test_lane_and_block_cases_hold_on_the_haswell_kernel():
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(TESTS / "test_lanes.py"), str(TESTS / "test_conv_blocks.py")],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
    assert " passed" in run.stdout


@needs_avx2
def test_the_environment_records_the_kernel_openblas_core_type_forces():
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell"}
    run = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; sys.path.insert(0, 'src'); from sadtlab.harness import environment; "
         "print(json.dumps(environment()))"],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    blas = json.loads(run.stdout)["blas"]
    assert (blas["core"], blas["OPENBLAS_CORETYPE"]) == ("Haswell", "Haswell")
