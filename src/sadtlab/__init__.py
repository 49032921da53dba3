"""Desk-scale training laboratory for noisy self-teacher strategies.

A minimal reverse-mode autodiff engine, a small model zoo, gradient
transforms, exactly removable parameter noise, seven pluggable strategies,
sharpness/divergence probes, deterministic data handling with CutMix, and a
reproducible experiment harness.
"""

__version__ = "0.1.0"

# OpenBLAS splits a matmul's sums by its thread count, so results depend on it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
