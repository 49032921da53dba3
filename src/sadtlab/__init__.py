"""Desk-scale training laboratory for noisy self-teacher strategies.

A minimal reverse-mode autodiff engine, a small model zoo, gradient
transforms, exactly removable parameter noise, seven pluggable strategies,
sharpness/divergence probes, deterministic data handling with CutMix, and a
reproducible experiment harness.
"""

__version__ = "0.1.0"
