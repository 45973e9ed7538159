"""Deterministic synthetic dataset generators for benches and tests."""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .errors import RangeError


def gaussian_mixture(
    n: int,
    d: int,
    n_centers: int,
    seed: int,
    center_box: float = 100.0,
    spread: float = 1.0,
) -> Dataset:
    """n points drawn from ``n_centers`` isotropic Gaussian blobs."""
    if n < 1 or d < 1 or n_centers < 1:
        raise RangeError("n, d, n_centers must all be >= 1")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-center_box, center_box, size=(n_centers, d))
    labels = rng.integers(0, n_centers, size=n)
    pts = centers[labels] + rng.normal(0.0, spread, size=(n, d))
    return Dataset.from_values(pts)
