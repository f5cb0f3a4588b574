"""Spatial filters.

Paper: "a median filter is used to reduce noise in the unprocessed
picture.  After the processing pipeline, the data can be smoothened by
an averaging filter."
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage


def median_filter3d(volume: np.ndarray, size: int = 3) -> np.ndarray:
    """3-D median filter (the pre-processing noise reducer).

    ``size`` is the cubic window edge; must be odd so the window has a
    center voxel.  Borders replicate the edge voxel, so the result equals
    ``scipy.ndimage.median_filter(volume, size, mode="nearest")`` bit for
    bit, in the input's dtype.  The one exception is a zero median from a
    window holding both 0.0 and -0.0: either sign may come back.

    The median is an exact selection: one z-slice at a time, every
    voxel's ``size**3`` window is copied into a reused slab and
    partitioned in place at its middle element, so temporaries stay one
    slice of windows in size.  NaN sorts above every number (NumPy's
    partition order), so a window's median is NaN exactly when more than
    half of its voxels are NaN.
    """
    if size < 1 or size % 2 == 0:
        raise ValueError("median window size must be odd and positive")
    volume = np.asarray(volume)
    if volume.ndim != 3:
        raise ValueError(f"expected a 3-D volume, got shape {volume.shape}")
    if volume.size == 0:
        return volume.copy()
    padded = np.pad(volume, size // 2, mode="edge")
    windows = sliding_window_view(padded, (size,) * 3)
    n = size**3
    slab = np.empty((volume.shape[1] * volume.shape[2], n), dtype=volume.dtype)
    out = np.empty_like(volume)
    for z in range(volume.shape[0]):
        np.copyto(slab.reshape(windows.shape[1:]), windows[z])
        slab.partition(n // 2, axis=1)
        out[z] = slab[:, n // 2].reshape(volume.shape[1:])
    return out


def smoothing_filter3d(volume: np.ndarray, size: int = 3) -> np.ndarray:
    """3-D moving-average filter (the post-pipeline smoother)."""
    if size < 1:
        raise ValueError("window size must be positive")
    volume = np.asarray(volume)
    if volume.ndim != 3:
        raise ValueError(f"expected a 3-D volume, got shape {volume.shape}")
    return ndimage.uniform_filter(volume, size=size, mode="nearest")
