"""Brain domain decomposition (paper §4: the T3E modules use "a domain
decomposition of the brain").

Volumes are split into contiguous voxel slabs along the flattened voxel
axis, balanced to within one voxel, so any processor count up to the
voxel count works — matching Table 1's range of 1–256 PEs on a
64×64×16 image.
"""

from __future__ import annotations

import numpy as np


def _as_mask(mask: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Check a voxel mask: a bool array of the volume's spatial ``shape``.

    An int 0/1 mask would fancy-index instead of select, and a mask of
    fewer axes would select whole rows; both give plausible-looking
    wrong results, so they are rejected here.
    """
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != tuple(shape):
        raise ValueError(
            f"mask must be a bool array of shape {tuple(shape)}, "
            f"got {mask.dtype} {mask.shape}"
        )
    return mask


def slab_bounds(n_items: int, n_parts: int, part: int) -> tuple[int, int]:
    """[start, stop) of ``part`` when ``n_items`` split into ``n_parts``.

    The first ``n_items % n_parts`` parts get one extra item.
    """
    if n_parts < 1:
        raise ValueError("need at least one part")
    if not 0 <= part < n_parts:
        raise ValueError(f"part {part} outside 0..{n_parts - 1}")
    base, extra = divmod(n_items, n_parts)
    start = part * base + min(part, extra)
    stop = start + base + (1 if part < extra else 0)
    return start, stop


def scatter_slabs(volume: np.ndarray, n_parts: int) -> list[np.ndarray]:
    """Split a volume's voxels into ``n_parts`` flat slabs (copies)."""
    flat = np.asarray(volume).reshape(-1)
    return [
        flat[slice(*slab_bounds(flat.size, n_parts, p))].copy()
        for p in range(n_parts)
    ]


def gather_slabs(slabs: list[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Reassemble flat slabs into a volume of ``shape``."""
    flat = np.concatenate([np.asarray(s).reshape(-1) for s in slabs])
    expected = int(np.prod(shape))
    if flat.size != expected:
        raise ValueError(f"slabs hold {flat.size} voxels, shape needs {expected}")
    return flat.reshape(shape)


def slab_timeseries(timeseries: np.ndarray, n_parts: int, part: int) -> np.ndarray:
    """The (T, slab_voxels) slice of a (T, *spatial*) series for one rank."""
    ts = np.asarray(timeseries)
    flat = ts.reshape(ts.shape[0], -1)
    lo, hi = slab_bounds(flat.shape[1], n_parts, part)
    return flat[:, lo:hi].copy()
