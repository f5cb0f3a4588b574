"""3-D movement correction.

Paper: "even small head movements of the subject tend to produce
artefacts in the correlation coefficient due to the high intrinsic
contrast of the MR images. ... Here an iterative linear scheme is used."

The iterative linear scheme implemented: at each iteration, linearize
the image around the current estimate (first-order Taylor in the six
rigid parameters — three translations, three small-angle rotations),
solve the normal equations for the parameter update, resample, repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from repro.fire.decomposition import _as_mask


@dataclass(frozen=True)
class MotionEstimate:
    """Rigid motion of a frame relative to the reference volume."""

    translation: np.ndarray  #: (dz, dy, dx) in voxels
    rotation: np.ndarray  #: (rz, ry, rx) small angles in radians
    iterations: int
    residual: float  #: RMS intensity mismatch after correction
    #: the frame resampled under this estimate (equal to
    #: :func:`correct_motion` of the frame, bit for bit)
    corrected: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def magnitude(self) -> float:
        """Euclidean norm of the translation (voxels)."""
        return float(np.linalg.norm(self.translation))


def _gradients(vol: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.gradient(vol)


def _coordinates(shape: tuple[int, ...]) -> list[np.ndarray]:
    center = [(s - 1) / 2.0 for s in shape]
    grids = np.meshgrid(*[np.arange(s) for s in shape], indexing="ij")
    return [g - c for g, c in zip(grids, center)]


def _apply_rigid(
    vol: np.ndarray,
    translation: np.ndarray,
    rotation: np.ndarray,
    output: np.ndarray | None = None,
) -> np.ndarray:
    """Resample ``vol`` under the rigid motion (small-angle rotations),
    into ``output`` if given."""
    rz, ry, rx = rotation
    # Small-angle rotation matrix about the volume center (z, y, x axes).
    rot = np.array(
        [
            [1.0, -rz, ry],
            [rz, 1.0, -rx],
            [-ry, rx, 1.0],
        ]
    )
    center = (np.array(vol.shape) - 1) / 2.0
    offset = center - rot @ center + np.asarray(translation, dtype=float)
    return ndimage.affine_transform(
        vol, rot, offset=offset, order=1, mode="nearest", output=output
    )


def estimate_motion(
    frame: np.ndarray,
    reference: np.ndarray,
    max_iterations: int = 5,
    tolerance: float = 1e-3,
    mask: np.ndarray | None = None,
) -> MotionEstimate:
    """Estimate the rigid motion carrying ``reference`` onto ``frame``.

    Iterative linearized least squares: with image gradients g and
    coordinate fields c, the six-parameter model predicts the intensity
    difference as ``Δf ≈ J p``; each iteration solves for ``p`` and
    accumulates.  ``mask`` (bool, the frame's shape) restricts the fit to
    its voxels.  The returned estimate carries the frame resampled under
    the final parameters as ``corrected``, so a caller need not resample
    again with :func:`correct_motion`.
    """
    frame = np.asarray(frame, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if frame.shape != reference.shape:
        raise ValueError("frame and reference shapes differ")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    # Every resample lands in this one buffer: each pass reads the
    # previous resample (for its residual) before overwriting it, and the
    # last one is the corrected frame the estimate carries.  Allocating
    # it ahead of the Jacobian's temporaries keeps this long-lived array
    # from pinning the heap between them once they are freed (a fresh
    # array per resample raised the fMRI session's peak RSS by ~4%).
    resampled = np.empty(frame.shape)
    if mask is None:
        select = np.ravel
    else:
        mask = _as_mask(mask, frame.shape)

        def select(a: np.ndarray) -> np.ndarray:
            return a[mask]

    gz, gy, gx = _gradients(reference)
    cz, cy, cx = _coordinates(frame.shape)
    # Columns: translations dz,dy,dx then small rotations rz (z-y plane),
    # ry (z-x), rx (y-x): the displacement fields of each parameter dotted
    # with the gradient.
    cols = [
        gz,
        gy,
        gx,
        gz * (-cy) + gy * cz,
        gz * cx + gx * (-cz),
        gy * (-cx) + gx * cy,
    ]
    jac = np.stack([select(c) for c in cols], axis=1)
    jtj = jac.T @ jac
    jtj += np.eye(6) * (1e-8 * np.trace(jtj) / 6.0)

    params = np.zeros(6)
    # The first pass always resamples (its residual is compared with inf),
    # so ``corrected`` ends as the frame resampled under the final params.
    corrected = frame
    last_residual = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        diff = select(corrected - reference)
        residual = float(np.sqrt(np.mean(diff**2)))
        if abs(last_residual - residual) < tolerance * max(residual, 1e-12):
            iterations -= 1
            break
        last_residual = residual
        update = np.linalg.solve(jtj, jac.T @ diff)
        params += update
        corrected = _apply_rigid(frame, -params[:3], -params[3:], resampled)

    diff = select(corrected - reference)
    # The normal equations solve for the *resampling* parameters; the
    # physical motion of the head is their negative.
    return MotionEstimate(
        translation=-params[:3],
        rotation=-params[3:],
        iterations=iterations,
        residual=float(np.sqrt(np.mean(diff**2))),
        corrected=corrected,
    )


def correct_motion(
    frame: np.ndarray, estimate: MotionEstimate
) -> np.ndarray:
    """Resample ``frame`` to undo the estimated motion."""
    return _apply_rigid(frame, estimate.translation, estimate.rotation)
