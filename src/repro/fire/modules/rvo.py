"""Reference vector optimization (RVO) — the dominant T3E module.

Paper: "the sensitivity of the correlation procedure depends on the
quality of the model of the hemodynamic response. ... On the T3E, a
fully automatic least-squares fit of delay and duration is performed for
each voxel during the measurement.  The procedure rasters the parameter
space to find the global minimum."

And the planned optimization (implemented here as :func:`rvo_refined`):
"further optimizations are planned ... the resolution of the grid can be
reduced and the solution refined using a conjugate gradient method."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from repro.fire.decomposition import _as_mask
from repro.fire.hrf import HrfModel, reference_bank, reference_vector


@dataclass
class RvoResult:
    """Per-voxel best-fit hemodynamic parameters.

    Spatial arrays share the input's spatial shape.  ``work_units`` counts
    voxel-reference correlation evaluations — the quantity the paper's
    grid-resolution optimization reduces (used by the E10 ablation).
    """

    delay: np.ndarray
    dispersion: np.ndarray
    correlation: np.ndarray
    work_units: int

    def best_site_parameters(self, mask: np.ndarray) -> tuple[float, float]:
        """Correlation-weighted mean (delay, dispersion) inside ``mask``."""
        w = np.clip(self.correlation[mask], 0.0, None)
        if w.sum() <= 0:
            return float("nan"), float("nan")
        return (
            float(np.average(self.delay[mask], weights=w)),
            float(np.average(self.dispersion[mask], weights=w)),
        )


def _normalize_rows(mat: np.ndarray) -> np.ndarray:
    mat = mat - mat.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    return np.where(norms > 1e-12, mat / norms, 0.0)


def _grid_scan(
    flat_ts: np.ndarray,
    stimulus: np.ndarray,
    delays: np.ndarray,
    dispersions: np.ndarray,
    tr: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Correlate every voxel against every grid reference.

    Returns (best parameter index, best correlation) per voxel.  The
    maximum-correlation reference is exactly the least-squares-optimal
    amplitude fit for unit-norm references.
    """
    bank = reference_bank(stimulus, delays, dispersions, tr)  # (P, T)
    x = _normalize_rows(flat_ts.T).T  # (T, V) voxel-normalized
    corr = bank @ x  # (P, V)
    best = np.argmax(corr, axis=0)
    return best, corr[best, np.arange(corr.shape[1])]


def rvo_raster(
    timeseries: np.ndarray,
    stimulus: np.ndarray,
    delays: np.ndarray | None = None,
    dispersions: np.ndarray | None = None,
    tr: float = 2.0,
    mask: np.ndarray | None = None,
) -> RvoResult:
    """Full-resolution raster of the (delay, dispersion) space (paper's
    production method).

    ``timeseries`` is (T, *spatial*).  ``mask`` restricts the scan to
    brain voxels (the domain decomposition's working set).
    """
    ts = np.asarray(timeseries, dtype=float)
    if delays is None:
        delays = np.arange(3.0, 9.01, 0.5)
    if dispersions is None:
        dispersions = np.arange(0.6, 1.81, 0.2)
    delays = np.asarray(delays, dtype=float)
    dispersions = np.asarray(dispersions, dtype=float)
    spatial = ts.shape[1:]
    mask = np.ones(spatial, dtype=bool) if mask is None else _as_mask(mask, spatial)

    flat = ts.reshape(ts.shape[0], -1)[:, mask.ravel()]
    best, corr = _grid_scan(flat, stimulus, delays, dispersions, tr)
    d_idx, s_idx = np.divmod(best, len(dispersions))

    out_delay = np.zeros(spatial)
    out_disp = np.zeros(spatial)
    out_corr = np.zeros(spatial)
    out_delay[mask] = delays[d_idx]
    out_disp[mask] = dispersions[s_idx]
    out_corr[mask] = corr
    return RvoResult(
        delay=out_delay,
        dispersion=out_disp,
        correlation=out_corr,
        work_units=flat.shape[1] * len(delays) * len(dispersions),
    )


def rvo_refined(
    timeseries: np.ndarray,
    stimulus: np.ndarray,
    coarse_delays: np.ndarray | None = None,
    coarse_dispersions: np.ndarray | None = None,
    tr: float = 2.0,
    mask: np.ndarray | None = None,
    refine_top_fraction: float = 0.05,
    refine_min_correlation: float = 0.3,
) -> RvoResult:
    """Coarse raster + local refinement (the paper's planned optimization).

    A reduced-resolution grid locates the basin; only clearly-active
    voxels (top fraction by correlation above a floor) get a local
    continuous optimization (Nelder-Mead over (delay, dispersion), the
    role the paper assigns to conjugate gradient).  Work drops by roughly
    the grid-size ratio while active-voxel parameters improve.
    """
    ts = np.asarray(timeseries, dtype=float)
    if coarse_delays is None:
        coarse_delays = np.arange(3.0, 9.01, 1.5)
    if coarse_dispersions is None:
        coarse_dispersions = np.arange(0.6, 1.81, 0.6)

    spatial = ts.shape[1:]
    mask = np.ones(spatial, dtype=bool) if mask is None else _as_mask(mask, spatial)
    result = rvo_raster(ts, stimulus, coarse_delays, coarse_dispersions, tr, mask)

    corr_vals = result.correlation[mask]
    if corr_vals.size == 0:
        return result
    threshold = max(
        refine_min_correlation,
        float(np.quantile(corr_vals, 1.0 - refine_top_fraction)),
    )
    refine_mask = mask & (result.correlation >= threshold)
    flat = ts.reshape(ts.shape[0], -1)
    work = result.work_units

    idx = np.flatnonzero(refine_mask.ravel())
    for voxel in idx:
        x = flat[:, voxel]
        xc = x - x.mean()
        nx = np.linalg.norm(xc)
        if nx < 1e-12:
            continue
        xn = xc / nx
        evals = 0

        def neg_corr(p):
            nonlocal evals
            evals += 1
            d, s = p
            if d <= 0.5 or s <= 0.2 or d > 15 or s > 4:
                return 1.0
            try:
                ref = reference_vector(stimulus, HrfModel(d, s), tr)
            except ValueError:
                # Degenerate HRF (kernel too narrow for the TR sampling).
                return 1.0
            return -float(ref @ xn)

        start = (
            result.delay.ravel()[voxel],
            result.dispersion.ravel()[voxel],
        )
        res = optimize.minimize(
            neg_corr, start, method="Nelder-Mead",
            options={"maxiter": 40, "xatol": 0.02, "fatol": 1e-4},
        )
        work += evals
        if -res.fun >= result.correlation.ravel()[voxel]:
            result.delay.ravel()[voxel] = res.x[0]
            result.dispersion.ravel()[voxel] = res.x[1]
            result.correlation.ravel()[voxel] = -res.fun

    result.work_units = work
    return result
