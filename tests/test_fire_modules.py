"""Tests for the FIRE processing modules: filters, motion correction,
detrending, correlation, RVO."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from repro.fire import HeadPhantom, ScannerConfig, SimulatedScanner
from repro.fire.hrf import HrfModel, boxcar_stimulus, reference_vector
from repro.fire.decomposition import (
    gather_slabs,
    scatter_slabs,
    slab_bounds,
    slab_timeseries,
)
from repro.fire.modules import (
    CorrelationAnalyzer,
    correct_motion,
    correlation_map,
    detrend_timeseries,
    detrending_basis,
    estimate_motion,
    median_filter3d,
    rvo_raster,
    rvo_refined,
    smoothing_filter3d,
)


class TestFilters:
    def test_median_removes_salt_noise(self):
        rng = np.random.default_rng(0)
        vol = np.full((8, 16, 16), 100.0)
        idx = rng.integers(0, 8 * 16 * 16, size=30)
        vol.ravel()[idx] = 10000.0
        out = median_filter3d(vol)
        assert out.max() < 5000.0

    def test_median_preserves_constant(self):
        vol = np.full((4, 8, 8), 7.0)
        np.testing.assert_array_equal(median_filter3d(vol), vol)

    def test_median_validates(self):
        with pytest.raises(ValueError):
            median_filter3d(np.zeros((4, 4, 4)), size=2)
        with pytest.raises(ValueError):
            median_filter3d(np.zeros((4, 4)))

    @given(
        data=st.data(),
        shape=hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=9),
        size=st.sampled_from([1, 3, 5]),
        dtype=st.sampled_from([np.float64, np.float32, np.int16, np.uint8]),
        ties=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_median_matches_scipy_nearest(self, data, shape, size, dtype, ties):
        """Bit-identical to scipy's rank filter, borders included, for axes
        shorter than the window and for windows full of equal values."""
        elements = (
            st.integers(0, 3)
            if ties
            else hnp.from_dtype(np.dtype(dtype), allow_nan=False)
        )
        vol = data.draw(hnp.arrays(dtype, shape, elements=elements))
        got = median_filter3d(vol, size)
        want = ndimage.median_filter(vol, size=size, mode="nearest")
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        # Bit for bit too, unless the input holds -0.0: it equals 0.0, and
        # which of two equal values a selection returns is its own choice.
        if not np.any((vol == 0) & np.signbit(vol)):
            assert got.tobytes() == want.tobytes()

    def test_median_nan_sorts_above_numbers(self):
        vol = np.arange(27.0).reshape(3, 3, 3)
        vol[1, 1, 1] = np.nan
        # One NaN among 27: it counts as the largest, the median is 14.
        assert median_filter3d(vol)[1, 1, 1] == 14.0
        # 14 NaNs (more than half of the window): the median is NaN.
        vol.ravel()[:14] = np.nan
        assert np.isnan(median_filter3d(vol)[1, 1, 1])
        vol.ravel()[13] = 13.0  # 13 NaNs: a number again
        assert median_filter3d(vol)[1, 1, 1] == 26.0

    def test_median_empty_volume(self):
        assert median_filter3d(np.zeros((0, 4, 4))).shape == (0, 4, 4)

    def test_smoothing_reduces_variance(self):
        rng = np.random.default_rng(1)
        vol = rng.normal(size=(8, 16, 16))
        assert smoothing_filter3d(vol).var() < 0.3 * vol.var()

    def test_smoothing_preserves_mean(self):
        rng = np.random.default_rng(2)
        vol = rng.normal(10.0, 1.0, size=(6, 10, 10))
        assert smoothing_filter3d(vol).mean() == pytest.approx(
            vol.mean(), rel=0.01
        )


class TestMotion:
    def test_recovers_known_translation(self):
        ph = HeadPhantom()
        ref = ph.anatomy()
        shifted = ndimage.shift(ref, (0.0, 1.2, -0.8), order=1, mode="nearest")
        est = estimate_motion(shifted, ref)
        assert est.translation[1] == pytest.approx(1.2, abs=0.25)
        assert est.translation[2] == pytest.approx(-0.8, abs=0.25)

    def test_correction_reduces_error(self):
        ph = HeadPhantom()
        ref = ph.anatomy()
        shifted = ndimage.shift(ref, (0.2, 1.0, 0.7), order=1, mode="nearest")
        est = estimate_motion(shifted, ref)
        corrected = correct_motion(shifted, est)
        before = np.abs(shifted - ref).mean()
        after = np.abs(corrected - ref).mean()
        # The estimate itself is near-exact; resampling a noisy-textured
        # volume twice (inject + correct) leaves interpolation blur, so
        # the intensity error does not go all the way to zero.
        assert after < 0.75 * before
        assert est.translation == pytest.approx([0.2, 1.0, 0.7], abs=0.1)

    def test_identity_motion_near_zero(self):
        ph = HeadPhantom()
        ref = ph.anatomy()
        est = estimate_motion(ref, ref)
        assert est.magnitude < 0.05
        assert np.all(np.abs(est.rotation) < 0.01)

    def test_iterative_scheme_iterates(self):
        ph = HeadPhantom()
        ref = ph.anatomy()
        shifted = ndimage.shift(ref, (0, 2.5, 0), order=1, mode="nearest")
        est = estimate_motion(shifted, ref, max_iterations=5)
        assert 1 <= est.iterations <= 5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_motion(np.zeros((4, 4, 4)), np.zeros((4, 4, 5)))

    def test_bad_mask_rejected(self):
        vol = np.random.default_rng(0).normal(size=(4, 5, 6))
        # An int 0/1 mask would fancy-index; a 2-D bool mask would select
        # whole rows.  Both used to return a plausible estimate.
        for mask in (np.ones((4, 5, 6), dtype=int), np.ones((4, 5), dtype=bool)):
            with pytest.raises(ValueError, match="mask"):
                estimate_motion(vol, vol, mask=mask)

    def test_mask_selects_voxels(self):
        ph = HeadPhantom()
        ref = ph.anatomy()
        shifted = ndimage.shift(ref, (0.0, 1.0, 0.0), order=1, mode="nearest")
        full = estimate_motion(shifted, ref)
        all_true = estimate_motion(shifted, ref, mask=np.ones(ref.shape, bool))
        np.testing.assert_array_equal(full.translation, all_true.translation)
        brain = estimate_motion(shifted, ref, mask=ph.brain_mask())
        assert brain.translation[1] == pytest.approx(1.0, abs=0.25)

    def test_max_iterations_validated(self):
        vol = np.zeros((4, 4, 4))
        with pytest.raises(ValueError, match="max_iterations"):
            estimate_motion(vol, vol, max_iterations=0)

    def test_artifact_suppression_in_correlation(self):
        """The module's purpose: motion artifacts corrupt the correlation
        map; correction restores specificity."""
        ph = HeadPhantom()
        cfg = ScannerConfig(n_frames=30, motion_amplitude=1.5, noise_sigma=3.0)
        sc = SimulatedScanner(ph, cfg)
        ref = reference_vector(sc.stimulus, HrfModel(), cfg.tr)
        raw = sc.timeseries()
        ref_vol = raw[0]
        corrected = np.stack(
            [raw[0]]
            + [
                correct_motion(raw[i], estimate_motion(raw[i], ref_vol))
                for i in range(1, 30)
            ]
        )
        quiet = ph.brain_mask() & ~ph.activation_mask()
        fp_raw = np.abs(correlation_map(raw, ref)[quiet]).mean()
        fp_cor = np.abs(correlation_map(corrected, ref)[quiet]).mean()
        assert fp_cor < fp_raw


class TestDetrend:
    def test_basis_shape(self):
        b = detrending_basis(20, order=2, cosines=1)
        assert b.shape == (20, 4)
        np.testing.assert_array_equal(b[:, 0], 1.0)

    def test_basis_validation(self):
        with pytest.raises(ValueError):
            detrending_basis(1)
        with pytest.raises(ValueError):
            detrending_basis(10, order=-1)

    def test_removes_linear_drift(self):
        t = np.arange(30, dtype=float)
        signal = np.sin(t)  # not in the drift subspace
        ts = (signal + 0.5 * t)[:, None, None, None] * np.ones((1, 2, 2, 2))
        out = detrend_timeseries(ts)
        # Drift gone: correlation with t should be ~0.
        flat = out[:, 0, 0, 0]
        drift_corr = np.corrcoef(flat, t)[0, 1]
        assert abs(drift_corr) < 0.1

    def test_preserves_mean(self):
        rng = np.random.default_rng(3)
        ts = rng.normal(100.0, 1.0, size=(20, 3, 3))
        out = detrend_timeseries(ts)
        np.testing.assert_allclose(
            out.mean(axis=0), ts.mean(axis=0), atol=1e-8
        )

    def test_improves_correlation_under_drift(self):
        ph = HeadPhantom()
        cfg = ScannerConfig(n_frames=40, drift_per_frame=2.0, noise_sigma=2.0)
        sc = SimulatedScanner(ph, cfg)
        ts = sc.timeseries()
        ref = reference_vector(sc.stimulus, HrfModel(), cfg.tr)
        act = ph.activation_mask()
        raw_contrast = correlation_map(ts, ref)[act].mean()
        det_contrast = correlation_map(detrend_timeseries(ts), ref)[act].mean()
        assert det_contrast > raw_contrast

    def test_basis_row_mismatch(self):
        with pytest.raises(ValueError):
            detrend_timeseries(np.zeros((10, 2, 2)), detrending_basis(8))


class TestCorrelation:
    def test_perfect_correlation(self):
        ref = reference_vector(boxcar_stimulus(30), HrfModel())
        ts = np.outer(ref, np.ones(8)).reshape(30, 2, 2, 2)
        cm = correlation_map(ts, ref)
        np.testing.assert_allclose(cm, 1.0, atol=1e-9)

    def test_anticorrelation(self):
        ref = reference_vector(boxcar_stimulus(30), HrfModel())
        ts = np.outer(-ref, np.ones(4)).reshape(30, 2, 2)
        np.testing.assert_allclose(correlation_map(ts, ref), -1.0, atol=1e-9)

    def test_constant_voxels_zero(self):
        ref = reference_vector(boxcar_stimulus(30), HrfModel())
        cm = correlation_map(np.ones((30, 2, 2)), ref)
        np.testing.assert_array_equal(cm, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            correlation_map(np.zeros((10, 2, 2)), np.zeros(8))

    def test_incremental_matches_batch(self):
        rng = np.random.default_rng(5)
        ref = reference_vector(boxcar_stimulus(25), HrfModel())
        ts = rng.normal(size=(25, 3, 4, 5)) + ref[:, None, None, None]
        an = CorrelationAnalyzer((3, 4, 5), ref)
        for frame in ts:
            an.update(frame)
        np.testing.assert_allclose(
            an.correlation(), correlation_map(ts, ref), atol=1e-10
        )

    def test_incremental_partial_series(self):
        """The realtime property: map available mid-measurement."""
        ref = reference_vector(boxcar_stimulus(30), HrfModel())
        ts = np.outer(ref, np.ones(4)).reshape(30, 2, 2)
        an = CorrelationAnalyzer((2, 2), ref)
        for k in range(12):
            an.update(ts[k])
        partial = correlation_map(ts[:12], ref[:12])
        np.testing.assert_allclose(an.correlation(), partial, atol=1e-10)

    def test_too_many_frames_rejected(self):
        an = CorrelationAnalyzer((2, 2), np.array([1.0, -1.0]))
        an.update(np.zeros((2, 2)))
        an.update(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            an.update(np.zeros((2, 2)))

    def test_reset(self):
        ref = np.array([1.0, -1.0, 0.5])
        an = CorrelationAnalyzer((2, 2), ref)
        an.update(np.ones((2, 2)))
        an.reset()
        assert an.n == 0

    @given(n_vox=st.integers(1, 8), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_incremental_equals_batch_property(self, n_vox, seed):
        rng = np.random.default_rng(seed)
        t = 15
        ref = reference_vector(boxcar_stimulus(t, 4, 4, 2), HrfModel())
        ts = rng.normal(size=(t, n_vox))
        an = CorrelationAnalyzer((n_vox,), ref)
        for frame in ts:
            an.update(frame)
        np.testing.assert_allclose(
            an.correlation(), correlation_map(ts, ref), atol=1e-9
        )


class TestRvo:
    @pytest.fixture(scope="class")
    def session(self):
        ph = HeadPhantom()
        cfg = ScannerConfig(n_frames=48, noise_sigma=3.0)
        sc = SimulatedScanner(ph, cfg)
        ts = detrend_timeseries(sc.timeseries())
        return ph, sc, ts

    def test_raster_recovers_site_hemodynamics(self, session):
        ph, sc, ts = session
        res = rvo_raster(ts, sc.stimulus, tr=sc.config.tr, mask=ph.brain_mask())
        for site in ph.sites:
            d, s = res.best_site_parameters(site.mask(ph.shape))
            assert d == pytest.approx(site.delay, abs=1.0)
            assert s == pytest.approx(site.dispersion, abs=0.5)

    def test_rvo_improves_mismatched_reference(self, session):
        """RVO's purpose: per-voxel fits beat one global (wrong) HRF."""
        ph, sc, ts = session
        bad_ref = reference_vector(sc.stimulus, HrfModel(9.0, 1.8), sc.config.tr)
        act = ph.activation_mask()
        fixed = correlation_map(ts, bad_ref)[act].mean()
        res = rvo_raster(ts, sc.stimulus, tr=sc.config.tr, mask=ph.brain_mask())
        assert res.correlation[act].mean() > fixed

    def test_mask_restricts_work(self, session):
        ph, sc, ts = session
        full = rvo_raster(ts, sc.stimulus, tr=sc.config.tr)
        masked = rvo_raster(ts, sc.stimulus, tr=sc.config.tr, mask=ph.brain_mask())
        assert masked.work_units < full.work_units
        assert masked.correlation[~ph.brain_mask()].max() == 0.0

    def test_refined_cheaper_than_full_raster(self, session):
        """E10 ablation mechanics: coarse grid + refinement does much less
        work than the full raster."""
        ph, sc, ts = session
        mask = ph.brain_mask()
        full = rvo_raster(ts, sc.stimulus, tr=sc.config.tr, mask=mask)
        refined = rvo_refined(ts, sc.stimulus, tr=sc.config.tr, mask=mask)
        assert refined.work_units < 0.5 * full.work_units

    @pytest.mark.parametrize("fn", [rvo_raster, rvo_refined])
    def test_bad_mask_rejected(self, session, fn):
        ph, sc, ts = session
        brain = ph.brain_mask()
        for mask in (brain.astype(int), brain[0]):
            with pytest.raises(ValueError, match="mask"):
                fn(ts, sc.stimulus, tr=sc.config.tr, mask=mask)

    def test_refined_keeps_accuracy_on_active_sites(self, session):
        ph, sc, ts = session
        mask = ph.brain_mask()
        refined = rvo_refined(ts, sc.stimulus, tr=sc.config.tr, mask=mask)
        site = ph.sites[0]
        d, s = refined.best_site_parameters(site.mask(ph.shape))
        assert d == pytest.approx(site.delay, abs=1.2)
        assert s == pytest.approx(site.dispersion, abs=0.6)


class TestDecomposition:
    def test_bounds_cover_exactly(self):
        n, p = 100, 7
        covered = []
        for part in range(p):
            lo, hi = slab_bounds(n, p, part)
            covered.extend(range(lo, hi))
        assert covered == list(range(n))

    def test_balance_within_one(self):
        sizes = [
            (lambda b: b[1] - b[0])(slab_bounds(64 * 64 * 16, 256, p))
            for p in range(256)
        ]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            slab_bounds(10, 0, 0)
        with pytest.raises(ValueError):
            slab_bounds(10, 2, 5)

    def test_scatter_gather_roundtrip(self):
        rng = np.random.default_rng(4)
        vol = rng.normal(size=(6, 8, 10))
        slabs = scatter_slabs(vol, 5)
        np.testing.assert_array_equal(gather_slabs(slabs, vol.shape), vol)

    def test_gather_size_mismatch(self):
        with pytest.raises(ValueError):
            gather_slabs([np.zeros(5)], (2, 2, 2))

    def test_slab_timeseries(self):
        ts = np.arange(2 * 12, dtype=float).reshape(2, 3, 4)
        part = slab_timeseries(ts, 3, 1)
        assert part.shape == (2, 4)
        np.testing.assert_array_equal(part[0], [4, 5, 6, 7])

    @given(n=st.integers(1, 1000), p=st.integers(1, 64))
    def test_partition_property(self, n, p):
        """Property: slabs tile [0, n) exactly, balanced to one item."""
        bounds = [slab_bounds(n, p, k) for k in range(p)]
        assert bounds[0][0] == 0
        assert bounds[-1][1] == n
        for (a, b), (c, d) in zip(bounds, bounds[1:]):
            assert b == c
        sizes = [b - a for a, b in bounds]
        assert max(sizes) - min(sizes) <= 1
