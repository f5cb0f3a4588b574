"""Tests for the RT-server/RT-client chain and the Figure-2 pipeline
(experiment E3 and the E8 pipelining ablation)."""

import hashlib

import numpy as np
import pytest

from repro.fire import (
    FirePipeline,
    HeadPhantom,
    ModuleFlags,
    PipelineConfig,
    RTClient,
    RTServer,
    ScannerConfig,
    SimulatedScanner,
)
from repro.fire.modules import correct_motion, estimate_motion
from repro.fire.rt import parallel_correlation
from repro.machines import CRAY_T3E_600
from repro.machines.t3e_model import REF_VOXELS
from repro.metampi import MetaMPI


@pytest.fixture()
def session():
    ph = HeadPhantom()
    sc = SimulatedScanner(ph, ScannerConfig(n_frames=24, noise_sigma=3.0))
    return ph, sc


class TestRTServer:
    def test_image_timing_stamps(self, session):
        _, sc = session
        server = RTServer(sc)
        img = server.get_image(3)
        assert img.scan_time == pytest.approx(4 * sc.config.tr)
        assert img.available_time == pytest.approx(
            img.scan_time + 1.5
        )  # the paper's ~1.5 s delivery

    def test_raw_bytes_128k(self, session):
        _, sc = session
        img = RTServer(sc).get_image(0)
        assert img.nbytes == 64 * 64 * 16 * 2  # 128 KByte

    def test_stream_order(self, session):
        _, sc = session
        server = RTServer(sc)
        indices = [img.index for img in server.stream()]
        assert indices == list(range(24))
        assert server.images_served == 24


class TestRTClient:
    def test_realtime_chain_finds_activation(self, session):
        ph, sc = session
        client = RTClient(RTServer(sc), flags=ModuleFlags(motion=False, rvo=False))
        frames = client.run()
        assert len(frames) == 24
        final = frames[-1].correlation
        act = ph.activation_mask()
        quiet = ph.brain_mask() & ~act
        assert final[act].mean() > 3 * np.abs(final[quiet]).mean()

    def test_active_voxel_count_grows_with_evidence(self, session):
        ph, sc = session
        client = RTClient(RTServer(sc), flags=ModuleFlags(motion=False, rvo=False))
        frames = client.run()
        early = frames[4].active_voxels
        late = frames[-1].active_voxels
        assert late >= early

    def test_module_flags_respected(self, session):
        _, sc = session
        client = RTClient(
            RTServer(sc),
            flags=ModuleFlags(median=False, motion=False, detrend=False, rvo=False),
        )
        client.run(6)
        assert client.motion_track == []

    def test_final_analysis_requires_frames(self, session):
        _, sc = session
        client = RTClient(RTServer(sc))
        with pytest.raises(RuntimeError):
            client.final_analysis()

    def test_final_analysis_with_rvo(self, session):
        ph, sc = session
        client = RTClient(RTServer(sc), flags=ModuleFlags(motion=False))
        client.run()
        fin = client.final_analysis(mask=ph.brain_mask())
        assert fin.rvo is not None
        site = ph.sites[0]
        d, _ = fin.rvo.best_site_parameters(site.mask(ph.shape))
        assert d == pytest.approx(site.delay, abs=1.5)

    def test_motion_tracking_recorded(self):
        ph = HeadPhantom()
        sc = SimulatedScanner(
            ph, ScannerConfig(n_frames=8, motion_amplitude=1.0, noise_sigma=2.0)
        )
        client = RTClient(RTServer(sc), flags=ModuleFlags(rvo=False))
        client.run()
        assert len(client.motion_track) == 7
        fin = client.final_analysis()
        assert fin.mean_motion > 0.1

    def test_moving_head_golden_pin(self):
        """The realtime chain's output, pinned: the per-frame correlation
        maps and motion parameters of a 12-frame moving-head session hash
        to a fixed SHA-256.  Any change to the median filter, motion
        correction or incremental correlation that moves one bit fails."""
        sc = SimulatedScanner(
            HeadPhantom(),
            ScannerConfig(n_frames=12, motion_amplitude=1.0, noise_sigma=3.0, seed=7),
        )
        client = RTClient(RTServer(sc), flags=ModuleFlags(rvo=False))
        frames = client.run()
        h = hashlib.sha256()
        for frame in frames:
            h.update(frame.correlation.tobytes())
        for est in client.motion_track:
            h.update(est.translation.tobytes())
            h.update(est.rotation.tobytes())
        assert h.hexdigest() == (
            "b31e9aa600771a083a82803705800561faaa4f134b20d0cf3f63f70af69b415e"
        )

    @pytest.mark.parametrize("max_iterations", [1, 2, 5])
    def test_estimate_carries_the_corrected_frame(self, max_iterations):
        """The chain uses ``est.corrected`` instead of resampling again; it
        must equal ``correct_motion`` bit for bit."""
        sc = SimulatedScanner(
            HeadPhantom(),
            ScannerConfig(n_frames=12, motion_amplitude=1.0, noise_sigma=3.0, seed=7),
        )
        reference = sc.frame(0)
        for i in (1, 6, 11):
            frame = sc.frame(i)
            est = estimate_motion(frame, reference, max_iterations=max_iterations)
            assert est.corrected.tobytes() == correct_motion(frame, est).tobytes()

    def test_flags_map_to_t3e_modules(self):
        assert ModuleFlags().t3e_modules() == ("filter", "motion", "rvo")
        assert ModuleFlags(median=False, smoothing=False).t3e_modules() == (
            "motion",
            "rvo",
        )
        assert ModuleFlags(motion=False, rvo=False).t3e_modules() == ("filter",)


class TestParallelCorrelation:
    def test_matches_serial(self, session):
        ph, sc = session
        ts = sc.timeseries()
        from repro.fire.hrf import HrfModel, reference_vector
        from repro.fire.modules import correlation_map

        ref = reference_vector(sc.stimulus, HrfModel(), sc.config.tr)
        serial = correlation_map(ts, ref)
        got = {}

        def main(comm):
            out = parallel_correlation(ts if comm.rank == 0 else None, ref, comm)
            if comm.rank == 0:
                got["map"] = out

        mc = MetaMPI(wallclock_timeout=60)
        mc.add_machine(CRAY_T3E_600, ranks=4)
        mc.run(main)
        np.testing.assert_allclose(got["map"], serial, atol=1e-10)


class TestPipelineE3:
    def test_delay_budget_matches_paper(self):
        """E3: 1.5 + 1.1 + 1.01 + 0.6 ⇒ < 5 s at 256 PEs."""
        report = FirePipeline(PipelineConfig(pes=256, n_images=8)).run()
        bd = report.breakdown()
        assert bd["scan_to_server"] == pytest.approx(1.5)
        assert bd["transfers_and_control"] == pytest.approx(1.1)
        assert bd["t3e_processing"] == pytest.approx(1.01, abs=0.05)
        assert bd["display"] == pytest.approx(0.6)
        assert bd["total"] < 5.0
        assert report.mean_total_delay < 5.0

    def test_processing_period_is_2_7s(self):
        """E3: 'the throughput of the application ... is 2.7 seconds'."""
        report = FirePipeline(PipelineConfig(pes=256, n_images=8)).run()
        assert report.processing_period == pytest.approx(2.7, abs=0.1)

    def test_3s_repetition_is_safe(self):
        """E3: 'the scanner can safely be operated with a repetition rate
        of 3 seconds'."""
        report = FirePipeline(
            PipelineConfig(pes=256, n_images=12, repetition_time=3.0)
        ).run()
        assert report.safe_repetition_time < 3.0
        assert report.throughput_period == pytest.approx(3.0, abs=0.05)

    def test_few_pes_forces_scan_skipping(self):
        """With 16 PEs the T3E needs 7.3 s/image: the client must skip
        scans and the display period grows accordingly."""
        report = FirePipeline(
            PipelineConfig(pes=16, n_images=8, repetition_time=3.0)
        ).run()
        assert report.throughput_period > 8.0

    def test_pipelined_mode_improves_throughput(self):
        """E8 ablation: pipelining lifts throughput to max(stage), not
        sum(stages)."""
        seq = FirePipeline(
            PipelineConfig(pes=256, n_images=16, repetition_time=2.0)
        ).run()
        pipe = FirePipeline(
            PipelineConfig(pes=256, n_images=16, repetition_time=2.0, pipelined=True)
        ).run()
        assert pipe.safe_repetition_time < seq.safe_repetition_time
        assert pipe.throughput_period < seq.throughput_period

    def test_pipelining_does_not_change_latency_budget(self):
        pipe = FirePipeline(
            PipelineConfig(pes=256, n_images=12, repetition_time=3.0, pipelined=True)
        ).run()
        assert pipe.mean_total_delay == pytest.approx(4.21, abs=0.15)

    def test_larger_image_slows_pipeline(self):
        small = FirePipeline(PipelineConfig(pes=64, n_images=4)).run()
        big = FirePipeline(
            PipelineConfig(pes=64, n_images=4, voxels=REF_VOXELS * 8)
        ).run()
        assert big.t3e_time > small.t3e_time

    def test_module_subset_shortens_processing(self):
        full = FirePipeline(PipelineConfig(pes=64, n_images=4)).run()
        no_rvo = FirePipeline(
            PipelineConfig(pes=64, n_images=4, modules=("filter", "motion"))
        ).run()
        assert no_rvo.t3e_time < 0.5 * full.t3e_time

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(pes=0)
        with pytest.raises(ValueError):
            PipelineConfig(repetition_time=0.0)

    def test_comm_legs_sum_to_budget(self):
        cfg = PipelineConfig()
        up, down = cfg.comm_legs()
        assert up + down == pytest.approx(cfg.comm_time)

    def test_records_are_causally_ordered(self):
        report = FirePipeline(PipelineConfig(pes=128, n_images=6)).run()
        for r in report.records:
            assert (
                r.scan_time
                < r.server_time
                <= r.t3e_start
                < r.t3e_end
                < r.display_time
            )
