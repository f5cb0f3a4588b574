"""RT-server and RT-client (the FIRE runtime components, paper §4).

"FIRE includes an 'RT-server' that runs on the front-end workstation of
the scanner.  It serves as an interface between the scanner and the
'RT-client'.  The latter processes and displays the raw images obtained
from the server."  The RT-client "can delegate parts of the work to the
Cray T3E ... in a 'remote procedure call' like manner"; every module is
optional and switchable at runtime from the GUI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.fire.decomposition import gather_slabs, slab_bounds
from repro.fire.hrf import HrfModel, reference_vector
from repro.fire.modules.correlate import CorrelationAnalyzer, correlation_map
from repro.fire.modules.detrend import detrend_timeseries, detrending_basis
from repro.fire.modules.filters import median_filter3d, smoothing_filter3d
from repro.fire.modules.motion import (
    MotionEstimate,
    correct_motion,  # noqa: F401 -- a binding perfbench/tracer.py wraps
    estimate_motion,
)
from repro.fire.modules.rvo import RvoResult, rvo_raster, rvo_refined
from repro.fire.scanner import SimulatedScanner


@dataclass
class ModuleFlags:
    """Runtime-switchable processing modules (the GUI checkboxes)."""

    median: bool = True
    motion: bool = True
    detrend: bool = True
    rvo: bool = True
    smoothing: bool = False

    def t3e_modules(self) -> tuple[str, ...]:
        """The Table-1 module set this selection maps onto."""
        out = []
        if self.median or self.smoothing:
            out.append("filter")
        if self.motion:
            out.append("motion")
        if self.rvo:
            out.append("rvo")
        return tuple(out)


@dataclass(frozen=True)
class RawImage:
    """One acquisition as shipped by the RT-server."""

    index: int
    scan_time: float  #: when the scan completed (s)
    available_time: float  #: when the RT-server has it (scan + ~1.5 s)
    volume: np.ndarray

    @property
    def nbytes(self) -> int:
        """Raw 16-bit wire size."""
        return self.volume.size * 2


class RTServer:
    """Front-end interface between the scanner and the RT-client.

    Requires "a slight modification of the operating system of the
    Siemens MRI scanner" in reality; here it simply wraps the simulated
    scanner and stamps delivery times.
    """

    def __init__(self, scanner: SimulatedScanner):
        self.scanner = scanner
        self.images_served = 0

    @property
    def n_frames(self) -> int:
        return self.scanner.config.n_frames

    def get_image(self, index: int) -> RawImage:
        """Fetch one acquisition (RPC endpoint of the protocol)."""
        cfg = self.scanner.config
        scan_time = (index + 1) * cfg.tr  # scan k completes at (k+1)·TR
        self.images_served += 1
        return RawImage(
            index=index,
            scan_time=scan_time,
            available_time=scan_time + cfg.delivery_delay,
            volume=self.scanner.frame(index),
        )

    def stream(self) -> Iterator[RawImage]:
        """All acquisitions in order."""
        for i in range(self.n_frames):
            yield self.get_image(i)


@dataclass
class ProcessedFrame:
    """RT-client output for one acquisition."""

    index: int
    correlation: np.ndarray  #: current incremental correlation map
    motion: Optional[MotionEstimate]
    active_voxels: int  #: |r| >= clip level inside the processed volume


@dataclass
class FinalAnalysis:
    """End-of-measurement batch results (detrended correlation, RVO)."""

    correlation: np.ndarray
    rvo: Optional[RvoResult]
    mean_motion: float


class RTClient:
    """Processes and displays the raw images obtained from the server.

    Frames are median-filtered, motion-corrected against the first frame,
    and folded into the incremental correlation analyzer; at any time
    :meth:`final_analysis` runs the batch stages (detrending, RVO,
    smoothing) over everything received so far.
    """

    def __init__(
        self,
        server: RTServer,
        hrf: Optional[HrfModel] = None,
        flags: Optional[ModuleFlags] = None,
        clip_level: float = 0.5,
    ):
        self.server = server
        self.flags = flags or ModuleFlags()
        self.clip_level = clip_level
        #: telemetry hook (repro.telemetry.probes.instrument_rt_client)
        self.probe: Optional[object] = None
        scanner = server.scanner
        self.tr = scanner.config.tr
        self.stimulus = scanner.stimulus
        self.hrf = hrf or HrfModel()
        self.reference = reference_vector(self.stimulus, self.hrf, self.tr)
        self.shape = scanner.shape
        self.analyzer = CorrelationAnalyzer(self.shape, self.reference)
        self.reference_volume: Optional[np.ndarray] = None
        self.processed: list[np.ndarray] = []
        self.motion_track: list[MotionEstimate] = []

    # -- realtime path ------------------------------------------------------
    def process_frame(self, image: RawImage) -> ProcessedFrame:
        """The per-acquisition realtime processing chain."""
        started = self.probe.clock() if self.probe is not None else 0.0
        vol = image.volume
        if self.flags.median:
            vol = median_filter3d(vol)
        est = None
        if self.flags.motion:
            if self.reference_volume is None:
                self.reference_volume = vol
            else:
                est = estimate_motion(vol, self.reference_volume)
                vol = est.corrected
                self.motion_track.append(est)
        self.processed.append(vol)
        self.analyzer.update(vol)
        corr = self.analyzer.correlation()
        active = int(np.count_nonzero(np.abs(corr) >= self.clip_level))
        if self.probe is not None:
            self.probe.on_frame(self.probe.clock() - started, active)
        return ProcessedFrame(
            index=image.index, correlation=corr, motion=est, active_voxels=active
        )

    def run(self, n_frames: Optional[int] = None) -> list[ProcessedFrame]:
        """Process the first ``n_frames`` acquisitions (default: all)."""
        n = n_frames if n_frames is not None else self.server.n_frames
        return [self.process_frame(self.server.get_image(i)) for i in range(n)]

    # -- batch path ----------------------------------------------------------
    def final_analysis(
        self, use_refined_rvo: bool = False, mask: Optional[np.ndarray] = None
    ) -> FinalAnalysis:
        """Batch stages over the accumulated (filtered, corrected) frames."""
        if len(self.processed) < 4:
            raise RuntimeError("need a few processed frames first")
        ts = np.stack(self.processed)
        stim = self.stimulus[: ts.shape[0]]
        if self.flags.detrend:
            ts = detrend_timeseries(ts, detrending_basis(ts.shape[0]))
        corr = correlation_map(ts, self.reference[: ts.shape[0]])
        if self.flags.smoothing:
            corr = smoothing_filter3d(corr)
        rvo = None
        if self.flags.rvo:
            fn = rvo_refined if use_refined_rvo else rvo_raster
            rvo = fn(ts, stim, tr=self.tr, mask=mask)
        mean_motion = (
            float(np.mean([m.magnitude for m in self.motion_track]))
            if self.motion_track
            else 0.0
        )
        return FinalAnalysis(correlation=corr, rvo=rvo, mean_motion=mean_motion)


def parallel_correlation(
    timeseries: np.ndarray, reference: np.ndarray, comm
) -> Optional[np.ndarray]:
    """Domain-decomposed correlation over a metampi communicator.

    Rank 0 scatters voxel slabs, every rank correlates its slab, rank 0
    gathers the map — the structure of the T3E modules.  Returns the full
    map at rank 0, None elsewhere.
    """
    shape = None
    if comm.rank == 0:
        ts = np.asarray(timeseries, dtype=float)
        shape = ts.shape[1:]
        flat = ts.reshape(ts.shape[0], -1)
        slabs = [
            flat[:, slice(*slab_bounds(flat.shape[1], comm.size, p))]
            for p in range(comm.size)
        ]
    else:
        slabs = None
    shape = comm.bcast(shape, root=0)
    reference = comm.bcast(reference if comm.rank == 0 else None, root=0)
    my_slab = comm.scatter(slabs, root=0)
    local = correlation_map(my_slab, reference)
    parts = comm.gather(local, root=0)
    if comm.rank != 0:
        return None
    return gather_slabs(parts, shape)
