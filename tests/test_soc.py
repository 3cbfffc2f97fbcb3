"""SoC layer: clocks, bus, PTM FIFO, baselines, metrics."""

import numpy as np
import pytest

from repro.errors import SocConfigError
from repro.soc.bus import AxiBus
from repro.soc.clocks import CPU_CLOCK, GPU_CLOCK, RTAD_CLOCK, ClockDomain
from repro.soc.cpu import PtmFifoModel
from repro.soc.metrics import (
    rtad_transfer_breakdown,
    sw_transfer_breakdown,
)
from repro.soc.software_baseline import (
    RtadOverheadModel,
    SoftwareInstrumentationModel,
    SoftwareTransferModel,
)
from repro.workloads.profiles import SPEC_CINT2006, get_profile


class TestClocks:
    def test_paper_frequencies(self):
        assert CPU_CLOCK.hz == 250e6
        assert RTAD_CLOCK.hz == 125e6
        assert GPU_CLOCK.hz == 50e6

    def test_conversions(self):
        clock = ClockDomain("x", 100e6)
        assert clock.period_ns == 10.0
        assert clock.to_ns(5) == 50.0
        assert clock.cycles(100.0) == 10.0
        assert clock.to_us(1000) == 10.0

    def test_invalid_clock(self):
        with pytest.raises(SocConfigError):
            ClockDomain("bad", 0)

    def test_igm_vectorize_is_16ns(self):
        # The paper's step (2): 2 cycles at 125 MHz.
        assert RTAD_CLOCK.to_ns(2) == 16.0


class TestBus:
    def test_cpu_copy_matches_fig7(self):
        bus = AxiBus()
        assert bus.cpu_copy_ns(16) == pytest.approx(11_500, rel=0.01)

    def test_hw_burst_much_cheaper(self):
        bus = AxiBus()
        assert bus.hw_burst_ns(16) < bus.cpu_copy_ns(16) / 10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            AxiBus().cpu_copy_ns(-1)


class TestPtmFifo:
    def test_holds_until_threshold(self):
        fifo = PtmFifoModel(threshold_bytes=16)
        assert fifo.push(0.0, 8) is None
        assert fifo.occupancy == 8
        done = fifo.push(100.0, 8)
        assert done is not None and done > 100.0
        assert fifo.occupancy == 0

    def test_explicit_flush(self):
        fifo = PtmFifoModel(threshold_bytes=64)
        fifo.push(0.0, 10)
        done = fifo.flush(50.0)
        assert done is not None and done > 50.0

    def test_flush_empty_is_none(self):
        assert PtmFifoModel().flush(0.0) is None

    def test_drain_rate_four_bytes_per_cycle(self):
        fifo = PtmFifoModel(threshold_bytes=8)
        done = fifo.push(0.0, 8)
        assert done == pytest.approx(RTAD_CLOCK.to_ns(2))

    def test_mean_delay_scales_inverse_with_rate(self):
        fifo = PtmFifoModel(threshold_bytes=128)
        slow = fifo.mean_buffer_delay_ns(0.01)
        fast = fifo.mean_buffer_delay_ns(0.1)
        assert slow > fast

    def test_negative_bytes_rejected(self):
        with pytest.raises(SocConfigError):
            PtmFifoModel().push(0.0, -1)


class TestFig6Models:
    def test_ordering_per_benchmark(self):
        instr = SoftwareInstrumentationModel()
        rtad = RtadOverheadModel()
        for profile in SPEC_CINT2006:
            assert (
                rtad.overhead(profile)
                < instr.sw_func_overhead(profile)
                < instr.sw_all_overhead(profile)
            )

    def test_rtad_under_one_permille(self):
        rtad = RtadOverheadModel()
        assert all(
            rtad.overhead(p) < 0.001 for p in SPEC_CINT2006
        )

    def test_syscall_overhead_tracks_rate(self):
        instr = SoftwareInstrumentationModel()
        perl = get_profile("perlbench")
        quantum = get_profile("libquantum")
        assert instr.sw_sys_overhead(perl) > instr.sw_sys_overhead(quantum)


class TestFig7Models:
    def test_sw_breakdown_matches_paper(self):
        breakdown = sw_transfer_breakdown(window=16)
        assert breakdown.vectorize_us == pytest.approx(7.38, rel=0.01)
        assert breakdown.copy_us == pytest.approx(11.5, rel=0.01)
        assert breakdown.total_us == pytest.approx(20.0, rel=0.02)

    def test_rtad_breakdown_structure(self):
        breakdown = rtad_transfer_breakdown(get_profile("gcc"), window=16)
        assert breakdown.vectorize_us == pytest.approx(0.016, rel=0.01)
        assert breakdown.read_us > breakdown.copy_us > breakdown.vectorize_us
        assert breakdown.total_us < 6.0

    def test_rtad_faster_than_sw_everywhere(self):
        sw = sw_transfer_breakdown()
        for profile in SPEC_CINT2006:
            rtad = rtad_transfer_breakdown(profile)
            assert rtad.total_us < sw.total_us / 3

    def test_read_step_depends_on_branch_rate(self):
        dense = rtad_transfer_breakdown(get_profile("libquantum"))
        sparse = rtad_transfer_breakdown(get_profile("hmmer"))
        assert dense.read_us < sparse.read_us
