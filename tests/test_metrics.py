"""Resource model and report serialization checks."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_gray
from sobelsim import (
    ComparisonReport,
    CycleStats,
    DimensionMismatchError,
    ResourceEstimate,
    RgbImage,
    SobelConfig,
    build_pipeline,
    build_report,
    estimate_resources,
    gray_frame,
    run_frame,
    serialize_report,
    sobel_pe,
)
from sobelsim.metrics import CSV_HEADER


def stats(total, first=10, beats=100, stalls=0):
    return CycleStats(total, first, beats, stalls)


def sample_report(hdl_total=600, hls_total=660, pixels_b=None):
    pixels_a = [(1, 2, 3)] * 4
    img_a = RgbImage(2, 2, pixels_a)
    img_b = RgbImage(2, 2, pixels_b or pixels_a)
    return build_report(
        stats(hdl_total),
        stats(hls_total),
        estimate_resources("hdl", 512),
        estimate_resources("hls", 512, 6),
        img_a,
        img_b,
        magnitude_mode="approx",
        stall_prob=0.25,
        seed=9,
    )


class TestEstimateResources:
    def test_hdl_counts(self):
        assert estimate_resources("hdl", 512) == ResourceEstimate(2, 1024, 9, 4)

    def test_hls_counts(self):
        assert estimate_resources("hls", 512, 6) == ResourceEstimate(3, 1536, 9, 6)

    def test_hls_depth_flows_through(self):
        assert estimate_resources("hls", 100, 9).pipeline_registers == 9

    def test_words_scale_with_width(self):
        assert estimate_resources("hdl", 3).line_buffer_words == 6
        assert estimate_resources("hls", 1920).line_buffer_words == 5760

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_resources("hdl", 2)
        with pytest.raises(ValueError):
            estimate_resources("rtl", 64)
        with pytest.raises(ValueError):
            estimate_resources("hls", 64, 1)


class TestTallyMatchesModel:
    @given(
        variant=st.sampled_from(["hdl", "hls"]),
        width=st.integers(3, 40),
        depth=st.integers(2, 9),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_estimate_counts_the_cores_row_rams(self, variant, width, depth, seed):
        core = sobel_pe(variant, SobelConfig(width, 3), depth)
        assert [len(lb.cells) for lb in core._lb] == [width] * core.row_rams
        run_frame(build_pipeline([core]), gray_frame(random_gray(random.Random(seed), width, 3)))
        cells = [len(lb.cells) for lb in core._lb]
        assert cells == [width] * core.row_rams
        assert estimate_resources(variant, width, depth) == ResourceEstimate(
            len(cells), sum(cells), 9, core.stage_count)


class TestBuildReport:
    def test_cycle_ratio_is_direct_quotient(self):
        report = sample_report(hdl_total=600, hls_total=660)
        assert report.cycle_ratio == pytest.approx(1.1)

    def test_identical_images_have_zero_hamming(self):
        assert sample_report().hamming_bits == 0

    def test_differing_images_count_bits(self):
        report = sample_report(pixels_b=[(1, 2, 3)] * 3 + [(1, 2, 2)])
        assert report.hamming_bits == 1

    def test_geometry_mismatch_propagates(self):
        with pytest.raises(DimensionMismatchError):
            build_report(
                stats(1), stats(1),
                estimate_resources("hdl", 3), estimate_resources("hls", 3),
                RgbImage(1, 2, [(0, 0, 0)] * 2), RgbImage(2, 1, [(0, 0, 0)] * 2),
            )


class TestSerialization:
    def test_json_schema_keys(self):
        payload = json.loads(serialize_report(sample_report(), "json"))
        assert list(payload) == ["input", "hdl", "hls", "hamming_bits", "cycle_ratio"]
        assert list(payload["input"]) == [
            "width", "height", "magnitude_mode", "stall_prob", "seed",
        ]
        for variant in ("hdl", "hls"):
            block = payload[variant]
            assert list(block) == [
                "total_cycles", "first_output_cycle", "stall_cycles", "resources",
            ]
            assert list(block["resources"]) == [
                "rams", "ram_words", "window_regs", "stage_regs",
            ]

    def test_json_values_round_trip(self):
        report = sample_report()
        payload = json.loads(serialize_report(report, "json"))
        assert payload["input"] == {
            "width": 2, "height": 2, "magnitude_mode": "approx",
            "stall_prob": 0.25, "seed": 9,
        }
        assert payload["hdl"]["total_cycles"] == report.hdl_stats.total_cycles
        assert payload["hls"]["total_cycles"] == report.hls_stats.total_cycles
        assert payload["hdl"]["resources"]["rams"] == 2
        assert payload["hls"]["resources"]["rams"] == 3
        assert payload["hamming_bits"] == report.hamming_bits
        assert payload["cycle_ratio"] == pytest.approx(report.cycle_ratio, abs=5e-5)

    def test_ratio_rendered_with_four_decimals(self):
        report = sample_report(hdl_total=3, hls_total=2)
        payload = json.loads(serialize_report(report, "json"))
        assert payload["cycle_ratio"] == 0.6667

    def test_csv_schema(self):
        lines = serialize_report(sample_report(), "csv").decode().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3  # header + one row per variant, no summary row
        hdl = lines[1].split(",")
        hls = lines[2].split(",")
        assert hdl[0] == "hdl" and hls[0] == "hls"
        assert hdl[1] == "600" and hls[1] == "660"
        assert hdl[4:] == ["2", "1024", "9", "4"]
        assert hls[4:] == ["3", "1536", "9", "6"]

    def test_serialization_is_deterministic(self):
        report = sample_report()
        assert serialize_report(report, "json") == serialize_report(report, "json")
        assert serialize_report(report, "csv") == serialize_report(report, "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            serialize_report(sample_report(), "yaml")

    def test_report_is_a_value_object(self):
        report = sample_report()
        assert isinstance(report, ComparisonReport)
        with pytest.raises(AttributeError):
            report.hamming_bits = 5  # frozen
