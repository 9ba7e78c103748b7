"""Resource model and report serialization checks."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_gray
from sobelsim import (
    CycleStats,
    DimensionMismatchError,
    GrayImage,
    ResourceEstimate,
    SobelConfig,
    build_pipeline,
    build_report,
    estimate_resources,
    gray_frame,
    gray_to_rgb,
    hamming_distance,
    run_frame,
    serialize_report,
    sobel_pe,
)
from sobelsim.metrics import CSV_HEADER


def stats(total, first=10, beats=100, stalls=0):
    return CycleStats(total, first, beats, stalls)


def sample_report(hdl_total=600, hls_total=660, pixels_b=None):
    pixels_a = [1, 2, 3, 4]
    img_a = GrayImage(2, 2, pixels_a)
    img_b = GrayImage(2, 2, pixels_b or pixels_a)
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
        assert report["cycle_ratio"] == pytest.approx(1.1)

    def test_identical_images_have_zero_hamming(self):
        assert sample_report()["hamming_bits"] == 0

    def test_differing_images_count_bits(self):
        # one gray bit stands for the same bit in all three RGB channels
        report = sample_report(pixels_b=[1, 2, 3, 5])
        assert report["hamming_bits"] == 3

    def test_geometry_mismatch_propagates(self):
        with pytest.raises(DimensionMismatchError):
            build_report(
                stats(1), stats(1),
                estimate_resources("hdl", 3), estimate_resources("hls", 3),
                GrayImage(1, 2, [0] * 2), GrayImage(2, 1, [0] * 2),
            )

    @given(data=st.data(), width=st.integers(1, 6), height=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_gray_distance_is_the_rgb_distance(self, data, width, height):
        # the report counts the bits of the RGB images compare writes
        pixels = st.lists(st.integers(0, 255), min_size=width * height,
                          max_size=width * height)
        a = GrayImage(width, height, data.draw(pixels))
        b = GrayImage(width, height, data.draw(pixels))
        report = build_report(stats(1), stats(1), estimate_resources("hdl", 3),
                              estimate_resources("hls", 3), a, b)
        rgb_bits = hamming_distance(gray_to_rgb(a), gray_to_rgb(b))
        assert report["hamming_bits"] == 3 * hamming_distance(a, b) == rgb_bits


class TestSerialization:
    def test_report_is_the_json_payload(self):
        report = sample_report(pixels_b=[1, 2, 3, 5])
        assert list(report) == ["input", "hdl", "hls", "hamming_bits", "cycle_ratio"]
        assert json.loads(serialize_report(report, "json")) == report

    def test_csv_leaves_the_report_as_it_was(self):
        report = sample_report()
        before = json.loads(serialize_report(report, "json"))
        serialize_report(report, "csv")
        assert report == before

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
        assert payload["hdl"]["total_cycles"] == 600
        assert payload["hls"]["total_cycles"] == 660
        assert payload["hdl"]["resources"]["rams"] == 2
        assert payload["hls"]["resources"]["rams"] == 3
        assert payload["hamming_bits"] == report["hamming_bits"] == 0
        assert payload["cycle_ratio"] == report["cycle_ratio"] == 1.1

    def test_ratio_rendered_with_four_decimals(self):
        report = sample_report(hdl_total=3, hls_total=2)
        payload = json.loads(serialize_report(report, "json"))
        assert payload["cycle_ratio"] == report["cycle_ratio"] == 0.6667

    def test_csv_schema(self):
        report = sample_report()
        lines = serialize_report(report, "csv").decode().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3  # header + one row per variant, no summary row
        hdl = lines[1].split(",")
        hls = lines[2].split(",")
        assert hdl[0] == "hdl" and hls[0] == "hls"
        assert hdl[1] == "600" and hls[1] == "660"
        assert hdl[4:] == ["2", "1024", "9", "4"]
        assert hls[4:] == ["3", "1536", "9", "6"]
        # each row is its variant, then that variant's JSON block, resources
        # flattened, in the block's order, which is the header's
        payload = json.loads(serialize_report(report, "json"))
        for row in (hdl, hls):
            block = payload[row[0]]
            values = {**block, **block["resources"]}
            del values["resources"]
            assert list(values) == CSV_HEADER.split(",")[1:]
            assert row[1:] == [str(value) for value in values.values()]

    def test_serialization_is_deterministic(self):
        report = sample_report()
        assert serialize_report(report, "json") == serialize_report(report, "json")
        assert serialize_report(report, "csv") == serialize_report(report, "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            serialize_report(sample_report(), "yaml")
