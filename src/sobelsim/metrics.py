"""Resource estimates and machine-readable run reports.

The resource model reads each core's structure off the core itself: its
row RAMs of one frame row each, the 3x3 window registers and its pipeline
stage registers.  Device-mapping details (mux trees, control FFs, tool
packing) are out of scope, as are wall-clock milliseconds; timing lives
entirely in cycle counts.

Both serialization schemas are frozen.  JSON::

    {"input": {"width", "height", "magnitude_mode", "stall_prob", "seed"},
     "hdl": {"total_cycles", "first_output_cycle", "stall_cycles",
             "resources": {"rams", "ram_words", "window_regs", "stage_regs"}},
     "hls": {...},
     "hamming_bits": ...,
     "cycle_ratio": ...}

CSV: a header row ``variant,total_cycles,first_output_cycle,stall_cycles,
rams,ram_words,window_regs,stage_regs`` followed by exactly one hdl row and
one hls row; the summary fields live in the JSON form only.  Ratios are
reported with four decimal places.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .blocks import ZERO_WINDOW, SobelConfig, sobel_pe
from .image_io import RgbImage, hamming_distance
from .stream import CycleStats

CSV_HEADER = (
    "variant,total_cycles,first_output_cycle,stall_cycles,"
    "rams,ram_words,window_regs,stage_regs"
)


@dataclass(frozen=True)
class ResourceEstimate:
    line_buffer_rams: int
    line_buffer_words: int
    window_registers: int
    pipeline_registers: int


@dataclass(frozen=True)
class ComparisonReport:
    """Everything one frame's run of both cores produced, side by side."""

    width: int
    height: int
    magnitude_mode: str
    stall_prob: float
    seed: int
    hdl_stats: CycleStats
    hls_stats: CycleStats
    hdl_resources: ResourceEstimate
    hls_resources: ResourceEstimate
    hamming_bits: int
    cycle_ratio: float


def estimate_resources(variant: str, width: int, pipeline_depth: int = 6) -> ResourceEstimate:
    """Structural resource counts for one core at a given frame width.

    Builds the core for a frame `width` pixels wide and counts its row
    RAMs, their cells, its window registers and its stage registers; bad
    arguments raise ValueError from SobelConfig, SobelHlsPE or sobel_pe.
    """
    core = sobel_pe(variant, SobelConfig(width, 3), pipeline_depth)
    return ResourceEstimate(core.row_rams, core.row_rams * width, len(ZERO_WINDOW),
                            core.stage_count)


def build_report(
    hdl_stats: CycleStats,
    hls_stats: CycleStats,
    hdl_resources: ResourceEstimate,
    hls_resources: ResourceEstimate,
    hdl_image: RgbImage,
    hls_image: RgbImage,
    magnitude_mode: str = "approx",
    stall_prob: float = 0.0,
    seed: int = 0,
) -> ComparisonReport:
    """Combine two runs of the same frame into one report.

    Raises DimensionMismatchError if the two output images disagree on
    geometry; hamming_bits is their bit-level distance and cycle_ratio is
    hls cycles over hdl cycles.
    """
    bits = hamming_distance(hdl_image, hls_image)
    return ComparisonReport(
        width=hdl_image.width,
        height=hdl_image.height,
        magnitude_mode=magnitude_mode,
        stall_prob=stall_prob,
        seed=seed,
        hdl_stats=hdl_stats,
        hls_stats=hls_stats,
        hdl_resources=hdl_resources,
        hls_resources=hls_resources,
        hamming_bits=bits,
        cycle_ratio=hls_stats.total_cycles / hdl_stats.total_cycles,
    )


def input_summary(width, height, magnitude_mode, stall_prob, seed) -> dict:
    """The JSON "input" block, shared by the run and comparison reports."""
    return dict(width=width, height=height, magnitude_mode=magnitude_mode,
                stall_prob=stall_prob, seed=seed)


def variant_summary(stats: CycleStats, resources: ResourceEstimate) -> dict:
    """The per-variant JSON block, shared by every report flavour."""
    return {
        "total_cycles": stats.total_cycles,
        "first_output_cycle": stats.first_output_cycle,
        "stall_cycles": stats.sink_stall_cycles,
        "resources": {
            "rams": resources.line_buffer_rams,
            "ram_words": resources.line_buffer_words,
            "window_regs": resources.window_registers,
            "stage_regs": resources.pipeline_registers,
        },
    }


def serialize_report(report: ComparisonReport, fmt: str = "json") -> bytes:
    """Render a report in one of the frozen schemas ("json" or "csv")."""
    if fmt == "json":
        payload = {
            "input": input_summary(report.width, report.height,
                                   report.magnitude_mode, report.stall_prob,
                                   report.seed),
            "hdl": variant_summary(report.hdl_stats, report.hdl_resources),
            "hls": variant_summary(report.hls_stats, report.hls_resources),
            "hamming_bits": report.hamming_bits,
            "cycle_ratio": round(report.cycle_ratio, 4),
        }
        return (json.dumps(payload, indent=2) + "\n").encode()
    if fmt == "csv":
        lines = [CSV_HEADER]
        for variant, stats, res in (
            ("hdl", report.hdl_stats, report.hdl_resources),
            ("hls", report.hls_stats, report.hls_resources),
        ):
            lines.append(
                f"{variant},{stats.total_cycles},{stats.first_output_cycle},"
                f"{stats.sink_stall_cycles},{res.line_buffer_rams},"
                f"{res.line_buffer_words},{res.window_registers},"
                f"{res.pipeline_registers}"
            )
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}")


def serialize_run(variant: str, stats: CycleStats, resources: ResourceEstimate,
                  width: int, height: int, magnitude_mode: str = "approx",
                  stall_prob: float = 0.0, seed: int = 0) -> bytes:
    """Render one core's run summary: the input block and its variant block."""
    payload = {
        "input": input_summary(width, height, magnitude_mode, stall_prob, seed),
        variant: variant_summary(stats, resources),
    }
    return (json.dumps(payload, indent=2) + "\n").encode()
