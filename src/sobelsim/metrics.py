"""Resource estimates and machine-readable run reports.

The resource model reads each core's structure off the core itself: its
row RAMs of one frame row each, the 3x3 window registers and its pipeline
stage registers.  Device-mapping details (mux trees, control FFs, tool
packing) are out of scope, as are wall-clock milliseconds; timing lives
entirely in cycle counts.

Both serialization schemas are frozen.  A comparison report is its JSON
payload, the dict that build_report returns::

    {"input": {"width", "height", "magnitude_mode", "stall_prob", "seed"},
     "hdl": {"total_cycles", "first_output_cycle", "stall_cycles",
             "resources": {"rams", "ram_words", "window_regs", "stage_regs"}},
     "hls": {...},
     "hamming_bits": ...,
     "cycle_ratio": ...}

CSV: a header row ``variant,total_cycles,first_output_cycle,stall_cycles,
rams,ram_words,window_regs,stage_regs`` followed by exactly one hdl row and
one hls row from the report's blocks; the summary fields live in the
JSON form only.  build_report rounds cycle_ratio to four decimal places.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .blocks import HLS_DEPTH, ZERO_WINDOW, SobelConfig, sobel_pe
from .image_io import GrayImage, hamming_distance
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


def estimate_resources(variant: str, width: int,
                       pipeline_depth: int = HLS_DEPTH) -> ResourceEstimate:
    """Structural resource counts for one core at a given frame width.

    Builds the core for a frame `width` pixels wide and counts its row
    RAMs, their cells, its window registers and its stage registers; bad
    arguments raise ValueError from SobelConfig, SobelHlsPE or sobel_pe.
    """
    core = sobel_pe(variant, SobelConfig(width, 3), pipeline_depth)
    return ResourceEstimate(core.row_rams, core.row_rams * width, len(ZERO_WINDOW),
                            core.stage_count)


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


def build_report(
    hdl_stats: CycleStats,
    hls_stats: CycleStats,
    hdl_resources: ResourceEstimate,
    hls_resources: ResourceEstimate,
    hdl_image: GrayImage,
    hls_image: GrayImage,
    magnitude_mode: str = "approx",
    stall_prob: float = 0.0,
    seed: int = 0,
) -> dict:
    """Combine two runs of the same frame into the report's JSON payload.

    Raises DimensionMismatchError if the two gray outputs disagree on
    geometry; hamming_bits is the bit distance of the RGB images they are
    written as (3 times that of their bytes), and cycle_ratio is hls
    cycles over hdl cycles, rounded to four places.
    """
    bits = 3 * hamming_distance(hdl_image, hls_image)
    return {
        "input": input_summary(hdl_image.width, hdl_image.height, magnitude_mode,
                               stall_prob, seed),
        "hdl": variant_summary(hdl_stats, hdl_resources),
        "hls": variant_summary(hls_stats, hls_resources),
        "hamming_bits": bits,
        "cycle_ratio": round(hls_stats.total_cycles / hdl_stats.total_cycles, 4),
    }


def serialize_report(report: dict, fmt: str = "json") -> bytes:
    """Render a build_report dict in one of the frozen schemas ("json" or "csv")."""
    if fmt == "json":
        return (json.dumps(report, indent=2) + "\n").encode()
    if fmt == "csv":
        lines = [CSV_HEADER]
        for variant in ("hdl", "hls"):
            *summary, resources = report[variant].values()  # resources come last
            lines.append(",".join(map(str, (variant, *summary, *resources.values()))))
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}")


def serialize_run(variant: str, stats: CycleStats, resources: ResourceEstimate,
                  width: int, height: int, magnitude_mode: str = "approx",
                  stall_prob: float = 0.0, seed: int = 0) -> bytes:
    """serialize_report's JSON of one core's run: its input and variant blocks."""
    return serialize_report({
        "input": input_summary(width, height, magnitude_mode, stall_prob, seed),
        variant: variant_summary(stats, resources),
    })
