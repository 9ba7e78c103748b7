#!/usr/bin/env python3
"""Count the Python bytecodes the simulator runs per simulated cycle.

For each core the script builds one seeded random frame, runs it once
through the full chain (RGB frame: grayscale -> core -> word packer) and
once through the core alone (gray frame), and a third time through the
core alone in exact mode with the sink stalling at p=0.5 (seed 7), the
shape of the stall_core benchmark.  It counts every bytecode executed
inside run_frame with sys.settrace and f_trace_opcodes, and the
Python-level calls the same tracer sees ("call" events, run_frame's own
included).  Both counts are divided by the run's cycles,
total_cycles + 1.  Frame building and pipeline construction are outside
the count.  A second, untraced run of each row counts the cyclic garbage
collections it triggers (after a gc.collect(), through gc.callbacks);
allocation churn shows there and not in the bytecodes.  A second table
splits each row's bytecodes per cycle by the function that ran them: the
elements' ticks, the generated cycle loop, sobel_kernel, _validate_frame,
and everything else (run_frame itself, the elements', channels' and row
RAMs' resets, and any Channel method).  All the figures repeat exactly
for a given Python version and seed, so they compare two versions of the
program without the noise of host timings.

Example:
    python scripts/count_bytecodes.py                 # 32x32, seed 1
    python scripts/count_bytecodes.py --width 8 --height 6
"""

import argparse
import gc
import random
import sys

from sobelsim import (
    NO_STALLS,
    GrayImage,
    RgbImage,
    SobelConfig,
    StallModel,
    build_pipeline,
    edge_chain,
    rgb_frame,
    run_frame,
    sobel_pe,
)
from sobelsim import blocks, stream
from sobelsim.blocks import gray_frame


SINK_STALLS = StallModel(0.5, seed=7)
PARTS = ("ticks", "cycle loop", "sobel_kernel", "_validate_frame", "other")


def part_of(pipeline):
    """Map each code object the split names to its column; the rest is "other"."""
    parts = {type(pe).tick.__code__: "ticks" for pe in pipeline.elements}
    parts[stream._cycle_loop(len(pipeline.elements)).__code__] = "cycle loop"
    parts[blocks.sobel_kernel.__code__] = "sobel_kernel"
    parts[stream._validate_frame.__code__] = "_validate_frame"
    return parts


def count_opcodes(pipeline, frame, stalls):
    """Run one frame, returning (bytecodes executed per part, calls, total_cycles + 1)."""
    counts = dict.fromkeys(PARTS, 0)
    calls = 0
    parts = part_of(pipeline)

    def start(frame_, event, arg):
        nonlocal calls
        calls += 1
        frame_.f_trace_opcodes = True
        part = parts.get(frame_.f_code, "other")

        def local(frame_, event, arg):
            if event == "opcode":
                counts[part] += 1
            return local

        return local

    sys.settrace(start)
    try:
        _, stats = run_frame(pipeline, frame, stalls)
    finally:
        sys.settrace(None)
    return counts, calls, stats.total_cycles + 1


def count_collections(pipeline, frame, stalls):
    """Run one frame untraced, returning the GC collections it triggered."""
    count = 0

    def on_gc(phase, info):
        nonlocal count
        if phase == "start":
            count += 1

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        run_frame(pipeline, frame, stalls)
    finally:
        gc.callbacks.remove(on_gc)
    return count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--width", type=int, default=32)
    parser.add_argument("--height", type=int, default=32)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    width, height = args.width, args.height
    config = SobelConfig(width, height)
    exact = SobelConfig(width, height, magnitude_mode="exact")
    rng = random.Random(args.seed)
    pixels = [(rng.randrange(256), rng.randrange(256), rng.randrange(256))
              for _ in range(width * height)]
    rgb = rgb_frame(RgbImage(width, height, pixels))
    gray = gray_frame(GrayImage(width, height, [sum(p) // 3 for p in pixels]))

    print(f"{width}x{height} frame, seed {args.seed}, "
          f"Python {sys.version.split()[0]}")
    print(f"{'run':<16} {'bytecodes':>10} {'cycles':>8} {'per cycle':>10} "
          f"{'calls/cycle':>11} {'gc runs':>8}")
    split = []
    for variant in ("hdl", "hls"):
        runs = (("full chain", build_pipeline(edge_chain(variant, config)), rgb, NO_STALLS),
                ("core alone", build_pipeline([sobel_pe(variant, config)]), gray, NO_STALLS),
                ("core stalled", build_pipeline([sobel_pe(variant, exact)]), gray, SINK_STALLS))
        for label, pipeline, frame, stalls in runs:
            counts, calls, cycles = count_opcodes(pipeline, frame, stalls)
            collections = count_collections(pipeline, frame, stalls)
            count = sum(counts.values())
            print(f"{variant + ' ' + label:<16} {count:>10} {cycles:>8} "
                  f"{count / cycles:>10.1f} {calls / cycles:>11.2f} {collections:>8}")
            split.append((variant + " " + label, [counts[part] / cycles for part in PARTS]))

    print()
    print("bytecodes per cycle, by function")
    widths = [max(7, len(part)) for part in PARTS]
    print(f"{'run':<16}" + "".join(f" {part:>{width}}" for part, width in zip(PARTS, widths)))
    for label, per_cycle in split:
        print(f"{label:<16}" + "".join(f" {value:>{width}.1f}"
                                       for value, width in zip(per_cycle, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
