#!/usr/bin/env python3
"""Count the Python bytecodes the simulator runs per simulated cycle.

For each core the script builds one seeded random frame, runs it once
through the full chain (RGB frame: grayscale -> core -> word packer) and
once through the core alone (gray frame), and counts every bytecode
executed inside run_frame with sys.settrace and f_trace_opcodes.  The
count is divided by the run's cycles, total_cycles + 1.  Frame building
and pipeline construction are outside the count.  A second, untraced run
of each row counts the cyclic garbage collections it triggers (after a
gc.collect(), through gc.callbacks); allocation churn shows there and not
in the bytecodes.  Both figures repeat exactly for a given Python version
and seed, so they compare two versions of the program without the noise
of host timings.

Example:
    python scripts/count_bytecodes.py                 # 32x32, seed 1
    python scripts/count_bytecodes.py --width 8 --height 6
"""

import argparse
import gc
import random
import sys

from sobelsim import (
    GrayImage,
    RgbImage,
    SobelConfig,
    build_pipeline,
    edge_chain,
    rgb_frame,
    run_frame,
    sobel_pe,
)
from sobelsim.blocks import gray_frame


def count_opcodes(pipeline, frame):
    """Run one frame, returning (bytecodes executed, total_cycles + 1)."""
    count = 0

    def local(frame_, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def start(frame_, event, arg):
        frame_.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        _, stats = run_frame(pipeline, frame)
    finally:
        sys.settrace(None)
    return count, stats.total_cycles + 1


def count_collections(pipeline, frame):
    """Run one frame untraced, returning the GC collections it triggered."""
    count = 0

    def on_gc(phase, info):
        nonlocal count
        if phase == "start":
            count += 1

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        run_frame(pipeline, frame)
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
    rng = random.Random(args.seed)
    pixels = [(rng.randrange(256), rng.randrange(256), rng.randrange(256))
              for _ in range(width * height)]
    rgb = rgb_frame(RgbImage(width, height, pixels))
    gray = gray_frame(GrayImage(width, height, [sum(p) // 3 for p in pixels]))

    print(f"{width}x{height} frame, seed {args.seed}, "
          f"Python {sys.version.split()[0]}")
    print(f"{'run':<16} {'bytecodes':>10} {'cycles':>8} {'per cycle':>10} {'gc runs':>8}")
    for variant in ("hdl", "hls"):
        runs = (("full chain", build_pipeline(edge_chain(variant, config)), rgb),
                ("core alone", build_pipeline([sobel_pe(variant, config)]), gray))
        for label, pipeline, frame in runs:
            count, cycles = count_opcodes(pipeline, frame)
            collections = count_collections(pipeline, frame)
            print(f"{variant + ' ' + label:<16} {count:>10} {cycles:>8} "
                  f"{count / cycles:>10.1f} {collections:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
