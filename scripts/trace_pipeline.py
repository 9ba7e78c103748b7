#!/usr/bin/env python3
"""Print the cycle-by-cycle event timeline of one Sobel core on a tiny frame.

Each row is one scheduler cycle; the columns show which pixels were
accepted, which window centres were convolved, and which output positions
were emitted in that cycle.  Useful for eyeballing fill behaviour, the
stage latency, and how the drain phase flushes the border zeros.

Example:
    python scripts/trace_pipeline.py --arch hdl --width 6 --height 5
    python scripts/trace_pipeline.py --arch hls --stall-prob 0.3 --seed 1
"""

import argparse
import sys
from collections import defaultdict

from sobelsim import (
    GrayImage,
    SobelConfig,
    StallModel,
    build_pipeline,
    run_frame,
    sobel_pe,
)
from sobelsim.blocks import HLS_DEPTH, gray_frame


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--arch", choices=("hdl", "hls"), default="hdl")
    parser.add_argument("--width", type=int, default=6)
    parser.add_argument("--height", type=int, default=5)
    parser.add_argument("--hls-depth", type=int, default=HLS_DEPTH)
    parser.add_argument("--stall-prob", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    width, height = args.width, args.height
    config = SobelConfig(width, height)
    core = sobel_pe(args.arch, config, args.hls_depth)
    core.trace = []
    pipeline = build_pipeline([core])

    image = GrayImage(width, height,
                      [(i * 53 + 7) % 256 for i in range(width * height)])
    _, stats = run_frame(pipeline, gray_frame(image),
                         StallModel(args.stall_prob, args.seed))

    by_cycle = defaultdict(list)
    for event in core.trace:
        by_cycle[event[1]].append(event)

    print(f"{args.arch} core, {width}x{height} frame, "
          f"stall_prob={args.stall_prob}")
    print(f"{'cycle':>6}  {'accept':<12} {'convolve':<14} {'emit':<10}")
    for cycle in range(stats.total_cycles + 1):
        events = by_cycle.get(cycle)
        if not events:
            continue
        cells = {"accept": "", "convolve": "", "emit": "", "fill": ""}
        for event in events:
            kind = event[0]
            if kind == "accept":
                idx = event[2]
                cells[kind] = f"px {idx} ({idx // width},{idx % width})"
            elif kind == "convolve":
                cells[kind] = f"centre ({event[2]},{event[3]})"
            elif kind == "emit":
                pos = event[2]
                cells[kind] = f"out {pos}"
            elif kind == "fill":
                cells[kind] = f"fill @ {event[2]} px"
        note = f"  <- {cells['fill']}" if cells["fill"] else ""
        print(f"{cycle:>6}  {cells['accept']:<12} {cells['convolve']:<14} "
              f"{cells['emit']:<10}{note}")

    print(f"\ntotal_cycles={stats.total_cycles} "
          f"first_output_cycle={stats.first_output_cycle} "
          f"output_beats={stats.output_beats} "
          f"sink_stall_cycles={stats.sink_stall_cycles}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
