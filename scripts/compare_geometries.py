#!/usr/bin/env python3
"""Sweep both Sobel cores across realistic camera frame geometries.

For each width x height the script builds one seeded random RGB frame,
runs the full chain (grayscale -> sobel -> word packer) on both cores,
checks the outputs are bit-identical, and prints cycle counts, the
cycles-per-pixel figure, and the structural resource tallies.

Example:
    python scripts/compare_geometries.py --quick
    python scripts/compare_geometries.py --stall-prob 0.25 --seed 3
"""

import argparse
import random
import sys
import time

from sobelsim import (
    RgbImage,
    SobelConfig,
    StallModel,
    build_pipeline,
    edge_chain,
    estimate_resources,
    rgb_frame,
    run_frame,
)
from sobelsim.blocks import HLS_DEPTH

FULL_SWEEP = ((512, 512), (768, 512), (1920, 566), (1920, 1080))
QUICK_SWEEP = ((128, 128), (512, 512))


def run_geometry(width, height, args):
    rng = random.Random(args.seed * 1_000_003 + width * 31 + height)
    image = RgbImage(width, height,
                     [(rng.randrange(256), rng.randrange(256), rng.randrange(256))
                      for _ in range(width * height)])
    frame = rgb_frame(image)
    config = SobelConfig(width, height, magnitude_mode=args.magnitude)
    stalls = StallModel(args.stall_prob, args.seed)

    results = {}
    for variant in ("hdl", "hls"):
        pipeline = build_pipeline(edge_chain(variant, config, args.hls_depth))
        started = time.perf_counter()
        beats, stats = run_frame(pipeline, frame, stalls)
        results[variant] = (beats, stats, time.perf_counter() - started)

    if results["hdl"][0] != results["hls"][0]:
        print(f"{width}x{height}: cores DISAGREE", file=sys.stderr)
        return None
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sweep for a fast sanity check")
    parser.add_argument("--stall-prob", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--magnitude", choices=("approx", "exact"), default="approx")
    parser.add_argument("--hls-depth", type=int, default=HLS_DEPTH)
    args = parser.parse_args(argv)

    sweep = QUICK_SWEEP if args.quick else FULL_SWEEP
    header = (f"{'geometry':>11} {'variant':>7} {'total_cycles':>13} "
              f"{'first_out':>10} {'cyc/px':>7} {'rams':>5} {'words':>6} {'sim_s':>6}")
    print(header)
    print("-" * len(header))
    for width, height in sweep:
        results = run_geometry(width, height, args)
        if results is None:
            return 3
        for variant in ("hdl", "hls"):
            _, stats, wall = results[variant]
            res = estimate_resources(variant, width, args.hls_depth)
            print(f"{width:>6}x{height:<4} {variant:>7} {stats.total_cycles:>13} "
                  f"{stats.first_output_cycle:>10} "
                  f"{stats.total_cycles / (width * height):>7.3f} "
                  f"{res.line_buffer_rams:>5} {res.line_buffer_words:>6} {wall:>6.1f}")
        ratio = (results["hls"][1].total_cycles / results["hdl"][1].total_cycles)
        print(f"{'':>11} outputs bit-identical, hls/hdl cycle ratio {ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
