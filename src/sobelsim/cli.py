"""Command-line front end for the streaming edge-detection simulator.

Three commands:

* ``process``  -- run one core over a BMP and write the edge image.
* ``compare``  -- run both cores over the same BMP, write both edge images
  and a comparison report; exits 3 if the outputs differ by even one bit.
* ``bench``    -- sweep sink stall probabilities {0, 0.25, 0.5} over a
  seeded synthetic frame and write per-run cycle statistics as CSV.

Exit codes: 0 success (and, for compare, bit-identical outputs); 1 usage,
file or configuration problems; 2 simulated deadlock; 3 output mismatch.
Diagnostics go to stderr; data only ever goes to files.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from .blocks import SobelConfig, edge_chain, rgb_frame, unpack_words
from .image_io import GrayImage, RgbImage, gray_to_rgb, read_bmp, write_bmp
from .metrics import build_report, estimate_resources, serialize_report, serialize_run
from .stream import DeadlockError, StallModel, build_pipeline, run_frame

BENCH_STALL_PROBS = (0.0, 0.25, 0.5)
BENCH_CSV_HEADER = (
    "variant,stall_prob,seed,total_cycles,first_output_cycle,"
    "output_beats,stall_cycles"
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool
    # reserves for simulated deadlocks; remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_model_flags(sub):
    sub.add_argument("--magnitude", choices=("approx", "exact"), default="approx",
                     help="gradient magnitude mode (default: approx)")
    sub.add_argument("--stall-prob", type=float, default=0.0, metavar="P",
                     help="sink stall probability per cycle (default: 0)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for the stall model (default: 0)")
    sub.add_argument("--hls-depth", type=int, default=6, metavar="N",
                     help="hls core pipeline depth (default: 6)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sobelsim",
                     description="cycle-level streaming Sobel core simulator")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("process", parents=[], help="run one core over a BMP")
    p.add_argument("--arch", choices=("hdl", "hls"), default="hdl",
                   help="which core to simulate (default: hdl)")
    p.add_argument("--input", required=True, help="24-bpp BMP to read")
    p.add_argument("--output", required=True, help="edge-image BMP to write")
    p.add_argument("--report", help="optional JSON run summary")
    _add_model_flags(p)
    p.set_defaults(func=cmd_process)

    c = commands.add_parser("compare", help="run both cores and compare outputs")
    c.add_argument("--input", required=True, help="24-bpp BMP to read")
    c.add_argument("--output", required=True,
                   help="base path for the two edge BMPs (suffixed _hdl/_hls)")
    c.add_argument("--report", required=True, help="comparison report to write")
    c.add_argument("--format", choices=("json", "csv"), default="json",
                   help="report flavour (default: json)")
    _add_model_flags(c)
    c.set_defaults(func=cmd_compare)

    b = commands.add_parser("bench", help="stall-probability sweep on a synthetic frame")
    b.add_argument("--width", type=int, required=True, help="frame width in pixels")
    b.add_argument("--height", type=int, required=True, help="frame height in pixels")
    b.add_argument("--seed", type=int, required=True,
                   help="seed for the frame contents and the stall models")
    b.add_argument("--report", required=True, help="CSV of per-run cycle stats")
    b.add_argument("--magnitude", choices=("approx", "exact"), default="approx")
    b.add_argument("--hls-depth", type=int, default=6, metavar="N")
    b.set_defaults(func=cmd_bench)

    return parser


def _load_frame(path: str):
    """Read a BMP and flatten it into beats; returns (frame, width, height)."""
    with open(path, "rb") as fh:
        image = read_bmp(fh.read())
    return rgb_frame(image), image.width, image.height


def _edge_pipeline(variant, width, height, args):
    """The full edge chain of one core, configured from the model flags."""
    config = SobelConfig(width, height, magnitude_mode=args.magnitude)
    return build_pipeline(edge_chain(variant, config, args.hls_depth))


def _run_variant(variant, frame, width, height, args):
    """Simulate one core over a frame; returns (gray output, stats)."""
    pipeline = _edge_pipeline(variant, width, height, args)
    stalls = StallModel(args.stall_prob, args.seed)
    words, stats = run_frame(pipeline, frame, stalls)
    pixels = unpack_words(words, width * height)
    return GrayImage(width, height, pixels), stats


def cmd_process(args) -> int:
    frame, width, height = _load_frame(args.input)
    gray, stats = _run_variant(args.arch, frame, width, height, args)
    with open(args.output, "wb") as fh:
        fh.write(write_bmp(gray_to_rgb(gray)))
    if args.report:
        resources = estimate_resources(args.arch, width, args.hls_depth)
        with open(args.report, "wb") as fh:
            fh.write(serialize_run(args.arch, stats, resources, width, height,
                                   args.magnitude, args.stall_prob, args.seed))
    print(f"{args.arch}: {stats.total_cycles} cycles for {width}x{height}",
          file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    frame, width, height = _load_frame(args.input)
    hdl_gray, hdl_stats = _run_variant("hdl", frame, width, height, args)
    hls_gray, hls_stats = _run_variant("hls", frame, width, height, args)
    del frame  # the report holds both RGB outputs; do not hold the input too
    hdl_rgb, hls_rgb = gray_to_rgb(hdl_gray), gray_to_rgb(hls_gray)
    report = build_report(
        hdl_stats,
        hls_stats,
        estimate_resources("hdl", width),
        estimate_resources("hls", width, args.hls_depth),
        hdl_rgb,
        hls_rgb,
        magnitude_mode=args.magnitude,
        stall_prob=args.stall_prob,
        seed=args.seed,
    )
    with open(args.report, "wb") as fh:
        fh.write(serialize_report(report, args.format))
    base, ext = os.path.splitext(args.output)
    for tag, rgb in (("hdl", hdl_rgb), ("hls", hls_rgb)):
        with open(f"{base}_{tag}{ext or '.bmp'}", "wb") as fh:
            fh.write(write_bmp(rgb))
    print(f"hamming_bits={report.hamming_bits} "
          f"cycle_ratio={report.cycle_ratio:.4f}", file=sys.stderr)
    return 0 if report.hamming_bits == 0 else 3


def cmd_bench(args) -> int:
    # both cores check their settings before any frame is built
    pipelines = [(variant, _edge_pipeline(variant, args.width, args.height, args))
                 for variant in ("hdl", "hls")]
    rng = random.Random(args.seed)
    pixels = [(rng.randrange(256), rng.randrange(256), rng.randrange(256))
              for _ in range(args.width * args.height)]
    frame = rgb_frame(RgbImage(args.width, args.height, pixels))

    lines = [BENCH_CSV_HEADER]
    for variant, pipeline in pipelines:
        baseline = None
        for prob in BENCH_STALL_PROBS:
            beats, stats = run_frame(pipeline, frame, StallModel(prob, args.seed))
            if baseline is None:
                baseline = beats
            elif beats != baseline:
                print(f"{variant}: output changed under stall probability "
                      f"{prob}", file=sys.stderr)
                return 3
            lines.append(
                f"{variant},{prob:.4f},{args.seed},{stats.total_cycles},"
                f"{stats.first_output_cycle},{stats.output_beats},"
                f"{stats.sink_stall_cycles}"
            )
    with open(args.report, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"bench: {len(lines) - 1} runs of {args.width}x{args.height}",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except DeadlockError as exc:
        print(f"sobelsim: deadlock: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # every codec and configuration error subclasses ValueError
        print(f"sobelsim: error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
