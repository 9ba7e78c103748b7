"""Command-line front end for the streaming edge-detection simulator.

Three commands:

* ``process``  -- run one core over a BMP and write the edge image.
* ``compare``  -- run both cores over the same BMP, write both edge images
  and a comparison report; exits 3 if the outputs differ by even one bit.
* ``bench``    -- run both cores as ``compare`` does at sink stall
  probabilities {0, 0.25, 0.5} over a seeded synthetic frame and write
  per-run cycle statistics as CSV; exits 3 if a run differs from hdl at 0.

Exit codes: 0 success (and, for compare, bit-identical outputs); 1 usage,
file or configuration problems; 2 simulated deadlock; 3 output mismatch.
Diagnostics go to stderr; data only ever goes to files.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from .blocks import HLS_DEPTH, SobelConfig, edge_chain, rgb_bytes_frame, unpack_words
from .image_io import GrayImage, decode_bmp, encode_bmp
# not called here, but perfbench/tracing.py wraps these under their names
from .blocks import rgb_frame
from .image_io import gray_to_rgb, read_bmp, write_bmp
from .metrics import build_report, estimate_resources, serialize_report, serialize_run
from .stream import DeadlockError, StallModel, build_pipeline, run_frame

BENCH_STALL_PROBS = (0.0, 0.25, 0.5)
BENCH_CSV_HEADER = (
    "variant,stall_prob,seed,total_cycles,first_output_cycle,"
    "output_beats,stall_cycles"
)


def _add_core_flags(sub):
    sub.add_argument("--magnitude", choices=("approx", "exact"), default="approx",
                     help="gradient magnitude mode (default: approx)")
    sub.add_argument("--hls-depth", type=int, default=HLS_DEPTH, metavar="N",
                     help=f"hls core pipeline depth (default: {HLS_DEPTH})")


def _add_model_flags(sub):
    _add_core_flags(sub)
    sub.add_argument("--stall-prob", type=float, default=0.0, metavar="P",
                     help="sink stall probability per cycle (default: 0)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for the stall model (default: 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sobelsim",
                                     description="cycle-level streaming Sobel core simulator")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("process", help="run one core over a BMP")
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
    _add_core_flags(b)
    b.set_defaults(func=cmd_bench)

    return parser


def _read_input(path: str):
    """Read a BMP file; returns (width, height, rgb bytes in raster order)."""
    with open(path, "rb") as fh:
        return decode_bmp(fh.read())


def _write_edges(path: str, width: int, height: int, gray: bytes):
    """Write gray output bytes as a 24-bpp BMP, each intensity in all three channels."""
    rgb = bytearray(3 * len(gray))
    rgb[0::3] = rgb[1::3] = rgb[2::3] = gray
    with open(path, "wb") as fh:
        fh.write(encode_bmp(width, height, rgb))


def _edge_pipeline(variant, width, height, args):
    """The full edge chain of one core, configured from the model flags."""
    config = SobelConfig(width, height, magnitude_mode=args.magnitude)
    return build_pipeline(edge_chain(variant, config, args.hls_depth))


def _run_core(pipeline, frame, stalls):
    """Simulate one edge pipeline over a frame; returns (gray bytes, stats)."""
    words, stats = run_frame(pipeline, frame, stalls)
    return unpack_words(words, len(frame)), stats  # one gray byte per frame word


class WorkerError(ChildProcessError):
    """A forked simulation worker ended without sending its result."""


def _use_workers(pipelines) -> bool:
    """Whether `_run_each` may fork a worker for the hls pipeline while hdl
    runs in this process: this process may use two or more CPUs and runs
    one thread, and no element of either pipeline has a tick patched on the
    instance (a hook that counts ticks must see them in this process)."""
    if not hasattr(os, "fork"):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    import threading

    return (cpus >= 2 and threading.active_count() == 1
            and not any("tick" in vars(pe) for p in pipelines for pe in p.elements))


def _worker(write_fd, mask, pipeline, args):
    """Body of a forked worker: pickle (ok, result or exception) into
    write_fd, then end the process, running no caller's cleanup and
    flushing no stdio; the exit status is 0 only once the outcome is sent."""
    status = 1
    try:
        import pickle
        import signal

        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        try:
            outcome = (True, _run_core(pipeline, *args))
        except BaseException as exc:
            outcome = (False, exc)
        with open(write_fd, "wb") as fh:
            fh.write(pickle.dumps(outcome))
        status = 0
    finally:
        os._exit(status)


def _run_each(pipelines, *args):
    """(hdl result, hls result) of _run_core(pipeline, *args) for the two
    pipelines, raising hdl's error first.

    Where `_use_workers` allows, hls runs in one forked worker while hdl
    runs in this process; an error in hdl stops the worker, and a worker
    that ends without sending its result raises WorkerError.  Otherwise,
    or with no room for a pipe or a process (EMFILE, EAGAIN, ENOMEM), both
    run here, hdl first, so that hls never runs after a failed hdl.
    """
    hdl, hls = pipelines
    pid = read_fd = payload = None
    try:
        if _use_workers(pipelines):
            import pickle
            import signal

            try:
                read_fd, write_fd = os.pipe()
                # a SIGINT before the worker's try would unwind into this
                # frame; one that arrives during the fork is raised when the
                # mask is restored, after the pid is recorded and the write
                # end closed
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                try:
                    pid = os.fork()
                    if pid == 0:
                        _worker(write_fd, mask, hls, args)
                finally:
                    os.close(write_fd)  # so that a worker that dies gives EOF
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            except OSError:  # no room for a pipe or a process
                pass
        hdl_result = _run_core(hdl, *args)
        if pid is None:
            return hdl_result, _run_core(hls, *args)
        with open(read_fd, "rb", closefd=False) as fh:
            payload = fh.read()
    finally:
        if read_fd is not None:
            os.close(read_fd)
        if pid is not None:
            if payload is None:
                os.kill(pid, signal.SIGKILL)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        raise WorkerError(f"a simulation worker ended with exit status {code} "
                          f"and no result")
    ok, hls_result = pickle.loads(payload)
    if not ok:
        raise hls_result
    return hdl_result, hls_result


def _print_first_difference(width, a, a_name, b, b_name):
    """On a mismatch, name on stderr the first raster position where gray
    bytes `a` and `b` differ, and each side's byte there."""
    i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
    row, col = divmod(i, width)
    print(f"first difference at row {row}, col {col}: "
          f"{a[i]} from {a_name}, {b[i]} from {b_name}", file=sys.stderr)


def cmd_process(args) -> int:
    width, height, rgb = _read_input(args.input)
    pipeline = _edge_pipeline(args.arch, width, height, args)
    stalls = StallModel(args.stall_prob, args.seed)
    gray, stats = _run_core(pipeline, rgb_bytes_frame(rgb), stalls)
    _write_edges(args.output, width, height, gray)
    if args.report:
        resources = estimate_resources(args.arch, width, args.hls_depth)
        with open(args.report, "wb") as fh:
            fh.write(serialize_run(args.arch, stats, resources, width, height,
                                   args.magnitude, args.stall_prob, args.seed))
    print(f"{args.arch}: {stats.total_cycles} cycles for {width}x{height}",
          file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    width, height, rgb = _read_input(args.input)
    # every setting is checked before either core runs, hdl's first
    hdl = _edge_pipeline("hdl", width, height, args)
    stalls = StallModel(args.stall_prob, args.seed)
    pipelines = (hdl, _edge_pipeline("hls", width, height, args))
    (hdl_gray, hdl_stats), (hls_gray, hls_stats) = _run_each(
        pipelines, rgb_bytes_frame(rgb), stalls)
    report = build_report(
        hdl_stats,
        hls_stats,
        estimate_resources("hdl", width),
        estimate_resources("hls", width, args.hls_depth),
        GrayImage(width, height, hdl_gray),
        GrayImage(width, height, hls_gray),
        magnitude_mode=args.magnitude,
        stall_prob=args.stall_prob,
        seed=args.seed,
    )
    with open(args.report, "wb") as fh:
        fh.write(serialize_report(report, args.format))
    base, ext = os.path.splitext(args.output)
    for tag, gray in (("hdl", hdl_gray), ("hls", hls_gray)):
        _write_edges(f"{base}_{tag}{ext or '.bmp'}", width, height, gray)
    print(f"hamming_bits={report['hamming_bits']} "
          f"cycle_ratio={report['cycle_ratio']:.4f}", file=sys.stderr)
    if report["hamming_bits"] == 0:
        return 0
    _print_first_difference(width, hdl_gray, "hdl", hls_gray, "hls")
    return 3


def cmd_bench(args) -> int:
    """Run both cores as compare does at each of BENCH_STALL_PROBS; exits 3,
    writing no report, if any run's gray bytes differ from hdl's at 0."""
    # both cores check their settings before any frame is built
    pipelines = [_edge_pipeline(v, args.width, args.height, args) for v in ("hdl", "hls")]
    frame = rgb_bytes_frame(random.Random(args.seed).randbytes(3 * args.width * args.height))
    # one (gray bytes, stats) per stall probability for hdl, then for hls
    runs = tuple(zip(*(_run_each(pipelines, frame, StallModel(prob, args.seed))
                       for prob in BENCH_STALL_PROBS)))
    lines = [BENCH_CSV_HEADER]
    for variant, results in zip(("hdl", "hls"), runs):
        for prob, (gray, stats) in zip(BENCH_STALL_PROBS, results):
            if gray != runs[0][0][0]:  # hdl's gray bytes at 0
                print(f"{variant}: output under stall probability {prob} "
                      f"differs from hdl's under 0", file=sys.stderr)
                _print_first_difference(args.width, runs[0][0][0], "hdl under 0",
                                        gray, f"{variant} under {prob}")
                return 3
            lines.append(",".join(map(str, (variant, f"{prob:.4f}", args.seed, *stats))))
    with open(args.report, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"bench: {len(lines) - 1} runs of {args.width}x{args.height}",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 means deadlock here
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
