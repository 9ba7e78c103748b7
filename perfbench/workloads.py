"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

A workload makes its inputs from a seed in `setup`, runs one timed pass of
the program over them in `run_pass`, and checks the outputs of every pass
against the frame oracle in `verify`, outside the timed region.  A "frame"
is one input frame taken through both cores; it is the unit of `attempted`,
`failed` and the per-frame latency samples.

A pass is timed in segments of at most a few seconds, and after each segment
`HostSpeed.scale` gives the factor that scales its host time to the nominal
host speed (see ``hostspeed.py``); `ref_s` and the latencies are scaled.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import statistics
import struct
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ALPHABET = (0, 128, 255)
VARIANTS = ("hdl", "hls")


@dataclass
class PassResult:
    """What one timed pass did; `failed` counts frames, not passes."""

    wall_s: float  # host seconds
    frames: int
    failed: int = 0
    ref_s: float = 0.0  # wall_s scaled to the nominal host speed
    latencies_ref_s: array = field(default_factory=lambda: array("d"))
    sim_cycles: int = 0
    outputs: object = None  # compared across passes and against the oracle


def _report_failure(workload, what):
    print(f"{workload}: failed: {what}", file=sys.stderr, flush=True)


# ---- a BMP codec of the benchmark's own, independent of sobelsim.image_io ----


def encode_bmp(width: int, height: int, rgb: bytes) -> bytes:
    """24-bpp bottom-up BMP of a top-down raster of r, g, b bytes."""
    stride = (3 * width + 3) & ~3
    pad = bytes(stride - 3 * width)
    size = stride * height
    out = bytearray(struct.pack("<2sIHHI", b"BM", 54 + size, 0, 0, 54))
    out += struct.pack("<IiiHHIIiiII", 40, width, height, 1, 24, 0, size, 0, 0, 0, 0)
    for y in reversed(range(height)):
        row = bytearray(rgb[3 * width * y: 3 * width * (y + 1)])
        row[0::3], row[2::3] = row[2::3], row[0::3]
        out += row + pad
    return bytes(out)


def decode_gray_bmp(data: bytes):
    """(width, height, gray bytes) of a 24-bpp BMP whose pixels are all gray,
    or None if it is not one."""
    if len(data) < 54 or data[:2] != b"BM":
        return None
    offset = struct.unpack_from("<I", data, 10)[0]
    width, height = struct.unpack_from("<ii", data, 18)
    if struct.unpack_from("<H", data, 28)[0] != 24 or width <= 0 or height == 0:
        return None
    rows = abs(height)
    stride = (3 * width + 3) & ~3
    if offset + stride * rows > len(data):
        return None
    gray = bytearray()
    for y in range(rows):
        src = rows - 1 - y if height > 0 else y
        row = data[offset + src * stride: offset + src * stride + 3 * width]
        if not row[0::3] == row[1::3] == row[2::3]:
            return None
        gray += row[0::3]
    return width, rows, bytes(gray)


# ---- compare_256 -------------------------------------------------------------


class Compare256:
    """`sobelsim compare` in-process on a seeded random 24-bpp BMP.  At 256²
    a pass takes about 2 s, so that a run holds enough passes for a median
    and each pass is one segment short enough to scale (512² takes 10 s)."""

    name = "compare_256"

    def __init__(self, size: int = 256):
        self.size = size

    def setup(self, program, seed: int, workdir: Path):
        n = self.size
        rgb = random.Random(seed).randbytes(3 * n * n)
        src = workdir / "input.bmp"
        src.write_bytes(encode_bmp(n, n, rgb))
        return {"rgb": rgb, "input": src, "output": workdir / "edges.bmp",
                "report": workdir / "report.json"}

    def run_pass(self, program, inputs, speed) -> PassResult:
        argv = ["compare", "--input", str(inputs["input"]),
                "--output", str(inputs["output"]), "--report", str(inputs["report"])]
        t0 = time.perf_counter()
        try:
            rc = program.cli.main(argv)
        except Exception:
            wall = time.perf_counter() - t0
            _report_failure(self.name, traceback.format_exc())
            return PassResult(wall, frames=1, failed=1)
        wall = time.perf_counter() - t0
        ref = wall * speed.scale()

        result = PassResult(wall, frames=1, ref_s=ref, latencies_ref_s=array("d", [ref]))
        base = inputs["output"].with_suffix("")
        try:
            report_bytes = inputs["report"].read_bytes()
            report = json.loads(report_bytes)
            hamming_bits = report["hamming_bits"]
            result.sim_cycles = sum(report[v]["total_cycles"] + 1 for v in VARIANTS)
            edges = tuple(Path(f"{base}_{tag}.bmp").read_bytes() for tag in VARIANTS)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            _report_failure(self.name, f"outputs unreadable: {exc!r}")
            result.failed = 1
            return result
        if rc != 0 or hamming_bits != 0:
            _report_failure(self.name, f"exit {rc}, hamming_bits {hamming_bits}")
            result.failed = 1
        result.outputs = edges + (report_bytes,)
        return result

    def verify(self, program, inputs, passes):
        """Both edge BMPs must equal the oracle of the input, on every pass."""
        n = self.size
        rgb = inputs["rgb"]
        image = program.image_io.RgbImage(n, n, list(zip(rgb[0::3], rgb[1::3], rgb[2::3])))
        want = (n, n, bytes(program.oracle.sobel_frame_reference(
            program.oracle.rgb2gray_frame_reference(image)).pixels))
        good = set()
        for p in passes:
            if p.failed or p.outputs in good:
                continue
            if all(decode_gray_bmp(edge) == want for edge in p.outputs[:2]):
                good.add(p.outputs)
            else:
                _report_failure(self.name, "edge image differs from the oracle")
                p.failed = p.frames


# ---- sweep_3x3 ---------------------------------------------------------------


class Sweep3x3:
    """Every 3x3 frame over {0, 128, 255} through both cores alone, in a
    seeded order, each frame checked against the oracle as it is run.  A
    pass's scaled time is its frame count times the median, over its
    segments, of scaled time per frame: a pass has only about ten segments,
    and a run only about seven passes."""

    name = "sweep_3x3"
    chunk = 2048  # frames per timed segment, about 0.4 s

    def __init__(self, alphabet=ALPHABET):
        self.alphabet = alphabet

    def setup(self, program, seed: int, workdir: Path):
        frames = list(itertools.product(self.alphabet, repeat=9))
        random.Random(seed).shuffle(frames)
        GrayImage = program.image_io.GrayImage
        return [GrayImage(3, 3, list(p)) for p in frames]

    def run_pass(self, program, images, speed) -> PassResult:
        blocks, stream, oracle = program.blocks, program.stream, program.oracle
        clock = time.perf_counter
        digest = hashlib.sha256()
        latencies = array("d")
        failed = 0
        cycles = 0
        wall = 0.0
        ref_per_frame = []
        config = blocks.SobelConfig(3, 3)
        for first in range(0, len(images), self.chunk):
            chunk = array("d")
            start = clock()
            if first == 0:
                hdl = stream.build_pipeline([blocks.sobel_pe("hdl", config)])
                hls = stream.build_pipeline([blocks.sobel_pe("hls", config)])
            for image in images[first:first + self.chunk]:
                t0 = clock()
                try:
                    frame = blocks.gray_frame(image)
                    want = oracle.sobel_frame_reference(image).pixels
                    got_hdl, stats_hdl = stream.run_frame(hdl, frame)
                    got_hls, stats_hls = stream.run_frame(hls, frame)
                    ok = ([b.data for b in got_hdl] == want
                          and [b.data for b in got_hls] == want)
                except Exception:
                    _report_failure(self.name, f"{image.pixels}: {traceback.format_exc()}")
                    failed += 1
                    continue
                t1 = clock()
                if not ok:
                    _report_failure(self.name, f"{image.pixels}: bytes differ from the oracle")
                    failed += 1
                    continue
                chunk.append(t1 - t0)
                cycles += stats_hdl.total_cycles + stats_hls.total_cycles + 2
                digest.update(bytes(want))  # both cores' bytes, now that they match
            seconds = clock() - start
            factor = speed.scale()
            wall += seconds
            ref_per_frame.append(seconds * factor / min(self.chunk, len(images) - first))
            latencies.extend(t * factor for t in chunk)
        ref = len(images) * statistics.median(ref_per_frame)
        return PassResult(wall, frames=len(images), failed=failed, ref_s=ref,
                          latencies_ref_s=latencies, sim_cycles=cycles,
                          outputs=digest.hexdigest())

    def verify(self, program, images, passes):
        """Each frame was checked against the oracle inside its pass."""


# ---- stall_core --------------------------------------------------------------


class StallCore:
    """Both cores alone on a seeded gray frame, sink stall probability 0.5,
    exact magnitude."""

    name = "stall_core"
    stall_prob = 0.5

    def __init__(self, size: int = 256):
        self.size = size

    def setup(self, program, seed: int, workdir: Path):
        n = self.size
        rng = random.Random(seed)
        image = program.image_io.GrayImage(n, n, list(rng.randbytes(n * n)))
        return {"image": image, "stall_seed": rng.randrange(1 << 30)}

    def _run_core(self, program, image, variant, stalls):
        blocks, stream = program.blocks, program.stream
        config = blocks.SobelConfig(image.width, image.height, magnitude_mode="exact")
        pipeline = stream.build_pipeline([blocks.sobel_pe(variant, config)])
        return stream.run_frame(pipeline, blocks.gray_frame(image), stalls)

    def run_pass(self, program, inputs, speed) -> PassResult:
        """One timed segment per core, both drawing on one stall model."""
        stalls = program.stream.StallModel(self.stall_prob, inputs["stall_seed"])
        result = PassResult(0.0, frames=1)
        runs = []
        for variant in VARIANTS:
            t0 = time.perf_counter()
            try:
                runs.append(self._run_core(program, inputs["image"], variant, stalls))
            except Exception:
                result.wall_s += time.perf_counter() - t0
                _report_failure(self.name, traceback.format_exc())
                result.failed = 1
                return result
            seconds = time.perf_counter() - t0
            result.wall_s += seconds
            result.ref_s += seconds * speed.scale()
        result.latencies_ref_s.append(result.ref_s)
        result.sim_cycles = sum(stats.total_cycles + 1 for _, stats in runs)
        result.outputs = tuple(bytes(b.data for b in beats) for beats, _ in runs)
        return result

    def verify(self, program, inputs, passes):
        """Both cores' bytes must equal the oracle and the no-stall bytes."""
        image = inputs["image"]
        want = bytes(program.oracle.sobel_frame_reference(image, "exact").pixels)
        unstalled = tuple(
            bytes(b.data for b in self._run_core(program, image, v, program.stream.NO_STALLS)[0])
            for v in VARIANTS)
        for p in passes:
            if p.failed:
                continue
            if unstalled != (want, want) or p.outputs != unstalled:
                _report_failure(self.name, "bytes differ from the oracle or the no-stall run")
                p.failed = p.frames


WORKLOADS = {w.name: w for w in (Compare256, Sweep3x3, StallCore)}
