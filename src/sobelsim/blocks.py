"""Streaming processing elements for the edge-detection pipeline.

Three blocks cover the datapath: an RGB-to-grayscale converter, a Sobel
gradient-magnitude core, and a byte-to-word packer.  The Sobel core exists
in two structurally different versions that must produce byte-identical
streams:

* SobelHdlPE keeps the previous two rows in two line-buffer RAMs and runs a
  hand-built four-stage pipeline (accept + buffer reads, window shift +
  buffer writeback, convolution + magnitude, emit).  Which RAM holds which
  row rotates with the row parity, so each RAM sees at most one read and
  one write per cycle.

* SobelHlsPE stacks three line buffers and rotates them vertically at the
  written column before storing each arriving pixel, the way a pipelined
  high-level-synthesis loop is usually scheduled.  All of the work happens
  when a pixel is accepted; results then ride a configurable register chain
  (default six stages) to the output.

Both cores emit one beat per input pixel in raster order.  The frame edge
uses a zero border: output geometry equals input geometry and every pixel
whose 3x3 window would leave the frame is 0.  Because an interior result
for raster position k becomes computable exactly when input k + width + 1
arrives, each core emits position k alongside that input and drains the
final width + 1 border zeros after the frame ends.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from math import isqrt
from operator import itemgetter
from typing import NamedTuple, Optional

from .image_io import GrayImage, RgbImage, gray_bytes, rgb_bytes
from .stream import BYTE_BEATS, ProcessingElement, ProtocolError


class ConfigMismatchError(RuntimeError):
    """The incoming frame does not match the configured geometry."""


# ---- convolution primitives ------------------------------------------


class GradientPair(NamedTuple):
    """Signed horizontal/vertical gradients; each within +/-1020 for 8-bit input."""

    gh: int
    gv: int


class LineBuffer:
    """One row of pixels modelled as a dual-port RAM of `depth` byte cells.

    The discipline check mirrors the physical part: at most one read and
    one write per simulated cycle.  read() and write() take the caller's
    cycle number `now`, a count from 0 that never repeats between resets,
    and a second access of one kind in the same cycle is a ProtocolError.
    """

    __slots__ = ("depth", "cells", "_read_at", "_write_at")

    def __init__(self, depth: int):
        if depth < 3:
            raise ValueError("line buffer depth must be at least 3")
        self.depth = depth
        self.reset()

    def read(self, col: int, now: int) -> int:
        if now == self._read_at:
            raise ProtocolError("second read on a single-read-port line buffer")
        self._read_at = now
        return self.cells[col]

    def write(self, col: int, value: int, now: int):
        if now == self._write_at:
            raise ProtocolError("second write on a single-write-port line buffer")
        self._write_at = now
        self.cells[col] = value

    def reset(self):
        self.cells = bytearray(self.depth)
        self._read_at = -1  # cycle of the last read; cycles count from 0
        self._write_at = -1


def sobel_kernel(window: tuple, exact: bool = False) -> int:
    """8-bit Sobel magnitude of a 3x3 window held as a 9-tuple in image layout.

    window is row-major with the leftmost column first: (p00, p01, p02,
    p10, p11, p12, p20, p21, p22).  gh correlates with the horizontal mask
    ((-1, 0, 1), (-2, 0, 2), (-1, 0, 1)) and gv with its transpose.
    """
    p00, p01, p02, p10, _, p12, p20, p21, p22 = window
    gh = p02 - p00 + 2 * (p12 - p10) + p22 - p20
    gv = p20 - p00 + 2 * (p21 - p01) + p22 - p02
    # magnitude()'s two forms, inline on the hot path
    mag = (isqrt(4 * (gh * gh + gv * gv)) + 1) >> 1 if exact else abs(gh) + abs(gv)
    return 255 if mag > 255 else mag


def magnitude(g: GradientPair, mode: str = "approx") -> int:
    """Gradient magnitude saturated to 8 bits.

    "approx" is |gh| + |gv|; "exact" is the Euclidean magnitude rounded
    half away from zero.  Both clamp at 255.
    """
    gh, gv = g.gh, g.gv
    if mode == "exact":
        # sqrt(x) rounded half away from zero, in integers as hardware
        # does it: floor(sqrt(x) + 1/2) = (floor(sqrt(4x)) + 1) // 2
        mag = (isqrt(4 * (gh * gh + gv * gv)) + 1) >> 1
    elif mode == "approx":
        mag = abs(gh) + abs(gv)
    else:
        raise ValueError(f"unknown magnitude mode {mode!r}")
    return 255 if mag > 255 else mag


# ---- configuration -----------------------------------------------------


@dataclass(frozen=True)
class SobelConfig:
    """Geometry and mode shared by both Sobel cores.

    Each core builds its row RAMs `width` cells deep, one frame row each,
    so any frame of at least 3x3 fits.
    """

    width: int
    height: int
    magnitude_mode: str = "approx"

    def __post_init__(self):
        if self.width < 3 or self.height < 3:
            raise ValueError("frame must be at least 3x3")
        if self.magnitude_mode not in ("approx", "exact"):
            raise ValueError(f"unknown magnitude mode {self.magnitude_mode!r}")


# ---- processing elements ------------------------------------------------

ZERO_WINDOW = (0,) * 9
_BEATS, _LAST_BEATS = BYTE_BEATS  # BYTE_BEATS[flag] would index by a bool, which is slower


class Rgb2GrayPE(ProcessingElement):
    """Truncating mean of the three channels, one registered stage."""

    name = "rgb2gray"
    in_width = 24
    out_width = 8

    def reset(self):
        self._reg: Optional[tuple] = None

    def tick(self, pin, pout):
        reg = self._reg
        if reg is not None:
            if not pout.free:
                return  # hold the register, accept nothing
            pout.put(reg)
        if pin.head is not None:
            word, last = pin.take()
            gray = ((word >> 16) + ((word >> 8) & 0xFF) + (word & 0xFF)) // 3  # word < 2**24
            self._reg = (gray, last)
        else:
            self._reg = None


class U8ToU32PE(ProcessingElement):
    """Pack four consecutive bytes into one 32-bit word, first byte lowest.

    A frame whose length is not a multiple of four ends in a short word
    zero-padded in its unused high bytes.  The packed word is registered,
    so it appears on the output one cycle after its final byte arrived.
    """

    name = "u8_to_u32"
    in_width = 8
    out_width = 32

    def reset(self):
        self._acc = 0
        self._count = 0
        self._reg: Optional[tuple] = None

    def tick(self, pin, pout):
        reg = self._reg
        if reg is not None:
            if not pout.free:
                return
            pout.put(reg)
            self._reg = None
        if pin.head is not None:
            data, last = pin.take()
            count = self._count
            acc = self._acc | data << (8 * count)
            if count == 3 or last:
                self._reg = (acc, last)
                self._acc = 0
                self._count = 0
            else:
                self._acc = acc
                self._count = count + 1


class _SobelCore(ProcessingElement):
    """State both Sobel cores share; each keeps its own datapath in tick().

    A subclass sets row_rams, its number of row RAMs of one frame row each
    (metrics.estimate_resources counts them), and extends reset().

    The raster index _in_idx counts the accepted pixels and then keeps
    counting past the frame: indices total .. total + width are the drain,
    one token each, for the border zeros at positions idx - width - 1.
    """

    def __init__(self, config: SobelConfig):
        self.config = config
        self.trace: Optional[list] = None
        self._w = config.width
        self._exact = config.magnitude_mode == "exact"
        self._total = config.width * config.height
        self._last = self._total - 1  # raster index of the last-flagged beat
        self._end = self._total + config.width + 1  # one past the final drain index
        self._lb = tuple(LineBuffer(config.width) for _ in range(self.row_rams))
        super().__init__()

    def reset(self):
        self._in_idx = 0
        self._tick = -1
        for lb in self._lb:
            lb.reset()
        self._window = ZERO_WINDOW
        if self.trace is not None:
            self.trace.clear()

    def _length_error(self, idx: int) -> ConfigMismatchError:
        return ConfigMismatchError(f"frame length does not match {self.config.width}x"
                                   f"{self.config.height} (last flag at beat {idx})")


class SobelHdlPE(_SobelCore):
    """Sobel core with two line buffers and a four-stage manual pipeline.

    Stage 1 accepts a pixel and reads both row RAMs at its column; stage 2
    shifts the window and writes the pixel back over the oldest row (the
    RAM roles rotate with row parity); stage 3 convolves and applies the
    magnitude; stage 4 emits.  One pixel enters and one beat leaves per
    cycle once warmed up; a full downstream channel freezes all four stages.

    The window registers are one immutable 9-tuple (see sobel_kernel), so
    stage 2 hands stage 3 the tuple itself as its snapshot.

    Assign a list to `trace` to record events as (kind, cycle, ...):
    ("accept", t, index), ("convolve", t, row, col) for the window centre,
    and ("emit", t, position).
    """

    name = "sobel_hdl"
    stage_count = 4
    row_rams = 2

    def reset(self):
        super().reset()
        self._s1 = None  # (out_pos, pixel, row, col, above2, above1); pixel None = drain
        self._s2 = None  # (out_pos, window or None)
        self._s3 = None  # (out_pos, beat)

    def tick(self, pin, pout):
        now = self._tick = self._tick + 1
        trace = self.trace

        # stage 4: emit the registered result; a blocked emit freezes the pipe
        s3 = self._s3
        if s3 is not None and s3[0] >= 0:
            if not pout.free:
                return
            pout.put(s3[1])
            if trace is not None:
                trace.append(("emit", now, s3[0]))

        # stage 3: convolve the captured window
        s2 = self._s2
        if s2 is None:
            self._s3 = None
        else:
            out_pos, win = s2
            if win is None:  # a border zero; only the final drained one is last
                self._s3 = (out_pos, _LAST_BEATS[0] if out_pos == self._last else _BEATS[0])
            else:
                self._s3 = (out_pos, _BEATS[sobel_kernel(win, self._exact)])
                if trace is not None:
                    trace.append(("convolve", now, out_pos // self._w, out_pos % self._w))

        # stage 2: shift the window, write the pixel over the oldest row
        s1 = self._s1
        if s1 is None:
            self._s2 = None
        else:
            out_pos, pixel, row, col, above2, above1 = s1
            if pixel is None:
                self._s2 = (out_pos, None)
            else:
                _, a1, a2, _, b1, b2, _, c1, c2 = self._window
                win = self._window = (a1, a2, above2, b1, b2, above1, c1, c2, pixel)
                self._lb[row & 1].write(col, pixel, now)
                # the window now covers rows row-2..row, cols col-2..col,
                # i.e. the interior centre that out_pos points at
                self._s2 = (out_pos, win if row >= 2 and col >= 2 else None)

        # stage 1: accept a pixel (reading both row RAMs) or inject a drain token
        idx = self._in_idx
        if idx < self._total:
            if pin.head is None:
                self._s1 = None
            else:
                data, last = pin.take()
                if last != (idx == self._last):
                    raise self._length_error(idx)
                row, col = divmod(idx, self._w)
                above2 = self._lb[row & 1].read(col, now)  # row-2, overwritten next stage
                above1 = self._lb[(row + 1) & 1].read(col, now)  # row-1
                self._s1 = (idx - self._w - 1, data, row, col, above2, above1)
                self._in_idx = idx + 1
                if trace is not None:
                    trace.append(("accept", now, idx))
        elif idx < self._end:
            self._s1 = (idx - self._w - 1, None, 0, 0, 0, 0)
            self._in_idx = idx + 1
        else:
            self._s1 = None


class SobelHlsPE(_SobelCore):
    """Sobel core with three vertically rotating line buffers.

    Accepting pixel (row, col) rotates the column: top[col] takes mid[col],
    mid[col] takes bot[col], bot[col] stores the new pixel; the displaced
    values feed the sliding window, and once the two upper buffers are full
    and three pixels of the current row have arrived (2*width + 3 pixels in
    total) the window is convolved.  The finished value then travels a
    register chain of pipeline_depth (stage_count) stages to the output,
    standing in for whatever schedule a synthesis tool would have produced;
    the depth never changes the emitted bytes.  The chain is a deque of
    stage_count - 1 (out_pos, beat) tokens: chain[0] emits, and appending
    the next token pushes it out.

    Assign a list to `trace` to record ("accept", t, index),
    ("fill", t, pixels_accepted) once, ("convolve", t, row, col) and
    ("emit", t, position) events.
    """

    name = "sobel_hls"
    row_rams = 3

    def __init__(self, config: SobelConfig, pipeline_depth: int = 6):
        if pipeline_depth < 2:
            raise ValueError("pipeline depth must be at least 2")
        self.stage_count = pipeline_depth
        super().__init__(config)

    def reset(self):
        super().reset()
        self._chain = deque(repeat(None, self.stage_count - 1), self.stage_count - 1)

    def tick(self, pin, pout):
        now = self._tick = self._tick + 1
        trace = self.trace
        chain = self._chain

        # emit the chain tail; a blocked emit freezes the whole loop
        tail = chain[0]
        if tail is not None and tail[0] >= 0:
            if not pout.free:
                return
            pout.put(tail[1])
            if trace is not None:
                trace.append(("emit", now, tail[0]))

        # one loop iteration: rotate buffers, shift window, convolve
        token = None
        idx = self._in_idx
        if idx < self._total:
            if pin.head is not None:
                pixel, last = pin.take()
                if last != (idx == self._last):
                    raise self._length_error(idx)
                row, col = divmod(idx, self._w)
                top, mid, bot = self._lb
                mid_old = mid.read(col, now)
                bot_old = bot.read(col, now)
                top.write(col, mid_old, now)
                mid.write(col, bot_old, now)
                bot.write(col, pixel, now)
                _, a1, a2, _, b1, b2, _, c1, c2 = self._window
                win = self._window = (a1, a2, mid_old, b1, b2, bot_old, c1, c2, pixel)
                self._in_idx = idx + 1
                if trace is not None:
                    trace.append(("accept", now, idx))
                if row >= 2 and col >= 2:
                    value = sobel_kernel(win, self._exact)
                    if trace is not None:
                        if idx == 2 * self._w + 2:  # the first full window
                            trace.append(("fill", now, idx + 1))
                        trace.append(("convolve", now, row - 1, col - 1))
                else:
                    value = 0
                token = (idx - self._w - 1, _BEATS[value])
        elif idx < self._end:
            out_pos = idx - self._w - 1
            token = (out_pos, _LAST_BEATS[0] if out_pos == self._last else _BEATS[0])
            self._in_idx = idx + 1

        chain.append(token)


# ---- factories ----------------------------------------------------------


def sobel_pe(variant: str, config: SobelConfig, pipeline_depth: int = 6):
    """Build either Sobel core by its variant tag ("hdl" or "hls")."""
    if variant == "hdl":
        return SobelHdlPE(config)
    if variant == "hls":
        return SobelHlsPE(config, pipeline_depth)
    raise ValueError(f"unknown variant {variant!r}")


def edge_chain(variant: str, config: SobelConfig, pipeline_depth: int = 6) -> list:
    """The full edge chain, grayscale -> Sobel core -> word packer."""
    return [Rgb2GrayPE(), sobel_pe(variant, config, pipeline_depth), U8ToU32PE()]


# ---- frame packing helpers ----------------------------------------------


def rgb_bytes_frame(rgb) -> list:
    """24-bit (word, last) pairs, (r << 16) | (g << 8) | b, of r, g, b bytes in raster order.

    Raises ValueError unless rgb holds a whole, non-zero number of triples.
    """
    count, rest = divmod(len(rgb), 3)
    if not count or rest:
        raise ValueError(f"RGB bytes must hold whole (r, g, b) triples, got {len(rgb)} bytes")
    words = bytearray(4 * count)  # little-endian words: b, g, r, 0
    words[2::4], words[1::4], words[0::4] = rgb[0::3], rgb[1::3], rgb[2::3]
    frame = list(zip(struct.unpack(f"<{count}I", words), repeat(False)))
    frame[-1] = (frame[-1][0], True)
    return frame


def rgb_frame(image: RgbImage) -> list:
    """rgb_bytes_frame of an RgbImage's channel bytes; ValueError as rgb_bytes."""
    return rgb_bytes_frame(rgb_bytes(image))


def gray_frame(image: GrayImage) -> list:
    """Flatten a GrayImage into 8-bit beats, shared from BYTE_BEATS; ValueError as gray_bytes."""
    pixels = gray_bytes(image)
    return [*map(_BEATS.__getitem__, pixels[:-1]), _LAST_BEATS[pixels[-1]]]


def unpack_words(beats, byte_count: int) -> list:
    """Unpack 32-bit word beats back into their first byte_count bytes."""
    data = []
    try:
        data.extend(map(itemgetter(0), beats))
    except (TypeError, LookupError):  # extend kept the data of every beat before the bad one
        raise ValueError(f"word beat {beats[len(data)]!r} is not a (data, last) pair") from None
    try:
        out = struct.pack(f"<{len(data)}I", *data)
    except struct.error:
        raise ValueError("word beats must hold 32-bit unsigned data") from None
    if byte_count > len(out):
        raise ValueError(f"{len(beats)} words hold fewer than {byte_count} bytes")
    if any(out[byte_count:]):
        raise ValueError("padding bytes beyond the frame end must be zero")
    return list(out[:byte_count])
