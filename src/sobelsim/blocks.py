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
import sys
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Optional

from .image_io import GrayImage, RgbImage, gray_bytes, rgb_bytes
from .stream import BYTE_BEATS, ProcessingElement, ProtocolError


class ConfigMismatchError(RuntimeError):
    """The incoming frame does not match the configured geometry."""


# ---- convolution primitives ------------------------------------------


class LineBuffer:
    """One row of pixels modelled as a dual-port RAM of `depth` byte cells.

    The physical part allows at most one read and one write per simulated
    cycle.  The Sobel cores index `cells` in place and keep that rule with
    the two port stamps: before a read, a core tests _read_at against its
    cycle number (a count from 0 that never repeats between resets), raises
    ProtocolError(SECOND_READ) if they match, and stamps _read_at with it;
    a write does the same with _write_at and SECOND_WRITE.
    """

    __slots__ = ("depth", "cells", "_read_at", "_write_at")
    SECOND_READ = "second read on a single-read-port line buffer"
    SECOND_WRITE = "second write on a single-write-port line buffer"

    def __init__(self, depth: int):
        if not isinstance(depth, int):
            raise ValueError(f"line buffer depth must be an integer, got {depth!r}")
        if depth < 3:
            raise ValueError("line buffer depth must be at least 3")
        self.depth = depth
        self.reset()

    def reset(self):
        self.cells = bytearray(self.depth)
        self._read_at = -1  # cycle of the last read; cycles count from 0
        self._write_at = -1


# _ROUND_SQRT[s] is sqrt(s) rounded half away from zero, floor(sqrt(s) + 1/2),
# for every s below 65281 = 255*256 + 1, where that first reaches 256: m is
# the rounded root of the 2m values s = m*m - m + 1 .. m*m + m.  A ROM, as
# hardware would hold it; from 65281 on the magnitude saturates at 255
_ROUND_SQRT = bytes(1) + b"".join(bytes((m,)) * (2 * m) for m in range(1, 256))


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
    if exact:
        s = gh * gh + gv * gv
        return _ROUND_SQRT[s] if s < 65281 else 255
    mag = abs(gh) + abs(gv)
    return 255 if mag > 255 else mag


def magnitude(gh: int, gv: int, mode: str = "approx") -> int:
    """Magnitude of the signed gradients gh and gv, saturated to 8 bits.

    "approx" is |gh| + |gv|; "exact" is the Euclidean magnitude rounded
    half away from zero.  Both clamp at 255.
    """
    if mode == "exact":
        s = gh * gh + gv * gv
        return _ROUND_SQRT[s] if s < 65281 else 255
    if mode != "approx":
        raise ValueError(f"unknown magnitude mode {mode!r}")
    mag = abs(gh) + abs(gv)
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
        if not (isinstance(self.width, int) and isinstance(self.height, int)):
            raise ValueError(f"frame geometry must be integers, got {self.width!r}x{self.height!r}")
        if self.width < 3 or self.height < 3:
            raise ValueError("frame must be at least 3x3")
        if self.magnitude_mode not in ("approx", "exact"):
            raise ValueError(f"unknown magnitude mode {self.magnitude_mode!r}")


# ---- processing elements ------------------------------------------------

ZERO_WINDOW = (0,) * 9
HLS_DEPTH = 6  # the hls core's default pipeline depth
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
            pout.free = False  # the handshake in place: see Channel
            pout._q.append(reg)
            pout.moves += 1
        if pin.head is not None:
            word, last = pin.head
            pin.head = None
            del pin._q[0]
            pin.moves += 1
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
            if reg[0] >> pout.payload_width:  # the handshake in place: see Channel
                pout.put(reg)
            pout.free = False
            pout._q.append(reg)
            pout.moves += 1
            self._reg = None
        if pin.head is not None:
            data, last = pin.head
            pin.head = None
            del pin._q[0]
            pin.moves += 1
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

    def __init__(self, config: SobelConfig):
        super().__init__(config)
        lb0, lb1 = self._lb
        # by row parity: (the RAM holding row-2, which stage 2 overwrites, row-1's)
        self._ram_pairs = ((lb0, lb1), (lb1, lb0))

    def reset(self):
        super().reset()
        self._s1 = None  # (out_pos, pixel, row, col, above2, above1, ram2); pixel None = drain
        self._s2 = None  # (out_pos, window or None)
        self._s3 = None  # the beat of out_pos, only for out_pos >= 0

    def tick(self, pin, pout):
        now = self._tick = self._tick + 1
        trace = self.trace

        # stage 4: emit the registered result; a blocked emit freezes the pipe
        beat = self._s3
        if beat is not None:
            if not pout.free:
                return
            pout.free = False  # the handshake in place: see Channel
            pout._q.append(beat)
            pout.moves += 1
            if trace is not None:  # positions leave in raster order from 0
                trace.append(("emit", now, pout.pushed - 1))

        # stage 3: convolve the captured window
        s2 = self._s2
        if s2 is None:
            self._s3 = None
        else:
            out_pos, win = s2
            if win is None:  # a border zero; only the final drained one is last
                if out_pos < 0:  # positions below 0 have no output
                    self._s3 = None
                else:
                    self._s3 = _LAST_BEATS[0] if out_pos == self._last else _BEATS[0]
            else:
                self._s3 = _BEATS[sobel_kernel(win, self._exact)]
                if trace is not None:
                    trace.append(("convolve", now, out_pos // self._w, out_pos % self._w))

        # stage 2: shift the window, write the pixel over the oldest row
        s1 = self._s1
        if s1 is None:
            self._s2 = None
        else:
            out_pos, pixel, row, col, above2, above1, ram2 = s1
            if pixel is None:
                self._s2 = (out_pos, None)
            else:
                _, a1, a2, _, b1, b2, _, c1, c2 = self._window
                win = self._window = (a1, a2, above2, b1, b2, above1, c1, c2, pixel)
                if ram2._write_at == now:  # the RAM port in place: see LineBuffer
                    raise ProtocolError(LineBuffer.SECOND_WRITE)
                ram2._write_at = now
                ram2.cells[col] = pixel
                # the window now covers rows row-2..row, cols col-2..col,
                # i.e. the interior centre that out_pos points at
                self._s2 = (out_pos, win if row >= 2 and col >= 2 else None)

        # stage 1: accept a pixel (reading both row RAMs) or inject a drain token
        idx = self._in_idx
        if idx < self._total:
            if pin.head is None:
                self._s1 = None
            else:
                data, last = pin.head
                pin.head = None
                del pin._q[0]
                pin.moves += 1
                if last != (idx == self._last):
                    raise self._length_error(idx)
                w = self._w
                col = idx % w
                row = idx // w
                ram2, ram1 = self._ram_pairs[row & 1]  # the RAM ports in place: see LineBuffer
                if ram2._read_at == now or ram1._read_at == now:
                    raise ProtocolError(LineBuffer.SECOND_READ)
                ram2._read_at = ram1._read_at = now
                self._s1 = (idx - w - 1, data, row, col, ram2.cells[col], ram1.cells[col], ram2)
                self._in_idx = idx + 1
                if trace is not None:
                    trace.append(("accept", now, idx))
        elif idx < self._end:
            self._s1 = (idx - self._w - 1, None, 0, 0, 0, 0, None)
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
    stage_count - 1 beats, None where no beat rides: chain[0] emits, and
    appending the next beat pushes it out.

    Assign a list to `trace` to record ("accept", t, index),
    ("fill", t, pixels_accepted) once, ("convolve", t, row, col) and
    ("emit", t, position) events.
    """

    name = "sobel_hls"
    row_rams = 3

    def __init__(self, config: SobelConfig, pipeline_depth: int = HLS_DEPTH):
        if not isinstance(pipeline_depth, int):
            raise ValueError(f"pipeline depth must be an integer, got {pipeline_depth!r}")
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
        beat = chain[0]
        if beat is not None:
            if not pout.free:
                return
            pout.free = False  # the handshake in place: see Channel
            pout._q.append(beat)
            pout.moves += 1
            if trace is not None:  # positions leave in raster order from 0
                trace.append(("emit", now, pout.pushed - 1))

        # one loop iteration: rotate buffers, shift window, convolve
        token = None
        idx = self._in_idx
        if idx < self._total:
            if pin.head is not None:
                pixel, last = pin.head
                pin.head = None
                del pin._q[0]
                pin.moves += 1
                if last != (idx == self._last):
                    raise self._length_error(idx)
                col = idx % self._w
                row = idx // self._w
                top, mid, bot = self._lb  # the RAM ports in place, in call order: see LineBuffer
                if bot._read_at == now:
                    raise ProtocolError(LineBuffer.SECOND_READ)
                if bot._write_at == now:
                    raise ProtocolError(LineBuffer.SECOND_WRITE)
                bot._read_at = bot._write_at = now
                bot_old = bot.cells[col]
                bot.cells[col] = pixel
                if mid._read_at == now:
                    raise ProtocolError(LineBuffer.SECOND_READ)
                if mid._write_at == now:
                    raise ProtocolError(LineBuffer.SECOND_WRITE)
                mid._read_at = mid._write_at = now
                mid_old = mid.cells[col]
                mid.cells[col] = bot_old
                if top._write_at == now:
                    raise ProtocolError(LineBuffer.SECOND_WRITE)
                top._write_at = now
                top.cells[col] = mid_old
                _, a1, a2, _, b1, b2, _, c1, c2 = self._window
                win = self._window = (a1, a2, mid_old, b1, b2, bot_old, c1, c2, pixel)
                self._in_idx = idx + 1
                if trace is not None:
                    trace.append(("accept", now, idx))
                out_pos = idx - self._w - 1
                if row >= 2 and col >= 2:
                    token = _BEATS[sobel_kernel(win, self._exact)]
                    if trace is not None:
                        if idx == 2 * self._w + 2:  # the first full window
                            trace.append(("fill", now, idx + 1))
                        trace.append(("convolve", now, row - 1, col - 1))
                elif out_pos >= 0:  # a border zero; positions below 0 have no output
                    token = _BEATS[0]
        elif idx < self._end:
            out_pos = idx - self._w - 1
            token = _LAST_BEATS[0] if out_pos == self._last else _BEATS[0]
            self._in_idx = idx + 1

        chain.append(token)


# ---- factories ----------------------------------------------------------


def sobel_pe(variant: str, config: SobelConfig, pipeline_depth: int = HLS_DEPTH):
    """Build either Sobel core by its variant tag ("hdl" or "hls")."""
    if variant == "hdl":
        return SobelHdlPE(config)
    if variant == "hls":
        return SobelHlsPE(config, pipeline_depth)
    raise ValueError(f"unknown variant {variant!r}")


def edge_chain(variant: str, config: SobelConfig, pipeline_depth: int = HLS_DEPTH) -> list:
    """The full edge chain, grayscale -> Sobel core -> word packer."""
    return [Rgb2GrayPE(), sobel_pe(variant, config, pipeline_depth), U8ToU32PE()]


# ---- frame packing helpers ----------------------------------------------


def rgb_bytes_frame(rgb) -> tuple:
    """24-bit payloads, (r << 16) | (g << 8) | b, of r, g, b bytes in raster order.

    Raises ValueError unless rgb is a sequence of a whole, non-zero number
    of triples of integers within 0..255.
    """
    if not hasattr(rgb, "__len__"):  # 5, True, None or an iterator; bytes(5) is five zeros
        raise ValueError("RGB bytes must be integers within 0..255")
    count, rest = divmod(len(rgb), 3)
    if not count or rest:
        raise ValueError(f"RGB bytes must hold whole (r, g, b) triples, got {len(rgb)} bytes")
    words = bytearray(4 * count)  # little-endian words: b, g, r, 0
    try:
        words[2::4], words[1::4], words[0::4] = rgb[0::3], rgb[1::3], rgb[2::3]
    except (TypeError, ValueError):  # a str, or a value that is no byte
        raise ValueError("RGB bytes must be integers within 0..255") from None
    return struct.unpack(f"<{count}I", words)


def rgb_frame(image: RgbImage) -> tuple:
    """rgb_bytes_frame of an RgbImage's channel bytes; ValueError as rgb_bytes."""
    return rgb_bytes_frame(rgb_bytes(image))


def gray_frame(image: GrayImage) -> bytes:
    """A GrayImage's 8-bit payloads, which are its gray_bytes; ValueError as gray_bytes."""
    return gray_bytes(image)


def unpack_words(beats, byte_count: int) -> bytes:
    """The first byte_count bytes of 32-bit word beats, each word little-endian."""
    if not isinstance(byte_count, int):
        raise ValueError(f"byte count must be an integer, got {byte_count!r}")
    if not isinstance(beats, (list, tuple)):  # the errors below index it
        beats = list(beats)
    data = array("I")  # 4 bytes a word, where a list holds a pointer to an int
    try:
        data.extend(map(itemgetter(0), beats))
    except (TypeError, LookupError, OverflowError):  # extend kept the words before the bad beat
        for beat in beats[len(data):]:  # a beat that is no pair is named before bad data
            try:
                beat[0]
            except (TypeError, LookupError):
                raise ValueError(f"word beat {beat!r} is not a (data, last) pair") from None
        raise ValueError("word beats must hold 32-bit unsigned data") from None
    if sys.byteorder == "big":
        data.byteswap()
    out = data.tobytes()
    if not 0 <= byte_count <= len(out):
        raise ValueError(f"{len(beats)} words cannot hold {byte_count} bytes")
    if any(out[byte_count:]):
        raise ValueError("padding bytes beyond the frame end must be zero")
    return out[:byte_count]
