"""Pixel rasters, a minimal 24-bpp BMP codec, and bit-level image comparison.

Only the BMP flavour produced by common tools for raw RGB data is handled:
"BM" magic, 40-byte BITMAPINFOHEADER, 24 bits per pixel, no compression.
Rows are stored bottom-up unless the header height is negative, each row
padded to a 4-byte boundary.  That is enough to round-trip every frame this
project cares about without pulling in an imaging library.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain

HEADER_SIZE = 54  # 14-byte file header + 40-byte BITMAPINFOHEADER


class BadMagicError(ValueError):
    """First two bytes of the file are not 'BM'."""


class UnsupportedFormatError(ValueError):
    """Structurally a BMP, but not the 24-bpp uncompressed flavour."""


class TruncatedError(ValueError):
    """File ends before the header or the promised pixel array does."""


class DimensionMismatchError(ValueError):
    """Two images were compared that do not share a geometry."""


def _check_dimensions(width, height):
    if not (isinstance(width, int) and isinstance(height, int)):
        raise ValueError(f"image dimensions must be integers, got {width!r}x{height!r}")
    if width < 1 or height < 1:
        raise ValueError("image dimensions must be positive")


@dataclass
class _Raster:
    width: int
    height: int
    pixels: list  # one entry per pixel, len == width * height

    def __post_init__(self):
        _check_dimensions(self.width, self.height)
        if len(self.pixels) != self.width * self.height:
            raise ValueError(
                f"expected {self.width * self.height} pixels, got {len(self.pixels)}"
            )


class RgbImage(_Raster):
    """Row-major, top-to-bottom raster of (r, g, b) byte triples."""


class GrayImage(_Raster):
    """Row-major, top-to-bottom raster of 8-bit intensities."""


def rgb_bytes(image: RgbImage) -> bytes:
    """The r, g, b channel bytes of an RgbImage, in raster order.

    Raises ValueError for a pixel that is not an (r, g, b) triple or a
    channel value that is not an integer within 0..255.
    """
    try:
        lengths = set(map(len, image.pixels))
    except TypeError:  # a pixel with no length, such as 5 or None
        lengths = None
    if lengths != {3}:
        raise ValueError("every RGB pixel must be an (r, g, b) triple")
    try:
        return bytes(chain.from_iterable(image.pixels))
    except (TypeError, ValueError):
        raise ValueError("RGB channel values must be integers within 0..255") from None


def gray_bytes(image: GrayImage) -> bytes:
    """The intensities of a GrayImage; ValueError unless each is an integer within 0..255."""
    try:
        return bytes(image.pixels)
    except (TypeError, ValueError):
        raise ValueError("gray intensities must be integers within 0..255") from None


def row_stride(width: int) -> int:
    """Bytes per stored BMP row: 3*width rounded up to a multiple of 4."""
    return (3 * width + 3) & ~3


def decode_bmp(data: bytes) -> tuple:
    """Decode a 24-bpp uncompressed BMP into (width, height, rgb).

    rgb holds each pixel's r, g, b bytes in top-to-bottom raster order, also
    for a negative header height (rows stored top-down).  Raises
    BadMagicError, UnsupportedFormatError or TruncatedError.
    """
    if len(data) < 2:
        raise BadMagicError("file too short to hold a BMP magic")
    if data[:2] != b"BM":
        raise BadMagicError(f"bad magic {data[:2]!r}")
    if len(data) < HEADER_SIZE:
        raise TruncatedError(f"header needs {HEADER_SIZE} bytes, file has {len(data)}")

    pixel_offset = struct.unpack_from("<I", data, 10)[0]
    info_size, width, height = struct.unpack_from("<Iii", data, 14)
    planes, bpp = struct.unpack_from("<HH", data, 26)
    compression = struct.unpack_from("<I", data, 30)[0]

    if info_size != 40:
        raise UnsupportedFormatError(f"unsupported info header size {info_size}")
    if planes != 1:
        raise UnsupportedFormatError(f"unsupported plane count {planes}")
    if bpp != 24:
        raise UnsupportedFormatError(f"unsupported bit depth {bpp}")
    if compression != 0:
        raise UnsupportedFormatError(f"unsupported compression {compression}")
    if width <= 0 or height == 0:
        raise UnsupportedFormatError(f"bad dimensions {width}x{height}")
    if pixel_offset < HEADER_SIZE:
        raise UnsupportedFormatError(
            f"pixel array offset {pixel_offset} lies inside the {HEADER_SIZE}-byte headers"
        )

    rows = abs(height)
    stride = row_stride(width)
    if pixel_offset + stride * rows > len(data):
        raise TruncatedError(
            f"pixel array needs {stride * rows} bytes at offset {pixel_offset}, "
            f"file has {len(data)}"
        )

    # positive height means the file stores the bottom row first
    order = reversed(range(rows)) if height > 0 else range(rows)
    starts = (pixel_offset + y * stride for y in order)
    rgb = bytearray(b"".join(data[base : base + 3 * width] for base in starts))
    rgb[0::3], rgb[2::3] = rgb[2::3], rgb[0::3]  # BMP stores b, g, r
    return width, rows, bytes(rgb)


def read_bmp(data: bytes) -> RgbImage:
    """decode_bmp's raster as an RgbImage of (r, g, b) triples."""
    width, height, rgb = decode_bmp(data)
    return RgbImage(width, height, list(zip(rgb[0::3], rgb[1::3], rgb[2::3])))


def encode_bmp(width: int, height: int, rgb) -> bytes:
    """Encode r, g, b bytes in top-to-bottom raster order as a bottom-up 24-bpp BMP.

    ValueError unless both dimensions are positive integers and rgb is a
    sequence of 3 * width * height integers within 0..255.
    """
    _check_dimensions(width, height)
    row_bytes = 3 * width
    if not hasattr(rgb, "__len__"):  # 5, True, None or an iterator; bytes(5) is five zeros
        raise ValueError("RGB bytes must be integers within 0..255")
    if len(rgb) != row_bytes * height:
        raise ValueError(f"expected {row_bytes * height} RGB bytes, got {len(rgb)}")
    stride = row_stride(width)
    image_size = stride * height
    # file header, then BITMAPINFOHEADER; 2835 px/m (72 DPI) is the conventional filler
    header = struct.pack("<2sIHHIIiiHHIIiiII", b"BM", HEADER_SIZE + image_size, 0, 0, HEADER_SIZE,
                         40, width, height, 1, 24, 0, image_size, 2835, 2835, 0, 0)
    pad = bytes(stride - row_bytes)
    try:
        bgr = bytearray(rgb)
    except (TypeError, ValueError):  # a str, or a value that is no byte
        raise ValueError("RGB bytes must be integers within 0..255") from None
    bgr[0::3], bgr[2::3] = bgr[2::3], bgr[0::3]
    rows = memoryview(bgr)
    bottom_up = (rows[y * row_bytes : (y + 1) * row_bytes] for y in reversed(range(height)))
    return b"".join((header, pad.join(bottom_up), pad))


def write_bmp(image: RgbImage) -> bytes:
    """Encode an RgbImage, flattened by rgb_bytes, with encode_bmp."""
    return encode_bmp(image.width, image.height, rgb_bytes(image))


def gray_to_rgb(image: GrayImage) -> RgbImage:
    """Replicate each intensity into an (v, v, v) triple; ValueError as gray_bytes."""
    return RgbImage(image.width, image.height, [(v, v, v) for v in gray_bytes(image)])


def hamming_distance(a, b) -> int:
    """Number of differing bits between two GrayImages' or two RgbImages' bytes.

    Each image is flattened by gray_bytes or rgb_bytes, as its type says,
    and the two are compared bitwise.  Raises DimensionMismatchError if the
    geometries differ, ValueError if the types differ, and ValueError as
    the flattening does.
    """
    if (a.width, a.height) != (b.width, b.height):
        raise DimensionMismatchError(
            f"{a.width}x{a.height} vs {b.width}x{b.height}"
        )
    if type(a) is not type(b):
        raise ValueError(f"cannot compare a {type(a).__name__} with a {type(b).__name__}")
    flatten = gray_bytes if isinstance(a, GrayImage) else rgb_bytes
    flat_a, flat_b = flatten(a), flatten(b)
    return (int.from_bytes(flat_a, "big") ^ int.from_bytes(flat_b, "big")).bit_count()
