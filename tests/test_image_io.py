"""BMP codec and raster comparison tests.

The decode checks parse against files assembled field by field with struct,
independently of write_bmp, so an encoder bug cannot hide behind a matching
decoder bug.
"""

import math
import random
import re
import struct
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobelsim import (
    BadMagicError,
    DimensionMismatchError,
    GrayImage,
    RgbImage,
    TruncatedError,
    UnsupportedFormatError,
    decode_bmp,
    encode_bmp,
    gray_to_rgb,
    hamming_distance,
    read_bmp,
    rgb_bytes,
    rgb_frame,
    row_stride,
    write_bmp,
)


def assemble_bmp(width, height, rows_bottom_up, bpp=24, compression=0, info_size=40):
    """Hand-build a BMP from raw padded rows (file order, i.e. as stored)."""
    stride = (3 * width + 3) & ~3
    body = b"".join(rows_bottom_up)
    header = struct.pack("<2sIHHI", b"BM", 54 + len(body), 0, 0, 54)
    info = struct.pack(
        "<IiiHHIIiiII", info_size, width, height, 1, bpp, compression,
        len(body), 0, 0, 0, 0,
    )
    return header + info + body


def rgb_images(max_side=17):
    return st.integers(1, max_side).flatmap(
        lambda w: st.integers(1, 8).flatmap(
            lambda h: st.lists(
                st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)),
                min_size=w * h,
                max_size=w * h,
            ).map(lambda px: RgbImage(w, h, px))
        )
    )


class TestDecode:
    def test_hand_assembled_single_white_pixel(self):
        data = assemble_bmp(1, 1, [b"\xff\xff\xff\x00"])
        assert len(data) == 58
        img = read_bmp(data)
        assert (img.width, img.height) == (1, 1)
        assert img.pixels == [(255, 255, 255)]

    def test_channel_order_is_bgr(self):
        data = assemble_bmp(1, 1, [b"\x01\x02\x03\x00"])
        assert read_bmp(data).pixels == [(3, 2, 1)]

    def test_bottom_up_row_order(self):
        # file stores the bottom row first; raster order must flip it
        bottom = b"\x00\x00\xaa" + b"\x00" * 1
        top = b"\x00\x00\xbb" + b"\x00" * 1
        img = read_bmp(assemble_bmp(1, 2, [bottom, top]))
        assert img.pixels == [(0xBB, 0, 0), (0xAA, 0, 0)]

    def test_negative_height_means_top_down(self):
        first = b"\x00\x00\xbb" + b"\x00"
        second = b"\x00\x00\xaa" + b"\x00"
        img = read_bmp(assemble_bmp(1, -2, [first, second]))
        assert img.height == 2
        assert img.pixels == [(0xBB, 0, 0), (0xAA, 0, 0)]

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            read_bmp(b"PK\x03\x04" + b"\x00" * 60)
        with pytest.raises(BadMagicError):
            read_bmp(b"B")

    # data with no length is refused as data, not as a file too short to
    # hold a magic
    @pytest.mark.parametrize("data", [None, 5, iter(b"BM")], ids=["None", "int", "iterator"])
    def test_data_that_is_not_byte_values(self, data):
        for decode in (decode_bmp, read_bmp):
            with pytest.raises(ValueError, match="^BMP data must be integers within 0..255$"):
                decode(data)

    def test_a_list_of_byte_values_decodes_as_its_bytes(self):
        data = assemble_bmp(2, -2, [b"\x01\x02\x03\x04\x05\x06\x00\x00",
                                    b"\x07\x08\x09\x0a\x0b\x0c\x00\x00"])
        assert decode_bmp(list(data)) == decode_bmp(data) == (2, 2, bytes(
            [3, 2, 1, 6, 5, 4, 9, 8, 7, 12, 11, 10]))

    def test_truncated_header(self):
        data = assemble_bmp(1, 1, [b"\xff\xff\xff\x00"])
        with pytest.raises(TruncatedError):
            read_bmp(data[:40])

    def test_truncated_pixel_array(self):
        data = assemble_bmp(2, 2, [b"\x00" * 8, b"\x00" * 8])
        with pytest.raises(TruncatedError):
            read_bmp(data[:-3])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bpp": 32},
            {"bpp": 8},
            {"compression": 1},
            {"info_size": 108},
        ],
    )
    def test_unsupported_flavours(self, kwargs):
        data = assemble_bmp(1, 1, [b"\xff\xff\xff\x00"], **kwargs)
        with pytest.raises(UnsupportedFormatError):
            read_bmp(data)

    def test_pixel_offset_inside_headers_rejected(self):
        data = bytearray(assemble_bmp(3, 3, [b"\x80" * 12] * 3))
        for offset in (0, 20, 53):
            struct.pack_into("<I", data, 10, offset)
            with pytest.raises(UnsupportedFormatError):
                read_bmp(bytes(data))
        struct.pack_into("<I", data, 10, 54)
        assert read_bmp(bytes(data)).pixels == [(128, 128, 128)] * 9

    def test_zero_height_rejected(self):
        data = assemble_bmp(1, 0, [])
        with pytest.raises(UnsupportedFormatError):
            read_bmp(data)


class TestEncode:
    def test_single_black_pixel_is_58_bytes(self):
        data = write_bmp(RgbImage(1, 1, [(0, 0, 0)]))
        assert len(data) == 58
        assert data[:2] == b"BM"
        # offset and geometry read back with independent unpacking
        assert struct.unpack_from("<I", data, 10)[0] == 54
        assert struct.unpack_from("<ii", data, 18) == (1, 1)
        assert struct.unpack_from("<HH", data, 26) == (1, 24)

    @pytest.mark.parametrize("width", range(1, 17))
    def test_row_stride_padding(self, width):
        assert row_stride(width) == math.ceil(3 * width / 4) * 4
        img = RgbImage(width, 2, [(0, 0, 0)] * (width * 2))
        assert len(write_bmp(img)) == 54 + 2 * row_stride(width)

    def test_two_by_two_stride_is_eight(self):
        img = RgbImage(2, 2, [(1, 2, 3)] * 4)
        data = write_bmp(img)
        assert row_stride(2) == 8
        assert len(data) == 54 + 16
        # padding bytes after each 6-byte row must be zero
        assert data[60:62] == b"\x00\x00"
        assert data[68:70] == b"\x00\x00"

    @given(rgb_images())
    @settings(max_examples=60)
    def test_round_trip(self, img):
        decoded = read_bmp(write_bmp(img))
        assert decoded.width == img.width
        assert decoded.height == img.height
        assert decoded.pixels == img.pixels
        assert decode_bmp(encode_bmp(img.width, img.height, rgb_bytes(img))) == (
            img.width, img.height, rgb_bytes(img))

    @pytest.mark.parametrize("size", [0, 17, 19, 36])
    def test_encode_rejects_rgb_of_the_wrong_length(self, size):
        with pytest.raises(ValueError, match=f"expected 18 RGB bytes, got {size}"):
            encode_bmp(3, 2, bytes(size))

    # rgb with no length is refused too, never read as bytes(5), five zeros
    # nor is a set or a dict read by iteration, or by its keys
    @pytest.mark.parametrize("rgb", ["abc", [1, 2, None], [1, 2, 256], [1.5, 2, 3],
                                     5, True, None, iter(b"abc"), {1, 2, 3}, {0: 1, 1: 2, 2: 3}])
    def test_encode_rejects_rgb_that_is_not_byte_values(self, rgb):
        with pytest.raises(ValueError, match="^RGB bytes must be integers within 0..255$"):
            encode_bmp(1, 1, rgb)

    @pytest.mark.parametrize("width,height", [(0, 1), (1, 0), (-1, 1)])
    def test_encode_rejects_a_dimension_below_one(self, width, height):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            encode_bmp(width, height, b"")

    @pytest.mark.parametrize("width,height", [(3.0, 3), (3, 3.0), ("3", 3), (3, None)])
    def test_encode_rejects_a_dimension_that_is_not_an_integer(self, width, height):
        message = re.escape(f"image dimensions must be integers, got {width!r}x{height!r}")
        with pytest.raises(ValueError, match=message):
            encode_bmp(width, height, bytes(27))

    def test_write_rejects_an_image_whose_dimension_is_not_an_integer(self):
        img = RgbImage(3, 3, [(1, 2, 3)] * 9)
        img.width = 3.0  # an image is a plain dataclass; its fields can be set
        with pytest.raises(ValueError, match=r"image dimensions must be integers, got 3\.0x3"):
            write_bmp(img)


class TestMutationFuzz:
    """Seeded mutants of one small valid BMP: each decodes or raises a
    declared codec error, and one whose pixel bytes alone changed
    round-trips through the encoder."""

    WIDTH, HEIGHT = 5, 3  # a 15-byte row in a 16-byte stride: one pad byte
    DECLARED = (BadMagicError, UnsupportedFormatError, TruncatedError)

    def mutants(self, rng, original):
        stride = row_stride(self.WIDTH)
        end = len(original)
        for _ in range(600):  # header bytes
            data = bytearray(original)
            for _ in range(rng.randint(1, 3)):
                data[rng.randrange(54)] = rng.randrange(256)
            yield "header", bytes(data)
        for _ in range(600):  # pixel bytes, never the row padding
            data = bytearray(original)
            for _ in range(rng.randint(1, 4)):
                pos = 54 + rng.randrange(self.HEIGHT) * stride + rng.randrange(3 * self.WIDTH)
                data[pos] = rng.randrange(256)
            yield "pixels", bytes(data)
        for _ in range(400):
            yield "truncated", original[: rng.randrange(end)]
        for _ in range(400):
            yield "extended", original + rng.randbytes(rng.randint(1, 64))

    def test_mutants_decode_or_raise_declared_errors(self):
        rng = random.Random(20)
        image = RgbImage(self.WIDTH, self.HEIGHT, [
            (rng.randrange(256), rng.randrange(256), rng.randrange(256))
            for _ in range(self.WIDTH * self.HEIGHT)
        ])
        original = write_bmp(image)
        outcomes = Counter()
        for kind, data in self.mutants(rng, original):
            try:
                decoded = read_bmp(data)
            except self.DECLARED as exc:
                outcomes[kind, type(exc).__name__] += 1
                assert kind in ("header", "truncated"), (kind, data)
                continue
            outcomes[kind, "decoded"] += 1
            assert len(decoded.pixels) == decoded.width * decoded.height
            if kind == "pixels":
                assert write_bmp(decoded) == data
            elif kind == "extended":
                assert decoded == image
        assert sum(outcomes.values()) == 2000
        # every mutation kind reached the outcome it exists to exercise
        for key in [("header", "decoded"), ("header", "UnsupportedFormatError"),
                    ("header", "BadMagicError"), ("truncated", "TruncatedError"),
                    ("pixels", "decoded"), ("extended", "decoded")]:
            assert outcomes[key], (key, outcomes)


    def test_decode_bmp_fails_as_read_bmp(self):
        # the same 2000 mutants: both decoders raise the same class and
        # message, or agree on the raster
        rng = random.Random(20)
        image = RgbImage(self.WIDTH, self.HEIGHT, [
            (rng.randrange(256), rng.randrange(256), rng.randrange(256))
            for _ in range(self.WIDTH * self.HEIGHT)
        ])
        failures = 0
        for _, data in self.mutants(rng, write_bmp(image)):
            try:
                decoded = read_bmp(data)
            except self.DECLARED as exc:
                failures += 1
                with pytest.raises(type(exc)) as raised:
                    decode_bmp(data)
                assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
                continue
            assert decode_bmp(data) == (decoded.width, decoded.height, rgb_bytes(decoded))
        assert failures > 100


class TestRasterTypes:
    @pytest.mark.parametrize("w,h,n", [(0, 1, 0), (1, 0, 0), (2, 2, 3)])
    def test_geometry_validation(self, w, h, n):
        with pytest.raises(ValueError):
            RgbImage(w, h, [(0, 0, 0)] * n)
        with pytest.raises(ValueError):
            GrayImage(w, h, [0] * n)

    @pytest.mark.parametrize("w,h", [(3.0, 3), (3, 3.0), ("3", 3), (3, None)])
    def test_dimension_that_is_not_an_integer_rejected(self, w, h):
        message = re.escape(f"image dimensions must be integers, got {w!r}x{h!r}")
        with pytest.raises(ValueError, match=message):
            RgbImage(w, h, [(0, 0, 0)] * 9)
        with pytest.raises(ValueError, match=message):
            GrayImage(w, h, [0] * 9)

    @pytest.mark.parametrize("pixels, kind", [
        (5, "int"), (None, "NoneType"), (iter([(1, 2, 3)]), "list_iterator")])
    def test_pixels_with_no_length_rejected(self, pixels, kind):
        with pytest.raises(ValueError, match=f"^pixels must be a sequence, not {kind}$"):
            RgbImage(1, 1, pixels)
        with pytest.raises(ValueError, match=f"^pixels must be a sequence, not {kind}$"):
            GrayImage(1, 1, pixels)

    def test_gray_to_rgb_replicates(self):
        rgb = gray_to_rgb(GrayImage(2, 1, [0, 200]))
        assert rgb.pixels == [(0, 0, 0), (200, 200, 200)]

    @pytest.mark.parametrize("value", [256, -1, 1.5, "1"])
    def test_gray_to_rgb_rejects_a_value_that_is_not_a_byte(self, value):
        with pytest.raises(ValueError, match="integers within 0..255"):
            gray_to_rgb(GrayImage(2, 1, [0, value]))

    @pytest.mark.parametrize("pixels", [
        [(1, 2), (3, 4, 5, 6)],  # six bytes in all, but no pixel is a triple
        [(1, 2, 3), (4, 5, 256)],
        [(-1, 2, 3), (4, 5, 6)],
        [(1.5, 2, 3), (4, 5, 6)],
        [(1, 2, 3), (4, "5", 6)],
        [5, (1, 2, 3)],  # a pixel with no length
        [(1, 2, 3), None],
    ])
    def test_every_flatten_rejects_a_malformed_pixel(self, pixels):
        bad = RgbImage(2, 1, pixels)
        good = RgbImage(2, 1, [(1, 2, 3), (4, 5, 6)])
        for flatten in (rgb_bytes, rgb_frame, write_bmp, lambda img: hamming_distance(img, good)):
            with pytest.raises(ValueError):
                flatten(bad)


    class NoItems:  # a pixel whose length says 3, but that holds no items
        def __len__(self):
            return 3

    @pytest.mark.parametrize("pixel", [5, None, NoItems()])
    def test_a_pixel_with_no_length_is_not_a_triple(self, pixel):
        with pytest.raises(ValueError, match=r"every RGB pixel must be an \(r, g, b\) triple"):
            rgb_bytes(RgbImage(2, 1, [(1, 2, 3), pixel]))


class TestHamming:
    def test_identical_images_have_distance_zero(self):
        img = RgbImage(2, 2, [(1, 2, 3)] * 4)
        assert hamming_distance(img, img) == 0

    def test_single_bit_flip(self):
        a = RgbImage(1, 1, [(0, 0, 0)])
        b = RgbImage(1, 1, [(0, 0, 1)])
        assert hamming_distance(a, b) == 1

    def test_complement_flips_every_bit(self):
        a = RgbImage(2, 2, [(1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12)])
        b = RgbImage(2, 2, [tuple(255 - c for c in px) for px in a.pixels])
        assert hamming_distance(a, b) == 2 * 2 * 3 * 8

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hamming_distance(
                RgbImage(1, 2, [(0, 0, 0)] * 2), RgbImage(2, 1, [(0, 0, 0)] * 2)
            )

    def test_gray_images_compare_their_intensities(self):
        assert hamming_distance(GrayImage(1, 1, [0]), GrayImage(1, 1, [1])) == 1

    @pytest.mark.parametrize("gray_first", [True, False])
    def test_images_of_different_types_are_rejected(self, gray_first):
        # RgbImage pixels are not checked on construction, so [5] would
        # pass as a gray raster if only the flattening could reject it
        pair = [GrayImage(1, 1, [5]), RgbImage(1, 1, [5])]
        if not gray_first:
            pair.reverse()
        with pytest.raises(ValueError, match="cannot compare a .*Image with a .*Image"):
            hamming_distance(*pair)

    @given(rgb_images(max_side=5), rgb_images(max_side=5), rgb_images(max_side=5))
    @settings(max_examples=30)
    def test_metric_properties(self, a, b, c):
        # force a common geometry by cropping all three to the smallest
        w = min(a.width, b.width, c.width)
        h = min(a.height, b.height, c.height)

        def crop(img):
            px = [
                img.pixels[i * img.width + j] for i in range(h) for j in range(w)
            ]
            return RgbImage(w, h, px)

        a, b, c = crop(a), crop(b), crop(c)
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert (hamming_distance(a, b) == 0) == (a.pixels == b.pixels)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)
