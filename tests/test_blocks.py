"""Streaming element tests.

The two Sobel cores are checked against the whole-frame reference model,
never against each other alone, so a shared systematic bug cannot pass.
Latency facts are pinned through the cores' event traces.
"""

import itertools
import math
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_gray, random_rgb, run_sobel
from sobelsim import blocks, image_io
from sobelsim import (
    Beat,
    Channel,
    ConfigMismatchError,
    GrayImage,
    LineBuffer,
    ProtocolError,
    Rgb2GrayPE,
    RgbImage,
    SobelConfig,
    SobelHdlPE,
    SobelHlsPE,
    StallModel,
    U8ToU32PE,
    build_pipeline,
    edge_chain,
    encode_bmp,
    gray_frame,
    magnitude,
    rgb2gray_frame_reference,
    rgb_bytes,
    rgb_bytes_frame,
    rgb_frame,
    run_frame,
    sobel_frame_reference,
    sobel_kernel,
    sobel_pe,
    unpack_words,
)

VARIANTS = ("hdl", "hls")


def small_gray_images(min_side=3, max_side=10):
    return st.integers(min_side, max_side).flatmap(
        lambda w: st.integers(min_side, max_side).flatmap(
            lambda h: st.lists(
                st.integers(0, 255), min_size=w * h, max_size=w * h
            ).map(lambda px: GrayImage(w, h, px))
        )
    )


def window(grid):
    """The 9-tuple the cores hold, from image-layout rows."""
    return tuple(v for row in grid for v in row)


def kernel_matches(grid, gh, gv):
    """sobel_kernel gives the magnitude of (gh, gv) in both modes."""
    return (sobel_kernel(window(grid)) == magnitude(gh, gv, "approx")
            and sobel_kernel(window(grid), exact=True) == magnitude(gh, gv, "exact"))


class TestMasksAndConvolve:
    """The fixed Sobel taps inside sobel_kernel."""

    def test_mask_pair_is_transposed(self):
        # a unit impulse at (i, j) has the gradients (mh[i][j], mv[i][j]),
        # and mv is the transpose of mh
        mh = ((-1, 0, 1), (-2, 0, 2), (-1, 0, 1))
        for i in range(3):
            for j in range(3):
                grid = [[0] * 3 for _ in range(3)]
                grid[i][j] = 1
                assert kernel_matches(grid, mh[i][j], mh[j][i])

    def test_uniform_window_has_no_gradient(self):
        assert kernel_matches([[77] * 3] * 3, 0, 0)

    def test_vertical_step_window(self):
        assert kernel_matches([[0, 0, 255]] * 3, 1020, 0)
        assert kernel_matches([[0, 0, 1]] * 3, 4, 0)

    def test_horizontal_step_window(self):
        assert kernel_matches([[0] * 3, [0] * 3, [255] * 3], 0, 1020)
        assert kernel_matches([[0] * 3, [0] * 3, [1] * 3], 0, 4)

    def test_gradient_bound(self):
        # (8, 24) is not saturated, so both modes pin the gradients
        assert kernel_matches([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 8, 24)
        # the steepest 8-bit step reaches the bound and saturates
        assert kernel_matches([[0, 0, 255]] * 3, 1020, 0)
        assert sobel_kernel(window([[0, 0, 255]] * 3), exact=True) == 255

    @given(st.lists(st.integers(0, 255), min_size=9, max_size=9))
    def test_transposing_the_window_swaps_the_gradients(self, cells):
        grid = [cells[0:3], cells[3:6], cells[6:9]]
        transposed = [[grid[j][i] for j in range(3)] for i in range(3)]
        for exact in (False, True):
            assert (sobel_kernel(window(transposed), exact)
                    == sobel_kernel(window(grid), exact))


class TestLineBuffer:
    def test_minimum_depth(self):
        with pytest.raises(ValueError, match="^line buffer depth must be at least 3$"):
            LineBuffer(2)

    @pytest.mark.parametrize("depth", [3.0, 2.5, "3", None])
    def test_depth_that_is_not_an_integer_rejected(self, depth):
        message = f"line buffer depth must be an integer, got {re.escape(repr(depth))}"
        with pytest.raises(ValueError, match=message):
            LineBuffer(depth)

    def test_reset_clears_cells(self):
        lb = LineBuffer(4)
        lb.cells[:] = b"\x09\x08\x07\x06"
        lb._read_at, lb._write_at = 5, 6
        lb.reset()
        assert lb.cells == bytearray(4)
        assert (lb._read_at, lb._write_at) == (-1, -1)  # both ports free from cycle 0


class TestMagnitude:
    def test_three_four_five(self):
        assert magnitude(3, 4, "exact") == 5
        assert magnitude(3, 4, "approx") == 7

    def test_saturation(self):
        assert magnitude(1020, 0, "approx") == 255
        assert magnitude(1020, 0, "exact") == 255
        assert magnitude(-1020, -1020, "approx") == 255

    def test_zero(self):
        assert magnitude(0, 0, "approx") == 0
        assert magnitude(0, 0, "exact") == 0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            magnitude(1, 1, "euclid")

    @given(st.integers(-1020, 1020), st.integers(-1020, 1020))
    @settings(max_examples=200)
    def test_exact_never_exceeds_approx(self, gh, gv):
        e, a = magnitude(gh, gv, "exact"), magnitude(gh, gv, "approx")
        assert 0 <= e <= a <= 255

    def test_integer_rounding_matches_float_sqrt(self):
        # the cores round sqrt(x) with integers, the oracle with a float;
        # they agree on every x = gh^2 + gv^2 that 8-bit input can reach
        for x in range(2 * 1020 * 1020 + 1):
            assert (math.isqrt(4 * x) + 1) // 2 == int(math.sqrt(x) + 0.5), x

    def test_rounding_table_matches_integer_rounding(self):
        # the exact magnitude is _ROUND_SQRT[s] for s = gh^2 + gv^2 below the
        # table's end and 255 from there on; for every s that 8-bit input can
        # reach, that is sqrt(s) rounded half up in integers, saturated
        table = blocks._ROUND_SQRT
        reach = 2 * 1020 * 1020 + 1
        rounded = [min(255, (math.isqrt(4 * s) + 1) >> 1) for s in range(reach)]
        assert len(table) == 65281
        assert list(table) + [255] * (reach - len(table)) == rounded

    @given(st.lists(st.integers(0, 255), min_size=9, max_size=9))
    @settings(max_examples=300)
    def test_kernel_is_the_magnitude_of_the_oracle_masks(self, cells):
        p00, p01, p02, p10, _, p12, p20, p21, p22 = cells
        # the oracle's masks, as sobel_frame_reference writes them
        gh = -p00 + p02 - 2 * p10 + 2 * p12 - p20 + p22
        gv = -p00 - 2 * p01 - p02 + p20 + 2 * p21 + p22
        for mode in ("approx", "exact"):
            assert sobel_kernel(tuple(cells), mode == "exact") == magnitude(gh, gv, mode)
            centre = sobel_frame_reference(GrayImage(3, 3, cells), mode).pixels[4]
            assert magnitude(gh, gv, mode) == centre


class Form:
    """A polynomial over the window's pixels p00..p22 with integer
    coefficients, traced through sobel_kernel.

    Arithmetic builds the polynomial.  abs(), < and indexing record their
    operand in `log` and return plain values, so what follows them cannot
    depend on a pixel; a branch on a form (bool) or any other comparison
    raises, so no pixel-dependent branch can hide.
    """

    def __init__(self, terms, log, below=True):
        self.terms = {m: c for m, c in terms.items() if c}  # sorted names -> coefficient
        self.log = log
        self.below = below  # what `form < n` answers

    def _new(self, terms):
        return Form(terms, self.log, self.below)

    @staticmethod
    def _terms(x):
        if type(x) is Form:
            return x.terms
        if type(x) is int:
            return {(): x}
        raise TypeError(f"unexpected operand {x!r}")

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in self._terms(other).items():
            terms[m] = terms.get(m, 0) + c
        return self._new(terms)

    def __neg__(self):
        return self._new({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in self._terms(other).items():
                m = tuple(sorted(m1 + m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return self._new(terms)

    __rmul__ = __mul__

    def __abs__(self):
        self.log.append(("abs", self.terms))
        return 0

    def __lt__(self, other):
        self.log.append(("lt", self.terms, other))
        return self.below

    def __index__(self):
        self.log.append(("index", self.terms))
        return 0

    def __bool__(self):
        raise AssertionError("a branch on a pixel value")

    def _no_branch(self, other):
        raise AssertionError("a comparison of a pixel value")

    __eq__ = __ne__ = __gt__ = __le__ = __ge__ = _no_branch
    __hash__ = None


class TestTracedKernel:
    """sobel_kernel run on nine traced pixels: the gradients are straight-line
    code, the oracle's two masks, and the magnitude reads (gh, gv) only."""

    NAMES = ("p00", "p01", "p02", "p10", "p11", "p12", "p20", "p21", "p22")

    def traced(self, below=True):
        log = []
        window = tuple(Form({(name,): 1}, log, below) for name in self.NAMES)
        p00, p01, p02, p10, _, p12, p20, p21, p22 = window
        # the oracle's masks, as sobel_frame_reference writes them
        gh = -p00 + p02 - 2 * p10 + 2 * p12 - p20 + p22
        gv = -p00 - 2 * p01 - p02 + p20 + 2 * p21 + p22
        return window, log, gh, gv

    def test_approx_takes_abs_of_the_oracle_masks(self):
        window, log, gh, gv = self.traced()
        assert sobel_kernel(window) == 0  # |gh| + |gv| of the ints abs() returned
        assert gh.terms == {("p00",): -1, ("p02",): 1, ("p10",): -2, ("p12",): 2,
                            ("p20",): -1, ("p22",): 1}
        assert log == [("abs", gh.terms), ("abs", gv.terms)]

    @pytest.mark.parametrize("below", [True, False])
    def test_exact_indexes_the_table_by_the_squared_norm(self, below):
        window, log, gh, gv = self.traced(below)
        norm = (gh * gh + gv * gv).terms
        assert all(len(m) == 2 for m in norm)  # a quadratic form
        if below:
            assert sobel_kernel(window, exact=True) == blocks._ROUND_SQRT[0]
            assert log == [("lt", norm, 65281), ("index", norm)]
        else:
            assert sobel_kernel(window, exact=True) == 255
            assert log == [("lt", norm, 65281)]


class TestSobelConfig:
    @pytest.mark.parametrize("w,h", [(2, 3), (3, 2), (1, 1)])
    def test_too_small_frames_rejected(self, w, h):
        with pytest.raises(ValueError):
            SobelConfig(w, h)

    def test_mode_and_border_validation(self):
        with pytest.raises(ValueError):
            SobelConfig(3, 3, magnitude_mode="manhattan")

    @pytest.mark.parametrize("w,h", [(3.5, 3), (3, 3.0), ("3", 3), (3, None)])
    def test_geometry_that_is_not_an_integer_rejected(self, w, h):
        with pytest.raises(ValueError, match="frame geometry must be integers"):
            SobelConfig(w, h)


class TestRgb2Gray:
    def test_hand_computed_mean(self):
        pipe = build_pipeline([Rgb2GrayPE()])
        frame = [(10 << 16) | (20 << 8) | 31]
        beats, _ = run_frame(pipe, frame)
        assert beats == [Beat(20, True)]

    @given(
        st.lists(
            st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_stream_matches_frame_reference(self, pixels):
        img = RgbImage(len(pixels), 1, pixels)
        pipe = build_pipeline([Rgb2GrayPE()])
        beats, _ = run_frame(pipe, rgb_frame(img))
        assert [b.data for b in beats] == rgb2gray_frame_reference(img).pixels
        assert [b.last for b in beats] == [False] * (len(pixels) - 1) + [True]

    def test_rgb_frame_rejects_out_of_range_channels(self):
        # a channel of 256 used to alias into its neighbour: (0, 256, 0)
        # packed to the same word as (1, 0, 0)
        assert rgb_frame(RgbImage(1, 1, [(1, 0, 0)])) == (65536,)
        for pixel in ((0, 256, 0), (0, 0, -1), (1, 2), (1.5, 0, 0), (0, "1", 0)):
            with pytest.raises(ValueError):
                rgb_frame(RgbImage(1, 1, [pixel]))

    def test_rgb_bytes_frame_holds_plain_pairs(self):
        img = random_rgb(random.Random(4), 5, 3)
        frame = rgb_bytes_frame(rgb_bytes(img))
        assert frame == rgb_frame(img)
        assert frame == tuple((r << 16) | (g << 8) | b for r, g, b in img.pixels)
        # the payloads alone, as plain ints; the source raises last
        assert type(frame) is tuple and {type(f) for f in frame} == {int}
        assert rgb_bytes_frame(bytearray(b"\x01\x02\x03")) == (0x010203,)

    def test_rgb_bytes_frame_memory_at_256_squared(self):
        # one int per pixel in one tuple, about 36 B a pixel
        rgb = random.Random(5).randbytes(3 * 256 * 256)
        tracemalloc.start()
        try:
            frame = rgb_bytes_frame(rgb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(frame) == 256 * 256
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("size", [0, 1, 2, 4, 5, 7])
    def test_rgb_bytes_frame_rejects_partial_triples(self, size):
        with pytest.raises(ValueError, match=f"whole \\(r, g, b\\) triples, got {size} bytes"):
            rgb_bytes_frame(bytes(size))

    # rgb with no length is refused too, never read as bytes(5), five zeros
    # nor is a set or a dict read by iteration, or by its keys
    @pytest.mark.parametrize("rgb", ["abc", [1, 2, None], [1, 2, 256], [1.5, 2, 3],
                                     5, True, None, iter(b"abc"), {1, 2, 3}, {0: 1, 1: 2, 2: 3}])
    def test_rgb_bytes_frame_rejects_rgb_that_is_not_byte_values(self, rgb):
        with pytest.raises(ValueError, match="^RGB bytes must be integers within 0..255$"):
            rgb_bytes_frame(rgb)

    # the byte values are checked before the length, so with both faults
    # the byte-value error wins
    @pytest.mark.parametrize("pack", [lambda rgb: encode_bmp(1, 1, rgb), rgb_bytes_frame],
                             ids=["encode_bmp", "rgb_bytes_frame"])
    @pytest.mark.parametrize("rgb", ["abcd", [1, 2, 3, 256]])
    def test_byte_values_are_checked_before_the_length(self, pack, rgb):
        with pytest.raises(ValueError, match="^RGB bytes must be integers within 0..255$"):
            pack(rgb)

    @pytest.mark.parametrize("value", [256, -1, 1.5, "1"])
    def test_gray_frame_rejects_a_value_that_is_not_a_byte(self, value):
        with pytest.raises(ValueError, match="integers within 0..255"):
            gray_frame(GrayImage(3, 3, [0] * 8 + [value]))

    @pytest.mark.parametrize("pixels", [{1, 2, 3}, {0: 1, 1: 2, 2: 3}])
    def test_gray_frame_rejects_pixels_that_are_a_set_or_a_dict(self, pixels):
        with pytest.raises(ValueError, match="^gray intensities must be integers within 0..255$"):
            gray_frame(GrayImage(3, 1, pixels))

    def test_gray_frame_is_gray_bytes(self):
        assert blocks.gray_frame is image_io.gray_bytes

    def test_single_register_stage_latency(self):
        img = RgbImage(8, 1, [(9, 9, 9)] * 8)
        _, stats = run_frame(build_pipeline([Rgb2GrayPE()]), rgb_frame(img))
        assert stats.total_cycles == 8 + 2


class TestU8ToU32:
    def test_first_byte_is_least_significant(self):
        pipe = build_pipeline([U8ToU32PE()])
        frame = [1, 2, 3, 4]
        beats, _ = run_frame(pipe, frame)
        assert beats == [Beat(0x04030201, True)]

    def test_short_tail_is_zero_padded(self):
        pipe = build_pipeline([U8ToU32PE()])
        frame = [0xAA, 0xBB, 0xCC, 0xDD, 0xEE]
        beats, _ = run_frame(pipe, frame)
        assert [b.data for b in beats] == [0xDDCCBBAA, 0x000000EE]
        assert [b.last for b in beats] == [False, True]

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_word_count_and_reassembly(self, data):
        pipe = build_pipeline([U8ToU32PE()])
        beats, stats = run_frame(pipe, data)
        assert stats.output_beats == (len(data) + 3) // 4
        assert unpack_words(beats, len(data)) == bytes(data)
        assert [b.last for b in beats].count(True) == 1
        assert beats[-1].last

    def test_unpack_rejects_bad_padding(self):
        with pytest.raises(ValueError):
            unpack_words([Beat(0xFF00, True)], 1)
        with pytest.raises(ValueError):
            unpack_words([Beat(1, True)], 9)
        with pytest.raises(ValueError):
            unpack_words([Beat(1 << 32, True)], 4)

    @pytest.mark.parametrize("byte_count", [-1, -4, -5])
    def test_unpack_rejects_a_negative_byte_count(self, byte_count):
        # a negative count would slice bytes off the end of the words
        with pytest.raises(ValueError, match=f"cannot hold {byte_count} bytes"):
            unpack_words([Beat(1, True)], byte_count)

    @pytest.mark.parametrize("byte_count", [1.5, 1.0, "1"])
    def test_unpack_rejects_a_byte_count_that_is_not_an_integer(self, byte_count):
        with pytest.raises(ValueError, match="byte count must be an integer"):
            unpack_words([(1, True)], byte_count)

    @pytest.mark.parametrize("beat", [5, None, (), 1.5])
    def test_unpack_rejects_a_beat_that_is_not_a_pair(self, beat):
        message = rf"word beat {re.escape(repr(beat))} is not a \(data, last\) pair"
        with pytest.raises(ValueError, match=message):
            unpack_words([beat], 1)
        # the first such beat is named, after good ones
        with pytest.raises(ValueError, match=message):
            unpack_words([Beat(1), (2, False), beat, 7], 12)

    @pytest.mark.parametrize("data", [1 << 32, -1, 1.5, None])
    def test_unpack_names_a_beat_that_is_not_a_pair_before_bad_data(self, data):
        with pytest.raises(ValueError, match="word beats must hold 32-bit unsigned data"):
            unpack_words([Beat(1), (data, False), (2, True)], 12)
        with pytest.raises(ValueError, match=r"word beat 7 is not a \(data, last\) pair"):
            unpack_words([Beat(1), (data, False), 7], 12)

    @pytest.mark.parametrize("beats,kind", [(None, "NoneType"), (5, "int")])
    def test_unpack_rejects_beats_that_are_not_iterable(self, beats, kind):
        message = rf"word beats must be an iterable of \(data, last\) pairs, not {kind}$"
        with pytest.raises(ValueError, match=message):
            unpack_words(beats, 0)

    def test_unpack_takes_an_iterator(self):
        assert unpack_words(iter([(0x04030201, False), (5, True)]), 5) == bytes([1, 2, 3, 4, 5])
        with pytest.raises(ValueError, match=r"word beat 5 is not a \(data, last\) pair"):
            unpack_words(iter([(1, True), 5]), 4)


class TestSobelCores:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_uniform_frame_is_flat_zero(self, variant):
        img = GrayImage(6, 5, [123] * 30)
        out, stats = run_sobel(variant, img)
        assert out.pixels == [0] * 30
        assert stats.output_beats == 30

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_vertical_step_frame(self, variant):
        img = GrayImage(3, 3, [0, 0, 255] * 3)
        out, _ = run_sobel(variant, img)
        assert out.pixels == sobel_frame_reference(img).pixels

    @pytest.mark.parametrize("variant", VARIANTS)
    @given(img=small_gray_images(), mode=st.sampled_from(["approx", "exact"]))
    @settings(max_examples=30, deadline=None)
    def test_matches_frame_reference(self, variant, img, mode):
        out, _ = run_sobel(variant, img, mode=mode)
        assert out.pixels == sobel_frame_reference(img, mode).pixels

    @given(img=small_gray_images(max_side=8))
    @settings(max_examples=30, deadline=None)
    def test_variants_are_byte_identical(self, img):
        hdl, _ = run_sobel("hdl", img)
        hls, _ = run_sobel("hls", img)
        assert hdl.pixels == hls.pixels

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_throughput_bound(self, variant):
        rng = random.Random(3)
        for w, h in ((3, 3), (5, 9), (16, 4), (32, 32)):
            img = random_gray(rng, w, h)
            _, stats = run_sobel(variant, img)
            assert stats.total_cycles <= w * h + w + 16
            assert stats.output_beats == w * h

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_output_is_saturated_to_bytes(self, variant):
        rng = random.Random(4)
        img = random_gray(rng, 9, 7, alphabet=(0, 255))
        out, _ = run_sobel(variant, img)
        assert all(0 <= v <= 255 for v in out.pixels)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_wrong_frame_length_raises(self, variant):
        config = SobelConfig(4, 4)
        pipe = build_pipeline([sobel_pe(variant, config)])
        short = [1] * 12  # last flag 4 beats early
        with pytest.raises(ConfigMismatchError):
            run_frame(pipe, short)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_long_sink_stalls_are_not_deadlocks(self, variant):
        # a sink that stalls on most cycles still drains the frame, so the
        # watchdog must not fire; before stalled cycles stopped counting as
        # idle, 16 of these seeds raised at 0.95 and 198 at 0.99
        img = GrayImage(3, 3, [0, 0, 255] * 3)
        want = sobel_frame_reference(img).pixels
        for probability in (0.95, 0.99):
            for seed in range(200):
                out, _ = run_sobel(variant, img, stalls=StallModel(probability, seed))
                assert out.pixels == want, (probability, seed)

    def test_deep_hls_chain_is_not_a_deadlock(self):
        # a deep register chain carries tokens for depth - 1 cycles with no
        # channel moving; the default watchdog of 10x the 9-beat frame used
        # to fire at depth 100 while the run was still making progress
        img = GrayImage(3, 3, [0, 0, 255] * 3)
        rgb = RgbImage(3, 3, [(v, v, v) for v in img.pixels])
        want = sobel_frame_reference(img).pixels
        config = SobelConfig(3, 3)
        for depth in (100, 200):
            out, _ = run_sobel("hls", img, pipeline_depth=depth)
            assert out.pixels == want, depth
            chain = build_pipeline(edge_chain("hls", config, depth))
            words, _ = run_frame(chain, rgb_frame(rgb))
            assert unpack_words(words, 9) == bytes(want), depth
        # the watchdog allows 10x the frame plus every stage, so no depth,
        # capacity or stall draw makes a live run report a deadlock
        for w, h in ((3, 3), (5, 4)):
            rgb = random_rgb(random.Random(w * h), w, h)
            want = bytes(sobel_frame_reference(rgb2gray_frame_reference(rgb)).pixels)
            frame = rgb_frame(rgb)
            for depth in range(2, 65):
                for capacity in (1, 2, 3):
                    chain = build_pipeline(edge_chain("hls", SobelConfig(w, h), depth), capacity)
                    for probability in (0.0, 0.5):
                        words, _ = run_frame(chain, frame, StallModel(probability, depth))
                        assert unpack_words(words, w * h) == want, (w, h, depth, capacity,
                                                                    probability)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_backpressure_insensitivity(self, variant):
        rng = random.Random(5)
        img = random_gray(rng, 12, 8)
        baseline, base_stats = run_sobel(variant, img)
        for seed in (0, 1, 2):
            stalled, stats = run_sobel(variant, img, stalls=StallModel(0.4, seed))
            assert stalled.pixels == baseline.pixels
            assert stats.total_cycles >= base_stats.total_cycles


class TestSobelTiming:
    def test_hdl_pipeline_is_four_stages(self):
        rng = random.Random(6)
        trace = []
        run_sobel("hdl", random_gray(rng, 8, 8), trace=trace)
        accepts = {e[2]: e[1] for e in trace if e[0] == "accept"}
        emits = {e[2]: e[1] for e in trace if e[0] == "emit"}
        assert emits  # every streamed position left through stage 4
        streamed = 0
        for pos, t_emit in emits.items():
            if pos + 8 + 1 in accepts:  # drained border tokens have no trigger
                # the value accepted with input pos+W+1 leaves 3 cycles later:
                # stages accept/shift/convolve/emit each take one cycle
                assert t_emit - accepts[pos + 8 + 1] == 3
                streamed += 1
        assert streamed == 64 - (8 + 1)

    def test_hdl_first_interior_convolve_needs_two_rows_and_three_pixels(self):
        rng = random.Random(7)
        trace = []
        run_sobel("hdl", random_gray(rng, 8, 8), trace=trace)
        first = next(e for e in trace if e[0] == "convolve")
        _, t_conv, row, col = first
        assert (row, col) == (1, 1)
        accepted_before = [e for e in trace if e[0] == "accept" and e[1] <= t_conv]
        # window completes once input (2, 2) = index 2W+2 has been accepted
        assert max(idx for _, _, idx in accepted_before) >= 2 * 8 + 2

    def test_hls_fill_condition_at_two_rows_plus_three(self):
        # both follow from the raster index alone, whatever the geometry,
        # depth or stalls: one fill at 2W + 3 pixels, and of either core's
        # beats only the final one carries last
        rng = random.Random(8)
        for w in range(3, 13):
            for h in range(3, 8):
                frame = gray_frame(random_gray(rng, w, h))
                depth = 2 + (w + 3 * h) % 8
                for p in (0.0, 0.3):
                    for variant in VARIANTS:
                        pe = sobel_pe(variant, SobelConfig(w, h), depth)
                        pe.trace = []
                        beats, _ = run_frame(build_pipeline([pe]), frame,
                                             StallModel(p, seed=100 * w + h))
                        assert [b.last for b in beats] == [False] * (w * h - 1) + [True]
                        if variant == "hdl":
                            continue
                        fills = [e for e in pe.trace if e[0] == "fill"]
                        assert len(fills) == 1 and fills[0][2] == 2 * w + 3, (w, h, depth, p)
                        first_conv = next(e for e in pe.trace if e[0] == "convolve")
                        assert (first_conv[2], first_conv[3]) == (1, 1)

    def test_hls_depth_changes_latency_not_bytes(self):
        rng = random.Random(9)
        img = random_gray(rng, 8, 6)
        shallow, shallow_stats = run_sobel("hls", img, pipeline_depth=2)
        default, default_stats = run_sobel("hls", img)
        deep, deep_stats = run_sobel("hls", img, pipeline_depth=11)
        assert shallow.pixels == default.pixels == deep.pixels
        assert shallow_stats.total_cycles < default_stats.total_cycles
        assert default_stats.total_cycles < deep_stats.total_cycles

    def test_hls_emit_follows_depth(self):
        rng = random.Random(10)
        for depth in (2, 6, 9):
            trace = []
            run_sobel("hls", random_gray(rng, 8, 6), pipeline_depth=depth, trace=trace)
            accepts = {e[2]: e[1] for e in trace if e[0] == "accept"}
            emits = {e[2]: e[1] for e in trace if e[0] == "emit"}
            for pos, t_emit in emits.items():
                if pos + 8 + 1 in accepts:
                    assert t_emit - accepts[pos + 8 + 1] == depth - 1

    def test_closed_form_cycle_counts(self):
        # no stalls, core alone: the last beat leaves W + 5 cycles (hdl) or
        # W + d + 1 cycles (hls, depth d) after the W*H inputs, and the
        # first one W + 6 or W + d + 2 cycles after the start
        rng = random.Random(13)
        for w in range(3, 21):
            for h in range(3, 11):
                img = random_gray(rng, w, h)
                _, stats = run_sobel("hdl", img)
                assert (stats.total_cycles, stats.first_output_cycle) == (
                    w * h + w + 5, w + 6), (w, h)
                for d in range(2, 10):
                    _, stats = run_sobel("hls", img, pipeline_depth=d)
                    assert (stats.total_cycles, stats.first_output_cycle) == (
                        w * h + w + d + 1, w + d + 2), (w, h, d)

    @pytest.mark.parametrize("full_chain", [False, True])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_closed_form_cycle_counts_at_every_capacity(self, variant, full_chain):
        # no stalls, with N = W*H + W + 1: (total, first output) is a fixed
        # offset from (N, W) at capacity 2-3; capacity 1 passes one beat
        # every other cycle, so there it is an offset from (2N, 2W)
        offsets = {  # (variant, full chain): capacity 2-3, capacity 1; d is the hls depth
            ("hdl", False): lambda d: ((4, 6), (3, 7)),
            ("hdl", True): lambda d: ((8, 13), (7, 17)),
            ("hls", False): lambda d: ((d, d + 2), (d - 1, d + 3)),
            ("hls", True): lambda d: ((d + 4, d + 9), (d + 3, d + 13)),
        }[variant, full_chain]
        rng = random.Random(14)
        for w in range(3, 12):
            for h in range(3, 9):
                if full_chain:
                    frame = rgb_frame(random_rgb(rng, w, h))
                else:
                    frame = gray_frame(random_gray(rng, w, h))
                n = w * h + w + 1
                for d in range(2, 10) if variant == "hls" else (6,):
                    config = SobelConfig(w, h)
                    elements = (edge_chain(variant, config, d) if full_chain
                                else [sobel_pe(variant, config, d)])
                    wide, narrow = offsets(d)
                    for capacity in (1, 2, 3):
                        _, stats = run_frame(build_pipeline(elements, capacity), frame)
                        (total, first), scale = (narrow, 2) if capacity == 1 else (wide, 1)
                        assert (stats.total_cycles, stats.first_output_cycle) == (
                            scale * n + total, scale * w + first), (w, h, d, capacity)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            sobel_pe("hls", SobelConfig(3, 3), pipeline_depth=1)
        with pytest.raises(ValueError):
            sobel_pe("axi", SobelConfig(3, 3))

    @pytest.mark.parametrize("depth", [2.5, 6.0, "6"])
    def test_depth_that_is_not_an_integer_rejected(self, depth):
        with pytest.raises(ValueError, match="pipeline depth must be an integer"):
            sobel_pe("hls", SobelConfig(3, 3), depth)


class TestFullChain:
    def test_rgb_to_packed_words_matches_reference_chain(self):
        rng = random.Random(11)
        w, h = 10, 7
        img = RgbImage(w, h, [
            (rng.randrange(256), rng.randrange(256), rng.randrange(256))
            for _ in range(w * h)
        ])
        expected = sobel_frame_reference(rgb2gray_frame_reference(img)).pixels
        for variant in VARIANTS:
            pipe = build_pipeline(edge_chain(variant, SobelConfig(w, h)))
            words, stats = run_frame(pipe, rgb_frame(img))
            assert unpack_words(words, w * h) == bytes(expected)
            assert stats.output_beats == (w * h + 3) // 4
            assert stats.total_cycles <= w * h + w + 16

    def test_full_chain_survives_heavy_stalls(self):
        rng = random.Random(12)
        w, h = 8, 5
        img = RgbImage(w, h, [
            (rng.randrange(256), rng.randrange(256), rng.randrange(256))
            for _ in range(w * h)
        ])
        for variant in VARIANTS:
            pipe = build_pipeline(edge_chain(variant, SobelConfig(w, h)))
            baseline, _ = run_frame(pipe, rgb_frame(img))
            stalled, _ = run_frame(pipe, rgb_frame(img), StallModel(0.7, seed=3))
            assert stalled == baseline


def drive_by_hand(pe, frame, in_width, out_width, capacity=2):
    """Tick pe alone through a frame of payloads, the source and the sink
    acting through Channel.put and take, until the last beat is received.

    After each tick, the input channel refuses a second take if pe took a
    beat, and the output channel a second put if pe put one; each channel's
    pushed and popped equal the beats that moved on it.  Returns the beats
    received and the number of takes and puts pe made.
    """
    pin, pout = Channel(in_width, capacity), Channel(out_width, capacity)
    pe.reset()
    received = []
    fed = takes = puts = 0
    for _ in range(10 * len(frame) + 20):
        pin.begin_cycle()
        pout.begin_cycle()
        if pout.head is not None:
            received.append(pout.take())
        if fed < len(frame) and pin.free:
            pin.put((frame[fed], fed == len(frame) - 1))
            fed += 1
        queued_in, queued_out = len(pin), len(pout)
        pe.tick(pin, pout)
        if len(pin) < queued_in:
            takes += 1
            with pytest.raises(ProtocolError, match="take on a channel with no visible beat"):
                pin.take()
        if len(pout) > queued_out:
            puts += 1
            with pytest.raises(ProtocolError, match="put on a channel with no free slot"):
                pout.put((0, False))
        assert (pin.pushed, pin.popped) == (fed, fed - len(pin))
        assert (pout.pushed, pout.popped) == (len(received) + len(pout), len(received))
        if received and received[-1][1]:
            return received, takes, puts
    pytest.fail("the last beat never arrived")


class TestInPlaceHandshake:
    """The built-in elements move beats through their channels in place
    (see Channel), with the checks and counts of put and take."""

    @pytest.mark.parametrize("capacity", [1, 2, 3])
    @pytest.mark.parametrize("make, in_width, out_width, frame", [
        (Rgb2GrayPE, 24, 8, [0xFFFFFF, 0x010203, 0, 0x80FF7F, 0xABCDEF]),
        (U8ToU32PE, 8, 32, [1, 2, 3, 4, 5, 250]),
        (lambda: SobelHdlPE(SobelConfig(4, 3)), 8, 8, list(range(0, 240, 20))),
        (lambda: SobelHlsPE(SobelConfig(4, 3)), 8, 8, list(range(0, 240, 20))),
    ])
    def test_handshake_checks_and_counts(self, make, in_width, out_width, frame, capacity):
        pe = make()
        expected, _ = run_frame(build_pipeline([pe], capacity), frame)
        received, takes, puts = drive_by_hand(pe, frame, in_width, out_width, capacity)
        assert received == expected
        assert (takes, puts) == (len(frame), len(expected))

    @pytest.mark.parametrize("width", [8, 24])
    def test_packer_into_a_narrow_channel_raises_the_width_error(self, width):
        channel = Channel(width)
        channel.begin_cycle()
        with pytest.raises(ValueError) as by_put:
            channel.put((0x04030201, True))
        with pytest.raises(ValueError) as in_place:
            drive_by_hand(U8ToU32PE(), [1, 2, 3, 4], 8, width)
        assert str(in_place.value) == str(by_put.value)
        assert str(by_put.value) == f"beat data 0x4030201 exceeds {width}-bit payload"

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_full_chain_calls_neither_put_nor_take(self, variant):
        pipe = build_pipeline(edge_chain(variant, SobelConfig(5, 4)))
        frame = rgb_frame(random_rgb(random.Random(5), 5, 4))
        entered = set()

        def profile(frame_, event, arg):
            if event == "call":
                entered.add(frame_.f_code)

        sys.setprofile(profile)
        try:
            run_frame(pipe, frame)
        finally:
            sys.setprofile(None)
        assert type(pipe.elements[1]).tick.__code__ in entered
        assert Channel.put.__code__ not in entered
        assert Channel.take.__code__ not in entered


PORT_STAMPS = {"read": "_read_at", "write": "_write_at"}
PORT_ERRORS = {"read": "second read on a single-read-port line buffer",
               "write": "second write on a single-write-port line buffer"}


def tick_through(pe, frame, cycles, stamps=()):
    """Tick pe alone by hand for `cycles` cycles from a reset, feeding frame
    and taking every beat it puts, so that its output never blocks.

    Before the final tick, each (RAM index, port) in stamps is stamped with
    the cycle that tick will use, as if it had already been used in it.
    Returns, per cycle, the set of (RAM index, port) stamped with that cycle
    after its tick.
    """
    pin, pout = Channel(8), Channel(8)
    pe.reset()
    fed = 0
    used = []
    for cycle in range(cycles):
        pin.begin_cycle()
        pout.begin_cycle()
        if pout.head is not None:
            pout.take()
        if fed < len(frame) and pin.free:
            pin.put((frame[fed], fed == len(frame) - 1))
            fed += 1
        if cycle == cycles - 1:
            for k, port in stamps:
                setattr(pe._lb[k], PORT_STAMPS[port], cycle)
        pe.tick(pin, pout)
        used.append({(k, port) for k, lb in enumerate(pe._lb)
                     for port, stamp in PORT_STAMPS.items() if getattr(lb, stamp) == cycle})
    return used


class TestRamPortsInPlace:
    """The Sobel cores use their row RAMs in place (see LineBuffer): each
    access stamps its port, and a port already stamped in the same cycle
    raises LineBuffer's message for it, in the cores' call order."""

    W, H = 5, 4
    FRAME = bytes(range(0, 240, 12))
    CYCLES = 60  # past the frame's end

    def ports_per_cycle(self, variant):
        pe = sobel_pe(variant, SobelConfig(self.W, self.H))
        pe.trace = []
        return pe, tick_through(pe, self.FRAME, self.CYCLES)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_each_tick_stamps_the_ports_it_uses(self, variant):
        pe, used = self.ports_per_cycle(variant)
        expected = [set() for _ in used]
        for kind, cycle, *where in pe.trace:
            if kind != "accept":
                continue
            if variant == "hdl":
                # stage 1 reads both RAMs; stage 2 writes the pixel over
                # row-2, in the RAM of its row's parity, one cycle later
                expected[cycle] |= {(0, "read"), (1, "read")}
                expected[cycle + 1].add(((where[0] // self.W) & 1, "write"))
            else:
                # bot and mid are read and written, top is written
                expected[cycle] |= {(0, "write"), (1, "read"), (1, "write"),
                                    (2, "read"), (2, "write")}
        assert used == expected

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_claimed_port_raises_the_line_buffer_error(self, variant):
        pe, used = self.ports_per_cycle(variant)
        first = {}
        for cycle, ports in enumerate(used):
            for port in ports:
                first.setdefault(port, cycle)
        for (k, port), cycle in first.items():
            with pytest.raises(ProtocolError, match=f"^{PORT_ERRORS[port]}$"):
                tick_through(pe, self.FRAME, cycle + 1, [(k, port)])

    @pytest.mark.parametrize("variant, message", [
        ("hdl", PORT_ERRORS["write"]),  # stage 2 writes before stage 1 reads
        ("hls", PORT_ERRORS["read"]),  # bot's read port is tested first
    ])
    def test_every_port_claimed_raises_in_call_order(self, variant, message):
        pe, used = self.ports_per_cycle(variant)
        cycle = max(range(len(used)), key=lambda c: len(used[c]))  # the busiest tick
        with pytest.raises(ProtocolError, match=f"^{message}$"):
            tick_through(pe, self.FRAME, cycle + 1, list(used[cycle]))

    @pytest.mark.parametrize("variant, order", [
        # stage 2 writes one RAM, then stage 1 reads both
        ("hdl", [(0, "write"), (1, "write"), (0, "read"), (1, "read")]),
        # bot (RAM 2) is read and written, then mid (1), then top (0) is written
        ("hls", [(2, "read"), (2, "write"), (1, "read"), (1, "write"), (0, "write")]),
    ], ids=VARIANTS)
    def test_each_pair_of_claimed_ports_raises_the_first_in_call_order(self, variant, order):
        pe, used = self.ports_per_cycle(variant)
        cycle = max(range(len(used)), key=lambda c: len(used[c]))  # the busiest tick
        ports = sorted(used[cycle], key=order.index)
        assert len(ports) == {"hdl": 3, "hls": 5}[variant]
        for first, second in itertools.combinations(ports, 2):
            with pytest.raises(ProtocolError, match=f"^{PORT_ERRORS[first[1]]}$"):
                tick_through(pe, self.FRAME, cycle + 1, [first, second])


class TestConfigurationProperty:
    @given(
        w=st.integers(3, 12),
        h=st.integers(3, 8),
        depth=st.integers(2, 9),
        capacity=st.integers(1, 3),
        stall_prob=st.floats(0.0, 0.9),
        stall_seed=st.integers(0, 2**16),
        mode=st.sampled_from(["approx", "exact"]),
        full_chain=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=400, deadline=None)
    def test_bytes_and_cycles_hold_across_configurations(
        self, w, h, depth, capacity, stall_prob, stall_seed, mode, full_chain, seed
    ):
        rng = random.Random(seed)
        config = SobelConfig(w, h, magnitude_mode=mode)
        if full_chain:
            img = RgbImage(w, h, [
                (rng.randrange(256), rng.randrange(256), rng.randrange(256))
                for _ in range(w * h)
            ])
            expected = sobel_frame_reference(rgb2gray_frame_reference(img), mode).pixels
            frame = rgb_frame(img)
        else:
            img = random_gray(rng, w, h)
            expected = sobel_frame_reference(img, mode).pixels
            frame = gray_frame(img)

        for variant in VARIANTS:
            if full_chain:
                elements = edge_chain(variant, config, depth)
            else:
                elements = [sobel_pe(variant, config, depth)]
            core = elements[-2] if full_chain else elements[0]
            core.trace = []
            pipe = build_pipeline(elements, channel_capacity=capacity)
            cycles = []
            for stalls in (StallModel(), StallModel(stall_prob, stall_seed)):
                beats, stats = run_frame(pipe, frame, stalls)
                if full_chain:
                    got = unpack_words(beats, w * h)
                else:
                    got = bytes(b.data for b in beats)
                # equal to the oracle, so equal between the two cores too
                assert got == bytes(expected)
                cycles.append(stats.total_cycles)
                # the core emits each position once, in raster order
                emits = [event[2] for event in core.trace if event[0] == "emit"]
                assert emits == list(range(w * h))
            assert cycles[1] >= cycles[0]


def replay_sink(emit_cycles, probability, seed):
    """Replay the sink from the cycles in which a core put its beats.

    A beat put in cycle t is visible to the sink from cycle t + 1.  The
    sink draws once per cycle from random.Random(seed) and takes the head
    beat unless the draw stalls it.  Returns the cycle of the last take and
    the number of stalled cycles in which a beat was waiting.
    """
    draw = random.Random(seed).random
    visible = taken = waiting_stalls = 0
    cycle = 0
    while True:
        while visible < len(emit_cycles) and emit_cycles[visible] < cycle:
            visible += 1
        stalled = draw() < probability
        if visible > taken:
            if stalled:
                waiting_stalls += 1
            else:
                taken += 1
                if taken == len(emit_cycles):
                    return cycle, waiting_stalls
        cycle += 1


STALL_CASES = dict(
    w=st.integers(3, 20),
    h=st.integers(3, 10),
    depth=st.integers(2, 9),
    capacity=st.integers(1, 3),
    stall_prob=st.floats(0.1, 0.8),
    stall_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
)


class TestStallTiming:
    @given(**STALL_CASES)
    @settings(max_examples=150, deadline=None)
    def test_core_alone_pays_one_cycle_per_waiting_stall(
        self, w, h, depth, capacity, stall_prob, stall_seed, seed
    ):
        frame = gray_frame(random_gray(random.Random(seed), w, h))
        for variant in VARIANTS:
            pe = sobel_pe(variant, SobelConfig(w, h), depth)
            pipe = build_pipeline([pe], channel_capacity=capacity)
            _, calm = run_frame(pipe, frame)
            pe.trace = []
            _, stats = run_frame(pipe, frame, StallModel(stall_prob, stall_seed))
            emits = [event[1] for event in pe.trace if event[0] == "emit"]
            last_take, waiting_stalls = replay_sink(emits, stall_prob, stall_seed)
            assert last_take == stats.total_cycles
            assert stats.total_cycles == calm.total_cycles + waiting_stalls

    @given(**STALL_CASES)
    @settings(max_examples=150, deadline=None)
    def test_full_chain_pays_at_most_one_cycle_per_stall(
        self, w, h, depth, capacity, stall_prob, stall_seed, seed
    ):
        # the 4:1 packer leaves the sink idle in most cycles, so a stall
        # may cost nothing; it never costs more than one cycle
        frame = rgb_frame(random_rgb(random.Random(seed), w, h))
        for variant in VARIANTS:
            pipe = build_pipeline(edge_chain(variant, SobelConfig(w, h), depth),
                                  channel_capacity=capacity)
            calm_beats, calm = run_frame(pipe, frame)
            beats, stats = run_frame(pipe, frame, StallModel(stall_prob, stall_seed))
            assert beats == calm_beats
            assert (calm.total_cycles <= stats.total_cycles
                    <= calm.total_cycles + stats.sink_stall_cycles)


class TestWindowRouting:
    """Equality for every frame of a geometry, split into routing x kernel.

    The cores' control depends on positions only, never on pixel values.
    Two coordinate-coded frames, pixel = row and pixel = column, show that
    the k-th sobel_kernel call gets the k-th interior pixel's neighbourhood
    in tap order, and that every border position emits 0.  Each geometry
    runs in both magnitude modes, which take separate paths in the kernel;
    channel capacity and hls depth rotate with the geometry, so that every
    capacity 1-3 meets every width and every height in each mode.  The
    full-chain leg checks the same routing behind the grayscale stage and
    in front of the packer.
    """

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_kernel_sees_each_interior_neighbourhood_in_order(self, variant, monkeypatch):
        calls = []
        kernel = blocks.sobel_kernel

        def recording_kernel(window, exact=False):
            value = kernel(window, exact)
            calls.append((window, value))
            return value

        monkeypatch.setattr(blocks, "sobel_kernel", recording_kernel)
        for w in range(3, 41):
            for h in range(3, 13):
                interior = [(r, c) for r in range(1, h - 1) for c in range(1, w - 1)]
                for m, mode in enumerate(("approx", "exact")):
                    core = sobel_pe(variant, SobelConfig(w, h, mode), 2 + (w + 3 * h) % 8)
                    pipe = build_pipeline([core], 1 + (w + h + m) % 3)
                    for code in (lambda r, c: r % 256, lambda r, c: c % 256):
                        img = GrayImage(w, h, [code(r, c) for r in range(h) for c in range(w)])
                        calls.clear()
                        beats, _ = run_frame(pipe, gray_frame(img),
                                             StallModel(0.3, seed=100 * w + h))
                        assert [window for window, _ in calls] == [
                            tuple(code(r + dr, c + dc)
                                  for dr in (-1, 0, 1) for dc in (-1, 0, 1))
                            for r, c in interior
                        ], (w, h, mode)
                        expected = [0] * (w * h)
                        for (r, c), (_, value) in zip(interior, calls):
                            expected[r * w + c] = value
                        assert [b.data for b in beats] == expected, (w, h, mode)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_full_chain_routes_each_neighbourhood_like_the_core_alone(self, variant,
                                                                     monkeypatch):
        # the coded frames go in as RGB pixels (v, v, v), which the grayscale
        # stage turns back into v; a seeded random frame under the same stall
        # seed must move the core at the same cycles as the coded ones
        calls = []
        kernel = blocks.sobel_kernel

        def recording_kernel(window, exact=False):
            calls.append(window)
            return kernel(window, exact)

        def accepts_and_emits(core):
            return [event for event in core.trace if event[0] in ("accept", "emit")]

        monkeypatch.setattr(blocks, "sobel_kernel", recording_kernel)
        rng = random.Random(7)
        for w in range(3, 13):
            for h in range(3, 9):
                interior = [(r, c) for r in range(1, h - 1) for c in range(1, w - 1)]
                for m, mode in enumerate(("approx", "exact")):
                    config = SobelConfig(w, h, mode)
                    depth = 2 + (w + 3 * h) % 8
                    capacity = 1 + (w + h + m) % 3
                    chain = build_pipeline(edge_chain(variant, config, depth), capacity)
                    alone = build_pipeline([sobel_pe(variant, config, depth)], capacity)
                    core = chain.elements[1]
                    core.trace = []
                    timings = []
                    for code in (lambda r, c: r % 256, lambda r, c: c % 256):
                        pixels = [code(r, c) for r in range(h) for c in range(w)]
                        rgb = RgbImage(w, h, [(v, v, v) for v in pixels])
                        calls.clear()
                        words, _ = run_frame(chain, rgb_frame(rgb),
                                             StallModel(0.3, seed=100 * w + h))
                        assert calls == [
                            tuple(code(r + dr, c + dc)
                                  for dr in (-1, 0, 1) for dc in (-1, 0, 1))
                            for r, c in interior
                        ], (w, h, mode)
                        beats, _ = run_frame(alone, gray_frame(GrayImage(w, h, pixels)),
                                             StallModel(0.3, seed=100 * w + h))
                        assert unpack_words(words, w * h) == bytes(b.data for b in beats), \
                            (w, h, mode)
                        timings.append(accepts_and_emits(core))
                    rgb = RgbImage(w, h, [(rng.randrange(256), rng.randrange(256),
                                           rng.randrange(256)) for _ in range(w * h)])
                    run_frame(chain, rgb_frame(rgb), StallModel(0.3, seed=100 * w + h))
                    assert len(timings[0]) == 2 * w * h
                    assert accepts_and_emits(core) == timings[0] == timings[1], (w, h, mode)
