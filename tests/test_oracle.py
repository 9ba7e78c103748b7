"""Frame-level reference model checks.

Everything here is verified against hand-computed values or against
mathematical properties of the operator itself; the streaming cores are
nowhere in sight.  The rest of the suite leans on this module being right.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobelsim import (
    GrayImage,
    RgbImage,
    TooSmallError,
    rgb2gray_frame_reference,
    sobel_frame_reference,
)


def gray_images(min_side=3, max_side=12, max_value=255):
    return st.integers(min_side, max_side).flatmap(
        lambda w: st.integers(min_side, max_side).flatmap(
            lambda h: st.lists(
                st.integers(0, max_value), min_size=w * h, max_size=w * h
            ).map(lambda px: GrayImage(w, h, px))
        )
    )


class TestGrayReference:
    def test_hand_computed_means(self):
        img = RgbImage(2, 2, [(10, 20, 31), (0, 0, 0), (255, 255, 255), (1, 1, 2)])
        assert rgb2gray_frame_reference(img).pixels == [20, 0, 255, 1]

    def test_truncation_not_rounding(self):
        img = RgbImage(1, 1, [(0, 0, 2)])
        assert rgb2gray_frame_reference(img).pixels == [0]

    @given(
        st.lists(
            st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)),
            min_size=6,
            max_size=6,
        )
    )
    def test_range_and_geometry(self, pixels):
        out = rgb2gray_frame_reference(RgbImage(3, 2, pixels))
        assert (out.width, out.height) == (3, 2)
        assert all(0 <= v <= 255 for v in out.pixels)
        assert out.pixels == [(r + g + b) // 3 for r, g, b in pixels]


class TestSobelReference:
    def test_uniform_frame_is_flat_zero(self):
        img = GrayImage(5, 4, [77] * 20)
        assert sobel_frame_reference(img).pixels == [0] * 20

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_vertical_step_saturates_centre(self, mode):
        img = GrayImage(3, 3, [0, 0, 255] * 3)
        out = sobel_frame_reference(img, mode)
        assert out.pixels == [0, 0, 0, 0, 255, 0, 0, 0, 0]

    def test_gentle_vertical_ramp(self):
        # columns 0, 10, 20: gh = (1+2+1) * (20 - 0) = 80, gv = 0 at the centre
        img = GrayImage(3, 3, [0, 10, 20] * 3)
        out = sobel_frame_reference(img)
        assert out.pixels[4] == 80
        assert sobel_frame_reference(img, "exact").pixels[4] == 80

    def test_exact_rounds_up_not_truncates(self):
        # this window yields gh = 2, gv = 2: sqrt(8) = 2.83 must round to 3,
        # where a truncating implementation would report 2
        img = GrayImage(3, 3, [0, 0, 0, 0, 0, 1, 0, 1, 0])
        assert sobel_frame_reference(img, "exact").pixels[4] == 3
        assert sobel_frame_reference(img, "approx").pixels[4] == 4

    @pytest.mark.parametrize("w,h", [(2, 2), (3, 2), (2, 3), (1, 9), (16, 1)])
    def test_frames_without_interior_are_rejected(self, w, h):
        with pytest.raises(TooSmallError):
            sobel_frame_reference(GrayImage(w, h, [0] * (w * h)))

    @pytest.mark.parametrize("w,h", [(3.0, 3), (3, 3.0)])
    def test_frame_whose_dimension_is_not_an_integer_is_rejected(self, w, h):
        # the image refuses the geometry before the oracle's loops run
        with pytest.raises(ValueError, match="image dimensions must be integers"):
            sobel_frame_reference(GrayImage(w, h, [0] * 9))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            sobel_frame_reference(GrayImage(3, 3, [0] * 9), "fast")

    @given(gray_images())
    @settings(max_examples=40)
    def test_border_is_always_zero(self, img):
        out = sobel_frame_reference(img)
        w, h = img.width, img.height
        for j in range(w):
            assert out.pixels[j] == 0
            assert out.pixels[(h - 1) * w + j] == 0
        for i in range(h):
            assert out.pixels[i * w] == 0
            assert out.pixels[i * w + w - 1] == 0

    @given(gray_images(max_value=200), st.integers(1, 55))
    @settings(max_examples=30)
    def test_translation_invariance(self, img, offset):
        # the masks sum to zero, so a constant brightness shift changes nothing
        shifted = GrayImage(img.width, img.height, [v + offset for v in img.pixels])
        for mode in ("approx", "exact"):
            assert (
                sobel_frame_reference(img, mode).pixels
                == sobel_frame_reference(shifted, mode).pixels
            )

    @given(gray_images())
    @settings(max_examples=30)
    def test_transpose_covariance(self, img):
        # transposing the frame swaps the two gradients; the magnitude is
        # symmetric in them, so the output transposes along
        w, h = img.width, img.height
        transposed = GrayImage(
            h, w, [img.pixels[i * w + j] for j in range(w) for i in range(h)]
        )
        for mode in ("approx", "exact"):
            out = sobel_frame_reference(img, mode)
            out_t = sobel_frame_reference(transposed, mode)
            assert out_t.pixels == [
                out.pixels[i * w + j] for j in range(w) for i in range(h)
            ]

    @given(gray_images())
    @settings(max_examples=30)
    def test_exact_never_exceeds_approx(self, img):
        approx = sobel_frame_reference(img, "approx")
        exact = sobel_frame_reference(img, "exact")
        assert all(e <= a for e, a in zip(exact.pixels, approx.pixels))

    def test_windows_do_not_interact(self):
        # embedding the same 3x3 patch in a larger zero frame yields the
        # same centre value the bare patch yields
        rng = random.Random(11)
        patch = [rng.randrange(256) for _ in range(9)]
        bare = sobel_frame_reference(GrayImage(3, 3, patch)).pixels[4]
        big = [0] * 49
        for i in range(3):
            for j in range(3):
                big[(2 + i) * 7 + (2 + j)] = patch[i * 3 + j]
        embedded = sobel_frame_reference(GrayImage(7, 7, big))
        assert embedded.pixels[3 * 7 + 3] == bare
