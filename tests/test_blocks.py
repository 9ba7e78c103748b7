"""Streaming element tests.

The two Sobel cores are checked against the whole-frame reference model,
never against each other alone, so a shared systematic bug cannot pass.
Latency facts are pinned through the cores' event traces.
"""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_gray, random_rgb, run_sobel
from sobelsim import blocks
from sobelsim import (
    Beat,
    ConfigMismatchError,
    GradientPair,
    GrayImage,
    LineBuffer,
    ProtocolError,
    Rgb2GrayPE,
    RgbImage,
    SobelConfig,
    StallModel,
    U8ToU32PE,
    build_pipeline,
    edge_chain,
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
    g = GradientPair(gh, gv)
    return (sobel_kernel(window(grid)) == magnitude(g, "approx")
            and sobel_kernel(window(grid), exact=True) == magnitude(g, "exact"))


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
        with pytest.raises(ValueError):
            LineBuffer(2)

    def test_read_write_cells(self):
        lb = LineBuffer(8)
        lb.write(5, 200, 0)
        assert lb.read(5, 0) == 200

    def test_dual_port_discipline(self):
        lb = LineBuffer(8)
        lb.read(0, 0)
        with pytest.raises(ProtocolError):
            lb.read(1, 0)
        lb.write(0, 1, 1)
        with pytest.raises(ProtocolError):
            lb.write(1, 2, 1)
        lb.read(1, 1)  # each port is free again in the next cycle
        lb.write(1, 2, 2)

    def test_reset_clears_cells(self):
        lb = LineBuffer(4)
        lb.write(0, 9, 0)
        lb.reset()
        assert lb.read(0, 0) == 0


class TestMagnitude:
    def test_three_four_five(self):
        assert magnitude(GradientPair(3, 4), "exact") == 5
        assert magnitude(GradientPair(3, 4), "approx") == 7

    def test_saturation(self):
        assert magnitude(GradientPair(1020, 0), "approx") == 255
        assert magnitude(GradientPair(1020, 0), "exact") == 255
        assert magnitude(GradientPair(-1020, -1020), "approx") == 255

    def test_zero(self):
        assert magnitude(GradientPair(0, 0), "approx") == 0
        assert magnitude(GradientPair(0, 0), "exact") == 0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            magnitude(GradientPair(1, 1), "euclid")

    @given(st.integers(-1020, 1020), st.integers(-1020, 1020))
    @settings(max_examples=200)
    def test_exact_never_exceeds_approx(self, gh, gv):
        g = GradientPair(gh, gv)
        e, a = magnitude(g, "exact"), magnitude(g, "approx")
        assert 0 <= e <= a <= 255

    def test_integer_rounding_matches_float_sqrt(self):
        # the cores round sqrt(x) with integers, the oracle with a float;
        # they agree on every x = gh^2 + gv^2 that 8-bit input can reach
        for x in range(2 * 1020 * 1020 + 1):
            assert (math.isqrt(4 * x) + 1) // 2 == int(math.sqrt(x) + 0.5), x


class TestSobelConfig:
    @pytest.mark.parametrize("w,h", [(2, 3), (3, 2), (1, 1)])
    def test_too_small_frames_rejected(self, w, h):
        with pytest.raises(ValueError):
            SobelConfig(w, h)

    def test_mode_and_border_validation(self):
        with pytest.raises(ValueError):
            SobelConfig(3, 3, magnitude_mode="manhattan")


class TestRgb2Gray:
    def test_hand_computed_mean(self):
        pipe = build_pipeline([Rgb2GrayPE()])
        frame = [Beat((10 << 16) | (20 << 8) | 31, True)]
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
        assert rgb_frame(RgbImage(1, 1, [(1, 0, 0)])) == [Beat(65536, True)]
        for pixel in ((0, 256, 0), (0, 0, -1), (1, 2), (1.5, 0, 0), (0, "1", 0)):
            with pytest.raises(ValueError):
                rgb_frame(RgbImage(1, 1, [pixel]))

    def test_rgb_bytes_frame_holds_plain_pairs(self):
        img = random_rgb(random.Random(4), 5, 3)
        frame = rgb_bytes_frame(rgb_bytes(img))
        assert frame == rgb_frame(img)
        assert frame == [((r << 16) | (g << 8) | b, i == 14) for i, (r, g, b) in enumerate(img.pixels)]
        # exact tuples, which an element unpacks faster than a Beat
        assert {(type(f), type(f[0]), type(f[1])) for f in frame} == {(tuple, int, bool)}
        assert rgb_bytes_frame(bytearray(b"\x01\x02\x03")) == [(0x010203, True)]

    @pytest.mark.parametrize("size", [0, 1, 2, 4, 5, 7])
    def test_rgb_bytes_frame_rejects_partial_triples(self, size):
        with pytest.raises(ValueError, match=f"whole \\(r, g, b\\) triples, got {size} bytes"):
            rgb_bytes_frame(bytes(size))

    @pytest.mark.parametrize("value", [256, -1, 1.5, "1"])
    def test_gray_frame_rejects_a_value_that_is_not_a_byte(self, value):
        with pytest.raises(ValueError, match="integers within 0..255"):
            gray_frame(GrayImage(3, 3, [0] * 8 + [value]))

    def test_single_register_stage_latency(self):
        img = RgbImage(8, 1, [(9, 9, 9)] * 8)
        _, stats = run_frame(build_pipeline([Rgb2GrayPE()]), rgb_frame(img))
        assert stats.total_cycles == 8 + 2


class TestU8ToU32:
    def test_first_byte_is_least_significant(self):
        pipe = build_pipeline([U8ToU32PE()])
        frame = [Beat(1), Beat(2), Beat(3), Beat(4, True)]
        beats, _ = run_frame(pipe, frame)
        assert beats == [Beat(0x04030201, True)]

    def test_short_tail_is_zero_padded(self):
        pipe = build_pipeline([U8ToU32PE()])
        frame = [Beat(0xAA), Beat(0xBB), Beat(0xCC), Beat(0xDD), Beat(0xEE, True)]
        beats, _ = run_frame(pipe, frame)
        assert [b.data for b in beats] == [0xDDCCBBAA, 0x000000EE]
        assert [b.last for b in beats] == [False, True]

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_word_count_and_reassembly(self, data):
        pipe = build_pipeline([U8ToU32PE()])
        frame = [Beat(v, i == len(data) - 1) for i, v in enumerate(data)]
        beats, stats = run_frame(pipe, frame)
        assert stats.output_beats == (len(data) + 3) // 4
        assert unpack_words(beats, len(data)) == data
        assert [b.last for b in beats].count(True) == 1
        assert beats[-1].last

    def test_unpack_rejects_bad_padding(self):
        with pytest.raises(ValueError):
            unpack_words([Beat(0xFF00, True)], 1)
        with pytest.raises(ValueError):
            unpack_words([Beat(1, True)], 9)
        with pytest.raises(ValueError):
            unpack_words([Beat(1 << 32, True)], 4)

    @pytest.mark.parametrize("beat", [5, None, (), 1.5])
    def test_unpack_rejects_a_beat_that_is_not_a_pair(self, beat):
        message = rf"word beat {re.escape(repr(beat))} is not a \(data, last\) pair"
        with pytest.raises(ValueError, match=message):
            unpack_words([beat], 1)
        # the first such beat is named, after good ones
        with pytest.raises(ValueError, match=message):
            unpack_words([Beat(1), (2, False), beat, 7], 12)


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
        short = [Beat(1, i == 11) for i in range(12)]  # last flag 4 beats early
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
            assert unpack_words(words, 9) == want, depth

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

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            sobel_pe("hls", SobelConfig(3, 3), pipeline_depth=1)
        with pytest.raises(ValueError):
            sobel_pe("axi", SobelConfig(3, 3))


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
            assert unpack_words(words, w * h) == expected
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
            pipe = build_pipeline(elements, channel_capacity=capacity)
            cycles = []
            for stalls in (StallModel(), StallModel(stall_prob, stall_seed)):
                beats, stats = run_frame(pipe, frame, stalls)
                if full_chain:
                    got = unpack_words(beats, w * h)
                else:
                    got = [b.data for b in beats]
                # equal to the oracle, so equal between the two cores too
                assert got == expected
                cycles.append(stats.total_cycles)
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
    capacity 1-3 meets every width and every height in each mode.
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
