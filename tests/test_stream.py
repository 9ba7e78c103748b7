"""Scheduler and channel semantics.

Latency constants here were hand-traced against the registered-ready model:
a transfer committed in cycle t is visible in cycle t+1, so a bare hop
through a combinational element costs one cycle of visibility and each
register stage adds one more.  Cycle numbers in CycleStats are the 0-based
scheduler cycles in which the sink accepted a beat.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_gray, random_rgb
from sobelsim import (
    Beat,
    Channel,
    DeadlockError,
    GrayImage,
    ProcessingElement,
    ProtocolError,
    SobelConfig,
    StallModel,
    WidthMismatchError,
    build_pipeline,
    edge_chain,
    gray_frame,
    rgb2gray_frame_reference,
    rgb_frame,
    run_frame,
    sobel_frame_reference,
    sobel_pe,
)


class PassThrough(ProcessingElement):
    """Move a beat from input to output in the same cycle (no registers)."""

    name = "pass"

    def tick(self, pin, pout):
        if pin.head is not None and pout.free:
            pout.put(pin.take())


class RegisterStage(ProcessingElement):
    """Classic one-deep pipeline register with valid/ready semantics."""

    name = "reg"

    def __init__(self):
        self._reg = None

    def reset(self):
        self._reg = None

    def tick(self, pin, pout):
        if self._reg is not None:
            if not pout.free:
                return
            pout.put(self._reg)
        beat = pin.head
        self._reg = pin.take() if beat is not None else None


class SumsFrame(ProcessingElement):
    """Swallow a whole frame and emit one beat: the low byte of its sum."""

    name = "sum"

    def __init__(self):
        self._acc = 0

    def reset(self):
        self._acc = 0

    def tick(self, pin, pout):
        if pin.head is not None and pout.free:
            data, last = pin.take()
            self._acc += data
            if last:
                pout.put(Beat(self._acc & 0xFF, True))


class NeverConsumes(ProcessingElement):
    name = "stuck"

    def tick(self, pin, pout):
        pass


def byte_frame(values):
    return [Beat(v, i == len(values) - 1) for i, v in enumerate(values)]


class TestChannel:
    def test_width_and_capacity_validation(self):
        with pytest.raises(ValueError):
            Channel(16)
        with pytest.raises(ValueError):
            Channel(8, capacity=0)

    def test_fifo_order_and_counters(self):
        ch = Channel(8, capacity=2)
        ch.begin_cycle()
        ch.put(Beat(1))
        ch.begin_cycle()
        ch.put(Beat(2))
        ch.begin_cycle()
        assert not ch.free  # both slots held at this cycle start
        assert ch.take() == Beat(1)
        ch.begin_cycle()
        assert ch.take() == Beat(2)
        assert ch.pushed == 2 and ch.popped == 2

    def test_payload_width_enforced(self):
        ch = Channel(8)
        ch.begin_cycle()
        with pytest.raises(ValueError):
            ch.put(Beat(256))

    @pytest.mark.parametrize("width", [8, 24, 32])
    def test_payload_bounds(self, width):
        ch = Channel(width)
        for data in (-1, 1 << width, -(1 << width)):
            ch.begin_cycle()
            with pytest.raises(ValueError, match="exceeds"):
                ch.put(Beat(data))
        for data in (0, (1 << width) - 1):
            ch.begin_cycle()
            ch.put(Beat(data))
        assert ch.pushed == 2

    def test_counters_follow_moves(self):
        ch = Channel(8, capacity=3)
        for data in (1, 2, 3):
            ch.begin_cycle()
            ch.put(Beat(data))
        ch.begin_cycle()
        ch.take()
        assert (ch.moves, ch.pushed, ch.popped, len(ch)) == (4, 3, 1, 2)
        with pytest.raises(AttributeError):
            ch.pushed = 0
        with pytest.raises(AttributeError):
            ch.popped = 0
        ch.reset()
        assert (ch.moves, ch.pushed, ch.popped, len(ch)) == (0, 0, 0, 0)

    def test_latched_views_limit_one_action_per_cycle(self):
        ch = Channel(8, capacity=4)
        ch.begin_cycle()
        ch.put(Beat(1))
        with pytest.raises(ProtocolError):
            ch.put(Beat(2))  # slot view already claimed this cycle
        ch.begin_cycle()
        ch.take()
        with pytest.raises(ProtocolError):
            ch.take()  # head view already consumed this cycle

    def test_transfer_invisible_until_next_cycle(self):
        ch = Channel(8)
        ch.begin_cycle()
        ch.put(Beat(9))
        assert ch.head is None  # latched before the put committed
        ch.begin_cycle()
        assert ch.head == Beat(9)


class TestBuildPipeline:
    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            build_pipeline([])

    def test_width_mismatch_rejected(self):
        a = PassThrough()
        b = PassThrough()
        b.in_width = 32
        with pytest.raises(WidthMismatchError):
            build_pipeline([a, b])

    def test_channel_count_and_widths(self):
        pe = PassThrough()
        pe.in_width, pe.out_width = 24, 8
        pipe = build_pipeline([pe])
        assert len(pipe.channels) == 2
        assert pipe.source_channel.payload_width == 24
        assert pipe.sink_channel.payload_width == 8


class TestRunFrame:
    def test_identity_preserves_beats(self):
        frame = byte_frame(list(range(10)))
        beats, stats = run_frame(build_pipeline([PassThrough()]), frame)
        assert beats == frame
        assert stats.output_beats == 10
        assert stats.first_output_cycle <= stats.total_cycles

    def test_passthrough_latency_constant(self):
        # source commits beat k in cycle k, the element moves it in k+1,
        # the sink takes it in k+2: last of N beats lands at N+1
        for n in (1, 3, 8):
            _, stats = run_frame(build_pipeline([PassThrough()]), byte_frame([7] * n))
            assert stats.total_cycles == n + 1

    def test_register_stage_latency_constant(self):
        # one register stage adds exactly one cycle
        for n in (1, 3, 10):
            _, stats = run_frame(build_pipeline([RegisterStage()]), byte_frame([7] * n))
            assert stats.total_cycles == n + 2

    def test_frame_validation(self):
        pipe = build_pipeline([PassThrough()])
        with pytest.raises(ValueError):
            run_frame(pipe, [])
        with pytest.raises(ValueError):
            run_frame(pipe, [Beat(1, True), Beat(2, True)])
        with pytest.raises(ValueError):
            run_frame(pipe, [Beat(1), Beat(2)])
        with pytest.raises(ValueError):
            run_frame(pipe, [Beat(300, True)])

    def test_frame_of_plain_pairs_accepted(self):
        # elements pass each other (data, last) tuples; a frame may be one
        pipe = build_pipeline([PassThrough()])
        beats, _ = run_frame(pipe, [(1, False), (2, True)])
        assert beats == [Beat(1, False), Beat(2, True)]
        with pytest.raises(ValueError, match="final beat must carry the last flag"):
            run_frame(pipe, [(1, False), (2, False)])

    @pytest.mark.parametrize("data", [1.5, 2.0, "1", None])
    def test_non_integer_payload_rejected(self, data):
        pipe = build_pipeline([PassThrough()])
        with pytest.raises(ValueError, match="is not an integer"):
            run_frame(pipe, [Beat(1), Beat(data, True)])

    @pytest.mark.parametrize("beat", [5, None, (1, True, 0), (1,)])
    def test_beat_that_is_not_a_pair_rejected(self, beat):
        pipe = build_pipeline([PassThrough()])
        message = rf"frame beat {re.escape(repr(beat))} is not a \(data, last\) pair"
        with pytest.raises(ValueError, match=message):
            run_frame(pipe, [Beat(1), beat, Beat(2, True)])
        # beats are checked in frame order: an earlier bad payload wins,
        # and a malformed beat wins over a misplaced last flag
        with pytest.raises(ValueError, match="exceeds 8-bit payload"):
            run_frame(pipe, [Beat(300), beat, Beat(2, True)])
        with pytest.raises(ValueError, match=message):
            run_frame(pipe, [Beat(1, True), beat, Beat(300, True)])

    def test_returned_beats_are_beats_with_plain_fields(self):
        # the benchmark and the README read b.data; == alone would pass a plain tuple
        def check(beats, data, last):
            assert [type(b) for b in beats] == [Beat] * len(data)
            assert [(type(b.data), type(b.last)) for b in beats] == [(int, type(last))] * len(data)
            assert [tuple(b) for b in beats] == [(d, last if i == len(data) - 1 else False)
                                                 for i, d in enumerate(data)]

        rgb = random_rgb(random.Random(8), 6, 5)
        gray = rgb2gray_frame_reference(rgb)
        edges = sobel_frame_reference(gray, "exact").pixels
        core = sobel_pe("hls", SobelConfig(6, 5, magnitude_mode="exact"))
        check(run_frame(build_pipeline([core]), gray_frame(gray))[0], edges, True)
        words = [int.from_bytes(bytes(edges[k:k + 4]), "little") for k in range(0, 30, 4)]
        chain = build_pipeline(edge_chain("hdl", SobelConfig(6, 5, magnitude_mode="exact")))
        check(run_frame(chain, rgb_frame(rgb))[0], words, True)
        pipe = build_pipeline([PassThrough()])
        check(run_frame(pipe, [(3, False), (4, True)])[0], [3, 4], True)
        # a frame's Beat comes back as it went in, last=1 and not True
        check(run_frame(pipe, [Beat(5, 1)])[0], [5], 1)

    def test_gray_frame_beats(self):
        image = random_gray(random.Random(9), 4, 3)
        beats = gray_frame(image)
        final = len(image.pixels) - 1
        assert beats == [Beat(v, i == final) for i, v in enumerate(image.pixels)]
        assert {(type(b), type(b.data), type(b.last)) for b in beats} == {(Beat, int, bool)}

    def test_determinism_under_random_stalls(self):
        pipe = build_pipeline([RegisterStage()])
        frame = byte_frame(list(range(32)))
        stalls = StallModel(0.5, seed=7)
        first = run_frame(pipe, frame, stalls)
        second = run_frame(pipe, frame, stalls)
        assert first == second

    def test_no_stall_model_never_stalls(self):
        frame = byte_frame(list(range(16)))
        _, stats = run_frame(build_pipeline([RegisterStage()]), frame)
        assert stats.sink_stall_cycles == 0
        _, stats = run_frame(
            build_pipeline([RegisterStage()]), frame, StallModel(0.0, seed=3)
        )
        assert stats.sink_stall_cycles == 0

    def test_total_cycles_monotone_in_observed_stalls(self):
        pipe = build_pipeline([RegisterStage()])
        frame = byte_frame(list(range(24)))
        runs = [
            run_frame(pipe, frame, StallModel(p, seed=5))[1]
            for p in (0.0, 0.25, 0.5)
        ]
        runs.sort(key=lambda s: s.sink_stall_cycles)
        totals = [s.total_cycles for s in runs]
        assert totals == sorted(totals)

    @given(st.floats(0.05, 0.8), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_backpressure_insensitivity(self, probability, seed):
        pipe = build_pipeline([RegisterStage(), PassThrough(), RegisterStage()])
        frame = byte_frame(list(range(20)))
        baseline, base_stats = run_frame(pipe, frame)
        stalled, stats = run_frame(pipe, frame, StallModel(probability, seed))
        assert stalled == baseline
        assert stats.total_cycles >= base_stats.total_cycles

    def test_stall_probability_validation(self):
        with pytest.raises(ValueError):
            StallModel(1.5)
        with pytest.raises(ValueError):
            StallModel(-0.1)

    def test_stuck_element_deadlocks(self):
        pipe = build_pipeline([NeverConsumes()])
        with pytest.raises(DeadlockError):
            run_frame(pipe, byte_frame([1, 2, 3]))

    def test_never_ready_sink_deadlocks(self):
        pipe = build_pipeline([PassThrough()])
        with pytest.raises(DeadlockError):
            run_frame(pipe, byte_frame([1, 2, 3]), StallModel(1.0, seed=0))

    def test_watchdog_is_configurable(self):
        pipe = build_pipeline([NeverConsumes()])
        with pytest.raises(DeadlockError) as err:
            run_frame(pipe, byte_frame([1] * 4), watchdog=5)
        assert "watchdog 5" in str(err.value)

    def test_watchdog_counts_moves_inside_the_pipeline(self):
        # nothing reaches the sink channel until the whole frame is in, but
        # a beat moves on the source channel every cycle until then
        pipe = build_pipeline([SumsFrame(), PassThrough()])
        beats, _ = run_frame(pipe, byte_frame([1] * 12), watchdog=2)
        assert beats == [Beat(12, True)]

    def test_channel_counts_match_the_frame(self):
        # the counts perfbench/tracing.py reads after a run, against numbers
        # fixed by the frame: every element takes and emits each beat once,
        # except the 4:1 packer, and every channel ends empty
        rng = random.Random(11)
        for variant in ("hdl", "hls"):
            for w, h, p in ((3, 3, 0.0), (5, 3, 0.4), (7, 6, 0.0), (6, 5, 0.7)):
                pipe = build_pipeline(edge_chain(variant, SobelConfig(w, h)))
                beats, _ = run_frame(pipe, rgb_frame(random_rgb(rng, w, h)),
                                     StallModel(p, seed=w * h))
                n = w * h
                assert len(beats) == -(-n // 4)
                assert pipe.source_channel.pushed == n
                accepts_emits = [(cin.popped, cout.pushed)
                                 for _, cin, cout in pipe.wiring]
                assert accepts_emits == [(n, n), (n, n), (n, len(beats))], (variant, w, h)
                for ch in pipe.channels:
                    assert len(ch) == 0 and ch.pushed == ch.popped

    def test_tick_patched_on_an_instance(self):
        # perfbench/tracing.py wraps tick on each element instance after
        # build_pipeline and later deletes the instance attribute
        pipe = build_pipeline(edge_chain("hdl", SobelConfig(5, 4)))
        core = pipe.elements[1]
        class_tick = core.tick
        calls = []

        def patched_tick(pin, pout):
            head = pin.head
            assert head is None or (isinstance(head, tuple) and len(head) == 2)
            assert type(pout.free) is bool
            calls.append(1)
            class_tick(pin, pout)

        core.tick = patched_tick
        frame = rgb_frame(random_rgb(random.Random(3), 5, 4))
        expected, base = run_frame(pipe, frame)
        for stalls in (StallModel(0.0), StallModel(0.5, seed=2)):
            calls.clear()
            beats, stats = run_frame(pipe, frame, stalls)
            assert len(calls) == stats.total_cycles + 1
            assert beats == expected
        del core.tick
        calls.clear()
        beats, stats = run_frame(pipe, frame)
        assert calls == [] and core.tick == class_tick
        assert (beats, stats) == (expected, base)

    def test_pipeline_object_is_reusable(self):
        pipe = build_pipeline([RegisterStage()])
        frame_a = byte_frame([1, 2, 3])
        frame_b = byte_frame([9, 8, 7, 6])
        beats_a, _ = run_frame(pipe, frame_a)
        beats_b, _ = run_frame(pipe, frame_b)
        assert [b.data for b in beats_a] == [1, 2, 3]
        assert [b.data for b in beats_b] == [9, 8, 7, 6]
