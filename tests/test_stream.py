"""Scheduler and channel semantics.

Latency constants here were hand-traced against the registered-ready model:
a transfer committed in cycle t is visible in cycle t+1, so a bare hop
through a combinational element costs one cycle of visibility and each
register stage adds one more.  Cycle numbers in CycleStats are the 0-based
scheduler cycles in which the sink accepted a beat.
"""

import collections
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_gray, random_rgb
from sobelsim import stream
from sobelsim import (
    Beat,
    Channel,
    CycleStats,
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
    """Swallow a whole frame, one beat every 16 cycles at most, and emit one
    beat: the low byte of its sum."""

    name = "sum"

    def reset(self):
        self._acc = 0
        self._wait = 0

    def tick(self, pin, pout):
        self._wait += 1
        if self._wait >= 16 and pin.head is not None and pout.free:
            self._wait = 0
            data, last = pin.take()
            self._acc += data
            if last:
                pout.put(Beat(self._acc & 0xFF, True))


class NeverConsumes(ProcessingElement):
    name = "stuck"

    def tick(self, pin, pout):
        pass


def byte_frame(values):
    return list(values)


def beats_of(values):
    """The Beats a lossless pipeline returns for a frame of these payloads."""
    return [Beat(v, i == len(values) - 1) for i, v in enumerate(values)]


class TestChannel:
    def test_width_and_capacity_validation(self):
        with pytest.raises(ValueError):
            Channel(16)
        with pytest.raises(ValueError, match="^channel capacity must be at least 1$"):
            Channel(8, capacity=0)

    @pytest.mark.parametrize("width", [8.0, 24.0, "8", None])
    def test_width_that_is_not_an_integer_rejected(self, width):
        # 8.0 == 8, so a membership test alone would accept Channel(8.0)
        with pytest.raises(ValueError, match=r"payload width must be one of \(8, 24, 32\)"):
            Channel(width)

    def test_element_width_that_is_not_an_integer_is_blamed(self):
        # the element's width is blamed, before any frame is offered
        pe = PassThrough()
        pe.in_width = 8.0
        with pytest.raises(ValueError, match=r"payload width must be one of \(8, 24, 32\)"):
            build_pipeline([pe])

    @pytest.mark.parametrize("capacity", [1.5, 2.0, "2"])
    def test_capacity_that_is_not_an_integer_rejected(self, capacity):
        with pytest.raises(ValueError, match="channel capacity must be an integer"):
            Channel(8, capacity)
        with pytest.raises(ValueError, match="channel capacity must be an integer"):
            build_pipeline([PassThrough()], channel_capacity=capacity)

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

    @pytest.mark.parametrize("beat", [(1.5, False), (None, True), 5, ()])
    def test_beat_that_is_not_a_pair_of_integer_data_rejected(self, beat):
        ch = Channel(8)
        ch.begin_cycle()
        with pytest.raises(ValueError, match=rf"beat {re.escape(repr(beat))} is not a "
                                             r"\(data, last\) pair with integer data"):
            ch.put(beat)
        assert (ch.free, len(ch), ch.moves) == (True, 0, 0)

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
        assert pipe.channels[0].payload_width == 24
        assert pipe.channels[-1].payload_width == 8


class TestRunFrame:
    def test_identity_preserves_beats(self):
        frame = byte_frame(list(range(10)))
        beats, stats = run_frame(build_pipeline([PassThrough()]), frame)
        assert beats == beats_of(frame)
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
        with pytest.raises(ValueError, match="frame must contain at least one beat"):
            run_frame(pipe, [])
        with pytest.raises(ValueError, match="frame must contain at least one beat"):
            run_frame(pipe, b"")
        # a frame with no length is refused before anything reads it, and a
        # set or a dict is not read by iteration, nor a dict by its keys; a
        # deque, which has no slice, is refused with them
        for frame, kind in [(5, "int"), (None, "NoneType"), (iter([1, 2]), "list_iterator"),
                            ({1, 2}, "set"), ({0: 0x1FF, 1: 2}, "dict"),
                            (collections.deque([1, 2]), "deque")]:
            with pytest.raises(ValueError,
                               match=f"^frame must be a sequence of payload integers, not {kind}$"):
                run_frame(pipe, frame)
        with pytest.raises(ValueError, match="frame beat 0x12c exceeds 8-bit payload"):
            run_frame(pipe, [300])
        with pytest.raises(ValueError, match="frame beat -0x1 exceeds 8-bit payload"):
            run_frame(pipe, [1, -1, 2])
        # the first bad payload in frame order is named
        with pytest.raises(ValueError, match="frame beat 0x12c exceeds 8-bit payload"):
            run_frame(pipe, [300, 1.5])
        with pytest.raises(ValueError, match="frame beat 1.5 is not an integer"):
            run_frame(pipe, [1.5, 300])

    @pytest.mark.parametrize("data", [1.5, 2.0, "1", None])
    def test_non_integer_payload_rejected(self, data):
        pipe = build_pipeline([PassThrough()])
        with pytest.raises(ValueError, match=rf"frame beat {re.escape(repr(data))} is not an integer"):
            run_frame(pipe, [1, data])

    @pytest.mark.parametrize("beat", [(1, True), Beat(1, True)])
    def test_frame_of_beats_rejected(self, beat):
        # a frame holds payloads; the source, not the frame, raises last
        pipe = build_pipeline([PassThrough()])
        with pytest.raises(ValueError, match=rf"frame beat {re.escape(repr(beat))} is not an integer"):
            run_frame(pipe, [beat])

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=40),
           st.lists(st.booleans(), min_size=1, max_size=4),
           st.integers(1, 3), st.floats(0.0, 0.9), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_source_raises_last_on_the_final_beat(self, values, registers, capacity,
                                                  probability, seed):
        elements = [RegisterStage() if r else PassThrough() for r in registers]
        pipe = build_pipeline(elements, capacity)
        beats, _ = run_frame(pipe, values, StallModel(probability, seed))
        assert beats == beats_of(values)
        assert all(type(b) is Beat and type(b.last) is bool for b in beats)
        assert all(len(ch) == 0 for ch in pipe.channels)

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
        check(run_frame(build_pipeline([PassThrough()]), [3, 4])[0], [3, 4], True)

    def test_gray_frame_beats(self):
        image = random_gray(random.Random(9), 4, 3)
        frame = gray_frame(image)
        assert type(frame) is bytes and frame == bytes(image.pixels)

    @pytest.mark.parametrize("variant", ["hdl", "hls"])
    def test_core_fed_a_gray_frame_returns_beats(self, variant):
        image = random_gray(random.Random(9), 4, 3)
        pipe = build_pipeline([sobel_pe(variant, SobelConfig(4, 3))])
        beats, _ = run_frame(pipe, gray_frame(image))
        assert [b.data for b in beats] == sobel_frame_reference(image).pixels
        assert {type(b) for b in beats} == {Beat}

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

    @pytest.mark.parametrize("probability", ["0.5", None, 1j])
    def test_stall_probability_must_be_a_real_number(self, probability):
        message = rf"stall probability must be a real number, got {re.escape(repr(probability))}"
        with pytest.raises(ValueError, match=message):
            StallModel(probability)

    @pytest.mark.parametrize("seed", [[1], None, 1.5, "7"])
    def test_stall_seed_must_be_an_integer(self, seed):
        # None would seed from the OS, and a list fails only inside run_frame
        message = rf"stall seed must be an integer, got {re.escape(repr(seed))}"
        with pytest.raises(ValueError, match=message):
            StallModel(0.5, seed)

    def test_stuck_element_deadlocks(self):
        pipe = build_pipeline([NeverConsumes()])
        with pytest.raises(DeadlockError):
            run_frame(pipe, byte_frame([1, 2, 3]))

    def test_never_ready_sink_deadlocks(self):
        pipe = build_pipeline([PassThrough()])
        with pytest.raises(DeadlockError):
            run_frame(pipe, byte_frame([1, 2, 3]), StallModel(1.0, seed=0))

    def test_watchdog_counts_moves_inside_the_pipeline(self):
        # nothing reaches the sink channel until the whole frame is in, about
        # 16 x 12 = 192 cycles, past the watchdog's 10 x 12 + 2 = 122; but a
        # beat moves on the source channel every 16 cycles until then
        pipe = build_pipeline([SumsFrame(), PassThrough()])
        beats, stats = run_frame(pipe, byte_frame([1] * 12))
        assert beats == [Beat(12, True)]
        assert stats.total_cycles > 10 * 12 + pipe.stage_count

    def test_always_stalled_sink_is_refused_before_cycle_0(self):
        # a draw is always below 1.0, so such a sink never takes a beat
        pipe = build_pipeline([PassThrough()])
        for probability in (1.0, 1):
            message = rf"the sink stalls in every cycle \(stall probability {probability}\)"
            with pytest.raises(DeadlockError, match=message):
                run_frame(pipe, byte_frame([1, 2, 3]), StallModel(probability, seed=4))
            assert pipe.channels[0].pushed == 0

    def test_bad_frame_is_named_before_the_always_stalled_sink(self):
        pipe = build_pipeline([PassThrough()])
        with pytest.raises(ValueError, match="frame beat 0x100 exceeds 8-bit payload"):
            run_frame(pipe, [1, 256, 3], StallModel(1.0))
        with pytest.raises(ValueError, match="frame must contain at least one beat"):
            run_frame(pipe, [], StallModel(1.0))

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
                assert pipe.channels[0].pushed == n
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


LOOP_FRAME = byte_frame([(37 * i + 5) % 256 for i in range(9)])


class TestCycleLoops:
    """run_frame's loop is compiled per element count; these pin its results
    for 1 to 6 elements, with the values the generic loop it replaced gave."""

    # (elements, RegisterStage bit mask (bit i: element i), stall probability,
    # stall seed, CycleStats)
    RUNS = [
        (1, 0b0, 0.0, 0, (10, 2, 9, 0)),
        (1, 0b0, 0.5, 1, (21, 2, 9, 12)),
        (1, 0b1, 0.0, 0, (11, 3, 9, 0)),
        (1, 0b1, 0.5, 1, (22, 6, 9, 12)),
        (2, 0b00, 0.0, 0, (11, 3, 9, 0)),
        (2, 0b00, 0.5, 2, (16, 4, 9, 6)),
        (2, 0b01, 0.0, 0, (12, 4, 9, 0)),
        (2, 0b01, 0.5, 2, (16, 4, 9, 6)),
        (2, 0b11, 0.0, 0, (13, 5, 9, 0)),
        (2, 0b11, 0.5, 2, (17, 5, 9, 6)),
        (3, 0b000, 0.0, 0, (12, 4, 9, 0)),
        (3, 0b000, 0.5, 3, (19, 4, 9, 9)),
        (3, 0b101, 0.0, 0, (14, 6, 9, 0)),
        (3, 0b101, 0.5, 3, (20, 7, 9, 9)),
        (3, 0b111, 0.0, 0, (15, 7, 9, 0)),
        (3, 0b111, 0.5, 3, (20, 7, 9, 9)),
        (4, 0b0000, 0.0, 0, (13, 5, 9, 0)),
        (4, 0b0000, 0.5, 4, (21, 6, 9, 13)),
        (4, 0b0101, 0.0, 0, (15, 7, 9, 0)),
        (4, 0b0101, 0.5, 4, (22, 7, 9, 13)),
        (4, 0b1111, 0.0, 0, (17, 9, 9, 0)),
        (4, 0b1111, 0.5, 4, (24, 10, 9, 13)),
        (5, 0b00000, 0.0, 0, (14, 6, 9, 0)),
        (5, 0b00000, 0.5, 5, (24, 8, 9, 10)),
        (5, 0b10101, 0.0, 0, (17, 9, 9, 0)),
        (5, 0b10101, 0.5, 5, (27, 9, 9, 12)),
        (5, 0b11111, 0.0, 0, (19, 11, 9, 0)),
        (5, 0b11111, 0.5, 5, (31, 14, 9, 14)),
        (6, 0b000000, 0.0, 0, (15, 7, 9, 0)),
        (6, 0b000000, 0.5, 6, (20, 7, 9, 9)),
        (6, 0b010101, 0.0, 0, (18, 10, 9, 0)),
        (6, 0b010101, 0.5, 6, (22, 11, 9, 9)),
        (6, 0b111111, 0.0, 0, (21, 13, 9, 0)),
        (6, 0b111111, 0.5, 6, (26, 14, 9, 11)),
    ]
    # (elements, position of the NeverConsumes among PassThroughs, message)
    DEADLOCKS = [
        (1, 0, 'no beat moved for 92 cycles (watchdog 91, cycle 93, 0 beats received)'),
        (2, 0, 'no beat moved for 93 cycles (watchdog 92, cycle 94, 0 beats received)'),
        (2, 1, 'no beat moved for 93 cycles (watchdog 92, cycle 96, 0 beats received)'),
        (3, 0, 'no beat moved for 94 cycles (watchdog 93, cycle 95, 0 beats received)'),
        (3, 1, 'no beat moved for 94 cycles (watchdog 93, cycle 97, 0 beats received)'),
        (3, 2, 'no beat moved for 94 cycles (watchdog 93, cycle 99, 0 beats received)'),
        (4, 0, 'no beat moved for 95 cycles (watchdog 94, cycle 96, 0 beats received)'),
        (4, 1, 'no beat moved for 95 cycles (watchdog 94, cycle 98, 0 beats received)'),
        (4, 2, 'no beat moved for 95 cycles (watchdog 94, cycle 100, 0 beats received)'),
        (4, 3, 'no beat moved for 95 cycles (watchdog 94, cycle 102, 0 beats received)'),
        (5, 0, 'no beat moved for 96 cycles (watchdog 95, cycle 97, 0 beats received)'),
        (5, 1, 'no beat moved for 96 cycles (watchdog 95, cycle 99, 0 beats received)'),
        (5, 2, 'no beat moved for 96 cycles (watchdog 95, cycle 101, 0 beats received)'),
        (5, 3, 'no beat moved for 96 cycles (watchdog 95, cycle 103, 0 beats received)'),
        (5, 4, 'no beat moved for 96 cycles (watchdog 95, cycle 104, 0 beats received)'),
        (6, 0, 'no beat moved for 97 cycles (watchdog 96, cycle 98, 0 beats received)'),
        (6, 1, 'no beat moved for 97 cycles (watchdog 96, cycle 100, 0 beats received)'),
        (6, 2, 'no beat moved for 97 cycles (watchdog 96, cycle 102, 0 beats received)'),
        (6, 3, 'no beat moved for 97 cycles (watchdog 96, cycle 104, 0 beats received)'),
        (6, 4, 'no beat moved for 97 cycles (watchdog 96, cycle 105, 0 beats received)'),
        (6, 5, 'no beat moved for 97 cycles (watchdog 96, cycle 106, 0 beats received)'),
    ]

    # the same at channel capacity 1, with the values the loop gave while the
    # sink still acted last in each cycle: the last element must see the
    # sink channel's cycle-start slot, not the one the sink frees
    CAPACITY_ONE_RUNS = [
        (1, 0b0, 0.0, 0, (18, 2, 9, 0)),
        (1, 0b0, 0.5, 1, (38, 2, 9, 25)),
        (1, 0b1, 0.0, 0, (19, 3, 9, 0)),
        (1, 0b1, 0.5, 1, (40, 6, 9, 26)),
        (2, 0b00, 0.0, 0, (19, 3, 9, 0)),
        (2, 0b00, 0.5, 2, (32, 4, 9, 17)),
        (2, 0b01, 0.0, 0, (20, 4, 9, 0)),
        (2, 0b01, 0.5, 2, (32, 4, 9, 17)),
        (2, 0b11, 0.0, 0, (21, 5, 9, 0)),
        (2, 0b11, 0.5, 2, (34, 5, 9, 17)),
        (3, 0b000, 0.0, 0, (20, 4, 9, 0)),
        (3, 0b000, 0.5, 3, (22, 4, 9, 10)),
        (3, 0b101, 0.0, 0, (22, 6, 9, 0)),
        (3, 0b101, 0.5, 3, (26, 7, 9, 12)),
        (3, 0b111, 0.0, 0, (23, 7, 9, 0)),
        (3, 0b111, 0.5, 3, (26, 7, 9, 12)),
    ]

    @pytest.mark.parametrize("n, mask, probability, seed, expected", RUNS)
    def test_results_match_the_generic_loop(self, n, mask, probability, seed, expected):
        self.check_run(n, mask, probability, seed, expected, capacity=2)

    @pytest.mark.parametrize("n, mask, probability, seed, expected", CAPACITY_ONE_RUNS)
    def test_capacity_one_results_match(self, n, mask, probability, seed, expected):
        self.check_run(n, mask, probability, seed, expected, capacity=1)

    @staticmethod
    def check_run(n, mask, probability, seed, expected, capacity):
        elements = [RegisterStage() if mask >> i & 1 else PassThrough() for i in range(n)]
        pipe = build_pipeline(elements, capacity)
        patched = elements[n // 2]
        class_tick = patched.tick
        calls = []

        def counted_tick(pin, pout):
            calls.append(1)
            class_tick(pin, pout)

        patched.tick = counted_tick
        beats, stats = run_frame(pipe, LOOP_FRAME, StallModel(probability, seed))
        assert beats == beats_of(LOOP_FRAME) and all(type(b) is Beat for b in beats)
        assert stats == CycleStats(*expected)
        assert len(calls) == stats.total_cycles + 1
        assert [(ch.pushed, ch.popped, len(ch)) for ch in pipe.channels] == [(9, 9, 0)] * (n + 1)

    @pytest.mark.parametrize("n, position, message", DEADLOCKS)
    def test_deadlock_text_matches_the_generic_loop(self, n, position, message):
        elements = [PassThrough() for _ in range(n)]
        elements[position] = NeverConsumes()
        with pytest.raises(DeadlockError) as err:
            run_frame(build_pipeline(elements), LOOP_FRAME)
        assert str(err.value) == message

    def test_a_loop_is_compiled_once_when_its_first_pipeline_is_built(self):
        n = 23  # an element count no other test builds
        info = stream._cycle_loop.cache_info
        misses = info().misses
        pipe = build_pipeline([PassThrough() for _ in range(n)])
        assert info().misses == misses + 1
        run_frame(pipe, LOOP_FRAME)
        assert info().misses == misses + 1
        build_pipeline([RegisterStage() for _ in range(n)])  # a second of that length
        assert info().misses == misses + 1

    def test_traceback_names_the_loop(self):
        class Fails(PassThrough):
            def tick(self, pin, pout):
                raise KeyError("from a tick")

        with pytest.raises(KeyError) as err:
            run_frame(build_pipeline([PassThrough(), Fails(), PassThrough()]), LOOP_FRAME)
        entry = err.traceback[-2]
        assert str(entry.path) == "<run_frame loop: 3 elements>"
        assert str(entry.statement).strip() == "tick1(c1, c2)"
