"""Cycle-driven simulation of handshaked streaming pipelines.

The model mirrors registered valid/ready hardware.  A Channel is a bounded
FIFO; at the start of every cycle it latches what its two endpoints may
observe (head beat for the consumer, free slot for the producer).  All
decisions in a cycle are made against those latched views, so the order in
which elements tick never matters and a transfer committed in cycle t is
first visible in cycle t+1.  With the default capacity of 2 a channel
behaves like a skid buffer: full throughput with registered ready, one
stall cycle absorbed without a bubble.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

PAYLOAD_WIDTHS = (8, 24, 32)


class Beat(NamedTuple):
    """One transfer on a stream: a payload word plus an end-of-frame flag.

    Elements hand each other (data, last) pairs, plain tuples or the shared
    8-bit Beats of BYTE_BEATS, so no hop runs the NamedTuple constructor;
    frames and the beats run_frame returns are Beats.
    """

    data: int
    last: bool = False


# Beat(data, last) without the Python-level NamedTuple.__new__:
# new_beat(Beat, (data, last))
new_beat = tuple.__new__

# BYTE_BEATS[last][data]: every 8-bit beat, built once and shared (beats are immutable)
BYTE_BEATS = tuple(tuple(new_beat(Beat, (d, last)) for d in range(256)) for last in (False, True))


class ProtocolError(RuntimeError):
    """An element broke the handshake contract (take from empty / put to full)."""


class WidthMismatchError(ValueError):
    """Adjacent elements in a pipeline disagree on payload width."""


class DeadlockError(RuntimeError):
    """No beat moved anywhere for longer than the watchdog allows."""


@dataclass(frozen=True)
class StallModel:
    """Sink-side ready behaviour.

    probability 0.0 means the sink is ready every cycle.  Otherwise one
    uniform draw per cycle from a private RNG seeded with `seed` deasserts
    ready with the given probability, so a run is reproducible from
    (probability, seed) alone.
    """

    probability: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("stall probability must be within [0, 1]")


NO_STALLS = StallModel()


class CycleStats(NamedTuple):
    """Timing summary of one frame through one pipeline.

    Cycle numbers are 0-based indices of scheduler cycles; total_cycles is
    the index of the cycle in which the sink accepted the last-flagged beat.
    """

    total_cycles: int
    first_output_cycle: int
    output_beats: int
    sink_stall_cycles: int


class Channel:
    """Bounded FIFO between two pipeline elements.

    Consumers use head/take, producers use free/put.  Both views are latched
    at the start of every cycle (by run_frame, or by begin_cycle() when a
    channel is driven by hand), and each side may act at most once per
    cycle; the latch is cleared as the action happens, which makes a double
    take or a put into an already-claimed slot a ProtocolError.
    """

    __slots__ = ("payload_width", "capacity", "_q", "head", "free", "moves")

    def __init__(self, payload_width: int, capacity: int = 2):
        if payload_width not in PAYLOAD_WIDTHS:
            raise ValueError(f"payload width must be one of {PAYLOAD_WIDTHS}")
        if capacity < 1:
            raise ValueError("channel capacity must be at least 1")
        self.payload_width = payload_width
        self.capacity = capacity
        self._q: list = []
        self.reset()

    def __len__(self):
        return len(self._q)

    def reset(self):
        """Empty the channel and zero its lifetime counter."""
        self._q.clear()
        self.head: Optional[Beat] = None  # latched consumer view
        self.free = True  # latched producer view
        self.moves = 0  # puts plus takes since the reset

    # a put adds a beat and a take removes one, so len(_q) == pushed - popped
    @property
    def pushed(self) -> int:
        """Beats put since the reset."""
        return (self.moves + len(self._q)) >> 1

    @property
    def popped(self) -> int:
        """Beats taken since the reset."""
        return (self.moves - len(self._q)) >> 1

    def begin_cycle(self):
        q = self._q
        self.head = q[0] if q else None
        self.free = len(q) < self.capacity

    # -- consumer side -------------------------------------------------
    def take(self) -> Beat:
        beat = self.head
        if beat is None:
            raise ProtocolError("take on a channel with no visible beat")
        self.head = None
        del self._q[0]
        self.moves += 1
        return beat

    # -- producer side -------------------------------------------------
    def put(self, beat: Beat):
        if not self.free:
            raise ProtocolError("put on a channel with no free slot")
        if beat[0] >> self.payload_width:  # nonzero for x < 0 and x >= 2**width
            raise ValueError(
                f"beat data {beat[0]:#x} exceeds {self.payload_width}-bit payload"
            )
        self.free = False
        self._q.append(beat)
        self.moves += 1


class ProcessingElement:
    """Base class for pipeline stages.

    Subclasses declare in_width/out_width and implement tick(pin, pout),
    which is called exactly once per cycle with the upstream and downstream
    channels.  A tick may take at most one beat and put at most one beat,
    judged against the cycle-start channel views.  reset() sets the power-on
    state; the constructor and every run_frame call it.
    stage_count is the number of register stages a beat may spend inside
    the element without any channel moving; run_frame's watchdog allows
    for it.
    """

    name = "pe"
    in_width: int = 8
    out_width: int = 8
    stage_count: int = 1

    def __init__(self):
        self.reset()

    def tick(self, pin: Channel, pout: Channel):
        raise NotImplementedError

    def reset(self):
        pass


class Pipeline:
    """A linear chain source -> elements -> sink with one channel per hop."""

    def __init__(self, elements, channels):
        self.elements = list(elements)
        self.channels = list(channels)
        self.source_channel = self.channels[0]
        self.sink_channel = self.channels[-1]
        self.wiring = list(zip(self.elements, self.channels[:-1], self.channels[1:]))
        self.stage_count = sum(pe.stage_count for pe in self.elements)

    def reset(self):
        for ch in self.channels:
            ch.reset()
        for pe in self.elements:
            pe.reset()


def build_pipeline(elements, channel_capacity: int = 2) -> Pipeline:
    """Wire elements into a linear pipeline, checking port widths agree."""
    elements = list(elements)
    if not elements:
        raise ValueError("a pipeline needs at least one element")
    for left, right in zip(elements, elements[1:]):
        if left.out_width != right.in_width:
            raise WidthMismatchError(
                f"{left.name} drives {left.out_width}-bit beats but "
                f"{right.name} expects {right.in_width}-bit beats"
            )
    channels = [Channel(elements[0].in_width, channel_capacity)]
    for pe in elements:
        channels.append(Channel(pe.out_width, channel_capacity))
    return Pipeline(elements, channels)


def _validate_frame(frame, payload_width: int):
    if not frame:
        raise ValueError("frame must contain at least one beat")
    final = len(frame) - 1
    early_last = False
    bad = None  # the message for the first payload out of range or not an integer
    # one pass; a range error still wins over a misplaced last flag.  The
    # index, not the beat, tells the final beat: a frame may repeat a Beat
    try:
        for i, (data, last) in enumerate(frame):
            try:
                if data >> payload_width:
                    bad = f"frame beat {data:#x} exceeds {payload_width}-bit payload"
                    break
            except TypeError:
                bad = f"frame beat {data!r} is not an integer"
                break
            if last and i != final:
                early_last = True
    except (TypeError, ValueError):  # frame[i] did not unpack into two
        raise ValueError(f"frame beat {frame[i]!r} is not a (data, last) pair") from None
    if bad is not None:
        raise ValueError(bad)
    if early_last:
        raise ValueError("last flag set before the final beat")
    if not frame[-1][1]:
        raise ValueError("final beat must carry the last flag")


def run_frame(pipeline: Pipeline, frame, stalls: StallModel = NO_STALLS,
              watchdog: Optional[int] = None):
    """Drive one frame through a pipeline and collect the sink's beats.

    The frame is offered beat by beat at the head channel; the sink pops
    whatever reaches the tail channel whenever the stall model leaves ready
    asserted.  Returns (received beats, CycleStats).  The pipeline is reset
    first, so the same object can run any number of frames.

    The run aborts with DeadlockError if no channel moves a beat for more
    than `watchdog` consecutive cycles (default: 10x the frame length plus
    the elements' stage_count, which a deep element needs to fill).  A
    cycle in which the sink drew a stall does not count toward that, as
    the run may still be making progress, unless the sink stalls always
    (probability 1.0).
    """
    pipeline.reset()
    _validate_frame(frame, pipeline.source_channel.payload_width)
    if watchdog is None:
        watchdog = 10 * len(frame) + pipeline.stage_count

    # bound after the reset, so that a tick patched onto an instance is seen
    ticks = [(pe.tick, cin, cout, cin._q, cin.capacity)
             for pe, cin, cout in pipeline.wiring]
    src = pipeline.source_channel
    snk = pipeline.sink_channel
    src_q = src._q
    snk_q = snk._q
    snk_capacity = snk.capacity
    probability = stalls.probability
    draw = random.Random(stalls.seed).random if probability > 0.0 else None
    stalls_always = probability == 1.0

    received = []
    receive = received.append
    frame_len = len(frame)
    src_idx = 0
    cycle = 0
    stall_cycles = 0
    stalled_at = -1  # the last cycle in which the sink drew a stall
    first_output = -1
    idle = 0
    prev_moves = 0
    done = False  # set once, by the beat that ends the run

    # the channels are empty after the reset, and so latched for cycle 0.
    # A channel is latched for the next cycle once its consumer has acted:
    # its producer acted before, and nothing later in the cycle reads it
    while True:
        # the frame was range-checked against this channel's width above
        if src_idx < frame_len and src.free:
            src_q.append(frame[src_idx])
            src.moves += 1
            src_idx += 1

        moves = 0
        for tick, cin, cout, q, capacity in ticks:
            tick(cin, cout)
            cin.head = q[0] if q else None
            cin.free = len(q) < capacity
            moves += cin.moves

        if draw is not None and draw() < probability:
            stall_cycles += 1
            stalled_at = cycle
        elif snk.head is not None:
            beat = snk.head
            if type(beat) is not Beat:  # a plain pair from an element
                beat = new_beat(Beat, beat)
            del snk_q[0]
            snk.moves += 1
            receive(beat)
            if first_output < 0:
                first_output = cycle
            done = beat[1]
        snk.head = snk_q[0] if snk_q else None
        snk.free = len(snk_q) < snk_capacity
        moves += snk.moves

        if moves != prev_moves:
            idle = 0
            prev_moves = moves
        elif stalled_at != cycle or stalls_always:
            idle += 1
            if idle > watchdog:
                raise DeadlockError(
                    f"no beat moved for {idle} cycles (watchdog {watchdog}, "
                    f"cycle {cycle}, {len(received)} beats received)"
                )

        if done:
            break
        cycle += 1

    # CycleStats(*stats) without the Python-level NamedTuple.__new__
    stats = (cycle, first_output, len(received), stall_cycles)
    return received, tuple.__new__(CycleStats, stats)
