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

import functools
import linecache
import random
from dataclasses import dataclass
from string import Template
from typing import NamedTuple, Optional

PAYLOAD_WIDTHS = (8, 24, 32)


class Beat(NamedTuple):
    """One transfer on a stream: a payload word plus an end-of-frame flag.

    Elements hand each other (data, last) pairs, plain tuples or the shared
    8-bit Beats of BYTE_BEATS, so no hop runs the NamedTuple constructor.
    A frame holds payloads only; the beats run_frame returns are Beats.
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
    """No beat moved for longer than the watchdog allows, or the sink never takes one."""


def int_value(value, what: str, floor=None):
    """value; ValueError naming what unless it is an int, and at least floor when given."""
    if not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if floor is not None and value < floor:
        raise ValueError(f"{what} must be at least {floor}")
    return value


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
        try:
            in_range = 0.0 <= self.probability <= 1.0
        except TypeError:
            raise ValueError(f"stall probability must be a real number, "
                             f"got {self.probability!r}") from None
        if not in_range:
            raise ValueError("stall probability must be within [0, 1]")
        int_value(self.seed, "stall seed")  # None would seed from the OS


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
    take or a put into an already-claimed slot a ProtocolError.  run_frame's
    sink reads its queue before anything else acts, so the sink channel's
    head stays None.

    The built-in elements of blocks hand beats over in place, without a call
    per beat, and keep every check: a put tests free first, then clears free,
    appends to _q and counts the move; a take tests head first, then clears
    head, deletes _q[0] and counts the move.  Only an element whose data can
    exceed 8 bits, the word packer, also calls put() for a beat whose data
    exceeds payload_width, so that put raises the width error; the others
    emit bytes, which fit every payload width.  put() and take() remain the
    API for every other element.
    """

    __slots__ = ("payload_width", "capacity", "_q", "head", "free", "moves")

    def __init__(self, payload_width: int, capacity: int = 2):
        if not isinstance(payload_width, int) or payload_width not in PAYLOAD_WIDTHS:
            raise ValueError(f"payload width must be one of {PAYLOAD_WIDTHS}")
        self.payload_width = payload_width
        self.capacity = int_value(capacity, "channel capacity", 1)
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
        try:
            if beat[0] >> self.payload_width:  # nonzero for x < 0 and x >= 2**width
                raise ValueError(
                    f"beat data {beat[0]:#x} exceeds {self.payload_width}-bit payload"
                )
        except (TypeError, LookupError):
            raise ValueError(f"beat {beat!r} is not a (data, last) pair "
                             f"with integer data") from None
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
        self.elements = elements = list(elements)
        self.channels = channels = list(channels)
        self.wiring = list(zip(elements, channels[:-1], channels[1:]))  # for perfbench/tracing.py
        self.stage_count = sum(pe.stage_count for pe in elements)
        _cycle_loop(len(elements))  # compiled here, so a forked worker inherits it

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
    try:  # 5, None or an iterator, which the loop below would consume, has no
        frame[:0]  # length; a set, a dict or a deque no slice (a dict's is a KeyError from 3.12 on)
        count = len(frame)
    except (TypeError, LookupError):
        kind = type(frame).__name__
        raise ValueError(f"frame must be a sequence of payload integers, not {kind}") from None
    if not count:
        raise ValueError("frame must contain at least one beat")
    if type(frame) is bytes:  # every byte fits every payload width
        return
    for data in frame:  # the first bad payload in frame order is named
        try:
            if data >> payload_width:  # nonzero for x < 0 and x >= 2**width
                raise ValueError(f"frame beat {data:#x} exceeds {payload_width}-bit payload")
        except TypeError:
            raise ValueError(f"frame beat {data!r} is not an integer") from None


# run_frame's cycle loop for n elements.  _cycle_loop puts one _ELEMENT per
# element i at $elements: element i ticks from channel c{i} into c{i+1}
_CYCLE_LOOP = Template("""\
def cycle_loop(frame, watchdog, probability, draw, $ticks, $channels):
    $queues, $capacities = $channel_queues, $channel_capacities
    src, src_q, snk, snk_q, snk_capacity = c0, q0, c$n, q$n, capacity$n

    received = []
    receive = received.append
    final = len(frame) - 1
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
    # its producer acted before, and nothing later in the cycle reads it.
    # The sink acts first, while its queue is still the cycle-start view,
    # so the sink channel latches only free, for the last element
    while True:
        snk.free = len(snk_q) < snk_capacity
        if draw is not None and draw() < probability:
            stall_cycles += 1
            stalled_at = cycle
        elif snk_q:
            beat = snk_q[0]
            if type(beat) is not Beat:  # a plain pair from an element
                beat = new_beat(Beat, beat)
            del snk_q[0]
            snk.moves += 1
            receive(beat)
            if first_output < 0:
                first_output = cycle
            done = beat[1]

        # run_frame range-checked the frame against this channel's width.
        # The source raises last on the final beat, as a DMA engine does
        if src_idx <= final and src.free:
            src_q.append((frame[src_idx], src_idx == final))
            src.moves += 1
            src_idx += 1

$elements
        moves = $moves

        if moves != prev_moves:
            idle = 0
            prev_moves = moves
        elif stalled_at != cycle:
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
    return received, tuple.__new__(CycleStats, (cycle, first_output, len(received), stall_cycles))
""")
_ELEMENT = Template("""\
        tick$i(c$i, c$j)
        c$i.head = q$i[0] if q$i else None
        c$i.free = len(q$i) < capacity$i
""")


@functools.cache
def _cycle_loop(n: int):
    """run_frame's cycle loop for n elements, compiled on the first call for n."""
    def names(pattern, count=n + 1, sep=", "):
        return sep.join(pattern.format(i) for i in range(count))

    source = _CYCLE_LOOP.substitute(
        n=n, ticks=names("tick{}", n), channels=names("c{}"), queues=names("q{}"),
        capacities=names("capacity{}"), channel_queues=names("c{}._q"),
        channel_capacities=names("c{}.capacity"), moves=names("c{}.moves", sep=" + "),
        elements="".join(_ELEMENT.substitute(i=i, j=i + 1) for i in range(n)))
    filename = f"<run_frame loop: {n} elements>"
    # in linecache, so that a traceback through the loop shows its lines
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace["cycle_loop"]


def run_frame(pipeline: Pipeline, frame, stalls: StallModel = NO_STALLS):
    """Drive one frame through a pipeline and collect the sink's beats.

    The frame is a sequence of payload integers, such as a list or bytes.
    The source offers it beat by beat at the head channel and raises last
    on the final beat; the sink pops whatever reaches the tail channel
    whenever the stall model leaves ready asserted.  Returns (received
    beats, CycleStats).  The pipeline is reset first, so the same object
    can run any number of frames.

    A sink with stall probability 1.0 never takes a beat, so the run is
    refused with DeadlockError before its first cycle.  Otherwise the run
    aborts with DeadlockError if no channel moves a beat for more than 10x
    the frame length plus the elements' stage_count consecutive cycles (a
    deep element needs stage_count cycles to fill).  A cycle in which the
    sink drew a stall does not count toward that, as the run may still be
    making progress.
    """
    pipeline.reset()
    _validate_frame(frame, pipeline.channels[0].payload_width)
    probability = stalls.probability
    if probability == 1.0:
        raise DeadlockError(f"the sink stalls in every cycle (stall probability {probability})")

    # bound after the reset, so that a tick patched onto an instance is seen
    ticks = [pe.tick for pe in pipeline.elements]
    draw = random.Random(stalls.seed).random if probability > 0.0 else None
    return _cycle_loop(len(ticks))(
        frame, 10 * len(frame) + pipeline.stage_count, probability, draw,
        *ticks, *pipeline.channels)
