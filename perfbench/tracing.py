"""Span tracing installed from outside the program, for the traced run only.

`Tracer.install` replaces the names that callers look up (module attributes
such as ``sobelsim.cli.read_bmp``) with wrappers that time each call.  The
wrapper around ``build_pipeline`` also wraps ``tick`` and ``reset`` on the
instances inside each pipeline it returns.  `Tracer.uninstall` removes every
wrapper again.

A span's self time is its duration minus the time of the spans it called,
so the self times of all spans add up to the time spent inside top-level
spans; the rest of a traced pass is `trace.unattributed_s`.
"""

from __future__ import annotations

import time
from collections import defaultdict

PE_NAMES = ("rgb2gray", "sobel_hdl", "sobel_hls", "u8_to_u32")

# (module, attribute, span) for every module-level name that gets wrapped
MODULE_SPANS = (
    ("cli", "main", "cli"),
    ("cli", "read_bmp", "image_io.read_bmp"),
    ("cli", "write_bmp", "image_io.write_bmp"),
    ("cli", "gray_to_rgb", "image_io.gray_to_rgb"),
    ("metrics", "hamming_distance", "image_io.hamming_distance"),
    ("cli", "rgb_frame", "blocks.rgb_frame"),
    ("cli", "unpack_words", "blocks.unpack_words"),
    ("blocks", "gray_frame", "blocks.gray_frame"),
    ("cli", "build_pipeline", "stream.build_pipeline"),
    ("stream", "build_pipeline", "stream.build_pipeline"),
    ("cli", "run_frame", "stream.run_frame"),
    ("stream", "run_frame", "stream.run_frame"),
    ("oracle", "sobel_frame_reference", "oracle.sobel_frame_reference"),
    ("cli", "build_report", "metrics.build_report"),
    ("cli", "serialize_report", "metrics.serialize_report"),
)

# per-layer metric -> span whose self time it reports; with the element
# ticks they cover every span the tracer records
SELF_TIME_METRICS = {
    "cli.self_s": "cli",
    "image_io.read_bmp_s": "image_io.read_bmp",
    "image_io.write_bmp_s": "image_io.write_bmp",
    "image_io.gray_to_rgb_s": "image_io.gray_to_rgb",
    "image_io.hamming_distance_s": "image_io.hamming_distance",
    "blocks.rgb_frame_s": "blocks.rgb_frame",
    "blocks.unpack_words_s": "blocks.unpack_words",
    "blocks.gray_frame_s": "blocks.gray_frame",
    "stream.build_pipeline_s": "stream.build_pipeline",
    "stream.scheduler_self_s": "stream.run_frame",
    "stream.reset_s": "stream.reset",
    "oracle.sobel_frame_reference_s": "oracle.sobel_frame_reference",
    "metrics.build_report_s": "metrics.build_report",
    "metrics.serialize_report_s": "metrics.serialize_report",
}
for _pe in PE_NAMES:
    SELF_TIME_METRICS[f"blocks.{_pe}.reset_s"] = f"blocks.{_pe}.reset"


class Tracer:
    """Collects span times and per-element counters while installed."""

    def __init__(self):
        # _stack[-1] accumulates the time of spans called by the open span;
        # _stack[0] therefore sums every top-level span
        self._stack = [0.0]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        # per element name: [ticks, starved, blocked, accepts, emits, tick seconds]
        self.pe_counts = defaultdict(lambda: [0, 0, 0, 0, 0, 0.0])
        self.cycles = 0
        self.sink_stall_cycles = 0
        self.run_frame_calls = 0
        self._module_patches = []
        self._instance_patches = []

    @property
    def top_level_s(self) -> float:
        return self._stack[0]

    # -- wrappers -------------------------------------------------------
    def _span(self, name, fn, after=None):
        stack = self._stack
        total = self.total
        self_time = self.self_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                total[name] += dt
                self_time[name] += dt - child
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def _tick(self, name, tick):
        # a leaf span with its own counters, kept lean because it runs once
        # per element per simulated cycle
        stack = self._stack
        counts = self.pe_counts[name]
        clock = time.perf_counter

        def traced_tick(pin, pout):
            if pin.head is None:
                counts[1] += 1
            if not pout.free:
                counts[2] += 1
            t0 = clock()
            tick(pin, pout)
            dt = clock() - t0
            stack[-1] += dt
            counts[0] += 1
            counts[5] += dt

        return traced_tick

    def _patch_instance(self, obj, attr, wrapper):
        setattr(obj, attr, wrapper)
        self._instance_patches.append((obj, attr))

    def _instrument(self, pipeline, args, kwargs):
        self._patch_instance(pipeline, "reset",
                             self._span("stream.reset", pipeline.reset))
        for pe in pipeline.elements:
            self._patch_instance(pe, "tick", self._tick(pe.name, pe.tick))
            self._patch_instance(pe, "reset",
                                 self._span(f"blocks.{pe.name}.reset", pe.reset))

    def _count_run(self, result, args, kwargs):
        pipeline = args[0] if args else kwargs["pipeline"]
        stats = result[1]
        self.cycles += stats.total_cycles + 1
        self.sink_stall_cycles += stats.sink_stall_cycles
        self.run_frame_calls += 1
        # channels are cleared when a run starts, so their lifetime
        # counters are this run's accepts and emits
        for pe, cin, cout in pipeline.wiring:
            counts = self.pe_counts[pe.name]
            counts[3] += cin.popped
            counts[4] += cout.pushed

    # -- install / uninstall -------------------------------------------
    def install(self, program):
        hooks = {"stream.build_pipeline": self._instrument,
                 "stream.run_frame": self._count_run}
        for module_name, attr, span in MODULE_SPANS:
            module = getattr(program, module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._span(span, original, hooks.get(span)))
            self._module_patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._module_patches):
            setattr(module, attr, original)
        self._module_patches.clear()
        for obj, attr in self._instance_patches:
            # the instance attribute shadowed the class method; dropping it
            # restores the untraced lookup
            delattr(obj, attr)
        self._instance_patches.clear()


def layer_metrics(tracer: Tracer, passes: int, traced_wall_s: float,
                  untraced_wall_s: float) -> dict:
    """Per-pass layer metrics of `passes` traced passes taking `traced_wall_s`
    on average, against untraced passes taking `untraced_wall_s` on average."""
    metrics = {name: tracer.self_time[span] / passes
               for name, span in SELF_TIME_METRICS.items()}
    for pe in PE_NAMES:
        metrics[f"blocks.{pe}.tick_s"] = tracer.pe_counts[pe][5] / passes
    attributed = sum(metrics.values())
    if abs(attributed - tracer.top_level_s / passes) > 1e-6 * max(1.0, attributed):
        raise RuntimeError("a traced span is missing from the per-layer self times")
    metrics["trace.unattributed_s"] = traced_wall_s - attributed
    metrics["trace.wall_s"] = traced_wall_s
    metrics["trace.overhead_s"] = traced_wall_s - untraced_wall_s

    run_frame_s = tracer.total["stream.run_frame"] / passes
    cycles = tracer.cycles // passes
    metrics["stream.run_frame_s"] = run_frame_s
    metrics["stream.cycles"] = cycles
    metrics["stream.ns_per_cycle"] = run_frame_s / cycles * 1e9 if cycles else 0.0
    metrics["stream.sink_stall_cycles"] = tracer.sink_stall_cycles // passes
    metrics["stream.run_frame_calls"] = tracer.run_frame_calls // passes
    for pe in PE_NAMES:
        ticks, starved, blocked, accepts, emits, _ = tracer.pe_counts[pe]
        metrics[f"blocks.{pe}.ticks"] = ticks // passes
        metrics[f"blocks.{pe}.starved"] = starved // passes
        metrics[f"blocks.{pe}.blocked"] = blocked // passes
        metrics[f"blocks.{pe}.accepts"] = accepts // passes
        metrics[f"blocks.{pe}.emits"] = emits // passes
    return metrics
