"""Acceptance suite: one test per shipped guarantee.

Each test prints exactly one verdict line, "ACCEPTANCE n: PASS - ..." or
"ACCEPTANCE n: FAIL - ...", so a plain `pytest tests/test_acceptance.py -s`
reads as a checklist.  Tolerances are stated inline; cycle-count goldens
were frozen from the first derivation run and must never drift.

One scope note: criterion 1 asks for exhaustive coverage of tiny frames
over the alphabet {0, 128, 255}.  Exhaustive 3x3 (3^9 = 19,683 frames) is
run as stated.  Exhaustive 4x4 would be 3^16 = 43,046,721 frames, measured
at roughly 2.6 hours against the criterion's 30 second budget, so the 4x4
leg draws a large seeded sample from the same alphabet instead.
"""

import itertools
import json
import random
import time

import pytest

from sobelsim import (
    GrayImage,
    NO_STALLS,
    ResourceEstimate,
    RgbImage,
    SobelConfig,
    StallModel,
    build_pipeline,
    edge_chain,
    estimate_resources,
    magnitude,
    read_bmp,
    run_frame,
    sobel_frame_reference,
    sobel_pe,
    write_bmp,
)
from sobelsim.blocks import gray_frame, rgb_frame
from sobelsim.cli import main

ALPHABET = (0, 128, 255)

# Frozen on first derivation (Sobel core alone, no stalls).  A change here
# is a behavioural regression, not a tunable.
GOLDEN_TOTAL_CYCLES = {
    ("hdl", 8, 8): 77,
    ("hls", 8, 8): 79,
    ("hdl", 64, 64): 4165,
    ("hls", 64, 64): 4167,
    ("hdl", 512, 512): 262661,
    ("hls", 512, 512): 262663,
}


def verdict(number, fn):
    try:
        detail = fn()
    except BaseException as exc:
        print(f"ACCEPTANCE {number}: FAIL - {type(exc).__name__}: {exc}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {detail}")


def core_pair(width, height):
    cfg = SobelConfig(width, height)
    return (build_pipeline([sobel_pe("hdl", cfg)]),
            build_pipeline([sobel_pe("hls", cfg)]))


def assert_all_equivalent(width, height, images):
    """Both cores must match the frame oracle byte for byte."""
    hdl, hls = core_pair(width, height)
    count = 0
    for image in images:
        frame = gray_frame(image)
        want = sobel_frame_reference(image).pixels
        got_hdl, _ = run_frame(hdl, frame, NO_STALLS)
        got_hls, _ = run_frame(hls, frame, NO_STALLS)
        assert [b.data for b in got_hdl] == want, f"hdl diverged on {image.pixels}"
        assert [b.data for b in got_hls] == want, f"hls diverged on {image.pixels}"
        count += 1
    return count


def test_criterion_1_variant_oracle_equivalence():
    def run():
        start = time.perf_counter()
        n3 = assert_all_equivalent(
            3, 3,
            (GrayImage(3, 3, list(p))
             for p in itertools.product(ALPHABET, repeat=9)),
        )
        rng = random.Random(2026)
        n4 = assert_all_equivalent(
            4, 4,
            (GrayImage(4, 4, [rng.choice(ALPHABET) for _ in range(16)])
             for _ in range(20_000)),
        )
        n16 = assert_all_equivalent(
            16, 16,
            (GrayImage(16, 16, [rng.randrange(256) for _ in range(256)])
             for _ in range(120)),
        )
        elapsed = time.perf_counter() - start
        assert n3 == 3 ** 9
        assert n16 >= 100
        assert elapsed < 30.0, f"equivalence sweep took {elapsed:.1f}s"
        return (f"hdl == hls == oracle on {n3} exhaustive 3x3, "
                f"{n4} sampled 4x4 (exhaustive 4x4 is 3^16 frames, hours of "
                f"work, so sampled), {n16} random 16x16; {elapsed:.1f}s < 30s")

    verdict(1, run)


def test_criterion_2_full_image_equivalence_at_scale(tmp_path):
    def run():
        rng = random.Random(512)
        pixels = [(rng.randrange(256), rng.randrange(256), rng.randrange(256))
                  for _ in range(512 * 512)]
        src = tmp_path / "frame.bmp"
        src.write_bytes(write_bmp(RgbImage(512, 512, pixels)))
        report = tmp_path / "cmp.json"
        start = time.perf_counter()
        rc = main(["compare", "--input", str(src),
                   "--output", str(tmp_path / "edges.bmp"),
                   "--report", str(report)])
        elapsed = time.perf_counter() - start
        payload = json.loads(report.read_text())
        assert rc == 0
        assert payload["hamming_bits"] == 0
        assert elapsed < 60.0, f"512x512 compare took {elapsed:.1f}s"
        return (f"512x512 compare exit 0, hamming_bits 0, "
                f"{elapsed:.1f}s < 60s")

    verdict(2, run)


def test_criterion_3_throughput_goldens():
    def run():
        rng = random.Random(3)
        checked = []
        for width, height in ((8, 8), (64, 64), (512, 512)):
            image = GrayImage(width, height,
                              [rng.randrange(256) for _ in range(width * height)])
            frame = gray_frame(image)
            bound = width * height + width + 16
            for variant, pipe in zip(("hdl", "hls"), core_pair(width, height)):
                _, stats = run_frame(pipe, frame, NO_STALLS)
                golden = GOLDEN_TOTAL_CYCLES[(variant, width, height)]
                assert stats.total_cycles == golden, (
                    f"{variant} {width}x{height}: {stats.total_cycles} != {golden}")
                assert stats.total_cycles <= bound
                checked.append(stats.total_cycles)
        return ("no-stall totals match frozen goldens "
                f"{checked} and stay within W*H + W + 16")

    verdict(3, run)


def brute_force_window_completions(width, height):
    """Feed pixels one at a time; record when each 3x3 window completes.

    Deliberately dumb: after every arrival, rescan every interior centre
    and note the ones whose nine neighbours have all arrived.
    """
    seen = set()
    done = set()
    completions = []
    for k in range(width * height):
        seen.add(divmod(k, width))
        for r in range(1, height - 1):
            for c in range(1, width - 1):
                if (r, c) in done:
                    continue
                if all((r + dr, c + dc) in seen
                       for dr in (-1, 0, 1) for dc in (-1, 0, 1)):
                    done.add((r, c))
                    completions.append((k, r, c))
    return completions


def traced_run(variant, width, height):
    cfg = SobelConfig(width, height)
    pe = sobel_pe(variant, cfg)
    pe.trace = []
    pipe = build_pipeline([pe])
    image = GrayImage(width, height,
                      [(i * 37 + 11) % 256 for i in range(width * height)])
    run_frame(pipe, gray_frame(image), NO_STALLS)
    return pe, pe.trace


def test_criterion_4_fill_and_latency():
    def run():
        width = height = 8
        expected = brute_force_window_completions(width, height)
        assert expected[0] == (2 * width + 2, 1, 1)

        hdl, hdl_trace = traced_run("hdl", width, height)
        accepts = {e[2]: e[1] for e in hdl_trace if e[0] == "accept"}
        convolves = [e for e in hdl_trace if e[0] == "convolve"]
        assert [(e[2], e[3]) for e in convolves] == [(r, c) for _, r, c in expected]
        for event, (k, _, _) in zip(convolves, expected):
            assert event[1] > accepts[k], "convolved before its window completed"
        assert hdl.stage_count == 4
        emits = {e[2]: e[1] for e in hdl_trace if e[0] == "emit"}
        streamed = 0
        for pos, t in emits.items():
            feeder = pos + width + 1
            if feeder in accepts:
                assert t - accepts[feeder] == 3  # 4 stages, 3 register crossings
                streamed += 1
        assert streamed == width * height - (width + 1)

        hls, hls_trace = traced_run("hls", width, height)
        fills = [e for e in hls_trace if e[0] == "fill"]
        assert len(fills) == 1
        assert fills[0][2] == 2 * width + 3
        hls_accepts = {e[2]: e[1] for e in hls_trace if e[0] == "accept"}
        hls_convolves = [e for e in hls_trace if e[0] == "convolve"]
        assert ([(e[2], e[3]) for e in hls_convolves]
                == [(r, c) for _, r, c in expected])
        for event, (k, _, _) in zip(hls_convolves, expected):
            assert event[1] >= hls_accepts[k]
        for pos, t in ((e[2], e[1]) for e in hls_trace if e[0] == "emit"):
            feeder = pos + width + 1
            if feeder in hls_accepts:
                assert t - hls_accepts[feeder] == hls.stage_count - 1

        return (f"hdl first convolve follows input index {2 * width + 2}, "
                f"4 stages (emit = accept + 3); hls fill at pixel count "
                f"{2 * width + 3}; both match the brute-force window schedule")

    verdict(4, run)


def test_criterion_5_resource_model():
    def run():
        for width in (8, 512, 1920):
            hdl = estimate_resources("hdl", width)
            hls = estimate_resources("hls", width, 6)
            assert hdl == ResourceEstimate(2, 2 * width, 9, 4)
            assert hls == ResourceEstimate(3, 3 * width, 9, 6)
        return ("hdl = 2 row RAMs, 9 window regs, 4 stage regs; "
                "hls = 3 row RAMs, 9 window regs; words scale with width")

    verdict(5, run)


def test_criterion_6_backpressure_invariance():
    def run():
        rng = random.Random(66)
        image = RgbImage(64, 64, [(rng.randrange(256), rng.randrange(256),
                                   rng.randrange(256)) for _ in range(64 * 64)])
        frame = rgb_frame(image)
        cfg = SobelConfig(64, 64)
        runs = 0
        for variant in ("hdl", "hls"):
            pipe = build_pipeline(edge_chain(variant, cfg))
            baseline, base_stats = run_frame(pipe, frame, NO_STALLS)
            assert base_stats.sink_stall_cycles == 0
            for prob in (0.25, 0.5):
                for seed in range(5):
                    beats, stats = run_frame(pipe, frame, StallModel(prob, seed))
                    assert beats == baseline, (
                        f"{variant} output changed at p={prob} seed={seed}")
                    assert stats.sink_stall_cycles > 0
                    assert stats.total_cycles >= base_stats.total_cycles
                    runs += 1
        return (f"{runs} stalled runs (p in {{0.25, 0.5}}, 5 seeds, both "
                f"variants) all byte-identical to the no-stall output")

    verdict(6, run)


def test_criterion_7_bmp_round_trip():
    def run():
        rng = random.Random(7)
        for i in range(100):
            width = (i % 17) + 1  # covers every stride/padding class
            height = rng.randint(1, 13)
            image = RgbImage(width, height,
                             [(rng.randrange(256), rng.randrange(256),
                               rng.randrange(256)) for _ in range(width * height)])
            assert read_bmp(write_bmp(image)) == image
        return "100 random images, widths 1..17, read(write(x)) == x bit-exactly"

    verdict(7, run)


def test_criterion_8_magnitude_properties():
    def run():
        rng = random.Random(8)
        for _ in range(100_000):
            gh, gv = rng.randint(-1020, 1020), rng.randint(-1020, 1020)
            exact = magnitude(gh, gv, "exact")
            approx = magnitude(gh, gv, "approx")
            assert 0 <= exact <= approx <= 255
        assert magnitude(3, 4, "exact") == 5
        assert magnitude(1020, 0, "exact") == 255
        assert magnitude(1020, 0, "approx") == 255
        return ("exact <= approx <= 255 on 100,000 random gradients; "
                "(3,4) exact = 5; (1020,0) saturates at 255")

    verdict(8, run)


def test_criterion_9_no_fabricated_hardware_figures():
    def run():
        from sobelsim import build_report, serialize_report

        image = GrayImage(3, 3, [9] * 9)
        from sobelsim import CycleStats
        report = build_report(
            CycleStats(17, 10, 9, 0), CycleStats(19, 12, 9, 0),
            estimate_resources("hdl", 3), estimate_resources("hls", 3),
            image, image,
        )
        payload = json.loads(serialize_report(report, "json"))

        def keys_of(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield key
                    yield from keys_of(value)

        allowed = {
            "input", "width", "height", "magnitude_mode", "stall_prob", "seed",
            "hdl", "hls", "total_cycles", "first_output_cycle", "stall_cycles",
            "resources", "rams", "ram_words", "window_regs", "stage_regs",
            "hamming_bits", "cycle_ratio",
        }
        seen = set(keys_of(payload))
        assert seen <= allowed, f"unexpected report fields: {seen - allowed}"
        forbidden_fragments = ("millis", "_ms", "second", "time", "wall",
                               "speedup", "lut", "flip_flop", "utilization",
                               "percent", "effort")
        for key in seen:
            assert not any(frag in key.lower() for frag in forbidden_fragments)
        return ("reports carry only cycle counts and structural resource "
                "tallies; wall-clock times, speedup factors, device "
                "utilization percentages and programming-effort figures are "
                "board/toolchain/human measurements a cycle simulator cannot "
                "honestly produce, so they are absent by design")

    verdict(9, run)
