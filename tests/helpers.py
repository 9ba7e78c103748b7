"""Shared drivers and generators for the test suite."""

from __future__ import annotations

import random

from sobelsim import (
    NO_STALLS,
    GrayImage,
    RgbImage,
    SobelConfig,
    build_pipeline,
    gray_frame,
    run_frame,
    sobel_pe,
)


def random_gray(rng: random.Random, width: int, height: int, alphabet=None) -> GrayImage:
    if alphabet is None:
        pixels = [rng.randrange(256) for _ in range(width * height)]
    else:
        pixels = [rng.choice(alphabet) for _ in range(width * height)]
    return GrayImage(width, height, pixels)


def random_rgb(rng: random.Random, width: int, height: int) -> RgbImage:
    pixels = [
        (rng.randrange(256), rng.randrange(256), rng.randrange(256))
        for _ in range(width * height)
    ]
    return RgbImage(width, height, pixels)


def run_sobel(variant: str, image: GrayImage, mode: str = "approx",
              stalls=NO_STALLS, pipeline_depth: int = 6, trace=None):
    """Drive one gray frame through a single Sobel core pipeline."""
    config = SobelConfig(image.width, image.height, magnitude_mode=mode)
    pe = sobel_pe(variant, config, pipeline_depth)
    if trace is not None:
        pe.trace = trace
    pipeline = build_pipeline([pe])
    beats, stats = run_frame(pipeline, gray_frame(image), stalls)
    return GrayImage(image.width, image.height, [b.data for b in beats]), stats
