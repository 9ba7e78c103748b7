"""Cycle-level simulator for two streaming Sobel edge-detection cores."""

from .blocks import (
    ConfigMismatchError,
    LineBuffer,
    Rgb2GrayPE,
    SobelConfig,
    SobelHdlPE,
    SobelHlsPE,
    U8ToU32PE,
    edge_chain,
    gray_frame,
    magnitude,
    rgb_bytes_frame,
    rgb_frame,
    sobel_kernel,
    sobel_pe,
    unpack_words,
)
from .image_io import (
    BadMagicError,
    DimensionMismatchError,
    GrayImage,
    RgbImage,
    TruncatedError,
    UnsupportedFormatError,
    decode_bmp,
    encode_bmp,
    gray_to_rgb,
    hamming_distance,
    read_bmp,
    rgb_bytes,
    row_stride,
    write_bmp,
)
from .metrics import (
    ComparisonReport,
    ResourceEstimate,
    build_report,
    estimate_resources,
    serialize_report,
)
from .oracle import TooSmallError, rgb2gray_frame_reference, sobel_frame_reference
from .stream import (
    NO_STALLS,
    Beat,
    Channel,
    CycleStats,
    DeadlockError,
    Pipeline,
    ProcessingElement,
    ProtocolError,
    StallModel,
    WidthMismatchError,
    build_pipeline,
    run_frame,
)

__version__ = "0.1.0"
