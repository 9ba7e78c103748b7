"""End-to-end command-line tests; commands run in-process via main()."""

import json
import subprocess
import sys

import pytest

from sobelsim import (
    GrayImage,
    RgbImage,
    gray_to_rgb,
    read_bmp,
    rgb2gray_frame_reference,
    sobel_frame_reference,
    write_bmp,
)
from sobelsim import cli
from sobelsim.cli import BENCH_CSV_HEADER, main


def write_input(path, width, height, pixel_fn):
    pixels = [pixel_fn(x, y) for y in range(height) for x in range(width)]
    path.write_bytes(write_bmp(RgbImage(width, height, pixels)))


def read_edge_image(path) -> GrayImage:
    """Edge BMPs hold gray values replicated across r, g, b."""
    rgb = read_bmp(path.read_bytes())
    for r, g, b in rgb.pixels:
        assert r == g == b
    return GrayImage(rgb.width, rgb.height, [p[0] for p in rgb.pixels])


def reference_edges(path, mode="approx") -> GrayImage:
    rgb = read_bmp(path.read_bytes())
    return sobel_frame_reference(rgb2gray_frame_reference(rgb), mode)


class TestProcess:
    def test_uniform_frame_maps_to_black(self, tmp_path):
        src, dst = tmp_path / "in.bmp", tmp_path / "out.bmp"
        write_input(src, 16, 16, lambda x, y: (90, 90, 90))
        assert main(["process", "--input", str(src), "--output", str(dst)]) == 0
        assert read_edge_image(dst).pixels == [0] * 256

    @pytest.mark.parametrize("arch", ["hdl", "hls"])
    def test_two_tone_matches_reference(self, tmp_path, arch):
        src, dst = tmp_path / "in.bmp", tmp_path / "out.bmp"
        write_input(src, 12, 9, lambda x, y: (255, 255, 255) if x >= 6 else (0, 0, 0))
        rc = main(["process", "--arch", arch,
                   "--input", str(src), "--output", str(dst)])
        assert rc == 0
        assert read_edge_image(dst) == reference_edges(src)

    def test_exact_magnitude_mode(self, tmp_path):
        src, dst = tmp_path / "in.bmp", tmp_path / "out.bmp"
        write_input(src, 8, 8, lambda x, y: (x * 31 % 256, y * 17, (x ^ y) * 13))
        rc = main(["process", "--magnitude", "exact",
                   "--input", str(src), "--output", str(dst)])
        assert rc == 0
        assert read_edge_image(dst) == reference_edges(src, "exact")

    def test_run_summary_report(self, tmp_path):
        src, dst = tmp_path / "in.bmp", tmp_path / "out.bmp"
        report = tmp_path / "run.json"
        write_input(src, 8, 6, lambda x, y: (x, y, x + y))
        rc = main(["process", "--arch", "hls", "--input", str(src),
                   "--output", str(dst), "--report", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["input"]["width"] == 8
        assert payload["input"]["height"] == 6
        assert payload["hls"]["resources"]["rams"] == 3
        assert payload["hls"]["total_cycles"] > 0

    def test_stalls_do_not_change_output_bytes(self, tmp_path):
        src = tmp_path / "in.bmp"
        write_input(src, 10, 10, lambda x, y: ((x * y) % 256, x * 7 % 256, y * 9 % 256))
        calm, rough = tmp_path / "calm.bmp", tmp_path / "rough.bmp"
        assert main(["process", "--arch", "hls",
                     "--input", str(src), "--output", str(calm)]) == 0
        assert main(["process", "--arch", "hls", "--stall-prob", "0.5",
                     "--seed", "3", "--input", str(src), "--output", str(rough)]) == 0
        assert calm.read_bytes() == rough.read_bytes()

    def test_deep_hls_chain_is_not_a_deadlock(self, tmp_path):
        src, dst = tmp_path / "in.bmp", tmp_path / "out.bmp"
        write_input(src, 3, 3, lambda x, y: (255, 255, 255) if x == 2 else (0, 0, 0))
        rc = main(["process", "--arch", "hls", "--hls-depth", "200",
                   "--input", str(src), "--output", str(dst)])
        assert rc == 0
        assert read_edge_image(dst) == reference_edges(src)


class TestCompare:
    def test_cores_agree_and_artifacts_land(self, tmp_path):
        src = tmp_path / "in.bmp"
        write_input(src, 20, 15, lambda x, y: (x * 11 % 256, y * 13 % 256, 40))
        report = tmp_path / "cmp.json"
        rc = main(["compare", "--input", str(src),
                   "--output", str(tmp_path / "edges.bmp"),
                   "--report", str(report)])
        assert rc == 0
        hdl = tmp_path / "edges_hdl.bmp"
        hls = tmp_path / "edges_hls.bmp"
        assert hdl.read_bytes() == hls.read_bytes()
        assert read_edge_image(hdl) == reference_edges(src)

        payload = json.loads(report.read_text())
        assert payload["hamming_bits"] == 0
        assert payload["hdl"]["total_cycles"] < payload["hls"]["total_cycles"]
        assert payload["input"]["stall_prob"] == 0.0

    def test_csv_report_flavour(self, tmp_path):
        src = tmp_path / "in.bmp"
        write_input(src, 8, 8, lambda x, y: (x * 30, y * 30, 0))
        report = tmp_path / "cmp.csv"
        rc = main(["compare", "--input", str(src),
                   "--output", str(tmp_path / "e.bmp"),
                   "--report", str(report), "--format", "csv"])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("hdl,") and lines[2].startswith("hls,")

    def test_output_base_without_extension(self, tmp_path):
        src = tmp_path / "in.bmp"
        write_input(src, 6, 6, lambda x, y: (x, y, 7))
        rc = main(["compare", "--input", str(src),
                   "--output", str(tmp_path / "edges"),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 0
        assert (tmp_path / "edges_hdl.bmp").exists()
        assert (tmp_path / "edges_hls.bmp").exists()

    def test_output_base_in_dotted_directory(self, tmp_path):
        # the dot in the directory name is not the start of an extension
        src = tmp_path / "in.bmp"
        write_input(src, 6, 6, lambda x, y: (x, y, 7))
        (tmp_path / "a.b").mkdir()
        rc = main(["compare", "--input", str(src),
                   "--output", str(tmp_path / "a.b" / "edges"),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 0
        assert (tmp_path / "a.b" / "edges_hdl.bmp").exists()
        assert (tmp_path / "a.b" / "edges_hls.bmp").exists()


class TestBench:
    def test_sweep_layout_and_invariants(self, tmp_path):
        report = tmp_path / "bench.csv"
        rc = main(["bench", "--width", "16", "--height", "12",
                   "--seed", "11", "--report", str(report)])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert lines[0] == BENCH_CSV_HEADER
        assert len(lines) == 7  # two variants, three stall probabilities
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["hdl"] * 3 + ["hls"] * 3
        for variant, prob, seed, total, first, beats, stalls in rows:
            assert seed == "11"
            assert int(beats) == (16 * 12 + 3) // 4
            assert 0 < int(first) < int(total)
            if float(prob) == 0.0:
                assert int(stalls) == 0
            else:
                assert int(stalls) > 0

    def test_rerun_is_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bench", "--width", "9", "--height", "7", "--seed", "4"]
        assert main(args + ["--report", str(a)]) == 0
        assert main(args + ["--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags,message", [
        (["--width", "400", "--height", "400", "--hls-depth", "1"],
         "pipeline depth must be at least 2"),
        (["--width", "2", "--height", "400"], "frame must be at least 3x3"),
    ], ids=["hls_depth", "width"])
    def test_settings_checked_before_the_frame_is_built(self, tmp_path, capsys,
                                                        monkeypatch, flags, message):
        def spy(image):
            raise AssertionError("rgb_frame called before the settings were checked")

        monkeypatch.setattr(cli, "rgb_frame", spy)
        report = tmp_path / "bench.csv"
        rc = main(["bench", "--seed", "1", "--report", str(report)] + flags)
        assert rc == 1
        assert capsys.readouterr().err == f"sobelsim: error: {message}\n"
        assert not report.exists()


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["process", "--input", "x.bmp"]) == 1  # --output missing
        assert main(["frobnicate"]) == 1
        assert main([]) == 1
        capsys.readouterr()

    def test_missing_input_file(self, tmp_path):
        rc = main(["process", "--input", str(tmp_path / "nope.bmp"),
                   "--output", str(tmp_path / "out.bmp")])
        assert rc == 1

    def test_bad_magic(self, tmp_path):
        src = tmp_path / "junk.bmp"
        src.write_bytes(b"PNG" + bytes(80))
        rc = main(["process", "--input", str(src),
                   "--output", str(tmp_path / "out.bmp")])
        assert rc == 1

    def test_frame_too_small_for_window(self, tmp_path):
        src = tmp_path / "tiny.bmp"
        write_input(src, 2, 2, lambda x, y: (0, 0, 0))
        rc = main(["process", "--input", str(src),
                   "--output", str(tmp_path / "out.bmp")])
        assert rc == 1

    def test_frame_wider_than_1920_runs(self, tmp_path):
        # each row RAM is one frame row deep, so no width is too wide
        src, dst = tmp_path / "in.bmp", tmp_path / "out.bmp"
        write_input(src, 1921, 3, lambda x, y: (x % 256, y * 60, (x * y) % 256))
        rc = main(["process", "--input", str(src), "--output", str(dst)])
        assert rc == 0
        assert dst.read_bytes() == write_bmp(gray_to_rgb(reference_edges(src)))

    def test_always_stalled_sink_deadlocks(self, tmp_path):
        src = tmp_path / "in.bmp"
        write_input(src, 4, 4, lambda x, y: (1, 2, 3))
        rc = main(["process", "--stall-prob", "1.0",
                   "--input", str(src), "--output", str(tmp_path / "out.bmp")])
        assert rc == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


def test_module_runs_as_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sobelsim", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "process" in proc.stdout and "compare" in proc.stdout


def test_importing_the_main_module_runs_nothing():
    proc = subprocess.run(
        [sys.executable, "-c", "import sobelsim.__main__"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


@pytest.mark.slow
@pytest.mark.parametrize("geometry", [(512, 512), (768, 512), (1920, 566), (1920, 1080)])
def test_compare_large_geometries(tmp_path, geometry):
    """Both cores stay bit-identical at realistic camera frame sizes."""
    import random

    width, height = geometry
    rng = random.Random(width * 100003 + height)
    pixels = [(rng.randrange(256), rng.randrange(256), rng.randrange(256))
              for _ in range(width * height)]
    src = tmp_path / "in.bmp"
    src.write_bytes(write_bmp(RgbImage(width, height, pixels)))
    report = tmp_path / "cmp.json"
    rc = main(["compare", "--input", str(src),
               "--output", str(tmp_path / "edges.bmp"),
               "--report", str(report)])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["hamming_bits"] == 0
    bound = width * height + width + 16
    assert payload["hdl"]["total_cycles"] <= bound
    assert payload["hls"]["total_cycles"] <= bound
