"""End-to-end command-line tests; commands run in-process via main()."""

import errno
import importlib.util
import json
import os
import random
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sobelsim import (
    Beat,
    DeadlockError,
    GrayImage,
    RgbImage,
    SobelConfig,
    StallModel,
    build_pipeline,
    edge_chain,
    gray_to_rgb,
    read_bmp,
    rgb2gray_frame_reference,
    rgb_bytes_frame,
    row_stride,
    run_frame,
    sobel_frame_reference,
    write_bmp,
)
from sobelsim import cli
from sobelsim.cli import BENCH_CSV_HEADER, main
from sobelsim.blocks import SobelHlsPE
from sobelsim.image_io import decode_bmp, encode_bmp


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


def stored_top_down(data, width, height):
    """The same raster as a BMP with a negative height, its top row stored first."""
    stride = row_stride(width)
    rows = [data[54 + y * stride : 54 + (y + 1) * stride] for y in range(height)]
    return data[:22] + struct.pack("<i", -height) + data[26:54] + b"".join(reversed(rows))


class TestEdgeFiles:
    @pytest.mark.parametrize("top_down", [False, True])
    @pytest.mark.parametrize("width", [3, 4, 5, 6])  # every row-padding class
    def test_edge_bmps_encode_the_oracle_output(self, tmp_path, width, top_down):
        rng = random.Random(width)
        image = RgbImage(width, 4, [(rng.randrange(256), rng.randrange(256), rng.randrange(256))
                                    for _ in range(width * 4)])
        data = write_bmp(image)
        if top_down:
            data = stored_top_down(data, width, 4)
        assert read_bmp(data) == image
        src = tmp_path / "in.bmp"
        src.write_bytes(data)
        want = write_bmp(gray_to_rgb(sobel_frame_reference(rgb2gray_frame_reference(image))))
        for arch in ("hdl", "hls"):
            assert main(["process", "--arch", arch, "--input", str(src),
                         "--output", str(tmp_path / f"p_{arch}.bmp")]) == 0
        assert main(["compare", "--input", str(src), "--output", str(tmp_path / "c.bmp"),
                     "--report", str(tmp_path / "r.json")]) == 0
        for name in ("p_hdl.bmp", "p_hls.bmp", "c_hdl.bmp", "c_hls.bmp"):
            assert (tmp_path / name).read_bytes() == want, name


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
        # the last four fields of each row are run_frame's CycleStats, in order
        frame = rgb_bytes_frame(random.Random(11).randbytes(3 * 16 * 12))
        for row in rows:
            pipeline = build_pipeline(edge_chain(row[0], SobelConfig(16, 12)))
            _, stats = run_frame(pipeline, frame, StallModel(float(row[1]), 11))
            assert row[3:] == [str(field) for field in stats], row

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
        def spy(rgb):
            raise AssertionError("rgb_bytes_frame called before the settings were checked")

        monkeypatch.setattr(cli, "rgb_bytes_frame", spy)
        report = tmp_path / "bench.csv"
        rc = main(["bench", "--seed", "1", "--report", str(report)] + flags)
        assert rc == 1
        assert capsys.readouterr().err == f"sobelsim: error: {message}\n"
        assert not report.exists()

    def test_frame_holds_the_seeded_per_pixel_draw(self, tmp_path, monkeypatch):
        # the cores' cycle counts do not depend on the data, so no CSV can
        # show which raster bench ran; its bytes are one draw of the seed's
        # r, g, b bytes, pixel by pixel in raster order
        seen = []

        def spy(rgb):
            seen.append(bytes(rgb))
            return rgb_bytes_frame(rgb)

        monkeypatch.setattr(cli, "rgb_bytes_frame", spy)
        assert main(["bench", "--width", "5", "--height", "4", "--seed", "11",
                     "--report", str(tmp_path / "bench.csv")]) == 0
        assert seen == [random.Random(11).randbytes(3 * 5 * 4)]


def main_reaped(argv) -> int:
    """main(argv), checking that it left no child process behind."""
    rc = main(argv)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return rc


def on_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.fixture(params=["real_affinity", "one_cpu"])
def affinity(request, monkeypatch):
    """Runs a test with this process's real CPU affinity, where compare
    forks one worker for hls if it holds two or more CPUs, and with an
    affinity of one CPU, where it runs both cores in this process."""
    if request.param == "one_cpu":
        on_one_cpu(monkeypatch)
    return request.param


def compare_args(tmp_path, *flags):
    src = tmp_path / "in.bmp"
    if not src.exists():
        write_input(src, 13, 7, lambda x, y: (x * 19 % 256, y * 37 % 256, (x ^ y) * 11))
    return ["compare", "--input", str(src), "--output", str(tmp_path / "edges.bmp"),
            "--report", str(tmp_path / "cmp"), *flags]


def bench_args(tmp_path, *flags):
    return ["bench", "--width", "16", "--height", "8", "--seed", "1",
            "--report", str(tmp_path / "bench.csv"), *flags]


class TestWorkers:
    """compare and bench give the same files, stderr and exit codes whether
    hls runs in a forked worker or in this process."""

    @pytest.fixture
    def forked(self, monkeypatch):
        """The pids of the workers that os.fork starts during the test."""
        fork, pids = os.fork, []

        def recorded_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recorded_fork)
        return pids

    @pytest.fixture(autouse=True)
    def alarm(self):
        """alarm(seconds, error) raises error in this process after that long;
        by default each test here fails after 120 s, as a parent that never
        sees a worker's EOF would otherwise hang."""
        def arm(seconds, error=TimeoutError):
            def handler(signum, frame):
                raise error(f"no result after {seconds} s")

            signal.signal(signal.SIGALRM, handler)
            signal.setitimer(signal.ITIMER_REAL, seconds)

        previous = signal.getsignal(signal.SIGALRM)
        arm(120)
        yield arm
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("command,code", [
        (["--format", "json"], 0),
        (["--format", "csv", "--magnitude", "exact", "--stall-prob", "0.4", "--seed", "9"], 0),
        (["--stall-prob", "1.0"], 2),
        (["--hls-depth", "1"], 1),
    ], ids=["json", "csv_exact_stalls", "deadlock", "bad_depth"])
    def test_same_output_on_both_paths(self, tmp_path, capsys, monkeypatch, command, code):
        outcomes = []
        for path in ("real_affinity", "one_cpu"):
            out = tmp_path / path
            out.mkdir()
            with monkeypatch.context() as patch:
                if path == "one_cpu":
                    on_one_cpu(patch)
                rc = main_reaped(compare_args(out, *command))
            files = {f.name: f.read_bytes() for f in out.iterdir()}
            outcomes.append((rc, capsys.readouterr().err, files))
        assert outcomes[0][0] == code
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("platform,cpu_count,forks", [
        ("no_fork", 2, 0),
        ("no_affinity", 2, 1),
        ("no_affinity", 1, 0),
        ("no_affinity", None, 0),
    ], ids=["no_fork", "cpu_count_2", "cpu_count_1", "cpu_count_none"])
    def test_platform_fallbacks(self, tmp_path, capsys, monkeypatch, forked,
                                platform, cpu_count, forks):
        # with no os.fork both cores run here; with no os.sched_getaffinity
        # a worker is forked only if os.cpu_count() gives two or more
        outcomes = []
        for path in ("real_affinity", platform):
            out = tmp_path / path
            out.mkdir()
            with monkeypatch.context() as patch:
                if path == "no_fork":
                    patch.delattr(os, "fork")
                elif path == "no_affinity":
                    patch.delattr(os, "sched_getaffinity")
                    patch.setattr(os, "cpu_count", lambda: cpu_count)
                before = len(forked)
                rc = main_reaped(compare_args(out, "--stall-prob", "0.2", "--seed", "4"))
            files = {f.name: f.read_bytes() for f in out.iterdir()}
            outcomes.append((rc, capsys.readouterr().err, files))
        assert len(forked) - before == forks
        assert outcomes[0][0] == 0
        assert outcomes[0] == outcomes[1]

    def test_serial_path_builds_the_frame_once(self, tmp_path, monkeypatch):
        built = []

        def spy(rgb):
            built.append(len(rgb))
            return rgb_bytes_frame(rgb)

        on_one_cpu(monkeypatch)
        monkeypatch.setattr(cli, "rgb_bytes_frame", spy)
        assert main_reaped(compare_args(tmp_path)) == 0
        assert built == [3 * 13 * 7]  # one frame, which both cores run

    @pytest.mark.parametrize("command", ["process", "compare"])
    def test_settings_checked_before_the_frame_is_built(self, tmp_path, capsys,
                                                        monkeypatch, command):
        def spy(rgb):
            raise AssertionError("rgb_bytes_frame called before the settings were checked")

        monkeypatch.setattr(cli, "rgb_bytes_frame", spy)
        argv = compare_args(tmp_path, "--stall-prob", "1.5")  # writes in.bmp
        if command == "process":
            argv = ["process", "--input", str(tmp_path / "in.bmp"),
                    "--output", str(tmp_path / "edges.bmp"), "--stall-prob", "1.5"]
        assert main_reaped(argv) == 1
        assert capsys.readouterr().err.startswith("sobelsim: error: stall probability")

    def test_deadlock_gives_the_serial_text(self, tmp_path, capsys, affinity):
        rc = main_reaped(compare_args(tmp_path, "--stall-prob", "1.0"))
        pipeline = build_pipeline(edge_chain("hdl", SobelConfig(13, 7)))
        _, _, rgb = decode_bmp((tmp_path / "in.bmp").read_bytes())
        with pytest.raises(DeadlockError) as hdl_error:
            run_frame(pipeline, rgb_bytes_frame(rgb), StallModel(1.0))
        assert rc == 2
        assert capsys.readouterr().err == f"sobelsim: deadlock: {hdl_error.value}\n"

    @pytest.mark.parametrize("errors,code", [
        ((ValueError, DeadlockError), 1),
        ((DeadlockError, ValueError), 2),
    ], ids=["hdl_value_error", "hdl_deadlock"])
    def test_hdl_error_wins(self, tmp_path, capsys, monkeypatch, affinity, errors, code):
        def failing_core(pipeline, frame, stalls):
            variant = pipeline.elements[1].name.split("_")[1]  # sobel_hdl, sobel_hls
            raise errors[variant == "hls"](f"{variant} core failed")

        monkeypatch.setattr(cli, "_run_core", failing_core)
        assert main_reaped(compare_args(tmp_path)) == code
        err = capsys.readouterr().err
        assert err.startswith("sobelsim: ") and err.endswith(": hdl core failed\n")

    def test_worker_that_exits_raises_the_declared_error(self, tmp_path, capsys,
                                                          monkeypatch, affinity):
        parent, run_core = os.getpid(), cli._run_core

        def exiting_core(*args):
            if os.getpid() != parent:
                os._exit(3)
            return run_core(*args)

        monkeypatch.setattr(cli, "_run_core", exiting_core)
        if len(os.sched_getaffinity(0)) < 2:  # no worker, so both cores run here
            assert main_reaped(compare_args(tmp_path)) == 0
            return
        want = "a simulation worker ended with exit status 3 and no result"
        assert main_reaped(compare_args(tmp_path)) == 1
        assert capsys.readouterr().err == f"sobelsim: error: {want}\n"
        pipelines = [build_pipeline(edge_chain(v, SobelConfig(3, 3))) for v in ("hdl", "hls")]
        with pytest.raises(cli.WorkerError, match=want):
            cli._run_each(pipelines, rgb_bytes_frame(bytes(range(27))), StallModel())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_hdl_error_does_not_wait_for_hls(self, tmp_path, capsys, monkeypatch, affinity):
        def core(pipeline, frame, stalls):
            if pipeline.elements[1].name == "sobel_hdl":
                raise ValueError("hdl core failed")
            time.sleep(30)

        monkeypatch.setattr(cli, "_run_core", core)
        start = time.monotonic()
        assert main_reaped(compare_args(tmp_path)) == 1
        assert time.monotonic() - start < 10  # the worker was stopped, not awaited
        assert capsys.readouterr().err == "sobelsim: error: hdl core failed\n"

    def test_hls_runs_in_the_one_worker_and_hdl_here(self, tmp_path, monkeypatch, forked):
        run_core, log = cli._run_core, tmp_path / "pids"

        def logged_core(pipeline, *args):
            with open(log, "a") as fh:  # each process appends its own line
                fh.write(f"{pipeline.elements[1].name} {os.getpid()}\n")
            return run_core(pipeline, *args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(cli, "_run_core", logged_core)
        assert main_reaped(compare_args(tmp_path)) == 0
        assert len(forked) == 1
        pids = dict(line.split() for line in log.read_text().splitlines())
        assert pids == {"sobel_hdl": str(os.getpid()), "sobel_hls": str(forked[0])}

    def test_interrupt_reaps_the_workers(self, tmp_path, monkeypatch, affinity, alarm):
        def slow_core(pipeline, frame, stalls):
            time.sleep(30)

        monkeypatch.setattr(cli, "_run_core", slow_core)
        alarm(0.3, KeyboardInterrupt)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(compare_args(tmp_path))
        assert time.monotonic() - start < 10  # the workers were stopped, not awaited
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_interrupt_during_a_fork_reaps_the_worker(self, tmp_path, monkeypatch):
        fork, pipe, pipes = os.fork, os.pipe, []

        def interrupted_fork():
            pid = fork()
            if pid:
                # SIGINT is blocked here, so it is raised once the mask is restored
                os.kill(os.getpid(), signal.SIGINT)
            return pid

        def recorded_pipe():
            fds = pipe()
            pipes.extend(fds)
            return fds

        monkeypatch.setattr(os, "fork", interrupted_fork)
        monkeypatch.setattr(os, "pipe", recorded_pipe)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        # a process started with SIGINT ignored, such as a shell's background
        # job, would raise nothing, so install Python's default handler
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                main(compare_args(tmp_path))
        finally:
            signal.signal(signal.SIGINT, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(pipes) == 2  # the first worker's pipe
        for fd in pipes:
            with pytest.raises(OSError):
                os.fstat(fd)

    @pytest.mark.parametrize("call,error", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)],
                             ids=["fork", "pipe"])
    def test_no_room_for_a_worker_runs_each_core_here(self, tmp_path, capsys, monkeypatch,
                                                      call, error):
        calls, here = [], []

        def no_room():
            calls.append(call)
            raise OSError(error, os.strerror(error))

        run_core, parent = cli._run_core, os.getpid()

        def counted_core(*args):
            if os.getpid() == parent:
                here.append(1)
            return run_core(*args)

        outcomes = []
        for path in ("no_room", "one_cpu"):
            out = tmp_path / path
            out.mkdir()
            with monkeypatch.context() as patch:
                if path == "one_cpu":
                    on_one_cpu(patch)
                else:
                    patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
                    patch.setattr(os, call, no_room)
                    patch.setattr(cli, "_run_core", counted_core)
                rc = main_reaped(compare_args(out, "--stall-prob", "0.2", "--seed", "4"))
            files = {f.name: f.read_bytes() for f in out.iterdir()}
            outcomes.append((rc, capsys.readouterr().err, files))
        assert outcomes[0][0] == 0
        assert outcomes[0] == outcomes[1]
        assert calls == [call] and len(here) == 2

    def test_patched_tick_runs_in_this_process(self, tmp_path, monkeypatch, affinity):
        ticks = {"hdl": 0, "hls": 0}
        edge_pipeline = cli._edge_pipeline

        def hooked_pipeline(variant, width, height, args):
            pipeline = edge_pipeline(variant, width, height, args)
            core = pipeline.elements[1]
            class_tick = core.tick

            def counted_tick(pin, pout):
                ticks[variant] += 1
                class_tick(pin, pout)

            core.tick = counted_tick
            return pipeline

        monkeypatch.setattr(cli, "_edge_pipeline", hooked_pipeline)
        assert main_reaped(compare_args(tmp_path, "--stall-prob", "0.3")) == 0
        report = json.loads((tmp_path / "cmp").read_text())
        assert ticks == {v: report[v]["total_cycles"] + 1 for v in ("hdl", "hls")}

    def test_hls_worker_error_keeps_its_type_and_message(self, tmp_path, capsys, monkeypatch,
                                                         affinity, forked):
        def failing_tick(self, pin, pout):
            raise ValueError("hls tick failed")

        # patched on the class, not the instance, so a worker is still forked
        monkeypatch.setattr(SobelHlsPE, "tick", failing_tick)
        assert main_reaped(compare_args(tmp_path)) == 1
        assert capsys.readouterr().err == "sobelsim: error: hls tick failed\n"
        assert not (tmp_path / "cmp").exists()
        assert len(forked) == (len(os.sched_getaffinity(0)) >= 2)

    @pytest.mark.parametrize("flags", [
        [],
        ["--hls-depth", "2"],
        ["--hls-depth", "9", "--magnitude", "exact"],
    ], ids=["default", "shallow", "deep_exact"])
    def test_bench_same_output_on_both_paths(self, tmp_path, capsys, monkeypatch, forked,
                                             flags):
        outcomes = []
        for path, cpus in (("workers", {0, 1}), ("one_cpu", {0})):
            out = tmp_path / path
            out.mkdir()
            with monkeypatch.context() as patch:
                patch.setattr(os, "sched_getaffinity", lambda pid: cpus)
                rc = main_reaped(bench_args(out, *flags))
            outcomes.append((rc, capsys.readouterr().err, (out / "bench.csv").read_bytes()))
            # one hls worker per stall probability, and none on one CPU
            assert len(forked) == 3, path
        assert outcomes[0][:2] == (0, "bench: 6 runs of 16x8\n")
        assert outcomes[0] == outcomes[1]

    def test_bench_output_changed_under_stalls(self, tmp_path, capsys, monkeypatch, affinity):
        run_frame = cli.run_frame

        def flipped(pipeline, frame, stalls):
            beats, stats = run_frame(pipeline, frame, stalls)
            if stalls.probability == 0.5 and pipeline.elements[1].name == "sobel_hls":
                beats = [Beat(beats[0].data ^ 1, beats[0].last), *beats[1:]]
            return beats, stats

        monkeypatch.setattr(cli, "run_frame", flipped)
        assert main_reaped(bench_args(tmp_path)) == 3
        assert capsys.readouterr().err == ("hls: output under stall probability 0.5 "
                                           "differs from hdl's under 0\n")
        assert not (tmp_path / "bench.csv").exists()

    def test_bench_checks_that_the_cores_agree(self, tmp_path, capsys, monkeypatch, affinity):
        # hls differs from hdl under every stall probability, but equals its
        # own output under 0, so only a check against hdl's bytes sees it
        run_frame = cli.run_frame

        def flipped(pipeline, frame, stalls):
            beats, stats = run_frame(pipeline, frame, stalls)
            if pipeline.elements[1].name == "sobel_hls":
                beats = [Beat(beats[0].data ^ 1, beats[0].last), *beats[1:]]
            return beats, stats

        monkeypatch.setattr(cli, "run_frame", flipped)
        assert main_reaped(bench_args(tmp_path)) == 3
        assert capsys.readouterr().err == ("hls: output under stall probability 0.0 "
                                           "differs from hdl's under 0\n")
        assert not (tmp_path / "bench.csv").exists()

    def test_settings_checked_before_any_run(self, tmp_path, capsys, monkeypatch, affinity):
        calls = []

        def spy(*args):
            calls.append(1)
            raise AssertionError("run_frame called before the settings were checked")

        monkeypatch.setattr(cli, "run_frame", spy)
        assert main_reaped(compare_args(tmp_path, "--hls-depth", "1")) == 1
        assert capsys.readouterr().err == "sobelsim: error: pipeline depth must be at least 2\n"
        assert calls == []
        assert not (tmp_path / "cmp").exists()


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        # argparse exits 2 on a usage error; main returns 1, keeping 2 for
        # deadlocks, and leaves argparse's usage and message on stderr
        for argv, prog, message in [
            (["process", "--input", "x.bmp"], "sobelsim process",
             "the following arguments are required: --output"),
            (["frobnicate"], "sobelsim", "argument command: invalid choice: 'frobnicate'"),
            ([], "sobelsim", "the following arguments are required: command"),
            (["compare", "--format", "xml"], "sobelsim compare",
             "argument --format: invalid choice: 'xml'"),
            (["bench", "--width", "x"], "sobelsim bench",
             "argument --width: invalid int value: 'x'"),
        ]:
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith(f"usage: {prog} "), argv
            assert err.splitlines()[-1].startswith(f"{prog}: error: {message}"), argv

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

    @pytest.mark.parametrize("command", ["process", "compare", "bench"])
    def test_every_command_explains_the_core_flags(self, capsys, command):
        assert main([command, "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
        assert "--magnitude {approx,exact} gradient magnitude mode (default: approx)" in out
        assert "--hls-depth N hls core pipeline depth (default: 6)" in out


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


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these names where the program looks them
    # up; a name dropped from a module would fail only the benchmark
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.MODULE_SPANS) > 10
    for module, attr, _ in tracing.MODULE_SPANS:
        assert callable(getattr(importlib.import_module(f"sobelsim.{module}"), attr, None)), \
            (module, attr)


@pytest.mark.slow
@pytest.mark.parametrize("geometry", [(512, 512), (768, 512), (1920, 566), (1920, 1080)])
def test_compare_large_geometries(tmp_path, geometry):
    """Both cores stay bit-identical at realistic camera frame sizes."""
    import random

    width, height = geometry
    rng = random.Random(width * 100003 + height)
    src = tmp_path / "in.bmp"
    src.write_bytes(encode_bmp(width, height, rng.randbytes(3 * width * height)))
    report = tmp_path / "cmp.json"
    rc = main(["compare", "--input", str(src),
               "--output", str(tmp_path / "edges.bmp"),
               "--report", str(report)])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["hamming_bits"] == 0
    # the README's closed form for the full chains with no stalls, hls at
    # its default depth of 6
    n = width * height + width + 1
    assert payload["hdl"]["total_cycles"] == n + 8
    assert payload["hdl"]["first_output_cycle"] == width + 13
    assert payload["hls"]["total_cycles"] == n + 10
    assert payload["hls"]["first_output_cycle"] == width + 15
