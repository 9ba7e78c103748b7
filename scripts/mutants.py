#!/usr/bin/env python3
"""Check that the tests kill a table of hand-written mutants of the program.

Each mutant in MUTANTS replaces one exact text in one file of a fresh copy
of src/sobelsim, then runs one test file against that copy with -x.  It is
killed when a test fails.  Every old text must occur exactly once in its
file, or no mutant runs: a refactor that moves the code fails the table
loudly instead of skipping the mutant.  Hypothesis runs derandomized and
with no example database, so a mutant's result and time do not depend on
earlier runs.  Exits 1 if a mutant survives or its tests do not run.

Example:
    python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/sobelsim, exact old text, new text, test file)
MUTANTS = [
    ("moves", "stream.py",  # the source's puts are not counted
     "            src.moves += 1\n", "", "tests/test_stream.py"),
    ("taps", "blocks.py",  # two hls window taps swapped
     "(a1, a2, mid_old, b1, b2, bot_old, c1, c2, pixel)",
     "(a1, a2, bot_old, b1, b2, mid_old, c1, c2, pixel)", "tests/test_blocks.py"),
    ("port", "blocks.py",  # hdl's write-port check left out
     "                if ram2._write_at == now:  # the RAM port in place: see LineBuffer\n"
     "                    raise ProtocolError(LineBuffer.SECOND_WRITE)\n",
     "", "tests/test_blocks.py"),
    ("rounding", "blocks.py",  # Rgb2GrayPE rounds its mean up
     "+ (word & 0xFF)) // 3", "+ (word & 0xFF) + 2) // 3", "tests/test_blocks.py"),
    ("watchdog", "stream.py",  # the watchdog counts the sink's stall cycles
     "elif stalled_at != cycle:", "else:", "tests/test_blocks.py"),
    ("frame_slice", "stream.py",  # a frame's sequence test dropped
     "        frame[:0]", "        None", "tests/test_stream.py"),
    ("floor", "stream.py",  # int_value refuses its floor
     "value < floor", "value <= floor", "tests/test_blocks.py"),
    ("bench", "cli.py",  # bench checks each core against its own bytes at 0
     "gray != runs[0][0][0]", "gray != results[0][0]", "tests/test_cli.py"),
    ("sink_moves", "stream.py",  # the watchdog sums only the sink channel's moves
     'moves=names("c{}.moves", sep=" + ")', 'moves=f"c{n}.moves"', "tests/test_stream.py"),
    ("class_tick", "stream.py",  # ticks bound from the class, missing an instance's patch
     "[pe.tick for pe in pipeline.elements]",
     "[type(pe).tick.__get__(pe) for pe in pipeline.elements]", "tests/test_stream.py"),
    ("packer", "blocks.py",  # the packer puts its first byte highest
     "data << (8 * count)", "data << (8 * (3 - count))", "tests/test_blocks.py"),
    ("byte_count", "cli.py",  # one gray byte too few unpacked
     "unpack_words(words, len(frame))", "unpack_words(words, len(frame) - 1)",
     "tests/test_cli.py"),
    ("stats_order", "stream.py",  # the loop's CycleStats swap cycle and first_output
     "(cycle, first_output, len(received), stall_cycles)",
     "(first_output, cycle, len(received), stall_cycles)", "tests/test_stream.py"),
    ("rgb_bits", "metrics.py",  # the report counts gray bits, not the RGB images' bits
     "bits = 3 * hamming_distance(", "bits = hamming_distance(", "tests/test_metrics.py"),
    ("first_index", "cli.py",  # the first difference named one position late
     "divmod(i, width)", "divmod(i + 1, width)", "tests/test_cli.py"),
]

# loaded into pytest with -p, before any test module builds its settings
SETTINGS_PLUGIN = """\
from hypothesis import settings

settings.register_profile("mutants", derandomize=True, database=None)
settings.load_profile("mutants")
"""


def check_table() -> list:
    """One line for each old text that does not occur exactly once in its
    file.  A missing test file needs no line: pytest exits 4 on it, and the
    mutant is reported as not run."""
    faults = []
    for name, file, old, _, _ in MUTANTS:
        count = (ROOT / "src" / "sobelsim" / file).read_text().count(old)
        if count != 1:
            faults.append(f"{name}: the old text occurs {count} times in {file}")
    return faults


def run_mutant(file, old, new, test) -> int:
    """pytest's exit status for test run with -x against the mutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "sobelsim" / file
        path.write_text(path.read_text().replace(old, new))
        (Path(tmp) / "mutant_settings.py").write_text(SETTINGS_PLUGIN)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), tmp)),
                   PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "-p", "mutant_settings", str(ROOT / test)]
        # run from the temporary directory, so nothing is written in the checkout
        return subprocess.run(command, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode


def main() -> int:
    faults = check_table()
    if faults:
        print("\n".join(faults), file=sys.stderr)
        return 1
    failed = 0
    for name, file, old, new, test in MUTANTS:
        start = time.monotonic()
        status = run_mutant(file, old, new, test)
        # pytest exits 1 when a test fails; 0 is a survivor, anything else
        # (an import or collection error, an interrupt) ran no verdict
        verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"not run (pytest exit {status})")
        failed += status != 1
        print(f"{name:12} {verdict:10} {time.monotonic() - start:6.1f} s  {test}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
