#!/usr/bin/env python3
"""Golden test for `grade <id> --batch`: runs the grade binary on a
checked-in NDJSON cohort and compares its stdout, stderr and exit code
against checked-in files.

    grade_batch_golden_test.py GRADE_BINARY [--update]

The cohort (testdata/grade_batch/cohort.ndjson) holds a correct and an
incorrect assignment1 submission, a comment/whitespace variant of the
correct one (it must dedup onto it), an exact repeat of the incorrect one,
a malformed line and an object without "source". Before comparing, the
run-dependent fields trace_id, stage_timings and timings_ms are cut out of
every stdout line; everything else must match byte for byte.

The batch runs on one worker: arena_bytes_peak counts what the first grade
on a worker allocates once, so with several workers it depends on which
worker picked up which submission. --update rewrites the golden files.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "testdata", "grade_batch")
COHORT = os.path.join(DATA, "cohort.ndjson")
GOLDEN_STDOUT = os.path.join(DATA, "expected.ndjson")
GOLDEN_STDERR = os.path.join(DATA, "expected.stderr")
GOLDEN_EXIT = os.path.join(DATA, "expected.exit")

RUN_DEPENDENT = [
    re.compile(r'"trace_id":"[^"]*",'),
    re.compile(r',"stage_timings":\{[^}]*\}'),
    re.compile(r',"timings_ms":\[[^\]]*\]'),
]


def strip(stdout):
    for pattern in RUN_DEPENDENT:
        stdout = pattern.sub("", stdout)
    return stdout


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def main(argv):
    if len(argv) not in (2, 3) or (len(argv) == 3 and argv[2] != "--update"):
        print(__doc__, file=sys.stderr)
        return 2
    grade = argv[1]
    run = subprocess.run(
        [grade, "assignment1", "--batch", COHORT, "--jobs", "1"],
        capture_output=True, text=True, timeout=120)
    actual = {
        GOLDEN_STDOUT: strip(run.stdout),
        GOLDEN_STDERR: run.stderr,
        GOLDEN_EXIT: f"{run.returncode}\n",
    }
    if len(argv) == 3:
        for path, text in actual.items():
            write(path, text)
        print(f"updated goldens in {DATA}")
        return 0
    failed = False
    for path, text in actual.items():
        expected = read(path)
        if text == expected:
            continue
        failed = True
        print(f"MISMATCH against {os.path.basename(path)}", file=sys.stderr)
        want = expected.splitlines()
        got = text.splitlines()
        for i in range(max(len(want), len(got))):
            w = want[i] if i < len(want) else "<missing>"
            g = got[i] if i < len(got) else "<missing>"
            if w != g:
                print(f"  line {i + 1}\n    expected: {w}\n    actual:   {g}",
                      file=sys.stderr)
                break
    if failed:
        return 1
    print(f"grade --batch matches its golden "
          f"({len(actual[GOLDEN_STDOUT].splitlines())} lines, "
          f"exit {run.returncode})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
