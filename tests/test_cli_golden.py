"""Golden CLI outputs: exact stdout, stderr and exit code of every command path.

Each case runs ``listvote.cli.main`` in a scratch directory holding a copy
of ``tests/golden/inputs`` and compares one record (exit code, stdout,
stderr and any file written with ``--output``) with
``tests/golden/<case>.txt`` byte for byte. After an intended output
change, rewrite the expected files and review their diff:

    LISTVOTE_REGOLD=1 python -m pytest tests/test_cli_golden.py
"""

import os
import re
import shutil
from pathlib import Path

import pytest

from listvote.cli import main

GOLDEN = Path(__file__).parent / "golden"

S = ["--format", "structured"]
TALLY_BALL = ["--center", "1,2,3", "--radius"]

# Cases that print a report run in both formats; the structured twin is
# named "<case>.structured".
REPORTS = {
    "tally": ["tally", "--input", "example.json"],
    "tally-threshold": ["tally", "--input", "example.json", "--threshold", "2"],
    "tally-ball": ["tally", "--input", "ring1.json", *TALLY_BALL, "1"],
    "tally-ball-beyond-regime": ["tally", "--input", "ball2.json", *TALLY_BALL, "2"],
    "tally-ball-diameter": ["tally", "--input", "all.json", *TALLY_BALL, "3"],
    "tally-ball-size-one-lists": ["tally", "--input", "size1.json", "--center", "1",
                                  "--radius", "0"],
    "tally-complete-approx": ["tally", "--input", "short.json", "--complete",
                              *TALLY_BALL, "1", "--approx"],
    "tally-complete-repeated": ["tally", "--input", "repeated.json", "--complete",
                                *TALLY_BALL, "1"],
    "tally-beyond-regime-approx": ["tally", "--input", "ball2.json", *TALLY_BALL, "2",
                                   "--approx"],
    "bounds": ["bounds", "--params", "6,4,3"],
    "bounds-approx": ["bounds", "--params", "6,4,3", "--approx"],
    "bounds-ball": ["bounds", "--params", "6,4,3", "--radius", "1"],
    "bounds-alpha": ["bounds", "--params", "6,4,3", "--radius", "1", "--alpha", "3/4"],
    "bounds-beyond-regime": ["bounds", "--params", "6,4,3", "--radius", "2"],
    "bounds-beyond-regime-approx": ["bounds", "--params", "6,4,3", "--radius", "2",
                                    "--approx"],
    "bounds-diameter": ["bounds", "--params", "6,4,3", "--radius", "3"],
    "bounds-size-one-lists": ["bounds", "--params", "4,2,1", "--radius", "0"],
    "worst-case": ["worst-case", "--params", "6,4,3", "--radius", "2"],
    "worst-case-approx": ["worst-case", "--params", "6,4,3", "--radius", "2", "--approx"],
    "worst-case-radius-one": ["worst-case", "--params", "6,4,3", "--radius", "1"],
    "worst-case-diameter": ["worst-case", "--params", "6,4,3", "--radius", "3"],
    "verify": ["verify", "--max-n", "5", "--trials", "2", "--seed", "1"],
    # run with every coverage table corrupted at entry [1][0]
    "verify-corrupted": ["verify", "--max-n", "5", "--trials", "1", "--seed", "0"],
}

OTHERS = {
    "tally-output-file": ["tally", "--input", "example.json", *S, "--output", "report.json"],
    "tally-human-output-file": ["tally", "--input", "example.json", "--output", "report.txt"],
    "generate-uniform-all": ["generate", "--params", "5,3,2", "--mode", "uniform-all"],
    "generate-uniform-ball": ["generate", "--params", "6,4,3", "--mode", "uniform-ball",
                              *TALLY_BALL, "2"],
    "generate-uniform-ring": ["generate", "--params", "6,4,3", "--mode", "uniform-ring",
                              *TALLY_BALL, "1"],
    "generate-concentric": ["generate", "--params", "6,4,3", "--mode", "concentric",
                            "--center", "1,2,3", "--weights", "0,1/3,2/3"],
    "generate-random-ball": ["generate", "--params", "6,4,3", "--mode", "random-ball",
                             *TALLY_BALL, "1", "--voters", "50", "--seed", "42"],
    "generate-output-file": ["generate", "--params", "5,3,2", "--mode", "uniform-all",
                             "--output", "ballots.json"],
    # error exits
    "error-tally-outside-ball": ["tally", "--input", "example.json", *TALLY_BALL, "1"],
    "error-tally-missing-file": ["tally", "--input", "missing.json"],
    "error-tally-empty-input": ["tally", "--input", ""],
    "error-tally-malformed-file": ["tally", "--input", "malformed.json"],
    "error-tally-huge-member": ["tally", "--input", "huge.json"],
    "error-tally-duplicate-member": ["tally", "--input", "duplicate-member.json"],
    "error-tally-zero-weight": ["tally", "--input", "zero-weight.json"],
    "error-tally-long-integer": ["tally", "--input", "long-integer.json"],
    "error-tally-deep-nesting": ["tally", "--input", "deep.json"],
    "error-tally-not-utf8": ["tally", "--input", "latin1.json"],
    "error-tally-params-mismatch": ["tally", "--input", "example.json", "--params", "6,4,3"],
    "error-tally-threshold-range": ["tally", "--input", "example.json", "--threshold", "4"],
    "error-tally-center-without-radius": ["tally", "--input", "example.json",
                                          "--center", "1,2,3"],
    "error-tally-center-without-radius-malformed-file": ["tally", "--input", "malformed.json",
                                                         "--center", "1,2,3"],
    "error-tally-bad-center": ["tally", "--input", "example.json", "--center", "1,x",
                               "--radius", "1"],
    "error-tally-short-lists": ["tally", "--input", "short.json"],
    "error-tally-complete-without-ball": ["tally", "--input", "short.json", "--complete"],
    "error-tally-incompletable": ["tally", "--input", "incompletable.json", "--complete",
                                  *TALLY_BALL, "1"],
    "error-tally-unwritable-output": ["tally", "--input", "example.json",
                                      "--output", "no-such-dir/report.txt"],
    "error-bounds-missing-params": ["bounds", "--radius", "1"],
    "error-bounds-alpha-without-radius": ["bounds", "--params", "6,4,3", "--alpha", "1/2"],
    "error-bounds-bad-alpha": ["bounds", "--params", "6,4,3", "--radius", "1",
                               "--alpha", "0.5"],
    "error-bounds-alpha-range": ["bounds", "--params", "6,4,3", "--radius", "1",
                                 "--alpha", "3/2"],
    "error-bounds-invalid-params": ["bounds", "--params", "4,4,2"],
    "error-bounds-two-params": ["bounds", "--params", "6,4"],
    "error-bounds-non-integer-params": ["bounds", "--params", "6,4,x"],
    "error-bounds-radius-beyond-diameter": ["bounds", "--params", "6,4,3", "--radius", "5"],
    "error-bounds-alpha-beyond-regime": ["bounds", "--params", "6,4,3", "--radius", "2",
                                         "--alpha", "1/2"],
    "error-bounds-huge-result": ["bounds", "--params", "100000,50000,25000"],
    "error-bounds-empty-alpha": ["bounds", "--params", "6,4,3", "--radius", "1",
                                 "--alpha", ""],
    "error-worst-case-missing-radius": ["worst-case", "--params", "6,4,3"],
    "error-verify-max-n-below-two": ["verify", "--max-n", "1", "--trials", "0"],
    "error-generate-missing-params": ["generate", "--mode", "uniform-all"],
    "error-generate-ball-without-center": ["generate", "--params", "6,4,3",
                                           "--mode", "uniform-ball", "--radius", "1"],
    "error-generate-concentric-without-weights": ["generate", "--params", "6,4,3",
                                                  "--mode", "concentric", "--center", "1,2,3"],
    "error-generate-bad-weights": ["generate", "--params", "6,4,3", "--mode", "concentric",
                                   "--center", "1,2,3", "--weights", "0,0.5,1/2"],
    "error-generate-random-without-center": ["generate", "--params", "6,4,3",
                                             "--mode", "random-ball", "--radius", "1",
                                             "--seed", "42"],
    "error-generate-random-without-seed": ["generate", "--params", "6,4,3",
                                           "--mode", "random-ball", *TALLY_BALL, "1"],
    "error-generate-center-outside": ["generate", "--params", "6,4,3", "--mode", "uniform-ring",
                                      "--center", "1,2,9", "--radius", "1"],
    "error-generate-center-huge-member": ["generate", "--params", "6,4,3",
                                          "--mode", "uniform-ball",
                                          "--center", "1,2,1000000000", "--radius", "1"],
    # argparse exits
    "help": ["--help"],
    "error-no-command": [],
    "error-oracle-not-a-command": ["oracle", "brute-best", "--input", "example.json"],
    "error-verify-corrupt-coverage-not-an-option": ["verify", "--corrupt-coverage", "1,0"],
    "error-tally-self-check-not-an-option": ["tally", "--input", "example.json",
                                             "--self-check"],
}

CASES = {
    **REPORTS,
    **{f"{name}.structured": argv + S for name, argv in REPORTS.items()},
    **OTHERS,
}


def unquote_choices(record: str) -> str:
    """The record with argparse's "(choose from ...)" list unquoted.

    argparse quotes each choice in that list in Python 3.10 through 3.13.0,
    and later patch releases do not (3.13.13 prints ``choose from tally,
    bounds, ...``); the rest of the record is compared byte for byte.
    """
    return re.sub(r"\(choose from [^)]*\)", lambda m: m.group().replace("'", ""), record)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, monkeypatch, capsys, request):
    for path in (GOLDEN / "inputs").iterdir():
        shutil.copy(path, tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    if name.startswith("verify-corrupted"):
        request.getfixturevalue("corrupted_coverage")
    argv = CASES[name]
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    record = f"exit {code}\n--- stdout\n{captured.out}--- stderr\n{captured.err}"
    if "--output" in argv:
        dest = Path(argv[argv.index("--output") + 1])
        if dest.exists():
            record += f"--- {dest}\n{dest.read_text()}"
    expected = GOLDEN / f"{name}.txt"
    if os.environ.get("LISTVOTE_REGOLD"):
        expected.write_text(record)
    assert unquote_choices(record) == unquote_choices(expected.read_text())


def test_every_golden_file_has_a_case():
    assert {path.stem for path in GOLDEN.glob("*.txt")} == set(CASES)
