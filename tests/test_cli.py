import functools
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listvote import (
    BallotEntry,
    CandidateSubset,
    ElectionParams,
    RawBallotFile,
    TallyResult,
    ball,
    dumps_ballot_file,
    iter_lists,
    loads_ballot_file,
    normalize,
    parse_rational,
    theory,
)
from listvote import ballots, cli, tally
from listvote.cli import _json_text, main
from conftest import record_entries

EXAMPLE_FILE = """{
  "n": 7,
  "k": 4,
  "j": 3,
  "ballots": [
    {"list": [1, 2, 3], "weight": "7/15"},
    {"list": [4, 5, 6], "weight": "2/15"},
    {"list": [4, 5, 7], "weight": "2/15"},
    {"list": [4, 6, 7], "weight": "2/15"},
    {"list": [5, 6, 7], "weight": "2/15"}
  ]
}
"""


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(EXAMPLE_FILE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTally:
    def test_example_election(self, capsys, example_file):
        code, out, _ = run(capsys, "tally", "--input", example_file)
        assert code == 0
        assert "best approval: 8/15" in out
        assert "{4,5,6,7}" in out
        assert "floor (any distribution): 4/35" in out

    def test_structured_output(self, capsys, example_file):
        code, out, _ = run(capsys, "tally", "--input", example_file, "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["best_value"] == "8/15"
        assert doc["winners"] == [[4, 5, 6, 7]]
        assert doc["global_floor"] == "4/35"

    def test_ball_floor_reported(self, capsys, tmp_path):
        gen = tmp_path / "ring.json"
        assert main([
            "generate", "--params", "6,4,3", "--mode", "uniform-ring",
            "--center", "1,2,3", "--radius", "1", "--output", str(gen),
        ]) == 0
        capsys.readouterr()
        code, out, _ = run(
            capsys, "tally", "--input", str(gen),
            "--center", "1,2,3", "--radius", "1",
        )
        assert code == 0
        assert "best approval: 1/3" in out
        assert "radius 1 of {1,2,3}): 1/3" in out

    def test_uniform_ball_fixture_reports_4_19(self, capsys, tmp_path):
        gen = tmp_path / "ball.json"
        assert main([
            "generate", "--params", "6,4,3", "--mode", "uniform-ball",
            "--center", "1,2,3", "--radius", "2", "--output", str(gen),
        ]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "tally", "--input", str(gen))
        assert code == 0
        assert "best approval: 4/19" in out

    def test_threshold_flag(self, capsys, example_file):
        code, out, _ = run(capsys, "tally", "--input", example_file, "--threshold", "2")
        assert code == 0
        assert "threshold: 2" in out

    def test_support_outside_ball_exits_4(self, capsys, example_file):
        code, _, err = run(
            capsys, "tally", "--input", example_file,
            "--center", "1,2,3", "--radius", "1",
        )
        assert code == 4
        assert "outside declared ball" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "tally", "--input", "/no/such/file.json")
        assert code == 2

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, _ = run(capsys, "tally", "--input", str(bad))
        assert code == 2

    def test_huge_member_rejected_before_mask_is_built(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"n": 6, "k": 4, "j": 3, "ballots": [{"list": [1, 1000000000], "count": 1}]}'
        )
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "tally", "--input", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "1..6" in err
        assert peak < 1_000_000

    def test_result_too_long_to_print_exits_3(self, capsys, tmp_path):
        # Each weight fits the digit limit; the normalized shares, over a
        # common denominator of about 6,600 digits, do not.
        d = 10**2199 + 7
        weights = (f"1/{d}", f"1/{d + 1}", f"1/{2 * d + 1}")
        path = tmp_path / "long-shares.json"
        path.write_text(json.dumps({"n": 4, "k": 2, "j": 2, "ballots": [
            {"list": lst, "weight": w} for lst, w in zip(([1, 2], [1, 3], [2, 3]), weights)
        ]}))
        for fmt in ("human", "structured"):
            code, out, err = run(capsys, "tally", "--input", str(path), "--format", fmt)
            assert code == 3
            assert out == ""
            assert err == (
                "error: exact result has a numerator or denominator of more than "
                "4300 digits, too long to print\n"
            )

    def test_short_lists_without_complete_exit_3(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(
            '{"n": 6, "k": 4, "j": 3, "ballots": ['
            '{"list": [1, 2], "count": 1}, {"list": [1, 2, 3], "count": 1}]}'
        )
        code, _, err = run(capsys, "tally", "--input", str(path))
        assert code == 3
        assert "--complete" in err

    def test_complete_pipeline(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(
            '{"n": 6, "k": 4, "j": 3, "ballots": ['
            '{"list": [1, 2], "count": 1}, {"list": [4], "count": 1}]}'
        )
        code, out, _ = run(
            capsys, "tally", "--input", str(path),
            "--complete", "--center", "1,2,3", "--radius", "1",
        )
        assert code == 0
        # {1,2}->{1,2,3}, {4}->{1,2,4}: committee {1,2,3,4} satisfies both
        assert "best approval: 1" in out
        assert "{1,2,3,4}" in out

    def test_incompletable_entry_exits_4(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(
            '{"n": 6, "k": 4, "j": 3, "ballots": [{"list": [4, 5], "count": 1}]}'
        )
        code, _, err = run(
            capsys, "tally", "--input", str(path),
            "--complete", "--center", "1,2,3", "--radius", "1",
        )
        assert code == 4

    def test_best_below_floor_exits_1(self, capsys, monkeypatch, example_file):
        def below_floor(dist, s):
            return TallyResult(Fraction(1, 100), (CandidateSubset((1, 2, 3, 4)),), "sparse")

        monkeypatch.setattr("listvote.cli.best_committees", below_floor)
        code, out, err = run(capsys, "tally", "--input", example_file)
        assert code == 1
        assert out == ""
        assert err == "error: self-check failed: best 1/100 below floor 4/35\n"

    def test_ball_check_and_kernel_leave_support_unbuilt(self, capsys, monkeypatch, tmp_path):
        # the per-list Fraction weights are built only when dist.support is read
        seen = []
        monkeypatch.setattr(cli, "normalize", lambda raw: seen.append(normalize(raw)) or seen[-1])
        path = tmp_path / "ball.json"
        path.write_text(
            '{"n": 6, "k": 4, "j": 3, "ballots": ['
            '{"list": [1, 2, 3], "count": 2}, {"list": [1, 2, 4], "count": 1}]}'
        )
        code, out, _ = run(capsys, "tally", "--input", str(path),
                           "--center", "1,2,3", "--radius", "1")
        assert code == 0
        assert "best approval: 1" in out
        [dist] = seen
        assert "support" not in vars(dist)
        for s in range(dist.params.j + 1):
            for way in tally.paths(dist.params, s, len(dist), dist.total):
                cli.best_committees(dist, s, _path=way)
        assert "support" not in vars(dist)

    def test_complete_refuses_a_full_list_outside_the_ball_itself(self, capsys, tmp_path):
        # completion refuses the full-length {4,5,6} with its own message,
        # before the declared-ball test runs
        path = tmp_path / "far.json"
        path.write_text(
            '{"n": 6, "k": 4, "j": 3, "ballots": ['
            '{"list": [1, 2], "count": 1}, {"list": [4, 5, 6], "count": 1}]}'
        )
        code, out, err = run(capsys, "tally", "--input", str(path),
                             "--complete", "--center", "1,2,3", "--radius", "1")
        assert (code, out) == (4, "")
        assert err == ("error: entry {4,5,6} has no size-3 superset within distance 1 "
                       "of {1,2,3}\n")

    @pytest.mark.parametrize("complete", [False, True], ids=["declared", "completed"])
    def test_a_declared_ball_is_made_once_and_the_file_parsed_once(self, capsys, monkeypatch,
                                                                    tmp_path, complete):
        # the traced benchmark records its johnson.ball and ballots.parse spans
        # at these two boundaries, so each must be entered on every such tally
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "ball", counted("ball", cli.ball))
        monkeypatch.setattr(ballots, "loads_ballot_file",
                            counted("parse", ballots.loads_ballot_file))
        path = tmp_path / "ball.json"
        path.write_text(
            '{"n": 6, "k": 4, "j": 3, "ballots": ['
            '{"list": [1, 2], "count": 2}, {"list": [1, 2, 4], "count": 1}]}'
            if complete else
            '{"n": 6, "k": 4, "j": 3, "ballots": ['
            '{"list": [1, 2, 3], "count": 2}, {"list": [1, 2, 4], "count": 1}]}'
        )
        code, out, _ = run(capsys, "tally", "--input", str(path), "--center", "1,2,3",
                           "--radius", "1", *(["--complete"] if complete else []))
        assert code == 0 and "best approval: 1" in out
        assert calls == {"ball": 1, "parse": 1}


class TestBounds:
    def test_global_floor(self, capsys):
        code, out, _ = run(capsys, "bounds", "--params", "6,4,3")
        assert code == 0
        assert "floor (any distribution): 1/5" in out

    def test_ball_floor(self, capsys):
        code, out, _ = run(capsys, "bounds", "--params", "6,4,3", "--radius", "1")
        assert code == 0
        assert "radius 1): 1/3" in out

    def test_beyond_regime_reports_worst_case(self, capsys):
        code, out, _ = run(capsys, "bounds", "--params", "6,4,3", "--radius", "2")
        assert code == 0
        assert "no guaranteed ball floor" in out
        assert "worst case over concentric distributions: 1/5" in out

    def test_alpha(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--params", "6,4,3", "--radius", "1", "--alpha", "3/4"
        )
        assert code == 0
        assert "1/4" in out

    def test_alpha_without_radius_exits_3(self, capsys):
        code, _, _ = run(capsys, "bounds", "--params", "6,4,3", "--alpha", "1/2")
        assert code == 3

    def test_bad_params_exit_3(self, capsys):
        code, _, _ = run(capsys, "bounds", "--params", "4,4,2")
        assert code == 3
        code, _, _ = run(capsys, "bounds", "--params", "6,4")
        assert code == 3

    def test_radius_beyond_diameter_exits_3(self, capsys):
        code, _, _ = run(capsys, "bounds", "--params", "6,4,3", "--radius", "5")
        assert code == 3

    # An empty --alpha is pinned by the golden case error-bounds-empty-alpha.
    @pytest.mark.parametrize("argv, message", [
        (["bounds", "--params", ""], "--params wants n,k,j; got ''"),
        (["generate", "--params", "6,4,3", "--mode", "uniform-ball", "--center", "",
          "--radius", "1"], "center {} is not a 3-list"),
        (["generate", "--params", "6,4,3", "--mode", "concentric", "--center", "1,2,3",
          "--weights", ""], "bad --weights '': not an exact rational literal: ''"),
    ], ids=["params", "center", "weights"])
    def test_empty_option_value_exits_3(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == f"error: {message}\n"

    def test_floor_too_long_to_print_refused_before_any_binomial(self, capsys, monkeypatch):
        def no_binomial(a, b):
            raise AssertionError(f"binomial({a}, {b}) built")

        monkeypatch.setattr(theory, "binomial", no_binomial)
        code, out, err = run(capsys, "bounds", "--params", "2000000,1000000,500000")
        assert code == 3
        assert out == ""
        assert err == (
            "error: exact result has a numerator or denominator of more than "
            "4300 digits, too long to print\n"
        )

    def test_floor_with_k_close_to_n_builds_no_binomial_past_max_class(self, capsys,
                                                                       monkeypatch):
        # the lgamma estimate lets this one through: C(n,j)/C(k,j) is small
        params = ElectionParams(600000, 597000, 150000)
        build = theory.binomial

        def small_binomial(a, b):
            if min(b, a - b) > params.max_class:
                raise AssertionError(f"binomial({a}, {b}) built")
            return build(a, b)

        monkeypatch.setattr(theory, "binomial", small_binomial)
        code, out, err = run(capsys, "bounds", "--params", "600000,597000,150000")
        assert code == 3
        assert out == ""
        assert err == (
            "error: exact result has a numerator or denominator of more than "
            "4300 digits, too long to print\n"
        )

    def test_floor_too_long_to_print_is_still_exact_in_the_library(self):
        floor = theory.global_floor(ElectionParams(100000, 50000, 25000))
        assert floor.denominator >= 10**4300  # 4,301 digits or more: too long to print
        assert floor == Fraction(math.comb(50000, 25000), math.comb(100000, 25000))

    def test_floor_past_float_range_is_built_exactly(self, capsys):
        # lgamma overflows at n = 10**400, so no estimate can refuse the
        # floor: it is built, and (n-1)/n is short enough to print
        n = 10**400
        code, out, err = run(capsys, "bounds", "--params", f"{n},{n - 1},1")
        assert (code, err) == (0, "")
        assert out == (
            f"parameters: n={n} k={n - 1} j=1\n"
            f"floor (any distribution): {n - 1}/{n}\n"
        )

    def test_binomial_past_machine_range_is_refused(self, capsys):
        # lgamma overflows at n = 10**400 too, and C(n, j) for j = 10**399 has
        # a lower index past 2**63 - 1; (n/k)**j refuses the floor first:
        # one error line and exit 3
        n = 10**400
        code, out, err = run(capsys, "bounds", "--params", f"{n},{n // 2},{n // 10}")
        assert (code, out) == (3, "")
        assert err == (
            "error: exact result has a numerator or denominator of more than "
            "4300 digits, too long to print\n"
        )

    def test_floor_past_float_range_refused_before_any_binomial(self, capsys, monkeypatch):
        # C(n, 100000) for n = 10**400 has about 40 million digits; the floor's
        # reduced denominator is at least (n/k)**j = 2**100000, 30,103 digits
        def no_binomial(a, b):
            raise AssertionError(f"binomial({a}, {b}) built")

        monkeypatch.setattr(theory, "binomial", no_binomial)
        n = 10**400
        code, out, err = run(capsys, "bounds", "--params", f"{n},{n // 2},100000")
        assert (code, out) == (3, "")
        assert err == (
            "error: exact result has a numerator or denominator of more than "
            "4300 digits, too long to print\n"
        )

    def test_approx_annotation(self, capsys):
        code, out, _ = run(capsys, "bounds", "--params", "6,4,3", "--approx")
        assert code == 0
        assert "1/5 (~0.2)" in out


class TestWorstCase:
    def test_radius_two(self, capsys):
        code, out, _ = run(capsys, "worst-case", "--params", "6,4,3", "--radius", "2")
        assert code == 0
        assert "worst-case best approval: 1/5" in out
        assert "1/10, 3/10, 3/5" in out

    def test_structured(self, capsys):
        code, out, _ = run(
            capsys, "worst-case", "--params", "6,4,3", "--radius", "1",
            "--format", "structured",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["worst_case"]["value"] == "1/3"
        assert doc["worst_case"]["weights"] == ["0", "1"]

    def test_radius_at_diameter_is_global_floor(self, capsys):
        # the ball is the whole list space
        code, out, _ = run(capsys, "worst-case", "--params", "6,4,3", "--radius", "3")
        assert code == 0
        assert "worst-case best approval: 1/5" in out


class TestGenerate:
    def test_huge_center_member_rejected_before_mask_is_built(self, capsys):
        run(capsys, "bounds", "--params", "6,4,3")  # build the cached parser outside the trace
        tracemalloc.start()
        try:
            code, _, err = run(
                capsys, "generate", "--params", "6,4,3", "--mode", "uniform-ball",
                "--center", "1,2,1000000000", "--radius", "1",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert err == "error: center {1,2,1000000000} outside candidates 1..6\n"
        assert peak < 20_000_000

    def test_uniform_ring(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--params", "6,4,3", "--mode", "uniform-ring",
            "--center", "1,2,3", "--radius", "1",
        )
        assert code == 0
        raw = loads_ballot_file(out)
        assert len(record_entries(raw)) == 9
        assert all(e.multiplicity == Fraction(1, 9) for e in record_entries(raw))

    def test_concentric_weights_are_ring_two(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--params", "6,4,3", "--mode", "concentric",
            "--center", "1,2,3", "--weights", "0,0,1",
        )
        assert code == 0
        raw = loads_ballot_file(out)
        assert len(record_entries(raw)) == 9
        assert all(e.multiplicity == Fraction(1, 9) for e in record_entries(raw))
        center = {1, 2, 3}
        assert all(len(center & set(e.subset.members)) == 1 for e in record_entries(raw))

    def test_random_ball_seeded(self, capsys):
        argv = [
            "generate", "--params", "6,4,3", "--mode", "random-ball",
            "--center", "1,2,3", "--radius", "1", "--voters", "500", "--seed", "42",
        ]
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        code, out2, _ = run(capsys, *argv)
        assert out1 == out2
        raw = loads_ballot_file(out1)
        assert sum(e.multiplicity for e in record_entries(raw)) == 500
        dist = normalize(raw)
        assert sum(w for _, w in dist.items()) == 1
        center = {1, 2, 3}
        assert all(len(center & set(lst.members)) >= 2 for lst in dist.support)

    def test_random_without_seed_exits_3(self, capsys):
        code, _, _ = run(
            capsys, "generate", "--params", "6,4,3", "--mode", "random-ball",
            "--center", "1,2,3", "--radius", "1",
        )
        assert code == 3

    def test_uniform_all(self, capsys):
        code, out, _ = run(capsys, "generate", "--params", "5,3,2", "--mode", "uniform-all")
        assert code == 0
        raw = loads_ballot_file(out)
        assert len(record_entries(raw)) == 10

    @pytest.mark.parametrize("flag", [["--format", "structured"], ["--approx"]])
    def test_report_flags_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--params", "5,3,2", "--mode", "uniform-all", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_generate_tally_round_trip_meets_floor(self, capsys, tmp_path):
        for seed in (1, 2, 3):
            gen = tmp_path / f"g{seed}.json"
            assert main([
                "generate", "--params", "7,4,3", "--mode", "random-ball",
                "--center", "1,2,3", "--radius", "1", "--voters", "60",
                "--seed", str(seed), "--output", str(gen),
            ]) == 0
            code, out, _ = run(
                capsys, "tally", "--input", str(gen),
                "--center", "1,2,3", "--radius", "1", "--format", "structured",
            )
            assert code == 0
            doc = json.loads(out)
            best = parse_rational(doc["best_value"])
            assert best >= parse_rational(doc["ball_floor"])


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "7", "--trials", "5", "--seed", "0")
        assert code == 0
        assert "RESULT: PASS" in out
        assert "[ring-monotonicity]" in out
        assert "[coverage-monotonicity]" in out
        assert "[concentric-domination]" in out
        assert "[oracle-equivalence]" in out

    def test_oracle_trials_run_sparse_alone_without_word_lanes(self, capsys, monkeypatch):
        # no machine-word lanes, as on a big-endian host: packed cannot run,
        # and the oracle trials check the sparse path alone
        from listvote import tally

        monkeypatch.setattr(tally, "_WORDS", {})
        code, out, _ = run(capsys, "verify", "--max-n", "6", "--trials", "4", "--seed", "0")
        assert code == 0
        assert "RESULT: PASS" in out

    def test_deterministic_given_seed(self, capsys):
        argv = ["verify", "--max-n", "6", "--trials", "4", "--seed", "7"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_corrupted_coverage_fails_with_cell(self, capsys, corrupted_coverage):
        code, out, _ = run(capsys, "verify", "--max-n", "6", "--trials", "2", "--seed", "0")
        assert code == 1
        assert "RESULT: FAIL" in out
        assert "r=1 m=0" in out

    def test_negative_trials_exits_3(self, capsys):
        code, out, err = run(capsys, "verify", "--max-n", "5", "--trials", "-1")
        assert code == 3
        assert out == ""
        assert err == "error: --trials must be >= 0, got -1\n"

    def test_max_n_below_random_trials_exits_3(self, capsys):
        code, out, err = run(capsys, "verify", "--max-n", "3")
        assert code == 3
        assert out == ""
        assert err.startswith("error: --max-n 3 is below 4")
        code, out, _ = run(capsys, "verify", "--max-n", "3", "--trials", "0")
        assert code == 0
        assert "RESULT: PASS" in out

    def test_max_n_below_two_exits_3(self, capsys):
        # with --trials 0 this is the golden case error-verify-max-n-below-two
        code, out, err = run(capsys, "verify", "--max-n", "1")
        assert code == 3
        assert out == ""
        assert err == "error: --max-n must be >= 2, got 1\n"

    def test_approx_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-n", "4", "--approx"])
        assert exc.value.code == 2

    def test_structured_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--max-n", "5", "--trials", "2", "--seed", "1",
            "--format", "structured",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert {s["name"] for s in doc["suites"]} >= {
            "ring-monotonicity", "coverage-monotonicity",
            "concentric-domination", "oracle-equivalence",
        }


class TestOracleSubcommand:
    """The oracle is a library module only; no command reaches it."""

    def test_hidden_from_usage(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        usage_line = out.splitlines()[0]
        assert "{tally,bounds,verify,generate,worst-case}" in usage_line
        assert "oracle" not in usage_line


class TestOutputFiles:
    def test_report_written_to_output(self, tmp_path, capsys, example_file):
        dest = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "tally", "--input", example_file,
            "--format", "structured", "--output", str(dest),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(dest.read_text())
        assert doc["best_value"] == "8/15"


@pytest.mark.parametrize("bad", ["[1, 2, 9]", "[1, 1, 2]"], ids=["range", "duplicate"])
def test_both_ballot_readers_reject_a_file_alike(capsys, tmp_path, bad):
    # the tool's own layout takes the per-text reader; the compact copy, json's
    written = tmp_path / "written.json"
    main(["generate", "--params", "6,4,3", "--mode", "uniform-ring", "--center", "1,2,3",
          "--radius", "1", "--output", str(written)])
    text = written.read_text().replace("[1, 2, 4]", bad)
    written.write_text(text)
    packed = tmp_path / "packed.json"
    packed.write_text(json.dumps(json.loads(text)))
    results = [run(capsys, "tally", "--input", str(path)) for path in (written, packed)]
    assert results[0] == results[1]
    code, out, err = results[0]
    assert code == 2 and out == "" and err.startswith("error: ballot ")


def test_both_ballot_readers_reject_a_weight_in_non_ascii_digits(capsys, tmp_path):
    # "٢/١٥" is 2/15 in Arabic-Indic digits, which a regex \d matches; a
    # weight is written in 0-9 only
    text = EXAMPLE_FILE.replace('[4, 5, 6], "weight": "2/15"', '[4, 5, 6], "weight": "٢/١٥"')
    path = tmp_path / "digits.json"
    results = []
    for layout in (text, json.dumps(json.loads(text))):
        path.write_text(layout, encoding="utf-8")
        results.append(run(capsys, "tally", "--input", str(path)))
    assert results[0] == results[1]
    assert results[0] == (2, "", "error: ballot 1: not an exact rational literal: '٢/١٥'\n")


def test_both_ballot_readers_reject_a_padded_weight(capsys, tmp_path):
    # an ideographic space, a space and an escaped newline around "2/15": the
    # option parser strips such padding, a ballot file's weight has none
    text = EXAMPLE_FILE.replace('[4, 5, 6], "weight": "2/15"',
                                '[4, 5, 6], "weight": "\u3000 2/15\\n"')
    path = tmp_path / "padded.json"
    results = []
    for layout in (text, json.dumps(json.loads(text))):
        path.write_text(layout, encoding="utf-8")
        results.append(run(capsys, "tally", "--input", str(path)))
    assert results[0] == results[1]
    assert results[0] == (2, "", "error: ballot 1: not an exact rational literal: "
                                 "'\\u3000 2/15\\n'\n")


def test_padded_options_are_stripped_before_parsing(capsys):
    # the option parsers strip padding, the library's parse_rational takes none
    code, out, _ = run(capsys, "bounds", "--params", "6,4,3", "--radius", "1",
                       "--alpha", " 1/2 ")
    assert code == 0 and "floor (fraction 1/2 of voters in the ball)" in out
    code, out, _ = run(capsys, "generate", "--mode", "concentric", "--params", "7,4,3",
                       "--center", "1,2,3", "--weights", "0, 1/3, 2/3")
    unpadded = run(capsys, "generate", "--mode", "concentric", "--params", "7,4,3",
                   "--center", "1,2,3", "--weights", "0,1/3,2/3")
    assert code == 0 and (code, out, "") == unpadded


SRC = Path(__file__).resolve().parents[1] / "src"
# Caps the child's own address space once the CLI is imported, then runs it.
CAPPED_MAIN = """
import resource, sys
from listvote.cli import main
cap = 256 << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
def test_running_out_of_memory_exits_3_with_one_line(tmp_path):
    # uniform-all at (60,30,20) would hold C(60,20), about 4.2e15, lists
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, "generate", "--mode", "uniform-all",
         "--params", "60,30,20"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "error: generate ran out of memory\n")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
def test_a_large_declared_ball_is_tested_not_built(tmp_path):
    # the radius-5 ball about {1..6} at (40,10,6) holds over 2.4 million
    # lists; the three records span {1..8}, so 496 committees take them all
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    records = ",\n    ".join(f'{{"list": {m}, "count": 1}}' for m in
                              ([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 7, 8], [1, 2, 5, 6, 7, 8]))
    (tmp_path / "wide.json").write_text(
        f'{{\n  "n": 40,\n  "k": 10,\n  "j": 6,\n  "ballots": [\n    {records}\n  ]\n}}\n')
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, "tally", "--input", "wide.json",
         "--center", "1,2,3,4,5,6", "--radius", "5", "--format", "structured"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert doc["best_value"] == "1" and len(doc["winners"]) == 496


def run_quietly(*argv):
    """``main``'s exit code, stdout and stderr, captured without a fixture."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def ballot_path(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "ballots.json"


@st.composite
def supports_and_balls(draw):
    """A ballot file of counted j-lists with n <= 9, and a center and radius."""
    n = draw(st.integers(2, 9))
    k = draw(st.integers(1, n - 1))
    params = ElectionParams(n, k, draw(st.integers(1, k)))
    lists = sorted(iter_lists(params))
    support = draw(st.lists(st.sampled_from(lists), min_size=1, max_size=12, unique=True))
    raw = RawBallotFile(params, [BallotEntry(lst, draw(st.integers(1, 5))) for lst in support])
    return raw, draw(st.sampled_from(lists)), draw(st.integers(0, params.diameter))


@settings(deadline=None)
@given(supports_and_balls())
def test_tally_refuses_exactly_the_support_outside_the_ball_view(ballot_path, case):
    raw, center, radius = case
    view = ball(center, radius, raw.params)
    outside = sorted(e.subset for e in raw.distinct if e.subset not in view)
    # the view's popcount agrees with the lists its rings build
    built = set(view)
    assert outside == sorted(e.subset for e in raw.distinct if e.subset not in built)
    ballot_path.write_text(dumps_ballot_file(raw))
    code, out, err = run_quietly("tally", "--input", str(ballot_path), "--center",
                                 ",".join(map(str, center.members)), "--radius", str(radius))
    if outside:
        assert (code, out) == (4, "")
        assert err == (f"error: support outside declared ball (radius {radius} of {center}): "
                       f"{', '.join(map(str, outside[:5]))}\n")
    else:
        assert (code, err) == (0, "")


@pytest.mark.parametrize("path", ["packed", "sparse"])
def test_a_wide_tie_decodes_every_winner(capsys, monkeypatch, tmp_path, path):
    # every (20,10,3) committee holding the one list {1,10,20} wins: C(17,7)
    # = 19,448 of them, spread over most rows of the packed read-out
    monkeypatch.setattr(cli, "best_committees",
                        functools.partial(tally.best_committees, _path=path))
    ballots_file = tmp_path / "one.json"
    ballots_file.write_text(
        '{"n": 20, "k": 10, "j": 3, "ballots": [{"list": [1, 10, 20], "count": 1}]}')
    code, out, _ = run(capsys, "tally", "--input", str(ballots_file), "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert (doc["strategy"], doc["best_value"], len(doc["winners"])) == (path, "1", 19448)
    winners = doc["winners"]
    assert winners == sorted(winners) and len(set(map(tuple, winners))) == 19448
    assert all(len(w) == 10 and w == sorted(set(w)) and {1, 10, 20} <= set(w)
               and w[-1] <= 20 for w in winners)


# generate's options, tally's options, then the path that runs, its lane
# width in bytes, the best value and the winner count
TALLY_PATHS = [
    # a dense (14,7,4) radius-2 ball runs the packed lattice
    pytest.param(["--mode", "uniform-ball", "--params", "14,7,4", "--center", "1,2,3,4",
                  "--radius", "2"], ["--center", "1,2,3,4", "--radius", "2"],
                 "packed", 2, "31/311", 120, id="dense-ball"),
    # 20,000 voters at (40,4,3) would need 2**40 lanes, and run the sparse rank tables
    pytest.param(["--mode", "random-ball", "--params", "40,4,3", "--center", "1,2,3",
                  "--radius", "1", "--voters", "20000", "--seed", "1"],
                 ["--center", "1,2,3", "--radius", "1"],
                 "sparse", 2, "397/10000", 1, id="wide-random-ball"),
    # a (10,8,3) total above 2**64 needs 9-byte lanes, not a machine word
    pytest.param(["--mode", "concentric", "--params", "10,8,3", "--center", "1,2,3",
                  "--weights", "1/18446744073709551629,1/18446744073709551629,"
                  "18446744073709551627/18446744073709551629,0"], [],
                 "sparse", 9, "61489146912365172102/129127208515966861403", 21,
                 id="nine-byte-lanes"),
    # at s = 2, (10,8,3) over the prime 2**63 - 25 packs on 8-byte residue
    # lanes, the total's 63 bits and one guard bit; a lane bound per Moebius
    # sign (3 times the total) would need 9 bytes
    pytest.param(["--mode", "concentric", "--params", "10,8,3", "--center", "1,2,3",
                  "--weights", "4/9223372036854775783,42/9223372036854775783,"
                  "9223372036854775737/9223372036854775783,0"], ["--threshold", "2"],
                 "packed", 8, "9223372036854775765/9223372036854775783", 3,
                 id="guarded-eight-byte-lanes"),
    # every (14,10,10) list meets every committee in at least 6 members, so
    # at s = 4 all 1001 committees win with value 1; seeding runs downward
    # at every rank, dividing by up to 6
    pytest.param(["--mode", "uniform-all", "--params", "14,10,10"], ["--threshold", "4"],
                 "packed", 2, "1", 1001, id="full-support-threshold"),
]


@pytest.mark.parametrize("generate, options, path, width, value, winners", TALLY_PATHS)
def test_generated_files_run_each_tally_path(capsys, tmp_path, generate, options, path, width,
                                              value, winners):
    ballots = tmp_path / "ballots.json"
    assert main(["generate", *generate, "--output", str(ballots)]) == 0
    code, out, _ = run(capsys, "tally", "--input", str(ballots), *options,
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    dist = normalize(loads_ballot_file(ballots.read_text()))
    assert tally.lane_bytes(dist.total, dist.params.j, doc["threshold"]) == width
    assert (doc["strategy"], doc["best_value"], len(doc["winners"])) == (path, value, winners)


# Nested JSON values, with tuples (which json writes as arrays) and all-int
# lists (which the writer joins in one go) made likely.
json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers(), max_size=5)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=30,
)


@given(json_documents)
def test_structured_writer_matches_json(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_structured_writer_renders_exact_objects_like_json():
    worst = theory.WorstCaseResult(Fraction(1, 3), (Fraction(0), Fraction(1)), 0)
    report = theory.VerificationReport("suite", (theory.CheckedCell("cell", True),
                                                 theory.CheckedCell("other", False, "why")))
    records = {"params": ElectionParams(7, 4, 3), "worst_case": worst, "suites": [report]}
    # a tie set is written one subset per join; an empty subset is "[]"
    doc = {"value": Fraction(8, 15), "winners": [CandidateSubset((4, 5, 6, 7))],
           "ties": (CandidateSubset((1, 2)), CandidateSubset(()), CandidateSubset((9,))),
           "none": [], "empty": {}, **records}
    # json.dumps writes any tuple as an array and never asks `default` about
    # it, so the reference takes the tuple records already converted
    converted = dict(doc, params=cli._json_value(records["params"]),
                     worst_case=cli._json_value(worst), suites=[cli._json_value(report)])
    assert _json_text(doc) == json.dumps(converted, indent=2, sort_keys=True,
                                          default=cli._json_value)
    assert json.loads(_json_text(doc))["suites"] == [{
        "name": "suite", "passed": False,
        "cells": [{"label": "cell", "ok": True, "detail": ""},
                  {"label": "other", "ok": False, "detail": "why"}],
    }]


def test_a_lone_subset_renders_as_its_members():
    # a subset is a tuple record (members, mask), written as its members alone
    s = CandidateSubset((3, 1, 2))
    assert _json_text(s) == json.dumps([1, 2, 3], indent=2)
    assert cli._human_text(s, approx=False) == "{1,2,3}"


def test_json_dumps_never_receives_a_bare_subset(monkeypatch, capsys, example_file):
    # the renderer writes a subset's members itself, so no encoder sees the
    # tuple record (members, mask) behind it
    dumps, seen = json.dumps, []
    monkeypatch.setattr(cli.json, "dumps", lambda value: seen.append(value) or dumps(value))
    code, out, _ = run(capsys, "tally", "--input", example_file, "--format", "structured")
    assert code == 0 and json.loads(out)["winners"] == [[4, 5, 6, 7]]
    assert seen and not any(isinstance(value, CandidateSubset) for value in seen)


def test_structured_writer_rejects_an_unknown_type():
    with pytest.raises(TypeError, match="^no structured form for object$"):
        _json_text({"winners": [object()]})
