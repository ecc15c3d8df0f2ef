"""Each command imports only what it runs, and the package's lazy names still resolve.

A command's module set is read in a fresh interpreter, since this one has
loaded every submodule already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import listvote
from listvote import cli

SRC = Path(__file__).parent.parent / "src"

# Every public name of the package root while it imported each submodule
# eagerly: the library's names and the submodules themselves.
ROOT_NAMES = (
    "BallotEntry", "BallotFormatError", "CandidateSubset", "ElectionParams",
    "HypothesisViolation", "ParameterError", "RawBallotFile", "TallyResult",
    "VerificationReport", "VoterDistribution", "WorstCaseResult", "ball", "ball_floor",
    "ball_floor_radius_limit", "ballots", "best_committees", "binomial", "brute_best",
    "brute_minimax_grid", "brute_minimax_vertices", "complete_short_lists", "concentric",
    "coverage_monotonicity_check", "distance", "distribution_to_raw", "dumps_ballot_file",
    "errors", "exactnum", "format_rational", "global_floor", "iter_lists", "johnson",
    "loads_ballot_file", "normalize", "oracle", "parse_rational", "project_concentric",
    "random_distribution", "read_ballot_file", "ring", "ring_coverage",
    "ring_monotone_threshold", "ring_monotonicity_check", "ring_size", "ring_weights",
    "sample_ball_counts", "tally", "theory", "uniform_on", "worst_case_concentric",
)
# The cli attributes a traced run rebinds (perfbench/tracing.py BOUNDARIES).
TRACED_STAGES = ("read_ballot_file", "complete_short_lists", "normalize", "ball",
                 "best_committees")
HEAVY = {"listvote.ballots", "listvote.tally", "listvote.oracle"}
# Standard modules no command needs: the records are built without them.
UNNEEDED = {"dataclasses", "inspect"}

# Six candidates, 4-committees, 3-lists; {1,2} completes to {1,2,3} in the
# radius-1 ball about {1,2,3}.
SHORT_LIST_FILE = json.dumps({"n": 6, "k": 4, "j": 3, "ballots": [
    {"list": [1, 2, 3], "count": 2}, {"list": [1, 2], "count": 1},
    {"list": [1, 2, 4], "count": 1},
]})

RUN_COMMAND = f"""
import json, sys
from listvote import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("listvote.") or m in {sorted(UNNEEDED)!r})]))
"""


def fresh(code: str, *args: str, cwd: Path) -> object:
    """The JSON value ``code`` prints last, run in a new interpreter on this checkout."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_by(tmp_path: Path, *argv: str) -> set[str]:
    """The ``listvote`` submodules, and the ``UNNEEDED`` modules, that a fresh
    ``cli.main(argv)`` has loaded when it returns."""
    (tmp_path / "short.json").write_text(SHORT_LIST_FILE)
    code, modules = fresh(RUN_COMMAND, *argv, "--output", "out.txt", cwd=tmp_path)
    assert code == 0
    return set(modules)


COMMANDS = {
    "worst-case": ("worst-case", "--params", "22,14,8", "--radius", "4"),
    "bounds": ("bounds", "--params", "9,5,3", "--radius", "1", "--alpha", "1/2"),
    # beyond the guaranteed regime: bounds reports the computed worst case
    "bounds-worst-case": ("bounds", "--params", "22,14,8", "--radius", "4"),
    "tally": ("tally", "--input", "short.json", "--complete", "--center", "1,2,3",
              "--radius", "1"),
    "generate": ("generate", "--mode", "random-ball", "--params", "9,5,3", "--center", "1,2,3",
                 "--radius", "1", "--seed", "1"),
    "verify": ("verify", "--max-n", "4", "--trials", "1"),
}


class TestCommandsImportOnlyWhatTheyRun:
    @pytest.mark.parametrize("name", ["worst-case", "bounds", "bounds-worst-case"])
    def test_closed_forms_and_lp_load_no_ballots_tally_or_oracle(self, tmp_path, name):
        loaded = loaded_by(tmp_path, *COMMANDS[name])
        assert {"listvote.cli", "listvote.theory"} <= loaded
        assert not loaded & HEAVY

    def test_tally_loads_no_oracle(self, tmp_path):
        loaded = loaded_by(tmp_path, *COMMANDS["tally"])
        assert {"listvote.ballots", "listvote.tally"} <= loaded
        assert "listvote.oracle" not in loaded

    def test_generate_loads_no_tally_or_oracle(self, tmp_path):
        loaded = loaded_by(tmp_path, *COMMANDS["generate"])
        assert "listvote.ballots" in loaded
        assert not loaded & {"listvote.tally", "listvote.oracle"}

    def test_verify_loads_the_oracle(self, tmp_path):
        loaded = loaded_by(tmp_path, *COMMANDS["verify"])
        assert HEAVY <= loaded

    @pytest.mark.parametrize("name", COMMANDS)
    def test_no_command_loads_dataclasses_or_inspect(self, tmp_path, name):
        # importing dataclasses (and with it inspect) and building a
        # @dataclass class each cost a fresh process milliseconds
        loaded = loaded_by(tmp_path, *COMMANDS[name])
        assert "listvote.cli" in loaded
        assert not loaded & UNNEEDED


class TestLazyRootNames:
    def test_every_exported_name_resolves_and_is_listed(self):
        for name in ROOT_NAMES:
            assert getattr(listvote, name) is not None, name
        assert set(ROOT_NAMES) <= set(dir(listvote))
        assert set(ROOT_NAMES) == set(listvote.__all__)
        assert listvote.ball_floor is listvote.theory.ball_floor
        assert listvote.RawBallotFile is listvote.ballots.RawBallotFile

    def test_star_import_gives_every_exported_name(self):
        scope: dict = {}
        exec("from listvote import *", scope)
        assert set(ROOT_NAMES) <= scope.keys()
        assert scope["best_committees"] is listvote.tally.best_committees

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            listvote.no_such_name
        with pytest.raises(ImportError):
            exec("from listvote import no_such_name", {})
        with pytest.raises(AttributeError, match="has no attribute 'no_such_stage'"):
            cli.no_such_stage

    def test_importing_the_root_loads_no_submodule(self, tmp_path):
        code = ("import json, sys, listvote\n"
                "print(json.dumps(sorted(m for m in sys.modules if m.startswith('listvote.'))))")
        assert fresh(code, cwd=tmp_path) == []


class TestLazyCliStages:
    def test_traced_stages_are_callable_before_any_tally(self, tmp_path):
        code = (
            "import json, sys\n"
            "from listvote import cli\n"
            "before = sorted(m for m in sys.modules if m.startswith('listvote.'))\n"
            f"stages = {TRACED_STAGES!r}\n"
            "print(json.dumps([before, [callable(getattr(cli, name)) for name in stages]]))"
        )
        before, callables = fresh(code, cwd=tmp_path)
        assert not set(before) & HEAVY
        assert callables == [True] * len(TRACED_STAGES)

    def test_verify_trials_run_before_any_command(self, tmp_path):
        # the trials call cli.best_committees, which no command has run yet
        code = (
            "import json\n"
            "from random import Random\n"
            "from listvote import ElectionParams, cli, random_distribution\n"
            "rng = Random(0)\n"
            "dist = random_distribution(ElectionParams(6, 4, 3), rng)\n"
            "trials = (cli._domination_trial, cli._oracle_trial)\n"
            "print(json.dumps([trial(dist, rng)[1] for trial in trials]))"
        )
        assert fresh(code, cwd=tmp_path) == [True, True]

    def test_wrappers_set_before_the_first_tally_are_called(self, tmp_path):
        # each wrapper is bound without reading the stage through cli first,
        # so the command must keep it rather than bind the library's own
        (tmp_path / "short.json").write_text(SHORT_LIST_FILE)
        code = (
            "import json, sys\n"
            "from listvote import ballots, cli, johnson, tally\n"
            "calls = []\n"
            "def wrap(name, fn):\n"
            "    def wrapper(*args, **kwargs):\n"
            "        calls.append(name)\n"
            "        return fn(*args, **kwargs)\n"
            "    return wrapper\n"
            f"for name in {TRACED_STAGES!r}:\n"
            "    home = johnson if name == 'ball' else tally if name == 'best_committees' "
            "else ballots\n"
            "    setattr(cli, name, wrap(name, getattr(home, name)))\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(set(calls))]))"
        )
        code, called = fresh(code, "tally", "--input", "short.json", "--complete", "--center",
                             "1,2,3", "--radius", "1", "--output", "out.txt", cwd=tmp_path)
        assert code == 0
        assert called == sorted(TRACED_STAGES)
