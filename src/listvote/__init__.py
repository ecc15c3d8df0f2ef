"""Exact tallying and worst-case approval guarantees for list-ballot committee elections.

Voters submit unordered j-element candidate lists; a k-committee is
approved by a voter when it contains her whole list. This package tallies
approval proportions in exact rational arithmetic, finds every most
popular committee, computes the guaranteed approval floors (global and
ball-supported), and verifies the supporting combinatorial facts by
brute force and exact minimax.

Importing the package loads no submodule. Each name below, and each
submodule's own name, is loaded on first read (PEP 562), so ``from
listvote import ball_floor`` compiles ``theory`` and what it imports, not
the ballot reader, the tally kernel or the oracle. ``from listvote import
*`` loads them all.
"""

import importlib

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "ballots": (
        "BallotEntry",
        "RawBallotFile",
        "VoterDistribution",
        "complete_short_lists",
        "concentric",
        "distribution_to_raw",
        "dumps_ballot_file",
        "loads_ballot_file",
        "normalize",
        "project_concentric",
        "random_distribution",
        "read_ballot_file",
        "ring_weights",
        "sample_ball_counts",
        "uniform_on",
    ),
    "errors": ("BallotFormatError", "HypothesisViolation", "ParameterError"),
    "exactnum": ("binomial", "format_rational", "parse_rational"),
    "johnson": (
        "CandidateSubset",
        "ElectionParams",
        "ball",
        "distance",
        "iter_lists",
        "ring",
        "ring_monotone_threshold",
        "ring_size",
    ),
    "oracle": ("brute_best", "brute_minimax_grid", "brute_minimax_vertices"),
    "tally": ("TallyResult", "best_committees"),
    "theory": (
        "VerificationReport",
        "WorstCaseResult",
        "ball_floor",
        "ball_floor_radius_limit",
        "coverage_monotonicity_check",
        "global_floor",
        "ring_coverage",
        "ring_monotonicity_check",
        "worst_case_concentric",
    ),
}
# The one table the lazy names are read from: each name, and each
# submodule's own name, to the submodule that holds it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
