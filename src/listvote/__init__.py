"""Exact tallying and worst-case approval guarantees for list-ballot committee elections.

Voters submit unordered j-element candidate lists; a k-committee is
approved by a voter when it contains her whole list. This package tallies
approval proportions in exact rational arithmetic, finds every most
popular committee, computes the guaranteed approval floors (global,
ball-supported, alpha-fraction), and verifies the supporting
combinatorial facts by brute force and exact minimax.
"""

from .ballots import (
    BallotEntry,
    RawBallotFile,
    VoterDistribution,
    complete_short_lists,
    concentric,
    distribution_to_raw,
    dumps_ballot_file,
    loads_ballot_file,
    normalize,
    project_concentric,
    random_distribution,
    read_ballot_file,
    ring_weights,
    sample_ball_counts,
    uniform_on,
)
from .errors import BallotFormatError, HypothesisViolation, ParameterError
from .exactnum import binomial, format_rational, parse_rational
from .johnson import (
    CandidateSubset,
    ElectionParams,
    ball,
    distance,
    iter_committees,
    iter_lists,
    ring,
    ring_monotone_threshold,
    ring_size,
)
from .oracle import brute_best, brute_minimax_grid, brute_minimax_vertices
from .tally import (
    TallyResult,
    approval,
    best_committees,
    threshold_approval,
)
from .theory import (
    VerificationReport,
    WorstCaseResult,
    alpha_ball_floor,
    ball_floor,
    ball_floor_radius_limit,
    class_of,
    class_size,
    committees_in_class_containing,
    concentric_approval,
    coverage_monotonicity_check,
    global_floor,
    ring_coverage,
    ring_monotonicity_check,
    worst_case_concentric,
)

__version__ = "0.1.0"
