"""Command-line surface: tally, bounds, verify, generate, worst-case.

All numeric output is exact "p/q"; ``--approx`` appends a decimal
annotation to human output without ever replacing the fraction. Every
command is deterministic given its inputs and seed, and structured output
is stable for golden-file testing.

Each command returns its exit code and one result: an ordered list of
facts holding exact objects (or, for ``generate``, a ballot file).
:func:`render` turns that result into text, and :func:`main` maps every
error a command raises to its exit code.

Exit codes: 0 ok, 1 verification failure, 2 I/O or malformed file,
3 parameter inconsistency, 4 hypothesis violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from random import Random

from . import oracle, theory
from .ballots import (
    RawBallotFile,
    complete_short_lists,
    concentric,
    distribution_to_raw,
    dumps_ballot_file,
    normalize,
    project_concentric,
    random_distribution,
    read_ballot_file,
    sample_ball_counts,
    uniform_on,
)
from .errors import BallotFormatError, HypothesisViolation, ParameterError
from .exactnum import format_rational, parse_rational
from .johnson import (
    BallSpec,
    CandidateSubset,
    ElectionParams,
    ball,
    iter_lists,
    parse_members,
    ring,
)
from .tally import best_committees

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_IO = 2
EXIT_PARAMS = 3
EXIT_HYPOTHESIS = 4

VISIBLE_COMMANDS = "{tally,bounds,verify,generate,worst-case}"

# One fact of a report: its structured key (None: human output only), its
# exact value, and the parts of its human line (None: structured output only).
Fact = tuple[str | None, object, tuple | None]


class SelfCheckFailed(Exception):
    """A tally came out below a floor that guarantees it."""


EXIT_CODES = (
    (HypothesisViolation, EXIT_HYPOTHESIS),
    (BallotFormatError, EXIT_IO),
    (ParameterError, EXIT_PARAMS),
    (OSError, EXIT_IO),
    (SelfCheckFailed, EXIT_VERIFY_FAILED),
)


def check_against(args: argparse.Namespace, params: ElectionParams) -> None:
    """Cross-field consistency once the election parameters are known.

    The center arrives as parsed members and becomes a ``CandidateSubset``
    only after its range check, so no bitmask wider than n is built.
    """
    if args.params is not None and args.params != params:
        raise ParameterError(
            f"--params {args.params.n},{args.params.k},{args.params.j} "
            f"conflicts with n={params.n} k={params.k} j={params.j}"
        )
    if args.radius is not None and not 0 <= args.radius <= params.diameter:
        raise ParameterError(f"radius {args.radius} outside 0..{params.diameter}")
    if args.threshold is not None and not 0 <= args.threshold <= params.j:
        raise ParameterError(f"threshold {args.threshold} outside 0..{params.j}")
    if args.center is not None:
        shown = "{" + ",".join(map(str, args.center)) + "}"
        if len(args.center) != params.j:
            raise ParameterError(f"center {shown} is not a {params.j}-list")
        if args.center[-1] > params.n:
            raise ParameterError(f"center {shown} outside candidates 1..{params.n}")
        args.center = CandidateSubset(args.center)
    if args.alpha is not None and not 0 <= args.alpha <= 1:
        raise ParameterError(f"alpha must be in [0, 1], got {args.alpha}")


def _parse_ints(flag: str, names: str, text: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != len(names.split(",")):
        raise ParameterError(f"{flag} wants {names}; got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(f"{flag} wants integers {names}; got {text!r}") from exc


def _parse_alpha(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise ParameterError(f"bad --alpha: {exc}") from exc


def _parse_weights(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(parse_rational(p) for p in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad --weights {text!r}: {exc}") from exc


# Options whose text becomes an exact object before any command runs; an
# absent or empty option becomes None.
VALUE_PARSERS = {
    "params": lambda text: ElectionParams(*_parse_ints("--params", "n,k,j", text)),
    "center": parse_members,
    "alpha": _parse_alpha,
    "weights": _parse_weights,
    "corrupt_coverage": lambda text: _parse_ints("--corrupt-coverage", "r,m", text),
}


def _fact(key: str, label: str, value) -> Fact:
    """The common fact: one structured key and one "label: value" human line."""
    return key, value, (f"{label}: ", value)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render(args: argparse.Namespace, result: list[Fact] | RawBallotFile) -> str:
    """The text of one command's result: a ballot file, JSON, or human lines."""
    if isinstance(result, RawBallotFile):
        return dumps_ballot_file(result)
    if args.format == "structured":
        doc = {"command": args.command}
        doc.update((key, value) for key, value, _ in result if key is not None)
        return json.dumps(doc, indent=2, sort_keys=True, default=_json_value) + "\n"
    lines = (
        "".join(_human_text(part, args.approx) for part in line)
        for _, _, line in result
        if line is not None
    )
    return "\n".join(lines) + "\n"


def _json_value(value):
    """Structured form of the exact objects a result holds."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, CandidateSubset):
        return list(value.members)
    if isinstance(value, ElectionParams):
        return {"n": value.n, "k": value.k, "j": value.j}
    if isinstance(value, (theory.WorstCaseResult, theory.VerificationReport)):
        return value.to_dict()
    raise TypeError(f"no structured form for {type(value).__name__}")


def _human_text(part, approx: bool) -> str:
    """Human form of one part of a line; ``approx`` annotates a non-integer fraction.

    A sequence (winners, ring weights) is listed exactly, without annotation.
    """
    if isinstance(part, Fraction):
        text = format_rational(part)
        if approx and part.denominator != 1:
            text += f" (~{float(part):.6g})"
        return text
    if isinstance(part, ElectionParams):
        return f"n={part.n} k={part.k} j={part.j}"
    if isinstance(part, (tuple, list)):
        return ", ".join(map(str, part))
    return str(part)


# ---------------------------------------------------------------------------
# tally
# ---------------------------------------------------------------------------

def cmd_tally(args: argparse.Namespace) -> tuple[int, list[Fact]]:
    if not args.input:
        raise ParameterError("tally requires --input")
    raw = read_ballot_file(args.input)
    params = raw.params
    check_against(args, params)

    if args.complete:
        if args.center is None or args.radius is None:
            raise ParameterError("--complete requires --center and --radius")
        try:
            raw = complete_short_lists(raw, BallSpec(args.center, args.radius))
        except ParameterError as exc:  # an entry with no completion inside the ball
            raise HypothesisViolation(str(exc)) from exc
    elif any(len(e.subset) < params.j for e in raw.entries):
        raise ParameterError(
            f"file contains lists shorter than j={params.j}; "
            "rerun with --complete --center --radius"
        )

    dist = normalize(raw)

    if (args.center is None) != (args.radius is None):
        raise ParameterError("--center and --radius must be given together")
    declared_ball = args.center is not None
    if declared_ball:
        inside = ball(BallSpec(args.center, args.radius), params)
        outside = sorted(lst for lst in dist.support if lst not in inside)
        if outside:
            raise HypothesisViolation(
                f"support outside declared ball (radius {args.radius} of "
                f"{args.center}): {', '.join(str(x) for x in outside[:5])}"
            )

    s = args.threshold if args.threshold is not None else params.j
    result = best_committees(dist, s=s)
    facts = [
        _fact("params", "parameters", params),
        ("threshold", s, None if s == params.j
         else (f"threshold: {s} (voters approve with >= {s} listed members)",)),
        _fact("best_value", "best approval", result.best_value),
        _fact("winners", f"winning committees ({len(result.winners)})", result.winners),
        _fact("strategy", "strategy", result.strategy_used),
        _fact("global_floor", "floor (any distribution)", theory.global_floor(params)),
    ]
    if declared_ball:
        facts += _ball_floor_facts(params, args.center, args.radius)
    else:
        facts.append(("ball_floor", None, None))

    if args.self_check:
        floors = (v for key, v, _ in facts if key in ("global_floor", "ball_floor"))
        bad = [f for f in floors if f is not None and result.best_value < f]
        if bad:
            raise SelfCheckFailed(
                f"self-check failed: best {format_rational(result.best_value)} "
                f"below floor {format_rational(bad[0])}"
            )
        facts.append(
            ("self_check", "ok", ("self-check: best approval meets every applicable floor",))
        )
    return EXIT_OK, facts


def _ball_floor_facts(params: ElectionParams, center: CandidateSubset, radius: int) -> list[Fact]:
    """Ball floor if guaranteed, else the computed worst case with a note."""
    label = f"floor (support within radius {radius} of {center}): "
    try:
        value = theory.ball_floor(params, radius)
    except HypothesisViolation:
        if radius < params.diameter:
            worst = theory.worst_case_concentric(params, radius)
            limit = format_rational(theory.ball_floor_radius_limit(params))
            note = (f" [radius beyond guaranteed regime (limit {limit}); "
                    "this is the computed worst case]")
            return [("ball_floor", worst.value, (label, worst.value, note))]
        note = (f"radius {radius} reaches the diameter: the ball is the whole "
                "list space, the any-distribution floor applies")
    except ParameterError:
        note = "no ball guarantee for size-1 lists"
    else:
        return [("ball_floor", value, (label, value))]
    return [("ball_floor", None, None), ("ball_floor_note", note, (note,))]


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(args: argparse.Namespace) -> tuple[int, list[Fact]]:
    params, radius = args.params, args.radius
    if params is None:
        raise ParameterError("bounds requires --params n,k,j")
    check_against(args, params)
    if args.alpha is not None and radius is None:
        raise ParameterError("--alpha requires --radius")

    facts = [
        _fact("params", "parameters", params),
        _fact("global_floor", "floor (any distribution)", theory.global_floor(params)),
    ]
    if radius is None:
        return EXIT_OK, facts
    try:
        value = theory.ball_floor(params, radius)
    except HypothesisViolation as exc:  # reported, not failed: the worst case answers instead
        facts += [
            ("ball_floor", None, None),
            _fact("ball_floor_note", "no guaranteed ball floor", str(exc)),
        ]
        if radius < params.diameter:
            worst = theory.worst_case_concentric(params, radius)
            weights = ",".join(map(format_rational, worst.weights))
            facts.append(("worst_case", worst, (
                "computed worst case over concentric distributions: ", worst.value,
                f" (weights {weights}; class {worst.achieving_class})",
            )))
        else:
            facts.append((None, None, (
                "radius reaches the diameter: the ball is the whole list space, "
                "the any-distribution floor applies",
            )))
    else:
        facts.append(_fact("ball_floor", f"floor (support in ball of radius {radius})", value))
        if args.alpha is not None:
            facts.append(_fact(
                "alpha_ball_floor",
                f"floor (fraction {format_rational(args.alpha)} of voters in the ball)",
                theory.alpha_ball_floor(params, radius, args.alpha),
            ))
    return EXIT_OK, facts


# ---------------------------------------------------------------------------
# worst-case
# ---------------------------------------------------------------------------

def cmd_worst_case(args: argparse.Namespace) -> tuple[int, list[Fact]]:
    params, radius = args.params, args.radius
    if params is None or radius is None:
        raise ParameterError("worst-case requires --params and --radius")
    check_against(args, params)
    result = theory.worst_case_concentric(params, radius)
    return EXIT_OK, [
        ("params", params, ("parameters: ", params, f" radius={radius}")),
        ("radius", radius, None),
        ("worst_case", result, ("worst-case best approval: ", result.value)),
        (None, None, ("minimizing ring weights: ", result.weights)),
        (None, None, (f"achieved by committees of class {result.achieving_class}",)),
    ]


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> tuple[int, RawBallotFile]:
    if args.params is None:
        raise ParameterError("generate requires --params n,k,j")
    check_against(args, args.params)
    return EXIT_OK, _generate_raw(args, args.params)


def _generate_raw(args: argparse.Namespace, params: ElectionParams) -> RawBallotFile:
    mode = args.mode
    if mode == "uniform-all":
        return distribution_to_raw(uniform_on(params, iter_lists(params)))
    if mode in ("uniform-ball", "uniform-ring"):
        if args.center is None or args.radius is None:
            raise ParameterError(f"{mode} requires --center and --radius")
        if mode == "uniform-ball":
            lists = ball(BallSpec(args.center, args.radius), params)
        else:
            lists = ring(args.center, args.radius, params)
        return distribution_to_raw(uniform_on(params, lists))
    if mode == "concentric":
        if args.center is None or args.weights is None:
            raise ParameterError("concentric requires --center and --weights")
        return distribution_to_raw(concentric(args.center, args.weights, params))
    if mode == "random-ball":
        if args.center is None or args.radius is None:
            raise ParameterError("random-ball requires --center and --radius")
        if args.seed is None:
            raise ParameterError("random-ball requires --seed")
        voters = args.voters if args.voters is not None else 100
        return sample_ball_counts(
            params, BallSpec(args.center, args.radius), voters, Random(args.seed)
        )
    raise ParameterError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# Randomized trials draw n from RANDOM_MIN_N..min(--max-n, RANDOM_MAX_N).
RANDOM_MIN_N = 4
RANDOM_MAX_N = 9


def _valid_param_sets(max_n: int):
    for n in range(2, max_n + 1):
        for k in range(1, n):
            for j in range(1, k + 1):
                yield ElectionParams(n, k, j)


def cmd_verify(args: argparse.Namespace) -> tuple[int, list[Fact]]:
    max_n, trials = args.max_n, args.trials
    if trials > 0 and max_n < RANDOM_MIN_N:
        raise ParameterError(
            f"--max-n {max_n} is below {RANDOM_MIN_N}, the smallest n of a randomized "
            "trial; raise --max-n or pass --trials 0"
        )
    reports: list[theory.VerificationReport] = []

    for n in range(2, max_n + 1):
        for j in range(1, n):
            reports.append(theory.ring_monotonicity_check(ElectionParams(n, j, j)))

    for params in _valid_param_sets(max_n):
        table = theory.ring_coverage(params)
        if args.corrupt_coverage is not None:
            r, m = args.corrupt_coverage
            if r <= params.diameter and m <= table.max_class:
                table = theory.corrupt_table(table, r, m)
        reports.append(theory.coverage_monotonicity_check(params, table))

    rng = Random(args.seed)
    domination_cells = []
    for t in range(trials):
        params = _random_params(rng, min(max_n, RANDOM_MAX_N))
        dist = random_distribution(params, rng)
        center = rng.choice(sorted(dist.support))
        before = best_committees(dist).best_value
        after = best_committees(project_concentric(dist, center)).best_value
        domination_cells.append(
            theory.CheckedCell(
                label=f"trial {t} n={params.n} k={params.k} j={params.j} center={center}",
                ok=before >= after,
                detail=f"best={format_rational(before)} projected={format_rational(after)}",
            )
        )
    reports.append(theory.VerificationReport("concentric-domination", tuple(domination_cells)))

    oracle_cells = []
    for t in range(trials):
        params = _random_params(rng, min(max_n, RANDOM_MAX_N))
        dist = random_distribution(params, rng)
        s = params.j if rng.random() < 0.5 else rng.randint(0, params.j)
        reference = oracle.brute_best(dist, s)
        result = best_committees(dist, s=s)
        ok = (result.best_value, result.winners) == (reference.best_value, reference.winners)
        oracle_cells.append(
            theory.CheckedCell(
                label=f"trial {t} n={params.n} k={params.k} j={params.j} s={s}",
                ok=ok,
                detail=f"value={format_rational(reference.best_value)}",
            )
        )
    reports.append(theory.VerificationReport("oracle-equivalence", tuple(oracle_cells)))

    passed = all(r.passed for r in reports)
    total = sum(len(r.cells) for r in reports)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED, [
        ("suites", reports, ("\n".join(r.render() for r in reports),)),
        ("passed", passed, (f"RESULT: {'PASS' if passed else 'FAIL'} ({total} checks)",)),
        ("seed", args.seed, None),
        ("max_n", max_n, None),
    ]


def _random_params(rng: Random, max_n: int) -> ElectionParams:
    n = rng.randint(RANDOM_MIN_N, max_n)
    k = rng.randint(2, n - 1)
    j = rng.randint(1, k)
    return ElectionParams(n, k, j)


# ---------------------------------------------------------------------------
# oracle (hidden; derived-value generation)
# ---------------------------------------------------------------------------

def cmd_oracle(args: argparse.Namespace) -> tuple[int, list[Fact]]:
    if args.oracle_op == "brute-best":
        if not args.input:
            raise ParameterError("oracle brute-best requires --input")
        result = oracle.brute_best(normalize(read_ballot_file(args.input)), args.threshold)
        return EXIT_OK, [
            _fact("best_value", "brute best", result.best_value),
            _fact("winners", "winners", result.winners),
        ]
    if args.params is None or args.radius is None or args.denominator is None:
        raise ParameterError("oracle minimax-grid requires --params, --radius, --denominator")
    value = oracle.brute_minimax_grid(args.params, args.radius, args.denominator)
    return EXIT_OK, [
        _fact("value", "grid minimax", value),
        ("denominator", args.denominator, None),
    ]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

SHARED_OPTIONS = {
    "--params": {"help": "election parameters n,k,j (e.g. 6,4,3)"},
    "--center": {"help": "center list, e.g. 1,2,3"},
    "--radius": {"type": int, "help": "ball or ring radius"},
    "--format": {"choices": ["human", "structured"], "default": "human"},
    "--output": {"help": "write the report or file here instead of stdout"},
    "--approx": {"action": "store_true",
                 "help": "annotate fractions with decimal approximations"},
}
REPORT_OPTIONS = ("--format", "--output", "--approx")


@functools.cache  # one tree per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="listvote",
        description="Exact committee-election tallying and worst-case approval guarantees.",
    )
    # What the shared code reads, for the commands that do not take it.
    parser.set_defaults(approx=False, threshold=None,
                        **{name: None for name in ("radius", *VALUE_PARSERS)})
    sub = parser.add_subparsers(dest="command", metavar=VISIBLE_COMMANDS, required=True)

    def shared(p: argparse.ArgumentParser, *flags: str) -> None:
        for flag in flags:
            p.add_argument(flag, **SHARED_OPTIONS[flag])

    p_tally = sub.add_parser("tally", help="tally a ballot file and report exact winners")
    p_tally.add_argument("--input", required=True, help="ballot file (JSON)")
    shared(p_tally, "--params", "--center", "--radius", *REPORT_OPTIONS)
    p_tally.add_argument("--threshold", type=int,
                         help="approval threshold s (default: full containment)")
    p_tally.add_argument("--complete", action="store_true",
                         help="complete short lists inside the declared ball first")
    p_tally.add_argument("--self-check", action="store_true", help=argparse.SUPPRESS)

    p_bounds = sub.add_parser("bounds", help="print guaranteed approval floors")
    shared(p_bounds, "--params", "--radius", *REPORT_OPTIONS)
    p_bounds.add_argument("--alpha", help="fraction of voters inside the ball, e.g. 3/4")

    p_verify = sub.add_parser("verify", help="run the validator and oracle-equivalence suites")
    shared(p_verify, "--format", "--output")
    p_verify.add_argument("--max-n", type=int, default=10, dest="max_n",
                          help="sweep parameter sets up to this n (default 10)")
    p_verify.add_argument("--trials", type=int, default=25,
                          help="randomized trials per suite (default 25)")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for randomized suites (default 0)")
    p_verify.add_argument("--corrupt-coverage", dest="corrupt_coverage",
                          help=argparse.SUPPRESS)

    p_gen = sub.add_parser("generate", help="write a ballot file from a generator")
    shared(p_gen, "--params", "--center", "--radius", "--output")
    p_gen.add_argument("--mode", required=True,
                       choices=["uniform-all", "uniform-ball", "uniform-ring",
                                "concentric", "random-ball"])
    p_gen.add_argument("--weights", help="ring weights for concentric mode, e.g. 0,0,1")
    p_gen.add_argument("--voters", type=int, help="voter count for random-ball mode")
    p_gen.add_argument("--seed", type=int, help="seed (required for random modes)")

    p_worst = sub.add_parser("worst-case",
                             help="exact minimax over concentric ball distributions")
    shared(p_worst, "--params", "--radius", *REPORT_OPTIONS)

    p_oracle = sub.add_parser("oracle")  # hidden: absent from the metavar above
    p_oracle.add_argument("oracle_op", choices=["brute-best", "minimax-grid"])
    p_oracle.add_argument("--input")
    p_oracle.add_argument("--threshold", type=int)
    p_oracle.add_argument("--denominator", type=int)
    shared(p_oracle, "--params", "--radius", *REPORT_OPTIONS)

    return parser


_DISPATCH = {
    "tally": cmd_tally,
    "bounds": cmd_bounds,
    "verify": cmd_verify,
    "generate": cmd_generate,
    "worst-case": cmd_worst_case,
    "oracle": cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, parse in VALUE_PARSERS.items():
            text = getattr(args, name)
            setattr(args, name, parse(text) if text else None)
        code, result = _DISPATCH[args.command](args)
        text = render(args, result)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
