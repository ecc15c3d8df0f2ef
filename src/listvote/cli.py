"""Command-line surface: tally, bounds, verify, generate, worst-case.

All numeric output is exact "p/q"; ``--approx`` appends a decimal
annotation to human output without ever replacing the fraction. Every
command is deterministic given its inputs and seed, and structured output
is stable for golden-file testing.

Each command returns its exit code and one result: an ordered list of
facts holding exact objects (or, for ``generate``, a ballot file).
:func:`render` turns that result into text, and :func:`main` maps every
error a command raises to its exit code.

Exit codes: 0 ok, 1 verification failure or a tally below its floor,
2 I/O or malformed file, 3 parameter inconsistency, 4 hypothesis violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from random import Random

from . import oracle, theory
from .ballots import (
    RawBallotFile,
    VoterDistribution,
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
from .exactnum import format_rational, parse_rational, too_long_to_print
from .johnson import (
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


def _center_subset(members: tuple[int, ...] | None,
                   params: ElectionParams) -> CandidateSubset | None:
    """The ``--center`` members as a list of ``params``, or None when absent.

    The members become a ``CandidateSubset`` only after their range check,
    so no bitmask wider than n is built. The library checks every other
    rule about the list space (radius, threshold) itself.
    """
    if members is None:
        return None
    shown = "{" + ",".join(map(str, members)) + "}"
    if len(members) != params.j:
        raise ParameterError(f"center {shown} is not a {params.j}-list")
    if members[-1] > params.n:
        raise ParameterError(f"center {shown} outside candidates 1..{params.n}")
    return CandidateSubset(members)


def _parse_params(text: str) -> ElectionParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParameterError(f"--params wants n,k,j; got {text!r}")
    try:
        n, k, j = map(int, parts)
    except ValueError as exc:
        raise ParameterError(f"--params wants integers n,k,j; got {text!r}") from exc
    return ElectionParams(n, k, j)


def _parse_alpha(text: str) -> Fraction:
    try:
        alpha = parse_rational(text)
    except ValueError as exc:
        raise ParameterError(f"bad --alpha: {exc}") from exc
    if not 0 <= alpha <= 1:
        raise ParameterError(f"alpha must be in [0, 1], got {alpha}")
    return alpha


def _parse_weights(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(parse_rational(p) for p in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad --weights {text!r}: {exc}") from exc


# Options whose text becomes an exact object before any command runs; an
# absent option becomes None, and an empty one is parsed (and rejected) like any other.
VALUE_PARSERS = {
    "params": _parse_params,
    "center": parse_members,
    "alpha": _parse_alpha,
    "weights": _parse_weights,
}


def _fact(key: str, label: str, value) -> Fact:
    """The common fact: one structured key and one "label: value" human line."""
    return key, value, (f"{label}: ", value)


def _global_floor_fact(params: ElectionParams) -> Fact:
    """The any-distribution floor C(k,j)/C(n,j), refused before it is built if too long to print.

    Its reduced denominator is at least C(n,j)/C(k,j). When ``math.lgamma``
    puts that ratio past the int-to-str digit limit, with one digit plus a
    relative 1e-9 to spare for float rounding, no binomial is built: for n in
    the millions they take seconds. Past the float range lgamma overflows,
    and the ratio's lower bound (n/k)**j stands in, as j * log10(n/k) with
    ``math.log10`` taken on the ints.
    """
    limit = sys.get_int_max_str_digits()
    n, k, j = params.n, params.k, params.j
    lg, log10 = math.lgamma, math.log10
    try:
        ln_ratio = lg(n + 1) - lg(n - j + 1) - lg(k + 1) + lg(k - j + 1)
        too_long = ln_ratio - math.log(10) - 1e-9 * lg(n + 1) > limit * math.log(10)
    except OverflowError:
        too_long = log10(n) - log10(k) - 1e-9 * log10(n) > (limit + 1) / j
    if limit and too_long:
        raise too_long_to_print()
    return _fact("global_floor", "floor (any distribution)", theory.global_floor(params))


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
        return _json_text(doc) + "\n"
    lines = (
        "".join(_human_text(part, args.approx) for part in line)
        for _, _, line in result
        if line is not None
    )
    return "\n".join(lines) + "\n"


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True, default=_json_value)``, byte for byte.

    ``json.dumps`` encodes in pure Python whenever it indents; here an
    all-int list (a winner) is one ``str.join`` and a string goes through
    json's own C escaper. Dict keys are strings. ``indent`` is the newline
    and indentation of the enclosing level.
    """
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if {int}.issuperset(map(type, value)):
            items = map(str, value)
        else:
            items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(key) + ": " + _json_text(item, inner)
                 for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, (int, float)):
        return json.dumps(value)
    return _json_text(_json_value(value), indent)


def _json_value(value):
    """Structured form of the exact objects a result holds."""
    if isinstance(value, CandidateSubset):
        return value.members
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, ElectionParams):
        return {"n": value.n, "k": value.k, "j": value.j}
    if isinstance(value, theory.WorstCaseResult):
        return value.to_dict()
    if isinstance(value, theory.VerificationReport):
        return dataclasses.asdict(value) | {"passed": value.passed}
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
    if args.complete and (args.center is None or args.radius is None):
        raise ParameterError("--complete requires --center and --radius")
    if (args.center is None) != (args.radius is None):
        raise ParameterError("--center and --radius must be given together")
    raw = read_ballot_file(args.input)
    params = raw.params
    args.center = _center_subset(args.center, params)

    if args.complete:
        raw = complete_short_lists(raw, args.center, args.radius)
    elif any(len(e.subset) < params.j for e in raw.distinct):
        raise ParameterError(
            f"file contains lists shorter than j={params.j}; "
            "rerun with --complete --center --radius"
        )

    dist = normalize(raw)

    declared_ball = args.center is not None
    if declared_ball:
        inside = {lst.mask for lst in ball(args.center, args.radius, params)}
        outside = sorted(lst for lst in dist.support if lst.mask not in inside)
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
        _global_floor_fact(params),
        _ball_floor_fact(params, args.center, args.radius) if declared_ball
        else ("ball_floor", None, None),
    ]

    # Every floor reported is guaranteed, so a best approval below one is a fault.
    floors = (v for key, v, _ in facts if key in ("global_floor", "ball_floor"))
    below = [f for f in floors if f is not None and result.best_value < f]
    if below:
        raise SelfCheckFailed(
            f"self-check failed: best {format_rational(result.best_value)} "
            f"below floor {format_rational(below[0])}"
        )
    return EXIT_OK, facts


def _ball_floor_fact(params: ElectionParams, center: CandidateSubset, radius: int) -> Fact:
    """Ball floor if guaranteed, else the computed worst case with a note."""
    label = f"floor (support within radius {radius} of {center}): "
    try:
        value, note = theory.ball_floor(params, radius), ""
    except HypothesisViolation:
        value = theory.worst_case_concentric(params, radius).value
        limit = format_rational(theory.ball_floor_radius_limit(params))
        note = (f" [radius beyond guaranteed regime (limit {limit}); "
                "this is the computed worst case]")
    return "ball_floor", value, (label, value, note)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(args: argparse.Namespace) -> tuple[int, list[Fact]]:
    params, radius = args.params, args.radius
    if params is None:
        raise ParameterError("bounds requires --params n,k,j")
    if args.alpha is not None and radius is None:
        raise ParameterError("--alpha requires --radius")

    facts = [
        _fact("params", "parameters", params),
        _global_floor_fact(params),
    ]
    if radius is None:
        return EXIT_OK, facts
    try:
        value = theory.ball_floor(params, radius)
    except HypothesisViolation as exc:
        # without --alpha this is reported, not failed: the worst case answers instead
        if args.alpha is not None:
            raise HypothesisViolation(f"--alpha needs a guaranteed ball floor: {exc}") from exc
        worst = theory.worst_case_concentric(params, radius)
        weights = ",".join(map(format_rational, worst.weights))
        facts += [
            ("ball_floor", None, None),
            _fact("ball_floor_note", "no guaranteed ball floor", str(exc)),
            ("worst_case", worst, (
                "computed worst case over concentric distributions: ", worst.value,
                f" (weights {weights}; class {worst.achieving_class})",
            )),
        ]
    else:
        facts.append(_fact("ball_floor", f"floor (support in ball of radius {radius})", value))
        if args.alpha is not None:
            facts.append(_fact(
                "alpha_ball_floor",
                f"floor (fraction {format_rational(args.alpha)} of voters in the ball)",
                value * args.alpha,
            ))
    return EXIT_OK, facts


# ---------------------------------------------------------------------------
# worst-case
# ---------------------------------------------------------------------------

def cmd_worst_case(args: argparse.Namespace) -> tuple[int, list[Fact]]:
    params, radius = args.params, args.radius
    if params is None or radius is None:
        raise ParameterError("worst-case requires --params and --radius")
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
    args.center = _center_subset(args.center, args.params)
    return EXIT_OK, _generate_raw(args, args.params)


def _generate_raw(args: argparse.Namespace, params: ElectionParams) -> RawBallotFile:
    mode = args.mode
    if mode == "uniform-all":
        return distribution_to_raw(uniform_on(params, iter_lists(params)))
    if mode in ("uniform-ball", "uniform-ring"):
        if args.center is None or args.radius is None:
            raise ParameterError(f"{mode} requires --center and --radius")
        if mode == "uniform-ball":
            lists = ball(args.center, args.radius, params)
        else:
            lists = ring(args.center, args.radius, params)
        return distribution_to_raw(uniform_on(params, lists))
    if mode == "concentric":
        if args.center is None or args.weights is None:
            raise ParameterError("concentric requires --center and --weights")
        return distribution_to_raw(concentric(args.center, args.weights, params))
    # random-ball, the last mode argparse admits
    if args.center is None or args.radius is None:
        raise ParameterError("random-ball requires --center and --radius")
    if args.seed is None:
        raise ParameterError("random-ball requires --seed")
    return sample_ball_counts(params, args.center, args.radius, args.voters, Random(args.seed))


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
    if trials < 0:
        raise ParameterError(f"--trials must be >= 0, got {trials}")
    if max_n < 2:
        raise ParameterError(f"--max-n must be >= 2, got {max_n}")
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
        reports.append(theory.coverage_monotonicity_check(params))

    rng = Random(args.seed)
    for name, trial in (("concentric-domination", _domination_trial),
                        ("oracle-equivalence", _oracle_trial)):
        cells = []
        for t in range(trials):
            params = _random_params(rng, min(max_n, RANDOM_MAX_N))
            tag, ok, detail = trial(random_distribution(params, rng), rng)
            label = f"trial {t} n={params.n} k={params.k} j={params.j} {tag}"
            cells.append(theory.CheckedCell(label, ok, detail))
        reports.append(theory.VerificationReport(name, tuple(cells)))

    passed = all(r.passed for r in reports)
    facts: list[Fact] = [("suites", reports, None)]
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        facts.append((None, None, (f"[{report.name}] {status} ({len(report.cells)} cells)",)))
        facts += [
            (None, None, (f"  {cell.label}: {'ok' if cell.ok else 'FAIL'}",
                          f" {cell.detail}" if cell.detail else ""))
            for cell in report.cells
        ]
    total = sum(len(r.cells) for r in reports)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED, facts + [
        ("passed", passed, (f"RESULT: {'PASS' if passed else 'FAIL'} ({total} checks)",)),
        ("seed", args.seed, None),
        ("max_n", max_n, None),
    ]


def _domination_trial(dist: VoterDistribution, rng: Random) -> tuple[str, bool, str]:
    """Projecting onto rings about a support list never raises the best value."""
    center = rng.choice(sorted(dist.support))
    before = best_committees(dist).best_value
    after = best_committees(project_concentric(dist, center)).best_value
    detail = f"best={format_rational(before)} projected={format_rational(after)}"
    return f"center={center}", before >= after, detail


def _oracle_trial(dist: VoterDistribution, rng: Random) -> tuple[str, bool, str]:
    """The kernel and the brute-force oracle agree on the value and every winner."""
    j = dist.params.j
    s = j if rng.random() < 0.5 else rng.randint(0, j)
    reference = oracle.brute_best(dist, s)
    result = best_committees(dist, s=s)
    ok = (result.best_value, result.winners) == (reference.best_value, reference.winners)
    return f"s={s}", ok, f"value={format_rational(reference.best_value)}"


def _random_params(rng: Random, max_n: int) -> ElectionParams:
    n = rng.randint(RANDOM_MIN_N, max_n)
    k = rng.randint(2, n - 1)
    j = rng.randint(1, k)
    return ElectionParams(n, k, j)


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
    parser.set_defaults(approx=False, **{name: None for name in VALUE_PARSERS})
    # An explicit metavar: without one, a missing command reads "required: command".
    sub = parser.add_subparsers(dest="command", metavar="{" + ",".join(_DISPATCH) + "}",
                                required=True)

    def shared(p: argparse.ArgumentParser, *flags: str) -> None:
        for flag in flags:
            p.add_argument(flag, **SHARED_OPTIONS[flag])

    p_tally = sub.add_parser("tally", help="tally a ballot file and report exact winners")
    p_tally.add_argument("--input", required=True, help="ballot file (JSON)")
    shared(p_tally, "--center", "--radius", *REPORT_OPTIONS)
    p_tally.add_argument("--threshold", type=int,
                         help="approval threshold s (default: full containment)")
    p_tally.add_argument("--complete", action="store_true",
                         help="complete short lists inside the declared ball first")

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

    p_gen = sub.add_parser("generate", help="write a ballot file from a generator")
    shared(p_gen, "--params", "--center", "--radius", "--output")
    p_gen.add_argument("--mode", required=True,
                       choices=["uniform-all", "uniform-ball", "uniform-ring",
                                "concentric", "random-ball"])
    p_gen.add_argument("--weights", help="ring weights for concentric mode, e.g. 0,0,1")
    p_gen.add_argument("--voters", type=int, default=100,
                       help="voter count for random-ball mode (default 100)")
    p_gen.add_argument("--seed", type=int, help="seed (required for random modes)")

    p_worst = sub.add_parser("worst-case",
                             help="exact minimax over concentric ball distributions")
    shared(p_worst, "--params", "--radius", *REPORT_OPTIONS)

    return parser


_DISPATCH = {
    "tally": cmd_tally,
    "bounds": cmd_bounds,
    "verify": cmd_verify,
    "generate": cmd_generate,
    "worst-case": cmd_worst_case,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, parse in VALUE_PARSERS.items():
            text = getattr(args, name)
            setattr(args, name, None if text is None else parse(text))
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
