"""Command-line surface: tally, bounds, verify, generate, worst-case.

All numeric output is exact "p/q"; ``--approx`` appends a decimal
annotation without ever replacing the fraction. Every command is
deterministic given its inputs and seed, and structured output is stable
for golden-file testing.

Exit codes: 0 ok, 1 verification failure, 2 I/O or malformed file,
3 parameter inconsistency, 4 hypothesis violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from . import oracle, theory
from .ballots import (
    RawBallotFile,
    complete_short_lists,
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
    ring,
)
from .tally import best_committees

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_IO = 2
EXIT_PARAMS = 3
EXIT_HYPOTHESIS = 4

VISIBLE_COMMANDS = "{tally,bounds,verify,generate,worst-case}"


@dataclass
class RunConfig:
    """Everything a command needs, validated before execution."""

    command: str
    input: str | None = None
    output: str | None = None
    params: ElectionParams | None = None
    center: CandidateSubset | None = None
    radius: int | None = None
    threshold: int | None = None
    alpha: Fraction | None = None
    seed: int | None = None
    format: str = "human"
    approx: bool = False
    complete: bool = False
    self_check: bool = False
    mode: str | None = None
    weights: tuple[Fraction, ...] | None = None
    voters: int | None = None
    max_n: int = 10
    trials: int = 25
    corrupt_cell: tuple[int, int] | None = None
    denominator: int | None = None
    oracle_op: str | None = None

    def check_against(self, params: ElectionParams) -> None:
        """Cross-field consistency once the election parameters are known."""
        if self.params is not None and self.params != params:
            raise ParameterError(
                f"--params {self.params.n},{self.params.k},{self.params.j} "
                f"conflicts with n={params.n} k={params.k} j={params.j}"
            )
        if self.radius is not None and not 0 <= self.radius <= params.diameter:
            raise ParameterError(
                f"radius {self.radius} outside 0..{params.diameter}"
            )
        if self.threshold is not None and not 0 <= self.threshold <= params.j:
            raise ParameterError(f"threshold {self.threshold} outside 0..{params.j}")
        if self.center is not None:
            if len(self.center) != params.j:
                raise ParameterError(f"center {self.center} is not a {params.j}-list")
            if self.center.members[-1] > params.n:
                raise ParameterError(f"center {self.center} outside candidates 1..{params.n}")
        if self.alpha is not None and not 0 <= self.alpha <= 1:
            raise ParameterError(f"alpha must be in [0, 1], got {self.alpha}")


def _parse_params(text: str) -> ElectionParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParameterError(f"--params wants n,k,j; got {text!r}")
    try:
        n, k, j = (int(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(f"--params wants integers n,k,j; got {text!r}") from exc
    return ElectionParams(n, k, j)


def _parse_weights(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(parse_rational(p) for p in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad --weights {text!r}: {exc}") from exc


class _Out:
    """Collects one command's report; writes to stdout or --output."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.lines: list[str] = []
        self.doc: dict = {"command": config.command}

    def human(self, line: str) -> None:
        self.lines.append(line)

    def field(self, key: str, value) -> None:
        self.doc[key] = value

    def frac(self, value: Fraction) -> str:
        text = format_rational(value)
        if self.config.approx and value.denominator != 1:
            text += f" (~{float(value):.6g})"
        return text

    def flush(self) -> None:
        if self.config.format == "structured":
            text = json.dumps(self.doc, indent=2, sort_keys=True) + "\n"
        else:
            text = "\n".join(self.lines) + "\n"
        if self.config.output:
            with open(self.config.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# tally
# ---------------------------------------------------------------------------

def cmd_tally(config: RunConfig) -> int:
    if not config.input:
        return _fail("tally requires --input", EXIT_PARAMS)
    try:
        raw = read_ballot_file(config.input)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    except BallotFormatError as exc:
        return _fail(str(exc), EXIT_IO)
    params = raw.params
    try:
        config.check_against(params)
    except ParameterError as exc:
        return _fail(str(exc), EXIT_PARAMS)

    if config.complete:
        if config.center is None or config.radius is None:
            return _fail("--complete requires --center and --radius", EXIT_PARAMS)
        try:
            raw = complete_short_lists(raw, BallSpec(config.center, config.radius))
        except ParameterError as exc:
            return _fail(str(exc), EXIT_HYPOTHESIS)
    elif any(len(e.subset) < params.j for e in raw.entries):
        return _fail(
            f"file contains lists shorter than j={params.j}; "
            "rerun with --complete --center --radius",
            EXIT_PARAMS,
        )

    try:
        dist = normalize(raw)
    except BallotFormatError as exc:
        return _fail(str(exc), EXIT_IO)

    if (config.center is None) != (config.radius is None):
        return _fail("--center and --radius must be given together", EXIT_PARAMS)
    declared_ball = config.center is not None and config.radius is not None
    if declared_ball:
        inside = ball(BallSpec(config.center, config.radius), params)
        outside = sorted(lst for lst in dist.support if lst not in inside)
        if outside:
            return _fail(
                f"support outside declared ball (radius {config.radius} of "
                f"{config.center}): {', '.join(str(x) for x in outside[:5])}",
                EXIT_HYPOTHESIS,
            )

    s = config.threshold if config.threshold is not None else params.j
    result = best_committees(dist, s=s)
    floor = theory.global_floor(params)

    out = _Out(config)
    out.human(f"parameters: n={params.n} k={params.k} j={params.j}")
    if s != params.j:
        out.human(f"threshold: {s} (voters approve with >= {s} listed members)")
    out.human(f"best approval: {out.frac(result.best_value)}")
    committees = ", ".join(str(w) for w in result.winners)
    out.human(f"winning committees ({len(result.winners)}): {committees}")
    out.human(f"strategy: {result.strategy_used}")
    out.human(f"floor (any distribution): {out.frac(floor)}")

    out.field("params", {"n": params.n, "k": params.k, "j": params.j})
    out.field("threshold", s)
    out.field("best_value", format_rational(result.best_value))
    out.field("winners", [list(w.members) for w in result.winners])
    out.field("strategy", result.strategy_used)
    out.field("global_floor", format_rational(floor))
    out.field("ball_floor", None)

    floors = [floor]
    if declared_ball:
        ball_note, ball_value = _ball_floor_line(params, config.radius)
        if ball_value is not None:
            floors.append(ball_value)
            out.field("ball_floor", format_rational(ball_value))
            out.human(
                f"floor (support within radius {config.radius} of {config.center}): "
                f"{out.frac(ball_value)}{ball_note}"
            )
        else:
            out.human(ball_note)
            out.field("ball_floor_note", ball_note)

    if config.self_check:
        bad = [f for f in floors if result.best_value < f]
        if bad:
            return _fail(
                f"self-check failed: best {format_rational(result.best_value)} "
                f"below floor {format_rational(bad[0])}",
                EXIT_VERIFY_FAILED,
            )
        out.human("self-check: best approval meets every applicable floor")
        out.field("self_check", "ok")

    out.flush()
    return EXIT_OK


def _ball_floor_line(params: ElectionParams, radius: int) -> tuple[str, Fraction | None]:
    """Ball floor if guaranteed, else the computed worst case with a note."""
    try:
        return "", theory.ball_floor(params, radius)
    except HypothesisViolation:
        limit = theory.ball_floor_radius_limit(params)
        if radius >= params.diameter:
            return (
                f"radius {radius} reaches the diameter: the ball is the whole "
                "list space, the any-distribution floor applies",
                None,
            )
        worst = theory.worst_case_concentric(params, radius)
        return (
            f" [radius beyond guaranteed regime (limit {format_rational(limit)}); "
            "this is the computed worst case]",
            worst.value,
        )
    except ParameterError:
        return "no ball guarantee for size-1 lists", None


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(config: RunConfig) -> int:
    if config.params is None:
        return _fail("bounds requires --params n,k,j", EXIT_PARAMS)
    params = config.params
    try:
        config.check_against(params)
    except ParameterError as exc:
        return _fail(str(exc), EXIT_PARAMS)
    if config.alpha is not None and config.radius is None:
        return _fail("--alpha requires --radius", EXIT_PARAMS)

    out = _Out(config)
    out.human(f"parameters: n={params.n} k={params.k} j={params.j}")
    floor = theory.global_floor(params)
    out.human(f"floor (any distribution): {out.frac(floor)}")
    out.field("params", {"n": params.n, "k": params.k, "j": params.j})
    out.field("global_floor", format_rational(floor))

    if config.radius is not None:
        try:
            value = theory.ball_floor(params, config.radius)
            out.human(f"floor (support in ball of radius {config.radius}): {out.frac(value)}")
            out.field("ball_floor", format_rational(value))
            if config.alpha is not None:
                mixed = theory.alpha_ball_floor(params, config.radius, config.alpha)
                out.human(
                    f"floor (fraction {format_rational(config.alpha)} of voters in "
                    f"the ball): {out.frac(mixed)}"
                )
                out.field("alpha_ball_floor", format_rational(mixed))
        except HypothesisViolation as exc:
            out.human(f"no guaranteed ball floor: {exc}")
            out.field("ball_floor", None)
            out.field("ball_floor_note", str(exc))
            if config.radius < params.diameter:
                worst = theory.worst_case_concentric(params, config.radius)
                out.human(
                    f"computed worst case over concentric distributions: "
                    f"{out.frac(worst.value)} "
                    f"(weights {','.join(format_rational(w) for w in worst.weights)}; "
                    f"class {worst.achieving_class})"
                )
                out.field("worst_case", worst.to_dict())
            else:
                out.human(
                    "radius reaches the diameter: the ball is the whole list space, "
                    "the any-distribution floor applies"
                )
        except ParameterError as exc:
            return _fail(str(exc), EXIT_PARAMS)

    out.flush()
    return EXIT_OK


# ---------------------------------------------------------------------------
# worst-case
# ---------------------------------------------------------------------------

def cmd_worst_case(config: RunConfig) -> int:
    if config.params is None or config.radius is None:
        return _fail("worst-case requires --params and --radius", EXIT_PARAMS)
    try:
        config.check_against(config.params)
        result = theory.worst_case_concentric(config.params, config.radius)
    except ParameterError as exc:
        return _fail(str(exc), EXIT_PARAMS)
    p = config.params
    out = _Out(config)
    out.human(f"parameters: n={p.n} k={p.k} j={p.j} radius={config.radius}")
    out.human(f"worst-case best approval: {out.frac(result.value)}")
    out.human(
        "minimizing ring weights: "
        + ", ".join(format_rational(w) for w in result.weights)
    )
    out.human(f"achieved by committees of class {result.achieving_class}")
    out.field("params", {"n": p.n, "k": p.k, "j": p.j})
    out.field("radius", config.radius)
    out.field("worst_case", result.to_dict())
    out.flush()
    return EXIT_OK


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(config: RunConfig) -> int:
    if config.params is None:
        return _fail("generate requires --params n,k,j", EXIT_PARAMS)
    if config.mode is None:
        return _fail("generate requires --mode", EXIT_PARAMS)
    params = config.params
    try:
        config.check_against(params)
        raw = _generate_raw(config, params)
    except ParameterError as exc:
        return _fail(str(exc), EXIT_PARAMS)
    text = dumps_ballot_file(raw)
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _generate_raw(config: RunConfig, params: ElectionParams) -> RawBallotFile:
    mode = config.mode
    if mode == "uniform-all":
        return distribution_to_raw(uniform_on(params, iter_lists(params)))
    if mode in ("uniform-ball", "uniform-ring"):
        if config.center is None or config.radius is None:
            raise ParameterError(f"{mode} requires --center and --radius")
        if mode == "uniform-ball":
            lists = ball(BallSpec(config.center, config.radius), params)
        else:
            lists = ring(config.center, config.radius, params)
        return distribution_to_raw(uniform_on(params, lists))
    if mode == "concentric":
        if config.center is None or config.weights is None:
            raise ParameterError("concentric requires --center and --weights")
        from .ballots import concentric

        return distribution_to_raw(concentric(config.center, config.weights, params))
    if mode == "random-ball":
        if config.center is None or config.radius is None:
            raise ParameterError("random-ball requires --center and --radius")
        if config.seed is None:
            raise ParameterError("random-ball requires --seed")
        voters = config.voters if config.voters is not None else 100
        return sample_ball_counts(
            params, BallSpec(config.center, config.radius), voters, Random(config.seed)
        )
    raise ParameterError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _valid_param_sets(max_n: int):
    for n in range(2, max_n + 1):
        for k in range(1, n):
            for j in range(1, k + 1):
                yield ElectionParams(n, k, j)


def cmd_verify(config: RunConfig) -> int:
    seed = config.seed if config.seed is not None else 0
    max_n = config.max_n
    trials = config.trials
    reports: list[theory.VerificationReport] = []

    for n in range(2, max_n + 1):
        for j in range(1, n):
            reports.append(theory.ring_monotonicity_check(ElectionParams(n, j, j)))

    for params in _valid_param_sets(max_n):
        table = theory.ring_coverage(params)
        if config.corrupt_cell is not None:
            r, m = config.corrupt_cell
            if r <= params.diameter and m <= table.max_class:
                table = theory.corrupt_table(table, r, m)
        reports.append(theory.coverage_monotonicity_check(params, table))

    rng = Random(seed)
    domination_cells = []
    for t in range(trials):
        params = _random_params(rng, min(max_n, 9))
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
        params = _random_params(rng, min(max_n, 9))
        dist = random_distribution(params, rng)
        s = params.j if rng.random() < 0.5 else rng.randint(0, params.j)
        reference = oracle.brute_best(dist, s)
        candidates = [best_committees(dist, s=s, strategy=name) for name in ("sparse", "dense")]
        ok = all(
            c.best_value == reference.best_value and c.winners == reference.winners
            for c in candidates
        )
        oracle_cells.append(
            theory.CheckedCell(
                label=f"trial {t} n={params.n} k={params.k} j={params.j} s={s}",
                ok=ok,
                detail=f"value={format_rational(reference.best_value)}",
            )
        )
    reports.append(theory.VerificationReport("oracle-equivalence", tuple(oracle_cells)))

    passed = all(r.passed for r in reports)
    out = _Out(config)
    for report in reports:
        out.human(report.render())
    total = sum(len(r.cells) for r in reports)
    out.human(f"RESULT: {'PASS' if passed else 'FAIL'} ({total} checks)")
    out.field("seed", seed)
    out.field("max_n", max_n)
    out.field("passed", passed)
    out.field("suites", [r.to_dict() for r in reports])
    out.flush()
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _random_params(rng: Random, max_n: int) -> ElectionParams:
    n = rng.randint(4, max_n)
    k = rng.randint(2, n - 1)
    j = rng.randint(1, k)
    return ElectionParams(n, k, j)


# ---------------------------------------------------------------------------
# oracle (hidden; derived-value generation)
# ---------------------------------------------------------------------------

def cmd_oracle(config: RunConfig) -> int:
    out = _Out(config)
    if config.oracle_op == "brute-best":
        if not config.input:
            return _fail("oracle brute-best requires --input", EXIT_PARAMS)
        try:
            dist = normalize(read_ballot_file(config.input))
        except (OSError, BallotFormatError) as exc:
            return _fail(str(exc), EXIT_IO)
        try:
            result = oracle.brute_best(dist, config.threshold)
        except ParameterError as exc:
            return _fail(str(exc), EXIT_PARAMS)
        out.human(f"brute best: {out.frac(result.best_value)}")
        out.human("winners: " + ", ".join(str(w) for w in result.winners))
        out.field("best_value", format_rational(result.best_value))
        out.field("winners", [list(w.members) for w in result.winners])
    elif config.oracle_op == "minimax-grid":
        if config.params is None or config.radius is None or config.denominator is None:
            return _fail(
                "oracle minimax-grid requires --params, --radius, --denominator",
                EXIT_PARAMS,
            )
        try:
            value = oracle.brute_minimax_grid(config.params, config.radius, config.denominator)
        except ParameterError as exc:
            return _fail(str(exc), EXIT_PARAMS)
        out.human(f"grid minimax: {out.frac(value)}")
        out.field("value", format_rational(value))
        out.field("denominator", config.denominator)
    else:
        return _fail(f"unknown oracle operation {config.oracle_op!r}", EXIT_PARAMS)
    out.flush()
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="listvote",
        description="Exact committee-election tallying and worst-case approval guarantees.",
    )
    sub = parser.add_subparsers(dest="command", metavar=VISIBLE_COMMANDS, required=True)

    def common(p: argparse.ArgumentParser, *, params=False, center=False, radius=False):
        if params:
            p.add_argument("--params", help="election parameters n,k,j (e.g. 6,4,3)")
        if center:
            p.add_argument("--center", help="center list, e.g. 1,2,3")
        if radius:
            p.add_argument("--radius", type=int, help="ball or ring radius")
        p.add_argument("--format", choices=["human", "structured"], default="human")
        p.add_argument("--output", help="write the report or file here instead of stdout")
        p.add_argument("--approx", action="store_true",
                       help="annotate fractions with decimal approximations")

    p_tally = sub.add_parser("tally", help="tally a ballot file and report exact winners")
    p_tally.add_argument("--input", required=True, help="ballot file (JSON)")
    common(p_tally, params=True, center=True, radius=True)
    p_tally.add_argument("--threshold", type=int,
                         help="approval threshold s (default: full containment)")
    p_tally.add_argument("--complete", action="store_true",
                         help="complete short lists inside the declared ball first")
    p_tally.add_argument("--self-check", action="store_true", help=argparse.SUPPRESS)

    p_bounds = sub.add_parser("bounds", help="print guaranteed approval floors")
    common(p_bounds, params=True, radius=True)
    p_bounds.add_argument("--alpha", help="fraction of voters inside the ball, e.g. 3/4")

    p_verify = sub.add_parser("verify", help="run the validator and oracle-equivalence suites")
    common(p_verify)
    p_verify.add_argument("--max-n", type=int, default=10, dest="max_n",
                          help="sweep parameter sets up to this n (default 10)")
    p_verify.add_argument("--trials", type=int, default=25,
                          help="randomized trials per suite (default 25)")
    p_verify.add_argument("--seed", type=int, help="seed for randomized suites (default 0)")
    p_verify.add_argument("--corrupt-coverage", dest="corrupt_coverage",
                          help=argparse.SUPPRESS)

    p_gen = sub.add_parser("generate", help="write a ballot file from a generator")
    common(p_gen, params=True, center=True, radius=True)
    p_gen.add_argument("--mode", required=True,
                       choices=["uniform-all", "uniform-ball", "uniform-ring",
                                "concentric", "random-ball"])
    p_gen.add_argument("--weights", help="ring weights for concentric mode, e.g. 0,0,1")
    p_gen.add_argument("--voters", type=int, help="voter count for random-ball mode")
    p_gen.add_argument("--seed", type=int, help="seed (required for random modes)")

    p_worst = sub.add_parser("worst-case",
                             help="exact minimax over concentric ball distributions")
    common(p_worst, params=True, radius=True)

    p_oracle = sub.add_parser("oracle")  # hidden: absent from the metavar above
    p_oracle.add_argument("oracle_op", choices=["brute-best", "minimax-grid"])
    p_oracle.add_argument("--input")
    p_oracle.add_argument("--threshold", type=int)
    p_oracle.add_argument("--denominator", type=int)
    common(p_oracle, params=True, radius=True)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    config.format = getattr(args, "format", "human")
    config.output = getattr(args, "output", None)
    config.approx = getattr(args, "approx", False)
    config.input = getattr(args, "input", None)
    config.radius = getattr(args, "radius", None)
    config.threshold = getattr(args, "threshold", None)
    config.seed = getattr(args, "seed", None)
    config.complete = getattr(args, "complete", False)
    config.self_check = getattr(args, "self_check", False)
    config.mode = getattr(args, "mode", None)
    config.voters = getattr(args, "voters", None)
    config.max_n = getattr(args, "max_n", 10)
    config.trials = getattr(args, "trials", 25)
    config.denominator = getattr(args, "denominator", None)
    config.oracle_op = getattr(args, "oracle_op", None)
    if getattr(args, "params", None):
        config.params = _parse_params(args.params)
    if getattr(args, "center", None):
        config.center = CandidateSubset.parse(args.center)
    if getattr(args, "alpha", None):
        try:
            config.alpha = parse_rational(args.alpha)
        except ValueError as exc:
            raise ParameterError(f"bad --alpha: {exc}") from exc
    if getattr(args, "weights", None):
        config.weights = _parse_weights(args.weights)
    if getattr(args, "corrupt_coverage", None):
        parts = args.corrupt_coverage.split(",")
        if len(parts) != 2:
            raise ParameterError("corrupt-coverage wants r,m")
        config.corrupt_cell = (int(parts[0]), int(parts[1]))
    return config


_DISPATCH = {
    "tally": cmd_tally,
    "bounds": cmd_bounds,
    "verify": cmd_verify,
    "generate": cmd_generate,
    "worst-case": cmd_worst_case,
    "oracle": cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ParameterError as exc:
        return _fail(str(exc), EXIT_PARAMS)
    try:
        return _DISPATCH[args.command](config)
    except HypothesisViolation as exc:
        return _fail(str(exc), EXIT_HYPOTHESIS)
    except BallotFormatError as exc:
        return _fail(str(exc), EXIT_IO)
    except ParameterError as exc:
        return _fail(str(exc), EXIT_PARAMS)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
