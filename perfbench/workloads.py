"""Seeded inputs, expected outputs and input-property counts for each workload.

Everything here is the benchmark's own code: ballot files are written
without ``listvote generate`` or ``sample_ball_counts``, so a library
change cannot alter what the program is fed. The expected outputs come
from ``listvote.oracle`` (or, where the oracle's size guard refuses, from
a committee walk written here), from closed forms, and from the recorded
worst-case pool in ``pool.json``; none of them calls the code under test.

An instance is one CLI invocation. A workload is a cycle of instances in
seed-chosen order; the timed loop repeats whole cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from pathlib import Path
from random import Random

POOL_FILE = Path(__file__).with_name("pool.json")


@dataclass
class Instance:
    """One op: argv (without --format/--output), its input file, its expected fields."""

    argv: list[str]
    expected: dict
    props: dict[str, float]
    file_name: str | None = None
    file_text: str | None = None


def fmt(value: Fraction) -> str:
    """The CLI's "p/q" rendering of an exact value."""
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# list-space geometry, written independently of listvote.johnson
# ---------------------------------------------------------------------------

def ball_lists(n: int, j: int, center: tuple[int, ...], radius: int) -> list[tuple[int, ...]]:
    """Every sorted j-list sharing at least j - radius members with ``center``."""
    outside = [c for c in range(1, n + 1) if c not in center]
    out = []
    for r in range(radius + 1):
        for kept in combinations(center, j - r):
            for added in combinations(outside, r):
                out.append(tuple(sorted(kept + added)))
    return sorted(out)


def ball_size(n: int, j: int, radius: int) -> int:
    return sum(comb(j, r) * comb(n - j, r) for r in range(radius + 1))


def complete(short: tuple[int, ...], center: tuple[int, ...], n: int, j: int) -> tuple[int, ...]:
    """The documented completion rule: missing center members first, then outsiders, by index."""
    members = set(short)
    for c in list(center) + [c for c in range(1, n + 1) if c not in center]:
        if len(members) == j:
            break
        members.add(c)
    return tuple(sorted(members))


def ballot_text(n: int, k: int, j: int, records: list[tuple[list[int], str, object]]) -> str:
    """A ballot file, one record per line; ``records`` holds (list, "count"|"weight", value)."""
    lines = [json.dumps({"list": members, key: value}) for members, key, value in records]
    header = f'{{\n  "n": {n},\n  "k": {k},\n  "j": {j},\n  "ballots": [\n    '
    return header + ",\n    ".join(lines) + "\n  ]\n}\n"


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def oracle_best(n: int, k: int, j: int, weights: dict[tuple[int, ...], Fraction], s: int):
    """(value, sorted winner lists) from ``listvote.oracle.brute_best``."""
    from listvote.ballots import VoterDistribution
    from listvote.johnson import CandidateSubset, ElectionParams
    from listvote.oracle import brute_best

    dist = VoterDistribution(
        ElectionParams(n, k, j), {CandidateSubset(m): w for m, w in weights.items()}
    )
    result = brute_best(dist, s)
    return result.best_value, [list(w.members) for w in result.winners]


def walk_best(n: int, k: int, j: int, counts: dict[tuple[int, ...], int]):
    """(value, sorted winner lists) by walking every committee and summing its j-sublists.

    Used where the oracle's size guard (n <= 20) refuses; integer counts keep
    the walk exact and fast enough to run once per instance.
    """
    total = sum(counts.values())
    best, winners = -1, []
    for members in combinations(range(1, n + 1), k):
        value = sum(counts.get(sub, 0) for sub in combinations(members, j))
        if value > best:
            best, winners = value, [list(members)]
        elif value == best:
            winners.append(list(members))
    return Fraction(best, total), winners


def global_floor(n: int, k: int, j: int) -> Fraction:
    return Fraction(comb(k, j), comb(n, j))


def ball_floor(n: int, k: int, j: int, radius: int) -> Fraction | None:
    """Closed-form ball floor, or None beyond the guaranteed regime."""
    if radius * (k + 1) > j * (k + 1 - j):
        return None
    return Fraction(comb(k - j, radius), comb(n - j, radius))


# ---------------------------------------------------------------------------
# input-property counts
# ---------------------------------------------------------------------------

ZERO_PROPS = {
    "ballots.records": 0,
    "ballots.bytes": 0,
    "ballots.support": 0,
    "ballots.dedup_ratio": 0.0,
    "johnson.ball_lists": 0,
    "tally.scatter_work": 0,
    "tally.dense_work": 0,
    "tally.denominator_bits": 0,
    "theory.lp_vars": 0,
    "theory.lp_classes": 0,
}


def tally_props(n, k, j, text, records, weights, declared_radius):
    props = dict(ZERO_PROPS)
    support = len(weights)
    props.update({
        "ballots.records": records,
        "ballots.bytes": len(text.encode()),
        "ballots.support": support,
        "ballots.dedup_ratio": support / records,
        "johnson.ball_lists": 0 if declared_radius is None else ball_size(n, j, declared_radius),
        "tally.scatter_work": support * comb(n - j, k - j),
        "tally.dense_work": comb(n, k) * comb(k, j),
        "tally.denominator_bits": lcm(*(w.denominator for w in weights.values())).bit_length(),
    })
    return props


def tally_instance(name, shape, records, weights, argv_tail, reference, declared_radius=None):
    """A ``tally`` op on one generated file; ``reference`` is the expected (value, winners)."""
    n, k, j = shape
    text = ballot_text(n, k, j, records)
    value, winners = reference
    expected = {
        "params": {"n": n, "k": k, "j": j},
        "best_value": fmt(value),
        "winners": winners,
        "global_floor": fmt(global_floor(n, k, j)),
        "ball_floor": None if declared_radius is None else fmt(ball_floor(n, k, j, declared_radius)),
    }
    return Instance(
        argv=["tally", "--input", name] + argv_tail,
        expected=expected,
        props=tally_props(n, k, j, text, len(records), weights, declared_radius),
        file_name=name,
        file_text=text,
    )


def _random_counts(rng: Random, lists: list[tuple[int, ...]], support: int, voters: int):
    """``voters`` voters on exactly ``support`` distinct lists of ``lists``, at least one each."""
    chosen = rng.sample(lists, support)
    counts = dict.fromkeys(chosen, 1)
    for lst in rng.choices(chosen, k=voters - support):
        counts[lst] += 1
    return counts


def _uniform_counts(rng: Random, lists: list[tuple[int, ...]], voters: int):
    """``voters`` independent uniform draws from ``lists``."""
    counts: dict[tuple[int, ...], int] = {}
    for lst in rng.choices(lists, k=voters):
        counts[lst] = counts.get(lst, 0) + 1
    return counts


def _shuffled(rng: Random, members) -> list[int]:
    out = list(members)
    rng.shuffle(out)
    return out


def _center(rng: Random, n: int, j: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(1, n + 1), j)))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# tally-ball: containment rule on a declared radius-2 ball, n=14 k=7 j=4.
BALL_SHAPE = (14, 7, 4, 2)
BALL_KINDS = ("uniform", "random", "uniform", "random", "random")
BALL_VOTERS = 3000

# Op cost grows with the support (tally-threshold) and the record count (ingest).
# Each cycle spreads the size around its middle value: when all ops cost the same,
# the run's median op time jumps between the levels of the machine's faster and
# slower periods instead of moving smoothly. Instance 0, the set-up op, is the
# middle size.

# tally-threshold: threshold 3 on radius-2 ball files, n=13 k=6 j=4, no declared ball.
THRESHOLD_SHAPE = (13, 6, 4, 2)
THRESHOLD_S = 3
THRESHOLD_SUPPORTS, THRESHOLD_VOTERS = (100, 60, 140, 80, 120), 3000

# ingest: one count-1 record per voter, shuffled members, some short lists, n=40 k=4 j=3.
INGEST_SHAPE = (40, 4, 3, 1)
INGEST_RECORDS, INGEST_SHORT = (8000, 4000, 12000, 6000, 10000), 0.10


def build_tally_ball(rng: Random) -> list[Instance]:
    n, k, j, radius = BALL_SHAPE
    out = []
    for i, kind in enumerate(BALL_KINDS):
        center = _center(rng, n, j)
        lists = ball_lists(n, j, center, radius)
        if kind == "uniform":
            share = Fraction(1, len(lists))
            records = [(list(m), "weight", fmt(share)) for m in lists]
            weights = dict.fromkeys(lists, share)
        else:
            counts = _uniform_counts(rng, lists, BALL_VOTERS)
            records = [(_shuffled(rng, m), "count", c) for m, c in counts.items()]
            weights = {m: Fraction(c, BALL_VOTERS) for m, c in counts.items()}
        tail = ["--center", ",".join(map(str, center)), "--radius", str(radius)]
        out.append(tally_instance(f"ball{i}.json", (n, k, j), records, weights, tail,
                                  oracle_best(n, k, j, weights, j), radius))
    return out


def build_tally_threshold(rng: Random) -> list[Instance]:
    n, k, j, radius = THRESHOLD_SHAPE
    out = []
    for i, support in enumerate(THRESHOLD_SUPPORTS):
        lists = ball_lists(n, j, _center(rng, n, j), radius)
        counts = _random_counts(rng, lists, support, THRESHOLD_VOTERS)
        records = [(_shuffled(rng, m), "count", c) for m, c in counts.items()]
        weights = {m: Fraction(c, THRESHOLD_VOTERS) for m, c in counts.items()}
        tail = ["--threshold", str(THRESHOLD_S)]
        out.append(tally_instance(f"threshold{i}.json", (n, k, j), records, weights, tail,
                                  oracle_best(n, k, j, weights, THRESHOLD_S)))
    return out


def build_ingest(rng: Random) -> list[Instance]:
    n, k, j, radius = INGEST_SHAPE
    out = []
    for i, voters in enumerate(INGEST_RECORDS):
        center = _center(rng, n, j)
        lists = ball_lists(n, j, center, radius)
        records, counts = [], {}
        for lst in rng.choices(lists, k=voters):
            members = list(lst)
            if rng.random() < INGEST_SHORT:
                members.remove(rng.choice(members))
            full = complete(tuple(members), center, n, j)
            counts[full] = counts.get(full, 0) + 1
            records.append((_shuffled(rng, members), "count", 1))
        weights = {m: Fraction(c, voters) for m, c in counts.items()}
        tail = ["--complete", "--center", ",".join(map(str, center)), "--radius", str(radius)]
        out.append(tally_instance(f"ingest{i}.json", (n, k, j), records, weights, tail,
                                  walk_best(n, k, j, counts), radius))
    return out


def build_worst_case(rng: Random) -> list[Instance]:
    """``worst-case`` on every pool entry, plus ``bounds`` on those beyond the regime.

    Every run covers the whole pool; the seed picks only the order.
    """
    out = []
    for entry in json.loads(POOL_FILE.read_text())["pool"]:
        n, k, j, radius = entry["n"], entry["k"], entry["j"], entry["radius"]
        floor = ball_floor(n, k, j, radius)
        if (floor is not None) != entry["in_regime"]:
            raise ValueError(f"pool entry {entry} disagrees with the closed-form regime test")
        if floor is not None and fmt(floor) != entry["worst_case"]["value"]:
            raise ValueError(f"pool entry {entry} disagrees with the closed-form ball floor")
        props = dict(ZERO_PROPS)
        props["theory.lp_vars"] = radius + 1
        props["theory.lp_classes"] = min(j, n - k) + 1
        shape = ["--params", f"{n},{k},{j}", "--radius", str(radius)]
        out.append(Instance(
            argv=["worst-case"] + shape,
            expected={"radius": radius, "worst_case": entry["worst_case"]},
            props=props,
        ))
        if floor is None:
            out.append(Instance(
                argv=["bounds"] + shape,
                expected={
                    "global_floor": fmt(global_floor(n, k, j)),
                    "ball_floor": None,
                    "worst_case": entry["worst_case"],
                },
                props=props,
            ))
    return out


BUILDERS = {
    "tally-ball": build_tally_ball,
    "tally-threshold": build_tally_threshold,
    "ingest": build_ingest,
    "worst-case": build_worst_case,
}

# Layers each workload must enter at least once in a traced run.
EXPECTED_SPANS = {
    "tally-ball": ("ballots.read", "ballots.parse", "ballots.normalize", "johnson.ball",
                   "tally.kernel", "theory.floor"),
    "tally-threshold": ("ballots.read", "ballots.parse", "ballots.normalize", "tally.kernel",
                        "theory.floor"),
    "ingest": ("ballots.read", "ballots.parse", "ballots.complete", "ballots.normalize",
               "johnson.ball", "tally.kernel", "theory.floor"),
    "worst-case": ("theory.lp", "theory.floor"),
}


# ---------------------------------------------------------------------------
# yardstick
# ---------------------------------------------------------------------------

# The core's speed drifts while a run measures, so op times are reported in
# units of a fixed piece of work timed right after every op. It runs none of
# the library's code, so no change to the library can move it, and it mixes
# what the ops do: JSON parsing, tuple and dict work, Fraction construction.
_YARD_LISTS = ball_lists(12, 3, (1, 2, 3), 2)
_YARD_TEXT = ballot_text(12, 6, 3, [(list(m), "count", i % 9 + 1) for i, m in enumerate(_YARD_LISTS)])


def yardstick():
    """About 3 ms of fixed pure-Python work; returns (best value, winners, least weight)."""
    doc = json.loads(_YARD_TEXT)
    counts = {tuple(sorted(r["list"])): r["count"] for r in doc["ballots"]}
    total = sum(counts.values())
    least = min(Fraction(c, total) for c in counts.values())
    value, winners = walk_best(12, 6, 3, counts)
    return value, len(winners), least


def build(workload: str, seed: int) -> list[Instance]:
    """The workload's instances in canonical order (instance 0 is the set-up op)."""
    return BUILDERS[workload](Random(f"{workload}/{seed}"))


def cycle_order(workload: str, seed: int, size: int) -> list[int]:
    """Seed-chosen order in which the timed loop visits the instances."""
    order = list(range(size))
    Random(f"{workload}/{seed}/order").shuffle(order)
    return order
