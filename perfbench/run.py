#!/usr/bin/env python3
"""The listvote benchmark: one workload, end to end through the CLI.

    python3 perfbench/run.py --workload tally-ball --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # each in turn

Run from the root of a source checkout; the library is imported from
``src/``. The run

1. generates the workload's inputs from ``--seed`` (``workloads.py``) and
   computes their expected outputs with an independent reference, outside
   every timed region;
2. with ``--trace 0``, runs the closed timed loop in one fresh process:
   one client, one op at a time, whole cycles over the instances until
   ``--seconds`` have passed and at least MIN_OPS ops were timed. Each op is
   followed by one timed run of a fixed yardstick (``workloads.yardstick``),
   and op times are reported in units of the yardsticks around them. Between
   cycles, spread over the run, the loop waits for SETUP_PROBES fresh
   processes that each time set-up: ``import listvote`` plus the first op;
3. with ``--trace 1``, runs the same loop with every other op traced
   (``tracing.py``) and reports per-layer self times and input-property
   counts instead;
4. checks every op's output against the reference, and that a corrupted
   reference is caught;
5. prints each metric with its unit, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``, which holds the metrics that
   ``BENCHMARK.json`` declares (``end_to_end`` for ``--trace 0``,
   ``per_layer`` for ``--trace 1``).

It exits 1 when any output disagrees with the reference or any op fails,
and 2 when the checkout has no ``src/listvote`` to measure.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
SRC = ROOT_DIR / "src"
WORK = ROOT_DIR / ".bench_work"
OUT = ROOT_DIR / ".bench_out"

MIN_OPS = 100
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import LAYERS, per_op_layers  # noqa: E402

MISSING = object()


class BenchError(Exception):
    """The benchmark could not measure: a broken set-up, not a wrong answer."""


def _import_library() -> None:
    if not (SRC / "listvote" / "__init__.py").is_file():
        raise BenchError(f"no library to measure: {SRC / 'listvote'} is missing")
    sys.path.insert(0, str(SRC))
    import listvote

    if Path(listvote.__file__).resolve().parent != (SRC / "listvote").resolve():
        raise BenchError(f"imported listvote from {listvote.__file__}, not from {SRC}")


def mismatches(text: str, expected: dict) -> list[str]:
    """Fields of one structured output that differ from the reference."""
    doc = json.loads(text)
    return [key for key, value in expected.items() if doc.get(key, MISSING) != value]


def _other_committee(winners: list[list[int]], n: int) -> list[int]:
    """A valid committee (sorted, members in 1..n) that is not among ``winners``."""
    first = winners[0]
    for out in first:
        for into in range(1, n + 1):
            other = sorted(set(first) - {out} | {into})
            if len(other) == len(first) and other not in winners:
                return other
    raise BenchError("every committee is a winner; no wrong committee to substitute")


def corruptions(expected: dict) -> list[dict]:
    """Deliberately wrong references; the check must reject the true output against each."""
    out = []
    if "best_value" in expected:
        bad = copy.deepcopy(expected)
        bad["best_value"] = workloads.fmt(Fraction(expected["best_value"]) + Fraction(1, 7))
        out.append(bad)
        winners = expected["winners"]
        other = _other_committee(winners, expected["params"]["n"])
        bad = copy.deepcopy(expected)
        bad["winners"] = sorted(winners[:-1] + [other])  # one winner swapped for a loser
        out.append(bad)
        bad = copy.deepcopy(expected)
        bad["winners"] = winners[:-1]  # one winner dropped
        out.append(bad)
        bad = copy.deepcopy(expected)
        bad["winners"] = sorted(winners + [other])  # one loser added
        out.append(bad)
    if "worst_case" in expected:
        bad = copy.deepcopy(expected)
        value = Fraction(expected["worst_case"]["value"])
        bad["worst_case"]["value"] = workloads.fmt(value + Fraction(1, 7))
        out.append(bad)
        bad = copy.deepcopy(expected)
        bad["worst_case"]["weights"] = bad["worst_case"]["weights"][::-1] + ["0"]
        out.append(bad)
    return out


def _child(mode: str, workdir: Path) -> subprocess.CompletedProcess:
    # A fixed hash seed keeps str-keyed dict and set layouts the same from run to run.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else 0.0


def end_to_end(ops, ok, result) -> dict[str, float]:
    """Op times in seconds and in yardstick units, set-up, and memory.

    ``yards[i]`` and ``yards[i + 1]`` are the yardstick runs just before and
    just after op ``i``; the op's relative time is its seconds over their mean,
    so a change of core speed that lasts longer than one op cancels out.
    """
    yards = result["yards"]
    timed = [(i, op[2]) for i, (op, good) in enumerate(zip(ops, ok)) if good and not op[4]]
    times = [seconds for _, seconds in timed]
    rel = [seconds * 2 / (yards[i] + yards[i + 1]) for i, seconds in timed]
    return {
        "op_p50_s": _median(times),
        "op_p90_s": _p90(times),
        "ops_per_s": len(times) / sum(times),
        "yardstick_s": _median(yards),
        "op_p50_rel": _median(rel),
        "op_p90_rel": _p90(rel),
        "op_mean_rel": statistics.fmean(rel),
        # The median of probes spread over the run: across ten-seed sets it moved
        # less than their minimum did (see NOTES.md).
        "setup_s": _median(result["setup"]),
        "peak_rss_mb": result["maxrss_kb"] / 1024,
    }


def per_layer(workload, instances, result) -> dict[str, float]:
    """Per-op medians over the traced ops, and the traced-minus-untraced p50."""
    names = {span[1] for span in result["spans"]}
    missing = [name for name in workloads.EXPECTED_SPANS[workload] if name not in names]
    if missing:
        raise BenchError(f"{workload} never entered {', '.join(missing)}")
    layers = per_op_layers(result["spans"])
    rows = []
    for op_id, (index, rc, _, text_id, traced) in enumerate(result["ops"]):
        if not traced or rc != 0:
            continue
        op = layers[op_id]
        own = op["self_s"]
        text = result["texts"][text_id]
        doc = json.loads(text)
        row = {
            "tally.kernel_s": own.get("tally.kernel", 0.0),
            "theory.lp_s": own.get("theory.lp", 0.0),
            "theory.floor_s": own.get("theory.floor", 0.0),
            "theory.lp_calls": op["calls"].get("theory.lp", 0),
            "ballots.read_s": own.get("ballots.read", 0.0),
            "ballots.parse_s": own.get("ballots.parse", 0.0),
            "ballots.complete_s": own.get("ballots.complete", 0.0),
            "ballots.normalize_s": own.get("ballots.normalize", 0.0),
            "johnson.ball_s": own.get("johnson.ball", 0.0),
            "cli.self_s": own.get("cli.op", 0.0),
            "tally.winners": len(doc.get("winners") or ()),
            "tally.strategy_sparse_frac": 1.0 if doc.get("strategy") == "sparse" else 0.0,
            "cli.out_bytes": len(text.encode()),
        }
        layer_self = {
            "ballots": row["ballots.read_s"] + row["ballots.parse_s"]
            + row["ballots.complete_s"] + row["ballots.normalize_s"],
            "johnson": row["johnson.ball_s"],
            "tally": row["tally.kernel_s"],
            "theory": row["theory.lp_s"] + row["theory.floor_s"],
            "cli": row["cli.self_s"],
        }
        row.update({f"{layer}.share": layer_self[layer] / op["op_s"] for layer in LAYERS})
        row.update(instances[index].props)
        rows.append((row, op["op_s"]))
    if not rows:
        raise BenchError(f"{workload}: no traced op succeeded")
    traced_times = [op_s for _, op_s in rows]
    untraced = [op[2] for op in result["ops"] if not op[4] and op[1] == 0]
    metrics = {name: _median([row[name] for row, _ in rows]) for name in rows[0][0]}
    metrics["tally.strategy_sparse_frac"] = statistics.fmean(
        row["tally.strategy_sparse_frac"] for row, _ in rows)
    metrics["trace.overhead_s"] = _median(traced_times) - _median(untraced)
    return metrics


# Printed with the declared metrics but not declared: wall-clock op times move with
# the core's drifting speed, so they are shown for reading, not gated on.
SHOWN_ONLY = {"op_p50_s": "s", "op_p90_s": "s", "ops_per_s": "1/s", "yardstick_s": "s"}


def declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this kind of run."""
    declared = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def inputs_digest(workload: str, seed: int, instances, order) -> str:
    digest = hashlib.sha256(f"{workload}\0{seed}\0{order}".encode())
    for inst in instances:
        digest.update(json.dumps(inst.argv).encode())
        digest.update((inst.file_text or "").encode())
    return digest.hexdigest()


def run(args) -> int:
    _import_library()
    units = declared_units(args.trace)
    start = perf_counter()
    instances = workloads.build(args.workload, args.seed)
    order = workloads.cycle_order(args.workload, args.seed, len(instances))
    reference_s = perf_counter() - start
    digest = inputs_digest(args.workload, args.seed, instances, order)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for inst in instances:
            if inst.file_name:
                (workdir / inst.file_name).write_text(inst.file_text)
        plan = {
            "argvs": [inst.argv for inst in instances],
            "order": order,
            "seconds": args.seconds,
            "trace": args.trace,
            "min_ops": MIN_OPS,
            # The set-up op is instance 0, which the timed loop runs and checks many times.
            "probes": 0 if args.trace else SETUP_PROBES,
        }
        (workdir / "plan.json").write_text(json.dumps(plan))

        _child("loop", workdir)
        result = json.loads((workdir / "result.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # correctness: every distinct output of every op against its reference
    ops = result["ops"]
    wrong = {}
    for index, rc, _, text_id, _ in ops:
        if rc == 0 and (index, text_id) not in wrong:
            wrong[index, text_id] = mismatches(result["texts"][text_id], instances[index].expected)
    ok = [rc == 0 and not wrong[index, text_id] for index, rc, _, text_id, _ in ops]
    failed = [op for op, good in zip(ops, ok) if not good]
    for index, rc, _, text_id, _ in failed[:5]:
        what = rc if rc != 0 else f"fields {wrong[index, text_id]} disagree with the reference"
        print(f"FAILED op on {' '.join(instances[index].argv)}: {what}", file=sys.stderr)

    # negative self-test: the check must reject each instance's first correct output
    # against every corrupted version of its reference
    tested = set()
    for op, good in zip(ops, ok):
        if good and op[0] not in tested:
            tested.add(op[0])
            for bad in corruptions(instances[op[0]].expected):
                if not mismatches(result["texts"][op[3]], bad):
                    raise BenchError("self-test: a corrupted reference was accepted")

    if args.trace:
        metrics = per_layer(args.workload, instances, result)
    else:
        metrics = end_to_end(ops, ok, result)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "inputs_sha256": digest,
        "argvs": [inst.argv for inst in instances],
        "op_fields": ["instance", "exit code or error", "seconds", "output id", "traced"],
        "ops": result["ops"],
        "yardstick_s": result["yards"],
        "setup_s": result["setup"],
        "span_fields": ["op", "name", "start", "end", "parent"],
        "spans": result["spans"],
    }))
    print(f"raw op timings and spans: {record.relative_to(ROOT_DIR)}")

    traced = sum(1 for op in ops if op[4])
    print(f"workload: {args.workload}  seed: {args.seed}  inputs_sha256: {digest}")
    print(f"closed loop, 1 client: {len(ops)} ops in {result['phase_s']:.2f} s "
          f"({len(instances)} instances per cycle); {len(ops) - traced} untraced op timings, "
          f"{traced} traced; inputs and reference {reference_s:.2f} s")
    print(f"error_rate = {len(failed) / len(ops):.6g} ratio  ({len(failed)} of {len(ops)})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name] if name in units else SHOWN_ONLY[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            status = max(status, run(argparse.Namespace(**{**vars(args), "workload": name})))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
