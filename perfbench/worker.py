"""One workload process: a set-up probe or the closed timed loop.

Run by ``run.py`` in a fresh interpreter whose working directory holds the
generated inputs and a ``plan.json``; the library comes from PYTHONPATH.

    python3 worker.py probe   # import listvote + first op; prints its seconds
    python3 worker.py loop    # whole cycles until the plan's time is up

Each op is ``listvote.cli.main(argv)`` in this process, one at a time: the
next op starts only after the previous one returned. After every op the
loop also times one run of ``workloads.yardstick``, the fixed work that op
times are expressed in. The loop writes its raw observations to
``result.json``; ``run.py`` checks and summarises them.

The set-up probes run from inside the loop, one at a time between cycles
and spread evenly over the timed phase, so that they sample the machine at
many moments; the loop waits for each, and the time it waits is not part
of the timed phase.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from time import perf_counter

OUTPUT = "out.json"


def _argv(plan: dict, index: int) -> list[str]:
    return plan["argvs"][index] + ["--format", "structured", "--output", OUTPUT]


def _read_output() -> str:
    with open(OUTPUT) as fh:
        return fh.read()


def probe(plan: dict) -> None:
    start = perf_counter()
    from listvote import cli

    rc = cli.main(_argv(plan, 0))
    setup_s = perf_counter() - start
    if rc != 0:
        sys.exit(f"set-up op exited {rc}")
    print(json.dumps({"setup_s": setup_s}))


def _timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def _run_probe() -> float:
    proc = subprocess.run([sys.executable, __file__, "probe"], capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        sys.exit(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)["setup_s"]


def loop(plan: dict) -> None:
    from listvote import cli
    from workloads import yardstick

    tracer = None
    if plan["trace"]:
        from tracing import ROOT, Tracer

        tracer = Tracer()
        tracer.install()  # fail now, before timing, if a boundary is gone
        tracer.uninstall()

    cli.main(_argv(plan, 0))  # untimed: lazy set-up finishes before timing
    yardstick()

    ops = []  # [instance, rc or error text, seconds, output id, traced]
    yards = [_timed(yardstick)]  # yards[i] and yards[i + 1] bracket ops[i]
    text_ids: dict[str, int] = {}
    setup = []
    probes = plan["probes"]
    cycles = 0
    paused = 0.0  # seconds spent waiting for set-up probes
    start = perf_counter()
    while True:
        for index in plan["order"]:
            argv = _argv(plan, index)
            if os.path.exists(OUTPUT):
                os.remove(OUTPUT)
            traced = tracer is not None and len(ops) % 2 == 1
            if traced:
                tracer.op_id = len(ops)
                tracer.install()
            t0 = perf_counter()
            try:
                rc = tracer.call(ROOT, cli.main, argv) if traced else cli.main(argv)
            except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
                rc = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - t0
            if traced:
                tracer.uninstall()
            text_id = -1
            if rc == 0:
                text_id = text_ids.setdefault(_read_output(), len(text_ids))
            ops.append([index, rc, seconds, text_id, traced])
            yards.append(_timed(yardstick))
        cycles += 1
        elapsed = perf_counter() - start - paused
        if len(setup) < probes and elapsed >= plan["seconds"] * (len(setup) + 0.5) / probes:
            t0 = perf_counter()
            setup.append(_run_probe())
            paused += perf_counter() - t0
        elif (elapsed >= plan["seconds"] and len(ops) >= plan["min_ops"]
                and len(setup) == probes and (tracer is None or cycles % 2 == 0)):
            break

    result = {
        "ops": ops,
        "yards": yards,
        "texts": list(text_ids),
        "phase_s": elapsed,
        "setup": setup,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
    }
    with open("result.json", "w") as fh:
        json.dump(result, fh)


def main() -> None:
    with open("plan.json") as fh:
        plan = json.load(fh)
    {"probe": probe, "loop": loop}[sys.argv[1]](plan)


if __name__ == "__main__":
    main()
