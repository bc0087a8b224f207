"""Smoke self-test of the benchmark at reduced size (well under a minute).

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced on shortened configs and
fails (exit 1) unless:

- both passes write identical artifacts, so the wrappers change no result;
- the metrics the benchmark reports are exactly those BENCHMARK.json
  declares, with the same units, names made of ``[A-Za-z0-9_.-]``, at most
  16 end-to-end and 128 per-layer;
- the traced counts agree with what the solver itself returns: accepted
  Armijo steps equal the length of the objective traces (plus the
  feasibility precheck's steps in constrained mode), and the lattice
  workload makes no solver or action call;
- the fixed-input gradient rows take the paths they are named after.

Correctness checks of the full-size workloads are not run here.
"""

import json
import os
import re
import shutil
import sys

import run

NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")


def main():
    run.import_dstlab()
    sys.path.insert(0, str(run.BENCH_DIR))
    import dstlab.solver
    from dstlab.core import DiscreteSpacetime, random_projector
    from dstlab.correlation import projector_from_correlations, tetrahedron_family
    from tracing import Tracer
    from workloads import WORKLOADS

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)

    expect(len(end_to_end) <= 16, f"{len(end_to_end)} end-to-end metrics")
    expect(len(per_layer) <= 128, f"{len(per_layer)} per-layer metrics")
    for name in [*end_to_end, *per_layer]:
        expect(NAME.fullmatch(name), f"bad metric name {name!r}")
    expect(sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")

    workdir = run.OUT_ROOT / f"smoke-{os.getpid()}"
    try:
        for name, workload in WORKLOADS.items():
            (workdir / name).mkdir(parents=True)
            argvs = workload.prepare(workdir / name, 0, 0, smoke=True)
            plain = run.run_pass(None, argvs)
            tracer = Tracer()
            traced = run.run_pass(None, argvs, tracer)
            plain["ref_ms"] = traced["ref_ms"] = run.reference_ms()
            for rec in (plain, traced):
                expect(not rec["problems"], f"{name}: {rec['problems']}")
            expect(plain["hashes"] and plain["hashes"] == traced["hashes"],
                   f"{name}: traced and untraced artifacts differ")

            e2e = {"setup_s": "s"}
            e2e.update({k: u for k, (_, u) in run.summarize([plain], False, 0).items()})
            expect(e2e == end_to_end, f"{name}: end-to-end metrics {e2e}")
            layers = run.summarize([plain, traced], True, 0)
            expect({k: u for k, (_, u) in layers.items()} == per_layer,
                   f"{name}: per-layer metrics differ from BENCHMARK.json")

            accepted, steps = tracer.counts["accepted"], tracer.counts["trace_steps"]
            counted = f"{name}: {accepted} accepted steps, {steps} in the solver's traces"
            if name == "tetra":
                expect(accepted == steps > 0, counted)
            elif name == "triangle_kappa":
                expect(accepted >= steps > 0, counted)
            else:
                calls = tracer.calls["solver.minimize"] + tracer.calls["action.gradient"]
                expect(calls == 0 and tracer.counts["lattice.chains"] > 0,
                       f"lattice: {calls} solver/action calls")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.OUT_ROOT.rmdir()
        except OSError:
            pass  # a benchmark run still uses it

    space = DiscreteSpacetime(1, 4)
    for label, proj, pairs in (
        ("analytic_m4", random_projector(space, 2, 0), 0),
        ("fd_m4", projector_from_correlations(space, tetrahedron_family(0.5)), 16),
    ):
        tracer = Tracer()
        with tracer.installed():
            dstlab.solver.q_kernel(proj, 0.5)
        expect(tracer.calls["action.fd"] == pairs,
               f"{label}: {tracer.calls['action.fd']} FD pairs, expected {pairs}")

    for problem in problems:
        print("SMOKE FAILED:", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
