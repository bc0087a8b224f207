"""dstlab benchmark: end-to-end passes through `dstlab.cli.main`, checked and timed.

    python3 perfbench/run.py --workload tetra --seed 0 --seconds 25 --trace 0

Run from the root of a dstlab checkout; the package is imported from its
``src/`` directory.  One pass runs the workload's `dstlab` commands once
(see ``workloads.py``).  Passes repeat until ``--seconds`` have elapsed, at
least twice; every pass's artifacts are checked and their sha256 hashes must
match the first pass.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and it reports the per-layer metrics (``tracing.py``) instead.

``--seed`` orders the solver seed lists and seeds the fixed-input projectors;
``--seed-offset K`` moves the solver seed lists K list-lengths past the
gate's lists, so a claim can be checked on seeds nobody tuned against.
BLAS and OpenMP are pinned to one thread before numpy loads.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--seed-offset", type=int, default=0)
    return parser.parse_args(argv)


def import_dstlab():
    """Import dstlab from this checkout's src/; exit with an error if it is not there."""
    if not (SRC / "dstlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dstlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dstlab

    if Path(dstlab.__file__).resolve().parent != SRC / "dstlab":
        sys.exit(f"perfbench: dstlab imported from {dstlab.__file__}, not {SRC}")


def setup_seconds():
    """Median seconds from process start to `dstlab.cli` imported.

    The median also discards a first import that still compiles bytecode.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import dstlab.cli"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=120)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def environment(load_before, cpu_share, ref_ms):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0))
    load_after = os.getloadavg()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": nproc,
        "threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in load_after],
        "cpu_share": round(cpu_share, 3),
        "reference_ms": [round(min(ref_ms), 2), round(max(ref_ms), 2)],
        # other load is present when this single-threaded process got less
        # than 90% of a core, the load beside it exceeds the other cores, or
        # the reference loop ran more than 20% slower at some pass than at another
        "isolated": (cpu_share >= 0.9 and load_after[0] <= nproc
                     and max(ref_ms) <= 1.2 * min(ref_ms)),
    }


def warm_up(workdir):
    """One tiny solve and one tiny lattice scan, so lazy set-up is not timed."""
    from dstlab.cli import main

    solve = {"subcommand": "minimize", "seeds": [0],
             "params": {"n": 1, "f": 2, "m": 3, "max_iter": 3}}
    scan = {"subcommand": "lattice", "seeds": [],
            "params": {"n_t": 8, "n_r": 6, "scan": {"start": -1, "stop": 1, "num": 3},
                       "states": [{"omega": -1, "k": 1}, {"omega": -2, "k": 2}]}}
    for config in (solve, scan):
        path = workdir / "warm.json"
        path.write_text(json.dumps(config))
        code = main([config["subcommand"], "--config", str(path),
                     "--out", str(workdir / "warm")])
        if code:
            sys.exit(f"perfbench: warm-up {config['subcommand']} exited {code}")
    shutil.rmtree(workdir / "warm")


def artifacts(outdirs):
    """(payload sha256 by path, bytes written, manifest problems) of one pass."""
    hashes, written, problems = {}, 0, []
    for out in outdirs:
        manifest = json.loads((out / "manifest.json").read_text())
        indexed = {e["path"]: e["sha256"] for e in manifest["outputs"]}
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            written += len(data)
            if path.name == "manifest.json":
                continue  # carries a timestamp
            digest = hashlib.sha256(data).hexdigest()
            hashes[f"{out.name}/{path.name}"] = digest
            if indexed.pop(path.name, None) != digest:
                problems.append(f"{out.name}/{path.name}: manifest sha256 mismatch")
        problems.extend(f"{out.name}/{name}: listed but not written" for name in indexed)
    return hashes, written, problems


def run_pass(workload, argvs, tracer=None):
    """One timed pass; returns a record with wall time, checks and hashes."""
    from contextlib import nullcontext

    from dstlab.cli import main

    outdirs = [Path(argv[argv.index("--out") + 1]) for argv in argvs]
    for out in outdirs:
        shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    record = {"traced": tracer is not None, "problems": [], "hashes": {}, "bytes": 0}
    try:
        with tracer.installed() if tracer else nullcontext():
            start = time.perf_counter()
            codes = [main(argv) for argv in argvs]
            record["wall"] = time.perf_counter() - start
        if any(codes):
            record["problems"].append(f"exit codes {codes}")
        else:
            record["hashes"], record["bytes"], problems = artifacts(outdirs)
            record["problems"] += problems
            if workload is not None:
                record["problems"] += workload.check(outdirs)
            result = outdirs[0] / "result.json"
            if result.exists():  # solver statuses are recorded, not required
                result = json.loads(result.read_text())
                record["status"] = result["status"] + ", per seed " + ", ".join(
                    f"{r['seed']}: {r['status']}" for r in result["per_seed"])
    except Exception:  # noqa: BLE001 - a failed pass is counted, not fatal
        record["problems"].append(traceback.format_exc(limit=3))
    if tracer is not None and "wall" in record:
        record["layers"] = tracer.metrics(record["wall"])
        record["layers"]["cli.bytes_written"] = record["bytes"]
    return record


def reference_ms():
    """Milliseconds for a fixed loop of small numpy/scipy calls, outside dstlab.

    The loop makes the kinds of call dstlab's hot paths make: batched and
    single 4x4 ``eigvals``, an 8x8 ``expm`` and a batched product.  On a
    shared host, neighbours slow it by as much as they slow the workload
    (up to 40% within a minute), which load averages and CPU share do not
    show.  It runs for about a quarter of a second, long enough that its own
    jitter stays small beside a pass.
    """
    import numpy as np
    import scipy.linalg

    chains = (np.arange(16 * 16).reshape(16, 4, 4) % 7) + 1j
    h = (np.arange(64).reshape(8, 8) % 5) * 0.01j
    h = h + h.conj().T
    start = time.perf_counter()
    for _ in range(1200):
        np.linalg.eigvals(chains)
        np.linalg.eigvals(chains[0])
        scipy.linalg.expm(h)
        np.einsum("xij,xjk->xik", chains, chains)
    return (time.perf_counter() - start) * 1e3


def measure(workload, argvs, seconds, traced):
    """Passes until ``seconds`` have elapsed: untraced, or alternating with traced."""
    from tracing import Tracer

    modes = (False, True) if traced else (False,)
    passes = []
    ref = reference_ms()
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        for mode in modes:
            rec = run_pass(workload, argvs, Tracer() if mode else None)
            before, ref = ref, reference_ms()
            rec["ref_ms"] = (before + ref) / 2  # the machine's speed around the pass
            passes.append(rec)
    first = passes[0]["hashes"]
    for rec in passes[1:]:
        if rec["hashes"] != first:
            rec["problems"].append("artifact hashes differ from the first pass")
    return passes


def summarize(passes, traced, seed):
    timed = [p for p in passes if not p["traced"] and "wall" in p]
    walls = [p["wall"] for p in timed]
    ok = sum(not p["problems"] for p in passes)
    if not traced:
        # pass time in units of the reference loop timed around the pass, so
        # that a neighbour slowing the host slows numerator and denominator
        wall_ref = [p["wall"] / (p["ref_ms"] / 1e3) for p in timed]
        return {
            "wall_ref": (statistics.median(wall_ref) if timed else 0.0, "ref"),
            "ok_frac": (ok / len(passes), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
    from tracing import UNITS, fixed_input_rows

    layered = [p["layers"] for p in passes if "layers" in p]
    traced_walls = [p["wall"] for p in passes if p["traced"] and "wall" in p]
    if layered:
        values = {name: statistics.median(rec[name] for rec in layered)
                  for name in layered[0]}
    else:
        values = dict.fromkeys(UNITS, 0.0)  # every traced pass failed
    values.update(fixed_input_rows(seed))
    values["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(walls) - 1.0
        if traced_walls and walls else 0.0
    )
    values["pass.wall_s"] = statistics.median(walls) if walls else 0.0
    values["pass.reference_ms"] = statistics.median(p["ref_ms"] for p in passes)
    return {name: (values[name], unit) for name, unit in UNITS.items()}


def main(argv=None):
    args = parse_args(argv)
    load_before = os.getloadavg()
    import_dstlab()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = (setup_seconds(), "s")
    workdir = OUT_ROOT / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        argvs = workload.prepare(workdir, args.seed, args.seed_offset)
        warm_up(workdir)
        cpu0, t0 = time.process_time(), time.perf_counter()
        passes = measure(workload, argvs, args.seconds, bool(args.trace))
        cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - t0)
        metrics.update(summarize(passes, bool(args.trace), args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    failed = sum(bool(p["problems"]) for p in passes)
    print(f"perfbench {workload.name}: seed {args.seed}, offset {args.seed_offset}, "
          f"trace {args.trace}, {len(passes)} passes, {failed} failed")
    if "status" in passes[0]:
        print("  solver status " + passes[0]["status"])
    print("  pass walls (s, * traced): " + " ".join(
        f"{p['wall']:.3f}{'*' if p['traced'] else ''}" for p in passes if "wall" in p))
    for p in passes:
        for problem in p["problems"]:
            print(f"  FAILED CHECK: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    env = environment(load_before, cpu_share, [p["ref_ms"] for p in passes])
    print("  env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
