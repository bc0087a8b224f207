"""Spans and counts at dstlab's layer boundaries, recorded from outside the package.

A :class:`Tracer` replaces, for the duration of ``with tracer.installed():``,
the module attributes through which one layer calls the next: the names
``dstlab.cli`` imported from the solver and lattice, the names
``dstlab.solver`` imported from ``dstlab.action`` and ``dstlab.core``, the
``dstlab.action`` globals its own functions look up, two methods of
``FermionicProjector`` and the ``dstlab.lattice`` field passes.  Nothing
under ``src/`` is edited and every original is put back on exit.

Each wrapped call is a span.  Its duration is added to the span name's busy
time and subtracted from the self time of the enclosing span, so a layer's
self time is its busy time minus the part its wrapped children cover.
Spans and counts stay in memory; :meth:`Tracer.metrics` turns them into the
per-layer metrics of one pass.
"""

import statistics
import time
from collections import Counter
from contextlib import contextmanager

import dstlab.action
import dstlab.cli
import dstlab.core
import dstlab.lattice
import dstlab.solver

# (owner, attribute, span name, hook); a hook is a Tracer method name
PATCHES = (
    (dstlab.cli, "minimize", "solver.minimize", "_solve"),
    (dstlab.cli, "landscape_scan_2d", "lattice.landscape_scan_2d", None),
    (dstlab.solver, "random_projector", "core.random_projector", "_seed_start"),
    (dstlab.solver, "el_residual", "action.el_residual", "_seeds_end"),
    (dstlab.solver, "q_kernel", "action.q_kernel", "_iteration"),
    (dstlab.solver, "constraint_q_kernel", "action.q_kernel", "_iteration"),
    (dstlab.solver, "action", "action.value", None),
    (dstlab.solver, "action_and_constraint", "action.value", None),
    (dstlab.solver, "constraint_value", "action.value", None),
    (dstlab.solver, "transported", "action.transport", "_trial"),
    (dstlab.action, "gradient_blocks", "action.gradient", None),
    (dstlab.action, "finite_difference_gradient", "action.fd", None),
    (dstlab.action, "chain_roots", "action.chain_roots", None),
    (dstlab.core.FermionicProjector, "check_invariants", "core.check_invariants",
     "_check"),
    (dstlab.core.FermionicProjector, "renormalized", "core.renormalized", None),
    (dstlab.lattice, "chain_root_field", "lattice.chain_roots", "_chains"),
    (dstlab.lattice, "closed_chain_field", "lattice.field", None),
    (dstlab.lattice, "critical_lagrangian_field", "lattice.field", None),
)

# the spans a `dstlab.cli` handler spends in its library call
LIBRARY_SPANS = ("solver.minimize", "lattice.landscape_scan_2d")

# every per-layer metric a traced run reports, with its unit
UNITS = {
    "solver.iterations": "count",
    "solver.iterations_max_seed": "count",
    "solver.seed_s_p50": "s",
    "solver.seed_s_max": "s",
    "solver.armijo_trials": "count",
    "solver.armijo_accept_ratio": "ratio",
    "solver.seeds_converged_frac": "ratio",
    "solver.self_s": "s",
    "action.fd.pairs": "count",
    "action.fd.busy_s": "s",
    "action.fd_share": "ratio",
    "action.gradient.calls": "count",
    "action.gradient.busy_s": "s",
    "action.value.calls": "count",
    "action.value.busy_s": "s",
    "action.spectral_passes_per_iter": "ratio",
    "action.q_assembly.busy_s": "s",
    "action.transport.busy_s": "s",
    "action.grad_us.analytic_m4": "us",
    "action.grad_us.fd_m4": "us",
    "action.grad_us.analytic_m9": "us",
    "action.value_us.m9": "us",
    "action.transport_us.m9": "us",
    "core.check_invariants.calls": "count",
    "core.check_invariants.busy_s": "s",
    "core.renormalized.calls": "count",
    "lattice.chain_roots.busy_s": "s",
    "lattice.field.busy_s": "s",
    "lattice.chains_per_s": "1/s",
    "cli.overhead_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_frac": "ratio",
    # filled in by run.py from the untraced passes of a traced run
    "pass.wall_s": "s",
    "pass.reference_ms": "ms",
}


class Tracer:
    """Busy time, self time and call counts per span name, plus solver counts."""

    def __init__(self):
        self.busy = Counter()
        self.self_time = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.seed_spans = []  # (seconds, iterations) of every solved seed
        self.statuses = []  # per-seed status strings returned by the solver
        self._stack = []  # child time accumulated under each open span
        self._segments = []  # [start, end, iterations] per random_projector call
        self._pending = {}  # Armijo trial projectors not yet accepted
        self._solve_start = 0

    @contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in PATCHES]
        try:
            for (owner, attr, span, hook), (_, _, original) in zip(PATCHES, saved):
                setattr(owner, attr, self._wrap(span, original, hook))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def _wrap(self, span, fn, hook):
        hook = getattr(self, hook) if hook else None

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook("call", args, None)
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._stack.pop()
                self.busy[span] += elapsed
                self.self_time[span] += elapsed - child
                self.calls[span] += 1
                if self._stack:
                    self._stack[-1] += elapsed
            if hook is not None:
                hook("return", args, out)
            return out

        return wrapper

    # -- hooks: phase is "call" (before the span) or "return" (after it) ----

    def _solve(self, phase, args, result):
        # every seed of a solve starts with one random_projector call; the
        # constrained feasibility precheck makes its own calls first, so the
        # solve's seeds are the last len(per_seed) segments
        if phase == "call":
            self._solve_start = len(self._segments)
            return
        now = time.perf_counter()
        segments = self._segments[self._solve_start:]
        seeds = segments[len(segments) - len(result.per_seed):]
        for k, (start, end, iterations) in enumerate(seeds):
            stop = seeds[k + 1][0] if k + 1 < len(seeds) else (end or now)
            self.seed_spans.append((stop - start, iterations))
        self.statuses.extend(rec["status"] for rec in result.per_seed)
        self.counts["trace_steps"] += sum(
            len(trace) - 1 for rounds in result.traces.values() for trace in rounds
        )

    def _seed_start(self, phase, args, out):
        if phase == "call":
            self._segments.append([time.perf_counter(), None, 0])

    def _seeds_end(self, phase, args, out):
        if phase == "call" and self._segments:
            self._segments[-1][1] = time.perf_counter()

    def _iteration(self, phase, args, out):
        if phase == "call":
            self.counts["iterations"] += 1
            if self._segments:
                self._segments[-1][2] += 1

    def _trial(self, phase, args, out):
        if phase == "return":
            self._pending[id(out)] = out

    def _check(self, phase, args, out):
        # the solver checks the invariants of every iterate it accepts (inside
        # the loop, or once after it when a stall ends the descent); rejected
        # trials are never checked
        if phase == "call":
            if id(args[0]) in self._pending:
                self.counts["accepted"] += 1
            self._pending.clear()

    def _chains(self, phase, args, out):
        if phase == "call":
            field = args[0]
            self.counts["lattice.chains"] += field.size // (field.shape[-1] ** 2)

    # -- metrics ---------------------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer metrics of one traced pass that took ``wall_s`` seconds."""
        iterations = self.counts["iterations"]
        trials = self.calls["action.transport"]
        gradient_s = self.busy["action.gradient"]
        seed_s = [s for s, _ in self.seed_spans]
        library_s = sum(self.busy[name] for name in LIBRARY_SPANS)
        chain_roots_s = self.busy["lattice.chain_roots"]
        return {
            "solver.iterations": iterations,
            "solver.iterations_max_seed": max((i for _, i in self.seed_spans), default=0),
            "solver.seed_s_p50": statistics.median(seed_s) if seed_s else 0.0,
            "solver.seed_s_max": max(seed_s, default=0.0),
            "solver.armijo_trials": trials,
            "solver.armijo_accept_ratio": _ratio(self.counts["accepted"], trials),
            "solver.seeds_converged_frac": _ratio(
                self.statuses.count("converged"), len(self.statuses)
            ),
            "solver.self_s": self.self_time["solver.minimize"],
            "action.fd.pairs": self.calls["action.fd"],
            "action.fd.busy_s": self.busy["action.fd"],
            "action.fd_share": _ratio(self.busy["action.fd"], gradient_s),
            "action.gradient.calls": self.calls["action.gradient"],
            "action.gradient.busy_s": gradient_s,
            "action.value.calls": self.calls["action.value"],
            "action.value.busy_s": self.busy["action.value"],
            "action.spectral_passes_per_iter": _ratio(
                self.calls["action.chain_roots"] + self.calls["action.gradient"],
                iterations,
            ),
            "action.q_assembly.busy_s": self.self_time["action.q_kernel"],
            "action.transport.busy_s": self.busy["action.transport"],
            "core.check_invariants.calls": self.calls["core.check_invariants"],
            "core.check_invariants.busy_s": self.busy["core.check_invariants"],
            "core.renormalized.calls": self.calls["core.renormalized"],
            "lattice.chain_roots.busy_s": chain_roots_s,
            "lattice.field.busy_s": self.busy["lattice.field"],
            "lattice.chains_per_s": _ratio(self.counts["lattice.chains"], chain_roots_s),
            "cli.overhead_s": wall_s - library_s,
        }


def _ratio(num, den):
    """num / den, or 0 where the layer did no work (den == 0)."""
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# fixed-input rows: single action-layer calls on seeded inputs, no solver


def _per_call_us(fn, batches=5, batch_s=0.04):
    """Median over batches of the mean microseconds per call of ``fn()``."""
    fn()
    start = time.perf_counter()
    fn()
    reps = max(1, int(batch_s / max(time.perf_counter() - start, 1e-7)))
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps * 1e6)
    return statistics.median(samples)


def fixed_input_rows(seed):
    """Microseconds per gradient, value and orbit-step call at m = 4 and 9.

    The analytic rows use seeded random projectors, whose chains have simple
    nonzero roots.  The finite-difference row uses the closed-form regular
    tetrahedron minimizer, where every one of the 16 chains has a zero root.
    """
    import numpy as np

    from dstlab.action import action_and_constraint, q_kernel, transported
    from dstlab.core import DiscreteSpacetime, random_direction, random_projector
    from dstlab.correlation import projector_from_correlations, tetrahedron_family

    space4, space9 = DiscreteSpacetime(1, 4), DiscreteSpacetime(1, 9)
    p4 = random_projector(space4, 2, seed)
    p9 = random_projector(space9, 2, seed)
    tetra = projector_from_correlations(space4, tetrahedron_family(0.5))
    b9 = random_direction(space9, seed)
    b9 = b9 / np.linalg.norm(b9)
    return {
        "action.grad_us.analytic_m4": _per_call_us(lambda: q_kernel(p4, 0.5)),
        "action.grad_us.fd_m4": _per_call_us(lambda: q_kernel(tetra, 0.5)),
        "action.grad_us.analytic_m9": _per_call_us(lambda: q_kernel(p9, 0.5)),
        "action.value_us.m9": _per_call_us(lambda: action_and_constraint(p9, 0.5)),
        "action.transport_us.m9": _per_call_us(lambda: transported(p9, b9, 0.1)),
    }
