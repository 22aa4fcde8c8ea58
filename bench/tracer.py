"""Spans around the public functions of each robinrecon module.

The tracer patches module attributes (and ``Mesh.segment_nodes`` on the
class) with thin wrappers that record one span per call: layer name,
start, end, parent span and the job it belongs to.  The library itself
is untouched; every call site reaches the wrapped function through a
module attribute or a module global, which is what the patch replaces.
A refactor that stops calling a wrapped function therefore shows as a
layer whose count drops to zero, which the self-tests catch.

Spans stay in memory.  A forked pool worker inherits the tracer, starts
an empty span list of its own and hands its spans to the job recorder,
which ships them to the parent through a file after every job.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

from robinrecon import cli, elliptic, experiments, fem, lm, parabolic
from robinrecon.mesh import Mesh

# Span record layout, kept as a plain list so worker files stay small.
ID, PARENT, NAME, START, END, JOB, PASS, ATTRS = range(8)


def _solve_hook(fn, attrs, args, kwargs):
    """Count CG iterations through solve_spd's own stats= argument."""
    caller_stats = kwargs.pop("stats", None)
    stats = {}
    attrs["nnz"] = int(args[0].nnz)
    try:
        x = fn(*args, stats=stats, **kwargs)
    except fem.LinearSolveError:
        attrs["failed"] = 1
        raise
    attrs["iters"] = stats["iterations"]
    if caller_stats is not None:
        caller_stats.update(stats)
    return x


def _observation_hook(fn, attrs, args, kwargs):
    """Tag each data generation with its (example, mesh, nt) key."""
    example = args[0]
    prob = example.problem
    attrs["key"] = [example.example_id, prob.mesh.nx, prob.mesh.ny,
                    getattr(prob, "nt", None)]
    return fn(*args, **kwargs)


def _run_hook(fn, attrs, args, kwargs):
    """Take iteration and clamp counts from the finished LM state."""
    state = fn(*args, **kwargs)
    attrs["iterations"] = state.k
    attrs["clamped"] = sum(row.n_clamped for row in state.history)
    return state


# (layer, owner, attribute, hook).  mesh.build is patched in experiments,
# the module whose make_example looks those names up.
LAYERS = (
    ("fem.solve", fem, "solve_spd", _solve_hook),
    ("fem.assemble_matrix", fem, "assemble_stiffness", None),
    ("fem.assemble_matrix", fem, "assemble_mass", None),
    ("fem.assemble_matrix", fem, "assemble_boundary_mass", None),
    ("fem.assemble_load", fem, "assemble_load", None),
    ("fem.assemble_load", fem, "assemble_boundary_load", None),
    ("fem.boundary_inner", fem, "boundary_inner", None),
    ("mesh.segment_nodes", Mesh, "segment_nodes", None),
    ("mesh.build", experiments, "build_rect_mesh", None),
    ("mesh.build", experiments, "classify_boundary", None),
    ("experiments.run_experiment", experiments, "run_experiment", None),
    ("experiments.make_example", experiments, "make_example", None),
    ("experiments.exact_observation", experiments, "exact_observation",
     _observation_hook),
    ("elliptic.assemble_operator", elliptic, "assemble_operator", None),
    ("elliptic.forward", elliptic, "solve_forward", None),
    ("elliptic.adjoint", elliptic, "solve_adjoint", None),
    ("parabolic.build_operator", parabolic, "build_operator", None),
    ("parabolic.forward", parabolic, "solve_forward_parabolic", None),
    ("parabolic.adjoint", parabolic, "solve_adjoint_parabolic", None),
    ("parabolic.space_time_inner", parabolic, "space_time_inner", None),
    ("lm.run", lm, "run", _run_hook),
    ("lm.step", lm, "lm_step_elliptic", None),
    ("lm.step", lm, "lm_step_parabolic", None),
    ("lm.update", lm, "_advance", None),
    ("cli.sweep", cli, "cmd_sweep", None),
)


class Tracer:
    """Installs the span wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.pass_index = None
        self._next = 0
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for name, owner, attr, hook in LAYERS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._adopt_process()
            span_id = (tracer.pid << 32) | tracer._next
            tracer._next += 1
            parent = tracer.stack[-1] if tracer.stack else None
            attrs = {}
            tracer.stack.append(span_id)
            start = time.perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, attrs, args, kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append([span_id, parent, name, start, end,
                                     tracer.job, tracer.pass_index, attrs])

        return wrapper

    def _adopt_process(self) -> None:
        """In a forked worker, drop the spans inherited from the parent.

        The open-span stack is kept, so a worker's first span names the
        parent's ``cli.sweep`` span as its cause.
        """
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self._next = 0

    def drain(self) -> list[list]:
        """Hand over the spans recorded so far and forget them."""
        self._adopt_process()
        spans, self.spans = self.spans, []
        return spans


def _busy_and_self(spans):
    """Inclusive and self time per layer name.

    Inclusive time skips spans nested in a span of the same name, so a
    recursive or re-entrant layer is not counted twice.  Self time is a
    span's duration minus the duration of its direct children; children
    run in the same process inside their parent's interval, except worker
    spans whose parent is the sweep span, which are left out of self time.
    """
    by_id = {s[ID]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        parent = by_id.get(s[PARENT])
        if parent is not None and (s[ID] >> 32) == (parent[ID] >> 32):
            child_time[s[PARENT]] += s[END] - s[START]
    busy = defaultdict(float)
    self_time = defaultdict(float)
    for s in spans:
        duration = s[END] - s[START]
        self_time[s[NAME]] += duration - child_time[s[ID]]
        ancestor = by_id.get(s[PARENT])
        while ancestor is not None and ancestor[NAME] != s[NAME]:
            ancestor = by_id.get(ancestor[PARENT])
        if ancestor is None:
            busy[s[NAME]] += duration
    return busy, self_time


def layer_metrics(spans, names, pool_jobs: int) -> dict:
    """Per-layer counts and times of one pass for the given metric names.

    ``<layer>.calls``, ``<layer>.busy_s`` and ``<layer>.self_s`` come
    straight from the spans; the other names are derived counts.
    """
    busy, self_time = _busy_and_self(spans)
    calls = defaultdict(int)
    attr_sum = defaultdict(float)
    keys = []
    matvec_nnz = 0
    for s in spans:
        calls[s[NAME]] += 1
        for k, v in s[ATTRS].items():
            if k == "key":
                keys.append(tuple(v))
            else:
                attr_sum[(s[NAME], k)] += v
        if s[NAME] == "fem.solve":
            matvec_nnz += s[ATTRS].get("iters", 0) * s[ATTRS]["nnz"]

    solves = calls["fem.solve"]
    cg_iters = attr_sum[("fem.solve", "iters")]
    observations = calls["experiments.exact_observation"]
    derived = {
        "fem.solve.cg_iters": int(cg_iters),
        "fem.solve.cg_iters_per_call": cg_iters / solves if solves else 0.0,
        "fem.solve.failures": int(attr_sum[("fem.solve", "failed")]),
        "fem.solve.matvec_nnz": matvec_nnz,
        "experiments.exact_observation.distinct_frac":
            len(set(keys)) / observations if observations else 0.0,
        "lm.iterations": int(attr_sum[("lm.run", "iterations")]),
        "lm.clamped_nodes": int(attr_sum[("lm.run", "clamped")]),
        # Pool capacity (workers x sweep wall time) not spent inside
        # run_experiment: worker start, dispatch, CSV output, idle tail.
        "cli.sweep.overhead_s": (
            pool_jobs * busy["cli.sweep"] - busy["experiments.run_experiment"]
            if calls["cli.sweep"] else 0.0
        ),
    }
    by_kind = {"calls": calls, "busy_s": busy, "self_s": self_time}
    out = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        out[name] = derived[name] if name in derived else by_kind[kind][layer]
    return out
