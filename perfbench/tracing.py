"""Spans around the calls into each qdarwin layer, recorded from outside.

``Tracer.install`` replaces the public entry points where the calling module
looks them up (``qdarwin.experiments.subsystem_entropy``, the propagator
classes' methods, ``qdarwin.cli.write_csv`` and so on) with wrappers that
record a span per call; ``uninstall`` puts the originals back. Spans stay in
memory as tuples and are written out once, at the end of the run.

Bytes and flops attached to spans are computed from array shapes, not
measured: they ignore caches and temporaries.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

COMPLEX_BYTES = 16
REAL_BYTES = 8


def _entropy_work(psi, keep):
    """(bytes, flops) of one partial-trace entropy: the state is read and its
    (2^k x 2^(n-k)) partition copy written, then a d x d Gram over the smaller
    side d is formed (8 d^2 D real flops) and diagonalized (16 d^3 / 3)."""
    n = psi.n_qubits
    k = len(keep)
    d = 1 << min(k, n - k)
    big = 1 << max(k, n - k)
    dim = 1 << n
    return COMPLEX_BYTES * (2 * dim + d * d), 8 * d * d * big + 16 * d ** 3 // 3


def _dense_evolve_work(self, state, t):
    """Two dim x dim complex matrix-vector products plus the in/out vectors."""
    dim = state.dim
    return COMPLEX_BYTES * (2 * dim * dim + 3 * dim), 16 * dim * dim


def _diagonal_evolve_work(self, state, t):
    """One phase per amplitude: energies read, state read and written."""
    dim = state.dim
    return REAL_BYTES * dim + 2 * COMPLEX_BYTES * dim, 0


# (owner, attribute, span name, work function or None). The owner is a module
# of the qdarwin package or a class in one, named from the package root.
TARGETS = (
    ("cli", "reproduce_fig3", "experiments.sweep", None),
    ("cli", "run_sweep", "experiments.sweep", None),
    ("cli", "write_csv", "cli.write_csv", None),
    ("cli", "write_sidecar", "cli.write_sidecar", None),
    ("cli", "render_heatmap_svg", "cli.render_heatmap_svg", None),
    ("experiments", "sample_instance", "model.sample_instance", None),
    ("experiments", "random_product_state", "dynamics.random_product_state", None),
    ("experiments", "dense_product_state", "dynamics.dense_product_state", None),
    ("experiments", "subsystem_entropy", "information.subsystem_entropy", _entropy_work),
    ("experiments", "binary_entropy", "analytics.binary_entropy", None),
    ("dynamics", "hamiltonian_matrix", "model.hamiltonian_matrix", None),
    ("dynamics.DensePropagator", "__init__", "dynamics.build", None),
    ("dynamics.DensePropagator", "evolve", "dynamics.evolve", _dense_evolve_work),
    ("dynamics.DiagonalPropagator", "__init__", "dynamics.build", None),
    ("dynamics.DiagonalPropagator", "evolve", "dynamics.evolve", _diagonal_evolve_work),
)

# Spans whose process CPU time is recorded too, to show BLAS threading.
CPU_SPANS = ("experiments.sweep",)

# Per-layer self-time metrics: metric name -> span names summed.
SELF_TIME_METRICS = {
    "model.sample_s": ("model.sample_instance",),
    "model.hamiltonian_s": ("model.hamiltonian_matrix",),
    "dynamics.build_s": ("dynamics.build",),
    "dynamics.evolve_s": ("dynamics.evolve",),
    "dynamics.state_prep_s": ("dynamics.random_product_state", "dynamics.dense_product_state"),
    "information.entropy_s": ("information.subsystem_entropy",),
    "analytics.binary_entropy_s": ("analytics.binary_entropy",),
    "experiments.self_s": ("experiments.sweep",),
    "cli.write_s": ("cli.write_csv", "cli.write_sidecar", "cli.render_heatmap_svg"),
}
CALL_METRICS = {
    "model.sample_calls": "model.sample_instance",
    "dynamics.build_calls": "dynamics.build",
    "dynamics.evolve_calls": "dynamics.evolve",
    "information.entropy_calls": "information.subsystem_entropy",
    "analytics.binary_entropy_calls": "analytics.binary_entropy",
}
# Computed work: metric name -> (span name, index into (bytes, flops)).
WORK_METRICS = {
    "dynamics.evolve_bytes": ("dynamics.evolve", 0),
    "information.entropy_bytes": ("information.subsystem_entropy", 0),
    "information.entropy_flops": ("information.subsystem_entropy", 1),
}


class InterceptionError(RuntimeError):
    """A traced job did not reach an entry point as often as the workload requires."""


class Tracer:
    """Collects spans ``(name, start, end, parent, run_id, extra)``; ``parent``
    is the index of the enclosing span or -1, ``extra`` holds computed
    (bytes, flops) or CPU seconds, or None. The sweep runs serially
    (QDARWIN_THREADS unset), so one stack tracks the open spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.run_id = -1

    def _wrap(self, name, func, work):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        cpu = time.process_time if name in CPU_SPANS else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            cpu0 = cpu() if cpu else 0.0
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if cpu:
                    extra = cpu() - cpu0
                elif work:
                    extra = work(*args, **kwargs)
                else:
                    extra = None
                spans[index] = (name, start, end, parent, self.run_id, extra)

        return traced

    def install(self, package, skip=()):
        """Wrap every target except the span names in ``skip``."""
        for owner_path, attr, name, work in TARGETS:
            if name in skip:
                continue
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, work))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def job(self, run_id):
        """Root span named ``job`` around one job; spans inside carry ``run_id``."""
        self.run_id = run_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = ("job", start, end, -1, run_id, None)


def summarize(tracer):
    """Per-job ``({metric: value}, {span name: calls})`` by run id. A span's
    self time is its duration minus the durations of its direct children."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, run_id, extra in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(lambda: defaultdict(int))
    work = defaultdict(lambda: defaultdict(lambda: [0, 0]))
    cpu = defaultdict(float)
    for i, (name, start, end, parent, run_id, extra) in enumerate(spans):
        self_time[run_id][name] += end - start - child[i]
        calls[run_id][name] += 1
        if name in CPU_SPANS:
            cpu[run_id] += extra
        elif extra is not None:
            acc = work[run_id][name]
            acc[0] += extra[0]
            acc[1] += extra[1]
    jobs = {}
    for run_id in self_time:
        metrics = {m: sum(self_time[run_id][n] for n in names) for m, names in SELF_TIME_METRICS.items()}
        metrics.update({m: calls[run_id][n] for m, n in CALL_METRICS.items()})
        metrics.update({m: work[run_id][n][k] for m, (n, k) in WORK_METRICS.items()})
        metrics["experiments.cpu_s"] = cpu[run_id]
        jobs[run_id] = (metrics, dict(calls[run_id]))
    return jobs


def check_interception(calls, expected, run_id):
    """Raise InterceptionError unless every entry point saw exactly the
    expected number of calls and binary_entropy was reached at all."""
    problems = []
    for name, want in sorted(expected.items()):
        got = calls.get(name, 0)
        if got != want:
            problems.append(f"{name}: {got} calls, expected {want}")
    if calls.get("analytics.binary_entropy", 0) == 0:
        problems.append("analytics.binary_entropy: 0 calls, expected at least 1")
    if problems:
        raise InterceptionError(f"job {run_id}: " + "; ".join(problems))
