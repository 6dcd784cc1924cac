#!/usr/bin/env python3
"""Benchmark of the qdarwin sweep pipeline, driven in-process through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload fig3-codi --seed 0 --seconds 25 --trace 0

One run builds the job's inputs from ``--seed``, then:

* ``--trace 0`` runs the job on the program in this warm process and on the
  yardstick, a frozen copy of qdarwin run by a child process
  (``yardstick.py``), in adjacent pairs until the timed work adds up to
  ``--seconds``, with pairs of fresh-interpreter set-ups interleaved.
  ``run_s`` and ``setup_s`` are median program/yardstick ratios times the
  yardstick's nominal times, so that the machine's changing speed cancels;
  ``peak_rss_mib`` and ``pass_frac`` are the program's own.
* ``--trace 1`` alternates untraced jobs with jobs whose calls into each
  layer are wrapped in spans, and reports the per-layer split (see
  ``tracing.py``) and the tracing overhead.

Every job's CSV is checked against the stored reference outputs (``gate.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; an environment record
and one line per metric come before it. The run record, with every span of a
traced run, is written once at the end to ``.perfbench/records/``.

``--master-seed`` and ``--reference`` select a held-out seed whose reference
was made with ``make_reference.py`` on the parent commit.
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import check_job, load_reference, reference_path
from tracing import InterceptionError, Tracer, check_interception, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench"
BLAS_THREADS = "1"  # one BLAS thread: steadier on a shared machine, recorded with every result
SETUP_PAIRS = 5
SETUP_SHARE = 0.25  # set-ups take at most about this share of a run's timed work
MIN_JOBS = 3  # per run, even when one job outlasts --seconds
SETUP_REALIZATIONS = 1
CHILD_TIMEOUT_S = 120

# A fresh interpreter: import a package's CLI, run the warm-up job, exit.
SETUP_CHILD = (
    "import importlib, json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "cli = importlib.import_module(sys.argv[2] + '.cli')\n"
    "sys.exit(max(cli.main(a) for a in json.loads(sys.argv[3])))\n"
)

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "pass_frac": "fraction"}
PER_LAYER_UNITS = {
    "model.sample_s": "s/job",
    "model.sample_calls": "calls/job",
    "model.hamiltonian_s": "s/job",
    "dynamics.build_s": "s/job",
    "dynamics.build_calls": "calls/job",
    "dynamics.evolve_s": "s/job",
    "dynamics.evolve_calls": "calls/job",
    "dynamics.evolve_bytes": "bytes/job",
    "dynamics.state_prep_s": "s/job",
    "information.entropy_s": "s/job",
    "information.entropy_calls": "calls/job",
    "information.entropy_flops": "flop/job",
    "information.entropy_bytes": "bytes/job",
    "analytics.binary_entropy_s": "s/job",
    "analytics.binary_entropy_calls": "calls/job",
    "experiments.self_s": "s/job",
    "experiments.cpu_s": "s/job",
    "cli.write_s": "s/job",
    "cli.bytes_written": "bytes/job",
    "trace.overhead_frac": "fraction",
}


class SetupError(RuntimeError):
    """The benchmark cannot run here: no source tree, no reference, or a failed warm-up."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="picks the master seed from the reference file's seeds, by index mod their count")
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--master-seed", type=int, default=None,
                   help="use this master seed directly (a held-out seed); needs its reference")
    p.add_argument("--reference", type=Path, default=None,
                   help="reference file (default: perfbench/reference/<workload>.json.gz)")
    return p.parse_args(argv)


def import_qdarwin():
    """Import numpy and qdarwin from this checkout's ``src`` with one BLAS
    thread and QDARWIN_THREADS unset (the serial default)."""
    if not (SRC / "qdarwin" / "__init__.py").is_file():
        raise SetupError(f"no qdarwin source tree at {SRC}; run from a repository checkout")
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    os.environ.pop("QDARWIN_THREADS", None)
    sys.path.insert(0, str(SRC))
    import numpy
    import qdarwin
    import qdarwin.cli

    if Path(qdarwin.__file__).resolve().parent != (SRC / "qdarwin").resolve():
        raise SetupError(f"imported qdarwin from {qdarwin.__file__}, not from {SRC}")
    return numpy, qdarwin


def _openblas(symbols, restype):
    """Call the first exported OpenBLAS query among ``symbols``, or None."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in symbols:
            func = getattr(handle, name, None)
            if func is not None:
                func.restype = restype
                value = func()
                return value.decode() if isinstance(value, bytes) else value
    return None


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own (an exported tree)
    return lines[1]


def speed_probe_ms():
    """Best of five timings of a fixed pure-Python loop: how fast the machine
    runs at this moment, recorded to explain slow runs."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for j in range(200_000):
            total += j * j
        best = min(best, time.perf_counter() - start)
    return 1000.0 * best


def environment(numpy, load_start, inherited_threads):
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": _openblas(("scipy_openblas_get_config64_", "openblas_get_config64_",
                               "openblas_get_config"), ctypes.c_char_p),
        "blas_threads": _openblas(("scipy_openblas_get_num_threads64_",
                                   "openblas_get_num_threads64_", "openblas_get_num_threads"),
                                  ctypes.c_int),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "QDARWIN_THREADS": os.environ.get("QDARWIN_THREADS"),
        "QDARWIN_THREADS_inherited": inherited_threads,
        "git_commit": git_commit(),
        "loadavg_start": list(load_start),
        "speed_probe_ms_start": speed_probe_ms(),
        "platform": platform.platform(),
        "waits": "none measured: the program is serial and has no queues or waits",
    }


def run_setup_child(path, package, argvs):
    """Seconds from starting a fresh interpreter to its exit after importing
    ``package`` from ``path`` and running the warm-up job."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(path), package, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SetupError(f"set-up interpreter for {package} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return elapsed


class Yardstick:
    """A child process that runs jobs on the frozen copy of qdarwin in
    ``qdarwin_yardstick`` (see ``yardstick.py``), one at a time on request."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "yardstick.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def job(self, argvs):
        self.proc.stdin.write(json.dumps(argvs) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError(f"yardstick process exited with {self.proc.wait()}")
        reply = json.loads(line)
        if any(reply["codes"]):
            raise SetupError(f"yardstick job exited with {reply['codes']}")
        return reply["wall"]

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return False


def in_order(program_first, program, yardstick):
    """Call ``program`` and ``yardstick`` back to back in the given order;
    return their results as (program, yardstick)."""
    if program_first:
        first = program()
        return first, yardstick()
    first = yardstick()
    return program(), first


class Runner:
    """Runs one workload's jobs in this process and gates their outputs."""

    def __init__(self, cli_main, workload, master_seed, expected, outdir):
        self.cli_main = cli_main
        self.workload = workload
        self.master_seed = master_seed
        self.expected = expected
        self.outdir = outdir
        self.argvs = workload.argvs(workload.realizations, master_seed, outdir)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _clear(self):
        for command in self.workload.commands:
            for path in command.outputs(self.outdir):
                path.unlink(missing_ok=True)

    def warm_up(self):
        """One untimed, ungated job at the set-up realization count."""
        self._clear()
        argvs = self.workload.argvs(SETUP_REALIZATIONS, self.master_seed, self.outdir)
        codes = [self.cli_main(a) for a in argvs]
        if any(codes):
            raise SetupError(f"warm-up job exited with {codes}")

    def job(self):
        """Run one job; return (wall seconds, bytes written). A job that
        raises, exits non-zero or fails the gate counts as failed."""
        self._clear()
        self.attempted += 1
        start = time.perf_counter()
        try:
            codes = [self.cli_main(a) for a in self.argvs]
        except Exception as exc:  # a failed job is counted, and the run goes on
            codes = [repr(exc)]
        wall = time.perf_counter() - start
        if any(codes):
            problems = [f"job exited with {codes}"]
        else:
            problems = check_job(self.workload, self.outdir, self.expected,
                                 self.workload.realizations, self.master_seed)
        if problems:
            self.failed += 1
            self.problems.append(problems)
            print(f"job {self.attempted} failed: " + "; ".join(problems[:3]), file=sys.stderr)
        written = sum(p.stat().st_size for c in self.workload.commands
                      for p in c.outputs(self.outdir) if p.is_file())
        return wall, written


def measure_end_to_end(runner, workload, master_seed, seconds, record):
    """Pairs of jobs, one on the program and one on the yardstick, back to
    back in alternating order, until all timed work adds up to ``seconds``.
    A pair of set-ups precedes a job pair while set-ups have taken at most
    SETUP_SHARE of the time, up to SETUP_PAIRS of them. A time metric is the
    median program/yardstick ratio of its pairs times the yardstick's nominal
    time, so that a change of machine speed during or between runs cancels."""
    setup_dir = runner.outdir / "setup"
    stick_dir = runner.outdir / "yardstick"
    setup_dir.mkdir()
    stick_dir.mkdir()
    setup_argvs = workload.argvs(SETUP_REALIZATIONS, master_seed, setup_dir)
    stick_argvs = workload.argvs(workload.realizations, master_seed, stick_dir)
    runner.warm_up()
    walls, stick_walls, setups, stick_setups = [], [], [], []
    with Yardstick() as stick:
        stick.job(workload.argvs(SETUP_REALIZATIONS, master_seed, stick_dir))
        spent = 0.0
        while len(walls) < MIN_JOBS or spent < seconds:
            program_first = len(walls) % 2 == 0
            if len(setups) < SETUP_PAIRS and sum(setups + stick_setups) <= SETUP_SHARE * spent:
                mine, theirs = in_order(
                    program_first,
                    lambda: run_setup_child(SRC, "qdarwin", setup_argvs),
                    lambda: run_setup_child(HERE, "qdarwin_yardstick", setup_argvs))
                setups.append(mine)
                stick_setups.append(theirs)
            mine, theirs = in_order(program_first, lambda: runner.job()[0],
                                    lambda: stick.job(stick_argvs))
            walls.append(mine)
            stick_walls.append(theirs)
            spent = sum(walls + stick_walls + setups + stick_setups)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    record.update(job_walls_s=walls, yardstick_job_walls_s=stick_walls,
                  setup_samples_s=setups, yardstick_setup_samples_s=stick_setups)
    return {
        "run_s": workload.yardstick_run_s * statistics.median(
            a / b for a, b in zip(walls, stick_walls)),
        "setup_s": workload.yardstick_setup_s * statistics.median(
            a / b for a, b in zip(setups, stick_setups)),
        "peak_rss_mib": peak_kib / 1024.0,
        "pass_frac": 1.0 - runner.failed / runner.attempted,
    }


def measure_per_layer(runner, workload, master_seed, seconds, qdarwin, record):
    """Untraced and traced jobs in alternation, so that the tracing overhead
    compares jobs run side by side."""
    runner.warm_up()
    tracer = Tracer()
    plain_walls, traced_walls, written = [], [], []
    while len(traced_walls) < MIN_JOBS or sum(plain_walls) + sum(traced_walls) < seconds:
        plain_walls.append(runner.job()[0])
        tracer.install(qdarwin)
        try:
            with tracer.job(len(traced_walls)):
                wall, nbytes = runner.job()
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        written.append(nbytes)
    jobs = summarize(tracer)
    expected = workload.expected_calls(workload.realizations)
    for run_id, (_, calls) in sorted(jobs.items()):
        check_interception(calls, expected, run_id)
    per_job = [jobs[i][0] for i in range(len(traced_walls))]
    for metrics, nbytes in zip(per_job, written):
        metrics["cli.bytes_written"] = nbytes
    record.update(job_walls_s=plain_walls, traced_job_walls_s=traced_walls,
                  per_job_layers=per_job, spans=tracer.spans)
    out = {name: statistics.median(m[name] for m in per_job)
           for name in PER_LAYER_UNITS if name != "trace.overhead_frac"}
    out["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    return out


def write_record(record):
    records = OUT_ROOT / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{os.getpid()}.json.gz"
    with gzip.open(records / name, "wt") as fh:
        json.dump(record, fh)
    return records / name


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    load_start = os.getloadavg()
    inherited_threads = os.environ.get("QDARWIN_THREADS")
    try:
        numpy, qdarwin = import_qdarwin()
        ref_file = args.reference or reference_path(workload.name)
        if not ref_file.is_file():
            raise SetupError(f"no reference outputs at {ref_file}")
        reference = load_reference(ref_file)
        if reference["realizations"] != workload.realizations:
            raise SetupError(f"reference made at R={reference['realizations']}, "
                             f"workload runs R={workload.realizations}")
        pool = sorted(int(s) for s in reference["outputs"])
        master_seed = args.master_seed if args.master_seed is not None else pool[args.seed % len(pool)]
        if str(master_seed) not in reference["outputs"]:
            raise SetupError(f"no reference for master seed {master_seed} in {ref_file}; "
                             "make one with perfbench/make_reference.py")
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(numpy, load_start, inherited_threads)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    record = {"workload": workload.name, "seed": args.seed, "master_seed": master_seed,
              "realizations": workload.realizations, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    outdir = OUT_ROOT / f"run-{workload.name}-{os.getpid()}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    runner = Runner(qdarwin.cli.main, workload, master_seed,
                    reference["outputs"][str(master_seed)], outdir)
    try:
        if args.trace:
            metrics = measure_per_layer(runner, workload, master_seed, args.seconds, qdarwin, record)
            units = PER_LAYER_UNITS
        else:
            metrics = measure_end_to_end(runner, workload, master_seed, args.seconds, record)
            units = END_TO_END_UNITS
    except (SetupError, InterceptionError, subprocess.TimeoutExpired) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    record.update(metrics=metrics, attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems, speed_probe_ms_end=speed_probe_ms())
    path = write_record(record)
    jobs = len(record["job_walls_s"]) + len(record.get("traced_job_walls_s", ()))
    print(f"workload {workload.name}: master seed {master_seed}, R={workload.realizations}, "
          f"{jobs} jobs, {runner.failed} failed; record {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
