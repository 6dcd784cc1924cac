#!/usr/bin/env python3
"""Self-test of the benchmark harness, at a tiny realization count.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it runs the job at R = 2 to make an in-memory reference,
then checks that:

* a traced job passes the output gate and the interception check, with the
  exact call counts for R = 2;
* an end-to-end run, with its job and set-up pairs against the yardstick,
  passes the gate;
* a reference with one cell moved by 1e-6 trips the gate;
* for models without a closed-form Holevo quantity, a filled Holevo cell
  trips the gate;
* a traced job with one wrapper left out trips the interception check.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys

from gate import check_job, compare_csv
from run import MIN_JOBS, OUT_ROOT, Runner, import_qdarwin, measure_end_to_end
from tracing import InterceptionError, Tracer, check_interception, summarize
from workloads import HOLEVO_COLUMNS, WORKLOADS

TINY_R = 2
MASTER_SEED = 7


def _edit_first_row(csv_text, column, edit):
    """The CSV with ``edit`` applied to the first data row's ``column`` cell."""
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    c = header.index(column)
    cells[c] = edit(cells[c])
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _traced_job(qdarwin, runner, skip=()):
    tracer = Tracer()
    tracer.install(qdarwin, skip=skip)
    try:
        with tracer.job(0):
            runner.job()
    finally:
        tracer.uninstall()
    return summarize(tracer)[0][1]


def check_workload(qdarwin, workload, workdir):
    """Yield (check name, passed) for one workload."""
    outdir = workdir / workload.name
    outdir.mkdir()
    tiny = dataclasses.replace(workload, realizations=TINY_R)
    argvs = tiny.argvs(TINY_R, MASTER_SEED, outdir)
    codes = [qdarwin.cli.main(a) for a in argvs]
    yield "reference job exits 0", not any(codes)
    reference = {c.label: c.outputs(outdir)[0].read_text() for c in tiny.commands}

    runner = Runner(qdarwin.cli.main, tiny, MASTER_SEED, reference, outdir)
    expected = tiny.expected_calls(TINY_R)
    calls = _traced_job(qdarwin, runner)
    yield "traced job passes the gate", runner.failed == 0
    try:
        check_interception(calls, expected, 0)
        yield "traced job has the exact call counts", True
    except InterceptionError as exc:
        print(f"    {exc}")
        yield "traced job has the exact call counts", False

    record = {}
    metrics = measure_end_to_end(runner, tiny, MASTER_SEED, 0.0, record)
    yield "an end-to-end run against the yardstick passes", (
        metrics["pass_frac"] == 1.0 and len(record["yardstick_job_walls_s"]) == MIN_JOBS
        and all(v > 0 for v in metrics.values()))

    label = tiny.commands[0].label
    perturbed = dict(reference, **{label: _edit_first_row(
        reference[label], "I_mean", lambda v: repr(float(v) + 1e-6))})
    problems = check_job(tiny, outdir, perturbed, TINY_R, MASTER_SEED)
    yield "a reference cell moved by 1e-6 trips the gate", bool(problems) and "worst cell" in problems[0]

    if tiny.empty_columns:
        filled = _edit_first_row(reference[label], HOLEVO_COLUMNS[0], lambda v: "0.5")
        yield "a filled Holevo cell trips the gate", bool(
            compare_csv(filled, reference[label], tiny.empty_columns))

    skipped = max(expected, key=expected.get)
    try:
        check_interception(_traced_job(qdarwin, runner, skip={skipped}), expected, 0)
        yield f"a missing {skipped} wrapper trips the interception check", False
    except InterceptionError:
        yield f"a missing {skipped} wrapper trips the interception check", True


def main():
    _, qdarwin = import_qdarwin()
    workdir = OUT_ROOT / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    failed = 0
    try:
        for workload in WORKLOADS.values():
            for name, ok in check_workload(qdarwin, workload, workdir):
                failed += not ok
                print(f"[{'PASS' if ok else 'FAIL'}] {workload.name}: {name}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{failed} check(s) failed" if failed else "all checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
