"""Output gate: every job's CSV cells against stored reference outputs.

References are CSV texts produced by ``make_reference.py``, keyed by master
seed, in one gzipped JSON file per workload under ``reference/``.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

TOLERANCE = 1e-8  # absolute, the repository's engine cross-check tolerance
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(path: Path) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_reference(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(doc, sort_keys=True).encode()
    with open(path, "wb") as fh, gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
        gz.write(data)


def _number(cell):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def compare_csv(got: str, want: str, empty_columns=()) -> list:
    """Problems found comparing a CSV text to its reference, worst numeric
    mismatch first; an empty list means the output passes."""
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    if not got_rows or got_rows[0] != want_rows[0]:
        return [f"header differs: {got_rows[:1]} vs {want_rows[0]}"]
    header = want_rows[0]
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows) - 1} data rows, reference has {len(want_rows) - 1}"]
    problems = []
    worst = None
    must_be_empty = {header.index(c) for c in empty_columns}
    for r, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        if len(g_row) != len(header):
            problems.append(f"row {r}: {len(g_row)} cells, expected {len(header)}")
            continue
        for c, (g, w) in enumerate(zip(g_row, w_row)):
            where = f"row {r} column {header[c]}"
            if c in must_be_empty and g != "":
                problems.append(f"{where}: {g!r} must be empty for this model")
                continue
            w_num = _number(w)
            if w_num is None:
                if g != w:
                    problems.append(f"{where}: {g!r}, reference {w!r}")
                continue
            g_num = _number(g)
            if g_num is None:
                problems.append(f"{where}: {g!r} is not a number, reference {w}")
                continue
            diff = abs(g_num - w_num)
            if diff > TOLERANCE and (worst is None or diff > worst[0]):
                worst = (diff, f"{where}: {g}, reference {w}, |diff| = {diff:.3g}")
    if worst is not None:
        problems.insert(0, "worst cell " + worst[1])
    return problems


def check_job(workload, outdir: Path, expected: dict, realizations: int, master_seed: int) -> list:
    """Problems with one job's files: each CSV against ``expected`` (label ->
    reference CSV text), each sidecar's seed and realization count, and each
    SVG's presence."""
    problems = []
    for command in workload.commands:
        csv_path, meta_path, svg_path = command.outputs(outdir)
        missing = [p.name for p in (csv_path, meta_path, svg_path) if not p.is_file()]
        if missing:
            problems.append(f"{command.label}: missing {missing}")
            continue
        for p in compare_csv(csv_path.read_text(), expected[command.label], workload.empty_columns):
            problems.append(f"{command.label}.csv {p}")
        try:
            meta = json.loads(meta_path.read_text())
        except json.JSONDecodeError as exc:
            problems.append(f"{command.label}: sidecar is not JSON: {exc}")
            continue
        if meta.get("realizations") != realizations or meta.get("master_seed") != master_seed:
            problems.append(f"{command.label}: sidecar records R={meta.get('realizations')}, "
                            f"seed={meta.get('master_seed')}; expected R={realizations}, seed={master_seed}")
        if not svg_path.read_text().startswith("<svg"):
            problems.append(f"{command.label}: SVG does not start with <svg")
    return problems
