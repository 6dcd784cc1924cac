#!/usr/bin/env python3
"""Write the reference outputs the benchmark's gate compares against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/make_reference.py                     # every workload, master seeds 0..9
    python3 perfbench/make_reference.py --workload fig3-codi --master-seeds 4242 \\
        --out .perfbench/heldout-codi.json.gz               # a held-out seed

Each workload's job runs once per master seed at the workload's realization
count; the CSV texts are stored by master seed and command label.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

from gate import reference_path, save_reference
from run import OUT_ROOT, import_qdarwin
from workloads import WORKLOADS


def make(cli_main, workload, seeds, workdir):
    outputs = {}
    for seed in seeds:
        codes = [cli_main(a) for a in workload.argvs(workload.realizations, seed, workdir)]
        if any(codes):
            raise SystemExit(f"{workload.name} seed {seed}: job exited with {codes}")
        outputs[str(seed)] = {c.label: c.outputs(workdir)[0].read_text() for c in workload.commands}
        print(f"{workload.name}: master seed {seed} done", flush=True)
    return {"workload": workload.name, "realizations": workload.realizations, "outputs": outputs}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                   help="repeatable; default: every workload")
    p.add_argument("--master-seeds", type=int, nargs="+", default=list(range(10)))
    p.add_argument("--out", type=Path, default=None, help="output file (one workload only)")
    args = p.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if args.out is not None and len(names) != 1:
        p.error("--out needs exactly one --workload")
    _, qdarwin = import_qdarwin()
    workdir = OUT_ROOT / "make-reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for name in names:
            doc = make(qdarwin.cli.main, WORKLOADS[name], args.master_seeds, workdir)
            save_reference(args.out or reference_path(name), doc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
