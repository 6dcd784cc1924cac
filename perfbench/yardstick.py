#!/usr/bin/env python3
"""Runs jobs on the yardstick: a frozen copy of the qdarwin package, as it
stood when the benchmark was defined, in ``perfbench/qdarwin_yardstick``.

``run.py`` starts this as a long-lived child and times the same job on the
yardstick right next to each job on the program, so that both see the same
machine speed. Each line read from standard input is a JSON list of CLI
argument lists; each reply line is ``{"wall": seconds, "codes": [...]}``.
"""

import json
import sys
import time

import qdarwin_yardstick.cli


def main():
    for line in sys.stdin:
        argvs = json.loads(line)
        start = time.perf_counter()
        codes = [qdarwin_yardstick.cli.main(a) for a in argvs]
        wall = time.perf_counter() - start
        print(json.dumps({"wall": wall, "codes": codes}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
