"""The benchmark's workloads: which qdarwin CLI jobs each one runs, at how many
realizations, and how many calls each traced entry point must see per job.

A job is one or more ``qdarwin.cli.main`` invocations; each writes a CSV, a
JSON sidecar and an SVG heatmap. The call-count formulas are the benchmark's
own expectations of the seed engines, written from the time and fragment
grids below: entropy calls = R*T*(2F+1), evolve calls = R*T, builds = R.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

N_ENV = 8
FIG3_TIMES = {"CPDI": 51, "DPDI": 52, "CODI": 51, "CPDI-S": 74}  # 0..5 by 0.1; DPDI adds pi; CPDI-S adds 6..50 by 2
FIG3_SIZES = N_ENV + 1  # fragment sizes 0..N

LARGE_N_CONFIG = {
    "model": "CPDI_S",
    "n_env": 18,
    "time_grid": [0.0, 1.0, 2.0, 5.0],
    "fragment_sizes": [0, 1, 2, 4, 9, 16, 18],
}

# Columns that must stay empty for models without a closed-form Holevo quantity.
HOLEVO_COLUMNS = ("chi_mean", "chi_stderr", "discord_mean")


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a job: a fig3 model, or a sweep from a generated config."""

    label: str
    model: str
    times: int
    sizes: int
    sweep_config: dict | None = None

    def argv(self, realizations: int, master_seed: int, outdir: Path) -> list:
        outs = [
            "--out", str(outdir / f"{self.label}.csv"),
            "--sidecar", str(outdir / f"{self.label}.meta.json"),
            "--svg", str(outdir / f"{self.label}.svg"),
        ]
        if self.sweep_config is None:
            return ["fig3", "--model", self.model, "--realizations", str(realizations),
                    "--seed", str(master_seed), *outs]
        config = dict(self.sweep_config, realizations=realizations, master_seed=master_seed)
        path = outdir / f"{self.label}-R{realizations}-s{master_seed}.config.json"
        path.write_text(json.dumps(config))
        return ["sweep", "--config", str(path), *outs]

    def outputs(self, outdir: Path) -> list:
        return [outdir / f"{self.label}{ext}" for ext in (".csv", ".meta.json", ".svg")]


@dataclass(frozen=True)
class Workload:
    name: str
    realizations: int
    commands: tuple
    engine: str  # "branching", "dense" or "diagonal": which entry points a job must reach
    # Nominal wall times of the job and of its set-up on the yardstick (the
    # frozen copy of qdarwin), which scale the program/yardstick time ratios:
    # medians of the seed code's times on the 2-vCPU Xeon (2.1 GHz) virtual
    # machine where the benchmark was defined.
    yardstick_run_s: float
    yardstick_setup_s: float

    def argvs(self, realizations: int, master_seed: int, outdir: Path) -> list:
        return [c.argv(realizations, master_seed, outdir) for c in self.commands]

    @property
    def empty_columns(self) -> tuple:
        return () if self.engine == "branching" else HOLEVO_COLUMNS

    def expected_calls(self, realizations: int) -> dict:
        """Exact calls per job into each wrapped entry point, by span name."""
        r = realizations
        calls = {name: 0 for name in (
            "model.sample_instance", "model.hamiltonian_matrix",
            "dynamics.random_product_state", "dynamics.dense_product_state",
            "dynamics.build", "dynamics.evolve", "information.subsystem_entropy",
        )}
        calls["experiments.sweep"] = len(self.commands)
        for name in ("cli.write_csv", "cli.write_sidecar", "cli.render_heatmap_svg"):
            calls[name] = len(self.commands)
        for c in self.commands:
            calls["model.sample_instance"] += r
            calls["dynamics.random_product_state"] += r
            if self.engine == "branching":
                continue
            calls["dynamics.dense_product_state"] += r
            calls["dynamics.build"] += r
            calls["dynamics.evolve"] += r * c.times
            calls["information.subsystem_entropy"] += r * c.times * (2 * c.sizes + 1)
            if self.engine == "dense":
                calls["model.hamiltonian_matrix"] += r
        return calls


def _fig3(model: str) -> Command:
    return Command(model, model, FIG3_TIMES[model], FIG3_SIZES)


# Why each workload is here is written beside its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig3-dephasing",
            realizations=100,
            commands=(_fig3("CPDI"), _fig3("DPDI")),
            engine="branching",
            yardstick_run_s=0.40,
            yardstick_setup_s=0.27,
        ),
        Workload(
            "fig3-codi",
            realizations=3,
            commands=(_fig3("CODI"),),
            engine="dense",
            yardstick_run_s=0.42,
            yardstick_setup_s=0.33,
        ),
        Workload(
            "fig3-scramble",
            realizations=5,
            commands=(_fig3("CPDI-S"),),
            engine="diagonal",
            yardstick_run_s=0.47,
            yardstick_setup_s=0.33,
        ),
        Workload(
            "large-n",
            realizations=1,
            commands=(Command(
                "large-n", "CPDI_S", len(LARGE_N_CONFIG["time_grid"]),
                len(LARGE_N_CONFIG["fragment_sizes"]), sweep_config=LARGE_N_CONFIG,
            ),),
            engine="diagonal",
            yardstick_run_s=1.50,
            yardstick_setup_s=1.80,
        ),
    )
}
