"""Command-line surface: model classification, sweeps, figure pipelines, and
averaged-decoherence curves, with CSV/JSON output and an SVG heatmap renderer.

Exit codes: 0 on success, 2 on usage errors (bad flags, or a ValueError that
names its key), 1 on anything else, such as I/O errors or an internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import averaged_gamma_squared
from .experiments import ExperimentConfig, SweepResult, reproduce_fig2, reproduce_fig3, run_sweep
from .information import NumericalError
from .model import _LAWS, ModelSpec, _positive_integer, build_model, classify, sample_instance

CSV_HEADER = (
    "model,realizations,time,fragment_size,I_mean,I_stderr,"
    "chi_mean,chi_stderr,discord_mean,S_mean,ratio_mean"
)


def _fmt(value) -> str:
    """12 significant digits; an empty cell for None or NaN."""
    if value is None or value != value:
        return ""
    return format(value, ".12g")


def write_csv(result: SweepResult, path) -> None:
    """Write the sweep table, one row per (time, fragment size), 12 significant
    digits; Holevo/discord cells are empty when the model has no closed form."""
    head = f"{result.config.model},{result.realizations},"
    sizes = [str(n) for n in result.fragment_sizes.tolist()]
    grids = [
        [[_fmt(v) for v in row] for row in grid.tolist()]
        for grid in (
            result.i_mean, result.i_stderr, result.chi_mean, result.chi_stderr,
            result.discord_mean, result.s_mean, result.ratio_mean,
        )
    ]
    lines = [CSV_HEADER]
    for ti, t in enumerate(result.times.tolist()):
        prefix = head + _fmt(t) + ","
        for fi, n in enumerate(sizes):
            lines.append(prefix + n + "," + ",".join([grid[ti][fi] for grid in grids]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_sidecar(result: SweepResult, path) -> None:
    """JSON sidecar: config echo, the engine that ran, master seed, the number
    of realizations whose ratio row was set to 0 for a vanishing S_max, and
    code version."""
    doc = {
        "config": result.config.to_json_dict(),
        "engine": result.engine,
        "master_seed": result.config.master_seed,
        "realizations": result.realizations,
        "smax_zeroed": result.smax_zeroed,
        "version": __version__,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


# -- SVG heatmap -------------------------------------------------------------

_COLOR_STOPS = (
    (0.267004, 0.004874, 0.329415),
    (0.282623, 0.140926, 0.457517),
    (0.253935, 0.265254, 0.529983),
    (0.206756, 0.371758, 0.553117),
    (0.163625, 0.471133, 0.558148),
    (0.127568, 0.566949, 0.550556),
    (0.134692, 0.658636, 0.517649),
    (0.266941, 0.748751, 0.440573),
    (0.477504, 0.821444, 0.318195),
    (0.741388, 0.873449, 0.149561),
    (0.993248, 0.906157, 0.143936),
)


def _color(frac: float) -> str:
    frac = min(max(frac, 0.0), 1.0)
    pos = frac * (len(_COLOR_STOPS) - 1)
    low = int(pos)
    high = min(low + 1, len(_COLOR_STOPS) - 1)
    w = pos - low
    rgb = tuple(
        round(255 * ((1 - w) * _COLOR_STOPS[low][c] + w * _COLOR_STOPS[high][c]))
        for c in range(3)
    )
    return "#%02x%02x%02x" % rgb


def _edges(centers: np.ndarray) -> np.ndarray:
    centers = np.asarray(centers, dtype=float)
    if centers.size == 1:
        return np.array([centers[0] - 0.5, centers[0] + 0.5])
    mids = 0.5 * (centers[:-1] + centers[1:])
    first = centers[0] - (mids[0] - centers[0])
    last = centers[-1] + (centers[-1] - mids[-1])
    return np.concatenate([[first], mids, [last]])


def render_heatmap_svg(result: SweepResult, quantity: str, path) -> None:
    """Standalone SVG heatmap of a sweep: time on the horizontal axis,
    fragment size on the vertical, linear color map with the data range
    annotated. Output bytes are deterministic for identical input."""
    values = result.value_grid(quantity)
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise ValueError(f"no finite values to render for quantity {quantity!r}")
    vmin = float(np.min(finite))
    vmax = float(np.max(finite))
    span = vmax - vmin if vmax > vmin else 1.0

    width, height = 640, 420
    left, right, top, bottom = 80, 30, 36, 64
    plot_w = width - left - right
    plot_h = height - top - bottom

    t_edges = _edges(result.times).tolist()
    n_edges = _edges(result.fragment_sizes.astype(float)).tolist()

    def x_of(t):
        return left + (t - t_edges[0]) / (t_edges[-1] - t_edges[0]) * plot_w

    def y_of(n):
        return top + plot_h - (n - n_edges[0]) / (n_edges[-1] - n_edges[0]) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    xs = [x_of(t) for t in t_edges]
    ys = [y_of(n) for n in n_edges]
    for ti, row in enumerate(values.tolist()):
        x0, x1 = xs[ti], xs[ti + 1]
        for fi, v in enumerate(row):
            fill = _color((v - vmin) / span) if math.isfinite(v) else "#dddddd"
            y1, y0 = ys[fi], ys[fi + 1]
            parts.append(
                f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
                f'height="{y1 - y0:.2f}" fill="{fill}"/>'
            )
    axis = (
        f'<path d="M {left} {top} V {top + plot_h} H {left + plot_w}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append(axis)

    t_step = max(1, result.times.size // 8)
    for ti in range(0, result.times.size, t_step):
        t = float(result.times[ti])
        x = x_of(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top + plot_h}" x2="{x:.2f}" '
            f'y2="{top + plot_h + 5}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot_h + 18}" font-size="11" '
            f'text-anchor="middle">{t:.4g}</text>'
        )
    n_step = max(1, result.fragment_sizes.size // 10)
    for fi in range(0, result.fragment_sizes.size, n_step):
        n = float(result.fragment_sizes[fi])
        y = y_of(n)
        parts.append(
            f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 9}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end">{n:.4g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 26}" font-size="13" '
        'text-anchor="middle">time</text>'
    )
    parts.append(
        f'<text x="18" y="{top + plot_h / 2:.2f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.2f})">fragment size</text>'
    )
    parts.append(
        f'<text x="{left:.2f}" y="{top - 12}" font-size="13">{quantity}: '
        f'min={vmin:.6g}, max={vmax:.6g} ({result.config.model}, '
        f'{result.realizations} realizations)</text>'
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# -- argument parsing --------------------------------------------------------

def _number_list(text: str, key: str) -> tuple:
    """The numbers of a comma-separated list; ValueError naming ``key`` for a bad entry."""
    try:
        return tuple(float(entry) for entry in text.split(","))
    except ValueError:
        raise ValueError(f"{key}: expected comma-separated numbers, got {text!r}") from None


def _parse_dist(spec: str):
    """Mini-grammar: uniform:<a> | discrete:v1,v2,... | const:<v>."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"malformed distribution spec {spec!r}")
    if kind not in _LAWS:
        raise ValueError(f"unknown law type {kind!r}; allowed: {sorted(_LAWS)}")
    law_type, key = _LAWS[kind]
    values = _number_list(rest, key)
    if kind == "discrete":
        return law_type(values)
    if len(values) != 1:
        raise ValueError(f"{key}: expected one number, got {rest!r}")
    return law_type(values[0])


def _load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"--config {path}: not valid JSON: {exc}") from None


def _cmd_classify(args) -> None:
    spec = ModelSpec.from_json_dict(_load_json(args.config))
    instance = sample_instance(spec, args.seed)
    verdict = classify(instance, spec.continuous_support(), tol=args.tol)
    fields = ("pointer_basis", "continuous_support", "no_scrambling", "darwinism_supported")
    print(json.dumps({name: getattr(verdict, name) for name in fields}, separators=(",", ":")))


def _write_outputs(result: SweepResult, args) -> None:
    write_csv(result, args.out)
    write_sidecar(result, args.sidecar or str(args.out) + ".meta.json")
    if args.svg:
        render_heatmap_svg(result, args.svg_quantity, args.svg)


def _check_svg_quantity(args, spec: ModelSpec) -> None:
    """Refuse a chi heatmap before the sweep runs: only a model in branching
    form has a closed-form Holevo quantity to draw."""
    if args.svg and args.svg_quantity == "chi" and not spec.is_branching_form():
        raise ValueError(
            f"--svg-quantity chi needs a model in branching form; {spec.label} has no "
            "closed-form Holevo quantity"
        )


def _cmd_sweep(args) -> None:
    doc = _load_json(args.config)
    if args.seed is not None and isinstance(doc, dict):  # any other document fails below
        doc["master_seed"] = args.seed
    config = ExperimentConfig.from_json_dict(doc)
    _check_svg_quantity(args, config.spec)
    result = run_sweep(config)
    _write_outputs(result, args)


def _cmd_fig2(args) -> None:
    table = reproduce_fig2(n_env=args.n_env, alpha0_sq=args.alpha2)
    lines = ["n,I_inf,chi_inf"]
    for row in table:
        lines.append(f"{int(row[0])},{_fmt(row[1])},{_fmt(row[2])}")
    Path(args.out).write_text("\n".join(lines) + "\n")


def _cmd_fig3(args) -> None:
    # each model-parameter flag, by argparse dest, and the override key it sets
    keys = {"half_width": "half_width", "support": "support", "scramble": "scramble_half_width"}
    overrides = {}
    for dest, key in keys.items():
        value = getattr(args, dest)
        if value is not None:
            overrides[key] = _number_list(value, key) if key == "support" else value
    _check_svg_quantity(args, build_model(args.model, args.n_env, **overrides))
    result = reproduce_fig3(
        args.model,
        n_env=args.n_env,
        realizations=args.realizations,
        master_seed=args.seed,
        overrides=overrides,
    )
    _write_outputs(result, args)


def _cmd_gamma(args) -> None:
    dist = _parse_dist(args.dist)
    steps = _positive_integer(args.steps, "steps")
    if not 0 <= args.tmax < math.inf:
        raise ValueError(f"tmax must be finite and >= 0, got {args.tmax}")
    times = np.linspace(0.0, args.tmax, steps)
    lines = ["time,avg_gamma_sq"]
    for t, v in zip(times, averaged_gamma_squared(dist, args.alpha2, times)):
        lines.append(f"{_fmt(t)},{_fmt(v)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdarwin",
        description="Exact simulation and analytics of information transfer "
        "from a qubit to a qubit environment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--out", required=True, help="CSV output path")
    outputs.add_argument("--sidecar", help="JSON sidecar path (default: <out>.meta.json)")
    outputs.add_argument("--svg", help="optional SVG heatmap path")
    outputs.add_argument("--svg-quantity", default="ratio", choices=("ratio", "I", "chi"))

    p = sub.add_parser("classify", help="classify a model spec JSON file")
    p.add_argument("--config", required=True, help="path to a model spec JSON document")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--tol", type=float, default=1e-9, help="relative tolerance")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sweep", parents=[outputs],
                       help="run a Monte Carlo sweep from a config JSON file")
    p.add_argument("--config", required=True, help="path to an experiment config JSON document")
    p.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fig2", help="emit the asymptotic information curves")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--n-env", type=int, default=50)
    p.add_argument("--alpha2", type=float, default=0.5, help="system weight |alpha_0|^2")
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("fig3", parents=[outputs],
                       help="run one of the reference-model heatmap sweeps")
    p.add_argument("--model", required=True, help="CPDI | DPDI | CODI | CPDI-S")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--realizations", type=int, default=100)
    p.add_argument("--n-env", type=int, default=8)
    p.add_argument("--half-width", type=float, default=None)
    p.add_argument("--support", default=None, help="comma-separated coupling values")
    p.add_argument("--scramble", type=float, default=None, help="intra-environment half-width")
    p.set_defaults(func=_cmd_fig3)

    p = sub.add_parser("gamma", help="tabulate the averaged squared decoherence factor")
    p.add_argument("--dist", required=True, help="uniform:<a> | discrete:v1,v2,... | const:<v>")
    p.add_argument("--alpha2", type=float, required=True, help="site weight |alpha_i|^2")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=_cmd_gamma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # unexpected runtime failure
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
