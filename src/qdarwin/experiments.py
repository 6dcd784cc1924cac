"""Seeded Monte Carlo sweeps over coupling realizations and initial states,
averaged on a (time x fragment-size) grid, plus the two figure pipelines.

Each realization r is reproducible in isolation: ``_realization`` seeds its
generator with ``mix_seed(master_seed, r)`` and draws, in order, the model
instance, the initial product state, and (for the random-subset policy) the
fragments. Each sweep runs the one exact solution its model's structure
admits: the branching closed form for pure system-environment dephasing, the
diagonal propagator for other z-only models, and the dense propagator
otherwise. Realizations are drawn in index order and evaluated in chunks: the
state engines take each realization's states and entropies in turn, and the
branching closed form runs once per chunk over the chunk's stacked
realizations; each draw is reduced to what its engine reads as it is made,
so a chunk holds one model instance at a time. A state engine steps each
state from the previous grid time's, so a realization holds one state vector
while its entropies are taken; a cell can therefore differ by rounding
(<= 1e-12) between two time grids that reach its time by different steps.
Either way a chunk yields one layout, a (realization, time, size) table per
quantity, with S_S repeated over the size axis so that it is folded per cell
like the rest. Each finished chunk is folded into running sums and dropped,
so a sweep's memory does not grow with its realization count. Every
per-realization value, mean and standard error is bit-identical whatever the
chunk size, and a realization does not depend on how many follow it. A sweep
repeats byte for byte under a fixed BLAS thread count; the README says from
which cut sizes the bytes also depend on that count.

A state larger than one Gram block is read block by block by every cut.
There the cuts whose smaller side lies in a small family of qubits
(``information._families`` picks the families once per realization, from
the register and cut sizes alone) are taken from the family's purification,
a pure state on twice its qubits built from one read of the state per time
step; such a cell differs from the cut on the state by rounding (<= 1e-12).

A realization's fragments are one boolean table ``masks[F, S, N]``: F
fragment sizes, S subsets per size (1 for the prefix policy,
``subsets_per_realization`` for the random one), N environment sites. Each
(time, size) cell averages its quantity over the S subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Mapping

import numpy as np

from .analytics import asymptotic_holevo, asymptotic_mutual_info, binary_entropy
from .dynamics import (
    DensePropagator,
    DiagonalPropagator,
    _ProductState,
    dense_product_state,
    random_product_state,
)
from .information import (
    NumericalError,
    _closed_form_tables,
    _families,
    _purification,
    subsystem_entropy,
)
from .model import (
    ModelSpec,
    _integer,
    _items,
    _positive_integer,
    _real,
    _reject_unknown_keys,
    _sites,
    build_model,
    canonical_kind,
    sample_instance,
)

_MASK64 = (1 << 64) - 1
# Byte budget of each (chunk, S, T, F) complex table the closed-form kernel
# fills per call, which sets how many realizations it takes at once; every
# engine folds the same chunks into the running statistics. Doubling it sped
# a fig3 CPDI + DPDI job by ~10 % but raised its peak memory by ~1.5 %.
_CHUNK_BYTES = 64 * 1024

# The sweep's per-realization (T, F) tables, in folding order: every engine
# yields the first three, the branching closed form the Holevo pair as well.
_TABLES = ("i", "s", "ratio", "chi", "discord")

FRAGMENT_POLICIES = ("prefix", "random")
# the config's fields in order; the first five have no default
_CONFIG_KEYS = (
    "model", "n_env", "time_grid", "fragment_sizes", "realizations", "master_seed",
    "overrides", "fragment_policy", "subsets_per_realization",
)


def mix_seed(master_seed: int, index: int) -> int:
    """Derive the per-realization seed: splitmix64 finalizer applied to
    ``master_seed + (index + 1) * 0x9E3779B97F4A7C15`` (all mod 2^64)."""
    master_seed, index = _integer(master_seed, "master_seed"), _integer(index, "index")
    x = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _grid(values, number, key: str, hi) -> tuple:
    """``values`` through ``number`` (``_real`` or ``_integer``) as a tuple;
    ValueError naming ``key`` unless it is nonempty, strictly increasing and within 0..hi."""
    grid = tuple(number(v, key) for v in _items(values, key))
    if not grid or grid[0] < 0 or grid[-1] > hi or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{key} must be nonempty, strictly increasing and within 0..{hi}, "
                         f"got {list(grid)}")
    return grid


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun a sweep bit for bit.

    The model alone decides the engine, and every sweep reports
    ``ratio = I / S_max``, so neither is configured. ``spec`` is the model's
    spec, built once, which checks every override."""

    model: str
    n_env: int
    time_grid: tuple
    fragment_sizes: tuple
    realizations: int
    master_seed: int = 0
    overrides: Mapping = field(default_factory=dict)
    fragment_policy: str = "prefix"
    subsets_per_realization: int = 1
    keep_realizations: bool = False
    spec: ModelSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.overrides, Mapping):
            raise ValueError(f"overrides: expected a JSON object, got {self.overrides!r}")
        overrides = dict(self.overrides)
        # the spec checks model and n_env; the config takes both from it
        object.__setattr__(self, "spec", build_model(self.model, self.n_env, **overrides))
        object.__setattr__(self, "model", self.spec.label)
        object.__setattr__(self, "n_env", self.spec.n_env)
        for key in ("realizations", "subsets_per_realization"):
            object.__setattr__(self, key, _positive_integer(getattr(self, key), key))
        object.__setattr__(self, "master_seed", _integer(self.master_seed, "master_seed"))
        times = _grid(self.time_grid, _real, "time_grid", math.inf)
        sizes = _grid(self.fragment_sizes, _integer, "fragment_sizes", self.n_env)
        if self.fragment_policy not in FRAGMENT_POLICIES:
            raise ValueError(f"fragment_policy must be one of {FRAGMENT_POLICIES}")
        if self.fragment_policy == "prefix" and self.subsets_per_realization != 1:
            raise ValueError("the prefix fragment policy takes subsets_per_realization = 1")
        object.__setattr__(self, "time_grid", times)
        object.__setattr__(self, "fragment_sizes", sizes)
        object.__setattr__(self, "overrides", overrides)

    def to_json_dict(self) -> dict:
        return {key: getattr(self, key) for key in _CONFIG_KEYS}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        _reject_unknown_keys(doc, _CONFIG_KEYS, "experiment config", _CONFIG_KEYS[:5])
        return cls(**doc)


@dataclass(frozen=True)
class SweepResult:
    """Realization-averaged information quantities on the (time, size) grid.

    Mean/stderr arrays have shape (T, F). The Holevo and discord tables are
    NaN when the model does not keep an initially separable state in
    branching form (no closed form is available there). The sweep folds each
    chunk of realizations into running sums and drops it, so its memory does
    not grow with the realization count; only with ``keep_realizations`` are
    the per-realization values retained, with a leading realization axis
    (R x T x F values per table). ``engine`` is the engine the model's
    structure chose: ``branching``, ``diagonal`` or ``dense``. ``smax_zeroed``
    counts the realizations whose S_max was at most 1e-12 and whose ratio row
    was therefore set to 0.
    """

    config: ExperimentConfig
    engine: str
    times: np.ndarray
    fragment_sizes: np.ndarray
    realizations: int
    has_holevo: bool
    i_mean: np.ndarray
    i_stderr: np.ndarray
    chi_mean: np.ndarray
    chi_stderr: np.ndarray
    discord_mean: np.ndarray
    discord_stderr: np.ndarray
    s_mean: np.ndarray
    s_stderr: np.ndarray
    ratio_mean: np.ndarray
    ratio_stderr: np.ndarray
    i_values: np.ndarray | None = None
    chi_values: np.ndarray | None = None
    discord_values: np.ndarray | None = None
    ratio_values: np.ndarray | None = None
    s_values: np.ndarray | None = None
    smax_values: np.ndarray | None = None
    smax_zeroed: int = 0

    def value_grid(self, quantity: str) -> np.ndarray:
        grids = {"ratio": self.ratio_mean, "I": self.i_mean, "chi": self.chi_mean}
        if quantity not in grids:
            raise ValueError(f"quantity must be one of {sorted(grids)}, got {quantity!r}")
        return grids[quantity]


def _engine(spec: ModelSpec) -> str:
    if spec.is_branching_form():
        return "branching"
    return "diagonal" if spec.is_z_only() else "dense"


def _draw_fragments(rng, config: ExperimentConfig, n_env: int) -> np.ndarray:
    """Boolean site masks of shape (F, S, N): ``masks[f, s, k]`` is True when
    site k + 1 belongs to subset s of the f-th fragment size.

    The prefix policy has S = 1 and takes sites 1..n. The random policy draws,
    for each size in grid order, S = ``subsets_per_realization`` subsets, each
    the first n entries of a fresh permutation of the N sites.
    """
    sizes = np.asarray(config.fragment_sizes)[:, None, None]
    if config.fragment_policy == "prefix":
        return np.arange(n_env) < sizes
    perms = [
        [rng.permutation(n_env) for _ in range(config.subsets_per_realization)]
        for _ in config.fragment_sizes
    ]
    return np.argsort(perms, axis=-1) < sizes  # a site's rank in its permutation


def _realization(spec: ModelSpec, config: ExperimentConfig, r: int):
    """Realization r's documented draw from its own generator: the instance,
    the initial product state (system site first) and the fragment masks."""
    rng = np.random.default_rng(mix_seed(config.master_seed, r))
    instance = sample_instance(spec, rng)
    init = random_product_state(spec.n_env + 1, rng)
    return instance, init, _draw_fragments(rng, config, spec.n_env)


def _state_tables(propagator, init, times, masks):
    """I of shape (T, F) and S_S of shape (T,) from explicit states and
    partial-trace entropies.

    Each state is stepped from the previous grid time's state by the time
    between them, starting from the initial product state at t = 0, so the
    realization holds one evolved state while its entropies are taken (two
    only inside ``evolve``). Under a time-independent H this is exact in
    exact arithmetic; in float64 it differs from evolving each time from
    t = 0 by rounding (at most ~3e-14 in I and S_S on the fig3 grids).

    The cuts are routed once (``information._families``); a step past the
    initial product state takes the routed ones from its families'
    purifications. Every step makes the same ``subsystem_entropy`` calls in
    the same order, and the product state's are exactly 0.
    """
    frags = [[tuple((np.flatnonzero(row) + 1).tolist()) for row in rows] for rows in masks]
    # the system's cut, then each subset's fragment and system + fragment cuts
    keeps = [(0,), *(cut for subsets in frags for frag in subsets for cut in (frag, (0, *frag)))]
    families, routes = _families(init.n_sites, keeps)
    i_vals = np.empty((times.shape[0], len(frags)))
    s_sys = np.empty(times.shape[0])
    psi, t_prev = dense_product_state(init), 0.0
    for ti, t in enumerate(times):
        psi = propagator.evolve(psi, t - t_prev)  # rebinding releases the previous state
        t_prev = t
        if families and type(psi) is not _ProductState:
            sources = (psi, *(_purification(psi, family) for family in families))
            ents = [subsystem_entropy(sources[src], keep) for src, keep in routes]
            del sources  # so that the next evolve's rebinding releases psi
        else:
            ents = [subsystem_entropy(psi, keep) for keep in keeps]
        s_s = s_sys[ti] = ents[0]
        j = 1
        for fi, subsets in enumerate(frags):
            acc = 0.0
            for _ in subsets:
                acc += s_s + ents[j] - ents[j + 1]
                j += 2
            i_vals[ti, fi] = acc / len(subsets)
    return i_vals, s_sys


class _RunningStats:
    """Per-cell mean and standard error of equal-shape (rows, T, F) tables
    that arrive a chunk at a time, held in O(cells) memory whatever the
    realization count.

    Each chunk's tables are stacked side by side, one row per realization.
    Three running sums, of x, of d = x - x_0 and of d^2 with x_0 realization
    0's row, each add the rows one at a time in realization order, so nothing
    depends on the chunk size or the table shape. Shifting by x_0 keeps
    sum(d^2) - sum(d)^2 / R free of the cancellation the raw second moment
    suffers.
    """

    def __init__(self):
        self.count = 0
        self.shift = self.sums = None

    def add(self, tables) -> None:
        data = np.stack(tables, axis=1)
        if self.sums is None:
            self.sums = np.zeros((3, *data.shape[1:]))
            self.shift = data[0].copy()
        total, dev, dev_sq = self.sums
        for x in data:
            d = x - self.shift
            total += x
            dev += d
            dev_sq += d * d
        self.count += len(data)

    def mean_stderr(self) -> tuple:
        """Means and standard errors, each of shape (tables, T, F) in the
        order ``add`` took the tables."""
        n = self.count
        total, dev, dev_sq = self.sums
        mean = total / n
        stderr = np.zeros_like(mean)
        if n > 1:
            # the exact spread is >= 0; rounding moves it by < (3R + 2) eps sum(d^2)
            spread = dev_sq - dev * dev / n
            if np.any(spread < -4.0 * n * np.finfo(float).eps * dev_sq):
                raise NumericalError("negative variance beyond rounding in a sweep cell")
            stderr = np.sqrt(np.maximum(spread, 0.0) / (n - 1)) / np.sqrt(n)
        return mean, stderr


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run the configured sweep; repeatable byte for byte under a fixed BLAS thread count.

    Each chunk of realizations is folded into running statistics and then
    dropped, so memory does not grow with the realization count unless the
    config keeps the per-realization values."""
    engine = _engine(config.spec)
    times = np.asarray(config.time_grid)
    sizes = np.asarray(config.fragment_sizes, dtype=int)
    r_count = config.realizations
    propagator = DiagonalPropagator if engine == "diagonal" else DensePropagator

    stats = _RunningStats()
    kept = []  # per-chunk tables, with keep_realizations
    n_zeroed = 0
    cell_bytes = 16 * config.subsets_per_realization * times.size * sizes.size
    chunk = max(1, _CHUNK_BYTES // cell_bytes)
    for start in range(0, r_count, chunk):
        stop = min(start + chunk, r_count)
        draws = (_realization(config.spec, config, r) for r in range(start, stop))  # lazily
        if engine == "branching":
            # the closed form reads only the system-environment couplings,
            # copied out so that a view does not keep the instance alive
            inits, fields, masks = zip(*[
                (init, instance.j_tensor[0, 1:, 2, 2].copy(), frags)
                for instance, init, frags in draws
            ])
            i_blk, chi_blk, s_blk = _closed_form_tables(
                np.array([init.coeffs for init in inits]), np.array(fields), times, np.array(masks),
            )
            holevo = [chi_blk, i_blk - chi_blk]
        else:
            # the state engines take I and S_S from explicit states
            inits, i_rows, s_rows = zip(*[
                (init, *_state_tables(propagator(instance), init, times, frags))
                for instance, init, frags in draws
            ])
            i_blk, s_blk = np.array(i_rows), np.array(s_rows)
            holevo = []

        alpha0_sq = np.array([abs(init.coeffs[0, 0]) ** 2 for init in inits])
        smax = binary_entropy(alpha0_sq)
        # a system with no branch entropy to share has its ratio row set to 0
        zeroed = smax <= 1e-12
        n_zeroed += int(np.count_nonzero(zeroed))
        ratio = i_blk / np.where(zeroed, 1.0, smax)[:, None, None]
        ratio[zeroed] = 0.0
        tables = [i_blk, s_blk, ratio, *holevo]  # in _TABLES order
        # S_S, of shape (rows, T), is repeated over the size axis to fold per cell
        stats.add([
            t if t.ndim == 3 else np.broadcast_to(t[:, :, None], i_blk.shape) for t in tables
        ])
        if config.keep_realizations:
            kept.append([*tables, smax])

    means, stderrs = stats.mean_stderr()
    # the tables an engine does not yield are NaN grids
    nan_grid = np.full((times.size, sizes.size), np.nan)
    named = {}
    for name, mean, stderr in zip_longest(_TABLES, means, stderrs, fillvalue=nan_grid):
        named[f"{name}_mean"], named[f"{name}_stderr"] = mean, stderr
    if config.keep_realizations:
        names = [f"{name}_values" for name in _TABLES[:len(means)]] + ["smax_values"]
        named.update(zip(names, map(np.concatenate, zip(*kept))))

    return SweepResult(
        config=config,
        engine=engine,
        times=times,
        fragment_sizes=sizes,
        realizations=r_count,
        has_holevo=engine == "branching",
        smax_zeroed=n_zeroed,
        **named,
    )


def reproduce_fig2(n_env: int = 50, alpha0_sq: float = 0.5) -> np.ndarray:
    """Asymptotic mutual information and Holevo quantity vs fragment size.

    Returns an array with one row per fragment size n = 0..n_env and columns
    (n, I_inf, chi_inf); the classical plateau sits at the maximal system
    entropy (1 bit for a balanced system qubit).
    """
    (n_env,) = _sites([n_env], 0, math.inf, "n_env")
    ns = np.arange(n_env + 1)
    i_inf = np.array([asymptotic_mutual_info(n, n_env, alpha0_sq) for n in ns])
    chi_inf = np.array([asymptotic_holevo(n, alpha0_sq) for n in ns])
    return np.column_stack([ns.astype(float), i_inf, chi_inf])


def _fig3_time_grid(kind: str) -> tuple:
    base = np.round(np.arange(0.0, 5.0 + 1e-9, 0.1), 10)
    if kind == "DPDI":
        # include t = pi so the exact recurrence of the discrete couplings is visible
        return tuple(np.sort(np.append(base, np.pi)))
    if kind == "CPDI_S":
        late = np.round(np.arange(6.0, 50.0 + 1e-9, 2.0), 10)
        return tuple(np.concatenate([base, late]))
    return tuple(base)


def reproduce_fig3(
    kind: str,
    n_env: int = 8,
    realizations: int = 100,
    master_seed: int = 0,
    keep_realizations: bool = False,
    overrides: Mapping | None = None,
) -> SweepResult:
    """Realization-averaged I(S:F)/S_max over time and fragment size for one
    of the four reference models (defaults: N = 8, 100 realizations), each on
    the engine its structure admits."""
    kind = canonical_kind(kind)
    config = ExperimentConfig(
        model=kind,
        n_env=n_env,
        time_grid=_fig3_time_grid(kind),
        fragment_sizes=tuple(range(n_env + 1)),
        realizations=realizations,
        master_seed=master_seed,
        overrides=dict(overrides or {}),
        keep_realizations=keep_realizations,
    )
    return run_sweep(config)
