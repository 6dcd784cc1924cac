"""Seeded Monte Carlo sweeps over coupling realizations and initial states,
averaged on a (time x fragment-size) grid, plus the two figure pipelines.

Each realization r is reproducible in isolation: its generator is seeded with
``mix_seed(master_seed, r)`` and draws, in order, the model instance, the
initial product state, and (for the random-subset policy) the fragments.
Each sweep runs the one exact solution its model's structure admits: the
branching closed form for pure system-environment dephasing, the diagonal
propagator for other z-only models, and the dense propagator otherwise.
Realizations are drawn in index order and evaluated in chunks: the state
engines take each realization's states and entropies in turn, and the
branching closed form runs once per chunk over the chunk's stacked
realizations. Every per-realization value is bit-identical whatever the chunk
size, and a realization does not depend on how many follow it, so a sweep is
deterministic in its config alone.

A realization's fragments are one boolean table ``masks[F, S, N]``: F
fragment sizes, S subsets per size (1 for the prefix policy,
``subsets_per_realization`` for the random one), N environment sites. Each
(time, size) cell averages its quantity over the S subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .analytics import asymptotic_holevo, asymptotic_mutual_info, binary_entropy
from .dynamics import (
    DensePropagator,
    DiagonalPropagator,
    dense_product_state,
    random_product_state,
)
from .information import _closed_form_tables, subsystem_entropy
from .model import (
    ModelSpec,
    _integer,
    _real,
    _reject_unknown_keys,
    build_model,
    canonical_kind,
    sample_instance,
)

_MASK64 = (1 << 64) - 1
# Byte budget of each (chunk, S, T, F) complex table the closed-form kernel
# fills per call, which sets how many realizations it takes at once. Doubling
# it sped a fig3 CPDI + DPDI job by ~10 % but raised its peak memory by ~1.5 %.
_CHUNK_BYTES = 64 * 1024

FRAGMENT_POLICIES = ("prefix", "random")
_OVERRIDE_KEYS = ("half_width", "support", "scramble_half_width")
_CONFIG_KEYS = (
    "model", "n_env", "time_grid", "fragment_sizes", "realizations", "master_seed",
    "overrides", "fragment_policy", "subsets_per_realization",
)
_INTEGER_KEYS = ("n_env", "realizations", "master_seed", "subsets_per_realization")


def mix_seed(master_seed: int, index: int) -> int:
    """Derive the per-realization seed: splitmix64 finalizer applied to
    ``master_seed + (index + 1) * 0x9E3779B97F4A7C15`` (all mod 2^64)."""
    x = (int(master_seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun a sweep bit for bit.

    The model alone decides the engine, and every sweep reports
    ``ratio = I / S_max``, so neither is configured."""

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

    def __post_init__(self):
        object.__setattr__(self, "model", canonical_kind(self.model))
        for key in _INTEGER_KEYS:
            object.__setattr__(self, key, _integer(getattr(self, key), key))
        if self.n_env < 1:
            raise ValueError(f"n_env must be >= 1, got {self.n_env}")
        times = tuple(_real(t, "time_grid") for t in self.time_grid)
        if not times:
            raise ValueError("time_grid must be nonempty")
        if any(t < 0 for t in times):
            raise ValueError("time_grid entries must be >= 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("time_grid must be strictly increasing")
        sizes = tuple(_integer(n, "fragment_sizes") for n in self.fragment_sizes)
        if not sizes:
            raise ValueError("fragment_sizes must be nonempty")
        if any(n < 0 or n > self.n_env for n in sizes):
            raise ValueError(f"fragment sizes must lie in 0..{self.n_env}, got {sizes}")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("fragment_sizes must be strictly increasing")
        if self.realizations < 1:
            raise ValueError(f"realizations must be >= 1, got {self.realizations}")
        if self.subsets_per_realization < 1:
            raise ValueError("subsets_per_realization must be >= 1")
        if self.fragment_policy not in FRAGMENT_POLICIES:
            raise ValueError(f"fragment_policy must be one of {FRAGMENT_POLICIES}")
        if self.fragment_policy == "prefix" and self.subsets_per_realization != 1:
            raise ValueError("the prefix fragment policy takes subsets_per_realization = 1")
        overrides = dict(self.overrides)
        unknown = set(overrides) - set(_OVERRIDE_KEYS)
        if unknown:
            raise ValueError(f"unknown override keys {sorted(unknown)}; allowed: {_OVERRIDE_KEYS}")
        build_model(self.model, self.n_env, **overrides)  # the builder checks every value
        object.__setattr__(self, "time_grid", times)
        object.__setattr__(self, "fragment_sizes", sizes)
        object.__setattr__(self, "overrides", overrides)

    def to_json_dict(self) -> dict:
        return {key: getattr(self, key) for key in _CONFIG_KEYS}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        _reject_unknown_keys(doc, _CONFIG_KEYS, "experiment config")
        return cls(**doc)


@dataclass(frozen=True)
class SweepResult:
    """Realization-averaged information quantities on the (time, size) grid.

    Mean/stderr arrays have shape (T, F). The Holevo and discord tables are
    NaN when the model does not keep an initially separable state in
    branching form (no closed form is available there). When the sweep was
    run with ``keep_realizations``, the per-realization values are retained
    with a leading realization axis. ``engine`` is the engine the model's
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


def _state_tables(propagator, init, times, masks):
    """I and S_S from explicit states and partial-trace entropies."""
    psi0 = dense_product_state(init)
    # (fragment, system + fragment) kept-qubit tuples, built once per realization
    frags = [[tuple((np.flatnonzero(row) + 1).tolist()) for row in rows] for rows in masks]
    cuts = [[(frag, (0, *frag)) for frag in subsets] for subsets in frags]
    i_vals = np.empty((times.shape[0], len(cuts)))
    s_sys = np.empty(times.shape[0])
    for ti, t in enumerate(times):
        psi = propagator.evolve(psi0, t)
        s_s = subsystem_entropy(psi, (0,))
        s_sys[ti] = s_s
        for fi, subsets in enumerate(cuts):
            acc = 0.0
            for frag, joint in subsets:
                s_f = subsystem_entropy(psi, frag)
                s_sf = subsystem_entropy(psi, joint)
                acc += s_s + s_f - s_sf
            i_vals[ti, fi] = acc / len(subsets)
        del psi  # release this state before the next evolve allocates one
    return i_vals, s_sys


def _mean_stderr(values: np.ndarray):
    mean = np.mean(values, axis=0)
    if values.shape[0] < 2:
        return mean, np.zeros_like(mean)
    stderr = np.std(values, axis=0, ddof=1) / np.sqrt(values.shape[0])
    return mean, stderr


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run the configured sweep; deterministic in the config alone."""
    spec = build_model(config.model, config.n_env, **config.overrides)
    engine = _engine(spec)
    times = np.asarray(config.time_grid)
    sizes = np.asarray(config.fragment_sizes, dtype=int)
    r_count = config.realizations
    has_holevo = engine == "branching"

    i_all = np.empty((r_count, times.size, sizes.size))
    chi_all = np.empty_like(i_all) if has_holevo else None
    s_all = np.empty((r_count, times.size))
    alpha0_sq = np.empty(r_count)

    cell_bytes = 16 * config.subsets_per_realization * times.size * sizes.size
    chunk = max(1, _CHUNK_BYTES // cell_bytes)
    for start in range(0, r_count, chunk):
        stop = min(start + chunk, r_count)
        weights, site_coeffs, fields, masks = [], [], [], []
        for r in range(start, stop):
            rng = np.random.default_rng(mix_seed(config.master_seed, r))
            instance = sample_instance(spec, rng)
            init = random_product_state(spec.n_env + 1, rng)
            frags = _draw_fragments(rng, config, spec.n_env)
            (alpha0, beta0), env_coeffs = init.coeffs[0], init.coeffs[1:]
            # the scalar abs: np.abs on complex arrays rounds differently
            alpha0_sq[r] = abs(alpha0) ** 2
            if has_holevo:
                weights.append(alpha0_sq[r] * abs(beta0) ** 2)
                site_coeffs.append(env_coeffs)
                fields.append(instance.j_tensor[0, 1:, 2, 2])
                masks.append(frags)
            else:
                # the state engines take I and S_S from explicit states
                propagator = (
                    DiagonalPropagator(instance) if engine == "diagonal"
                    else DensePropagator(instance)
                )
                i_all[r], s_all[r] = _state_tables(propagator, init, times, frags)
        if has_holevo:
            i_all[start:stop], chi_all[start:stop], s_all[start:stop] = _closed_form_tables(
                np.array(weights), np.array(site_coeffs), np.array(fields), times,
                np.array(masks),
            )

    smax_all = binary_entropy(alpha0_sq)
    # a system with no branch entropy to share has its ratio row set to 0
    zeroed = smax_all <= 1e-12
    ratio_all = i_all / np.where(zeroed, 1.0, smax_all)[:, None, None]
    ratio_all[zeroed] = 0.0

    i_mean, i_stderr = _mean_stderr(i_all)
    s_mean_t, s_stderr_t = _mean_stderr(s_all)
    ratio_mean, ratio_stderr = _mean_stderr(ratio_all)
    ones = np.ones((1, sizes.size))
    if has_holevo:
        d_all = i_all - chi_all
        chi_mean, chi_stderr = _mean_stderr(chi_all)
        d_mean, d_stderr = _mean_stderr(d_all)
    else:
        d_all = None
        nan_grid = np.full((times.size, sizes.size), np.nan)
        chi_mean = chi_stderr = d_mean = d_stderr = nan_grid

    return SweepResult(
        config=config,
        engine=engine,
        times=times,
        fragment_sizes=sizes,
        realizations=r_count,
        has_holevo=has_holevo,
        i_mean=i_mean,
        i_stderr=i_stderr,
        chi_mean=chi_mean,
        chi_stderr=chi_stderr,
        discord_mean=d_mean,
        discord_stderr=d_stderr,
        s_mean=s_mean_t[:, None] * ones,
        s_stderr=s_stderr_t[:, None] * ones,
        ratio_mean=ratio_mean,
        ratio_stderr=ratio_stderr,
        i_values=i_all if config.keep_realizations else None,
        chi_values=chi_all if config.keep_realizations else None,
        discord_values=d_all if config.keep_realizations else None,
        ratio_values=ratio_all if config.keep_realizations else None,
        s_values=s_all if config.keep_realizations else None,
        smax_values=smax_all if config.keep_realizations else None,
        smax_zeroed=int(np.count_nonzero(zeroed)),
    )


def reproduce_fig2(n_env: int = 50, alpha0_sq: float = 0.5) -> np.ndarray:
    """Asymptotic mutual information and Holevo quantity vs fragment size.

    Returns an array with one row per fragment size n = 0..n_env and columns
    (n, I_inf, chi_inf); the classical plateau sits at the maximal system
    entropy (1 bit for a balanced system qubit).
    """
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
