"""Reduced density matrices, entropies, mutual information, Holevo quantity,
quantum discord, and fragment decoherence factors.

All entropies are in bits (base-2 logarithms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Sequence, Union

import numpy as np

from .analytics import binary_entropy
from .dynamics import BranchingState, PureState, _site_overlaps

_EIG_TOL = 1e-9
_CUT_CACHE_SIZE = 1024
_GRAM_BLOCK_BYTES = 1 << 20  # bound on the state slice a Gram block reads at once


class NumericalError(ValueError):
    """A computed quantity left its mathematical range beyond tolerance (for
    example a density-matrix spectrum outside [0, 1])."""


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace matrix; positivity is checked where eigenvalues
    are computed."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(m)).real
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"trace must be 1 within 1e-9, got {tr!r}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


@dataclass(frozen=True)
class FragmentSpec:
    """Ordered, distinct environment-site indices (1-based)."""

    sites: tuple

    def __post_init__(self):
        sites = tuple(int(s) for s in self.sites)
        if len(set(sites)) != len(sites):
            raise ValueError(f"fragment sites must be distinct, got {sites}")
        if any(s < 1 for s in sites):
            raise ValueError(f"fragment sites must be >= 1, got {sites}")
        object.__setattr__(self, "sites", sites)

    def __len__(self):
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)

    def complement(self, n_env: int) -> "FragmentSpec":
        return FragmentSpec(tuple(s for s in range(1, n_env + 1) if s not in self.sites))


Fragment = Union[FragmentSpec, Sequence[int]]


def _fragment_sites(frag: Fragment, n_env: int) -> tuple:
    sites = FragmentSpec(tuple(frag)).sites
    if any(s > n_env for s in sites):
        raise ValueError(f"fragment sites {sites} exceed environment size {n_env}")
    return sites


class _CutPlan(NamedTuple):
    """Axis plan of a (keep | rest) cut; see ``_cut``."""

    split: tuple  # the amplitude tensor's shape, (2,) * n
    perm: tuple  # tensor axes: the smaller side's, then the larger side's
    shape: tuple  # (d, D): d rows on the smaller side, D columns on the larger
    on_keep: bool  # whether the rows are the kept qubits
    blocks: tuple  # per block, the index fixing the larger side's leading axes
    block_shape: tuple  # (d, D / len(blocks))


@lru_cache(maxsize=_CUT_CACHE_SIZE)
def _cut(n: int, keep: tuple) -> _CutPlan:
    """Axis plan of the (keep | rest) cut of an n-qubit register.

    Axis a of the amplitude tensor holds qubit n-1-a. The kept axes are
    ordered so that the first kept qubit lands on the least significant bit;
    the traced axes follow in ascending axis order, so the lowest traced qubit
    is the least significant bit and adjacent axes merge without a copy. The
    smaller side (the kept side on a tie) indexes the rows of the cut matrix
    A, whose Gram A A^H has the same nonzero spectrum as the reduced density
    matrix. A state larger than ``_GRAM_BLOCK_BYTES`` is cut into blocks, each
    fixing the larger side's most significant axes, so that the Gram is
    summed block by block without a full copy of the state. ``keep`` may hold
    any integers; they are converted here, once per plan. Bad keeps raise on
    every call (exceptions are not cached).
    """
    keep = [int(q) for q in keep]
    if len(set(keep)) != len(keep):
        raise ValueError(f"kept qubits must be distinct, got {keep}")
    if any(q < 0 or q >= n for q in keep):
        raise ValueError(f"kept qubits {keep} out of range 0..{n - 1}")
    kept = [n - 1 - q for q in reversed(keep)]
    rest = [a for a in range(n) if a not in kept]
    on_keep = len(kept) <= len(rest)
    small, large = (kept, rest) if on_keep else (rest, kept)
    fixed = 0
    while fixed < len(large) and (16 << (n - fixed)) > _GRAM_BLOCK_BYTES:
        fixed += 1
    blocks = tuple(
        (slice(None),) * len(small) + bits for bits in product((0, 1), repeat=fixed)
    )
    return _CutPlan(
        (2,) * n,
        tuple(small + large),
        (1 << len(small), 1 << len(large)),
        on_keep,
        blocks,
        (1 << len(small), 1 << (len(large) - fixed)),
    )


def _partition_matrix(psi: PureState, keep: tuple) -> np.ndarray:
    """Reshape the amplitudes into the cut matrix A of ``_cut``: rows on the
    smaller side of the (keep | rest) cut, columns on the larger. A view
    whenever the axis order allows one."""
    plan = _cut(psi.n_qubits, keep)
    return psi.amplitudes.reshape(plan.split).transpose(plan.perm).reshape(plan.shape)


def _blocked_gram(psi: PureState, keep: tuple) -> np.ndarray:
    """Lower triangle of A A^H of the cut matrix, summed over its column
    blocks. Each block is a slice of the amplitude tensor, reshaped (copied if
    need be) only after slicing, and its product is added in row panels of at
    most ``_GRAM_BLOCK_BYTES``, so no temporary is larger than one block. A
    panel multiplies only against the columns up to its last row: above the
    diagonal panels the Gram stays zero, since ``eigvalsh`` and the 2 x 2
    spectrum of ``subsystem_entropy`` read only the lower triangle."""
    plan = _cut(psi.n_qubits, keep)
    tensor = psi.amplitudes.reshape(plan.split).transpose(plan.perm)
    d = plan.block_shape[0]
    panel = max(1, _GRAM_BLOCK_BYTES // (16 * d))
    gram = np.zeros((d, d), dtype=complex)
    for index in plan.blocks:
        a = tensor[index].reshape(plan.block_shape)
        a_h = a.conj().T
        for row in range(0, d, panel):
            end = min(row + panel, d)
            gram[row:end, :end] += a[row:end] @ a_h[:, :end]
    return gram


def reduced_density(psi: PureState, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace of |psi><psi| over every qubit not listed in ``keep``."""
    keep = tuple(keep)
    m = _partition_matrix(psi, keep)
    if not _cut(psi.n_qubits, keep).on_keep:
        m = m.T  # rows back on the kept qubits
    return DensityMatrix(m @ m.conj().T)


def _entropy_from_eigenvalues(eigs: Sequence[float], top: float = 1.0) -> float:
    """Entropy (bits) of a spectrum of floats in ascending order, as
    ``eigvalsh`` returns it. Raises NumericalError when it leaves [0, top]
    beyond ``_EIG_TOL``, where ``top`` is the trace of the matrix it came
    from (||psi||^2 for a cut of a pure state); eigenvalues inside the
    tolerance are clamped to [0, 1]."""
    if eigs[0] < -_EIG_TOL or eigs[-1] > top + _EIG_TOL:
        raise NumericalError(f"eigenvalues out of [0, 1] beyond tolerance: {list(eigs)}")
    entropy = 0.0
    for lam in eigs:
        if lam > 0.0:
            lam = min(lam, 1.0)
            entropy -= lam * math.log2(lam)
    return entropy


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr[rho log2 rho] in bits, eigenvalues clamped to [0, 1] before the log."""
    return _entropy_from_eigenvalues(rho.eigenvalues().tolist())


def subsystem_entropy(psi: PureState, keep: Sequence[int]) -> float:
    """Entropy (bits) of the reduction of a pure state onto ``keep``.

    Computed from the Schmidt spectrum across the (keep | rest) cut, as the
    spectrum of the d x d Gram matrix on whichever side is smaller; identical
    to the entropy of the literal reduced density matrix. Each cut does only
    the work its d needs:

    - d = 1 (keep nothing, or every qubit): 0.0, since the reduction of a
      pure state onto nothing or everything is pure (``PureState`` has
      checked the norm); no pass over the state.
    - d = 2 (one qubit on the smaller side): the 2 x 2 Gram, whose spectrum
      mid -+ hypot((a - c) / 2, |b|), mid = (a + c) / 2, is taken in floats
      from its diagonal a, c and lower off-diagonal entry b.
    - d >= 4: ``eigvalsh`` of the Gram.

    The spectrum must lie in [0, ||psi||^2] (``PureState.norm_sq``) within
    ``_EIG_TOL``, so a state at the edge of its own norm check passes.

    A state larger than ``_GRAM_BLOCK_BYTES`` has the lower triangle of its
    Gram summed block by block, so the cut never copies the whole state.
    """
    keep = keep if type(keep) is tuple else tuple(keep)  # the plan's cache key
    d = _cut(psi.n_qubits, keep).shape[0]
    if d == 1:
        return 0.0
    if psi.amplitudes.nbytes > _GRAM_BLOCK_BYTES:
        gram = _blocked_gram(psi, keep)
    else:
        m = _partition_matrix(psi, keep)
        gram = m @ m.conj().T
    if d > 2:
        return _entropy_from_eigenvalues(np.linalg.eigvalsh(gram).tolist(), psi.norm_sq)
    (a, _), (b, c) = gram.tolist()
    mid = 0.5 * (a.real + c.real)
    half_gap = math.hypot(0.5 * (a.real - c.real), abs(b))
    return _entropy_from_eigenvalues((mid - half_gap, mid + half_gap), psi.norm_sq)


def mutual_information(psi: PureState, frag: Fragment) -> float:
    """I(S:F) = S_S + S_F - S_SF in bits for the system qubit and a fragment."""
    sites = _fragment_sites(frag, psi.n_qubits - 1)
    s_s = subsystem_entropy(psi, [0])
    s_f = subsystem_entropy(psi, list(sites))
    s_sf = subsystem_entropy(psi, [0, *sites])
    return s_s + s_f - s_sf


def fragment_decoherence_factor(bs: BranchingState, frag: Fragment) -> complex:
    """Product of the branch overlaps over the fragment's sites."""
    sites = _fragment_sites(frag, bs.n_env)
    return bs.overlap(sites)


def _rank2_entropy(weight, x) -> np.ndarray:
    """Entropy (bits) of a rank-<=2 reduction of a branching state, whose
    eigenvalues are (1 +- sqrt(1 - 4 w x)) / 2 with w = |alpha0|^2 |beta0|^2.

    x = 1 - |Gamma|^2 gives the entropy of a block whose two branch components
    have squared overlap |Gamma|^2; x = |Gamma_F|^2 - |Gamma|^2 gives the
    conditional term of the Holevo quantity.
    """
    radicand = np.clip(1.0 - 4.0 * weight * x, 0.0, 1.0)
    return binary_entropy(0.5 * (1.0 + np.sqrt(radicand)))


def _closed_form_tables(weights, site_coeffs, fields, times, masks):
    """Exact I, Holevo and S_S of R branching evolutions, vectorized over
    realizations, times, fragment columns and subsets.

    ``weights`` holds |alpha0|^2 |beta0|^2 per realization, shape (R,);
    ``site_coeffs`` the environment's initial pairs, shape (R, N, 2); ``fields``
    the couplings, shape (R, N). ``masks`` is a boolean table of shape
    (R, F, S, N): ``masks[r, f, s, k]`` marks environment site k + 1 as part of
    subset s of column f, and each column averages over its S subsets.
    Returns I and Holevo tables of shape (R, T, F) and S_S of shape (R, T).

    Uses the rank-<=2 structure of every reduction of a branching state: the
    entropy of the system, fragment, and system+fragment blocks depends only
    on the squared branch overlaps of the environment, the fragment, and the
    fragment's complement (the last via purity of the global state).
    """
    gam = _site_overlaps(site_coeffs, fields, times)  # (R, T, N)
    weight = np.asarray(weights)[:, None]  # (R, 1)
    g_env_sq = np.abs(np.prod(gam, axis=-1)) ** 2
    s_sys = _rank2_entropy(weight, 1.0 - g_env_sq)

    # Each overlap product multiplies in its chosen sites one at a time, in
    # site order, into an (R, S, T, F) accumulator; an unchosen site is skipped,
    # which rounds as multiplying by an exact 1, so every cell rounds as the
    # product of its own sites whatever the realization count. Subsets lead
    # the (T, F) slabs, so the means add them in order.
    # (N, R, S, 1, F) site masks and (N, R, 1, T, 1) site overlaps
    in_frag = np.ascontiguousarray(masks.transpose(3, 0, 2, 1))[:, :, :, None]
    gam_sites = np.moveaxis(gam, -1, 0)[:, :, None, :, None]
    r_count, n_f, n_s = masks.shape[:3]
    g_frag = np.ones((r_count, n_s, times.shape[0], n_f), dtype=complex)
    g_fbar = np.ones_like(g_frag)
    for site, chosen, unchosen in zip(gam_sites, in_frag, ~in_frag):
        np.multiply(g_frag, site, out=g_frag, where=chosen)
        np.multiply(g_fbar, site, out=g_fbar, where=unchosen)
    g_frag_sq = np.abs(g_frag) ** 2
    cell_weight = weight[:, None, :, None]  # (R, 1, 1, 1)
    s_frag = _rank2_entropy(cell_weight, 1.0 - g_frag_sq)
    s_joint = _rank2_entropy(cell_weight, 1.0 - np.abs(g_fbar) ** 2)
    s_cond = _rank2_entropy(cell_weight, g_frag_sq - g_env_sq[:, None, :, None])
    s_sys_cells = s_sys[:, None, :, None]
    i_vals = np.mean(s_sys_cells + s_frag - s_joint, axis=1)
    chi_vals = np.mean(s_sys_cells - s_cond, axis=1)
    return i_vals, chi_vals, s_sys


def holevo_branching(bs: BranchingState, frag: Fragment) -> float:
    """Holevo quantity (bits) of a fragment of a singly-branching state.

    Closed form in the squared overlaps of the full environment and of the
    fragment; exact for branching states (checked against the measurement
    oracle below for single-site fragments).
    """
    sites = _fragment_sites(frag, bs.n_env)
    mask = np.isin(np.arange(1, bs.n_env + 1), sites)[None, None, None]
    _, chi, _ = _closed_form_tables(
        [abs(bs.alpha0) ** 2 * abs(bs.beta0) ** 2],
        bs.site_coeffs[None],
        bs.fields[None],
        np.array([bs.time]),
        mask,
    )
    return float(chi[0, 0, 0])


def holevo_grid_oracle(psi: PureState, frag: Fragment, resolution: int = 64) -> float:
    """Variational Holevo quantity for a single-site fragment, minimizing the
    post-measurement system entropy over a grid of projective measurements.

    The grid covers Bloch directions (theta_k, phi_l) with theta at the
    ``resolution`` midpoints of [0, pi] and phi at ``2 * resolution`` points
    of [0, 2*pi); the result is a lower bound on the true Holevo quantity.
    """
    sites = _fragment_sites(frag, psi.n_qubits - 1)
    if len(sites) != 1:
        raise ValueError(f"the measurement oracle handles single-site fragments, got {sites}")
    resolution = int(resolution)
    if resolution < 16:
        raise ValueError(f"resolution must be >= 16, got {resolution}")

    rho_sf = reduced_density(psi, [0, sites[0]]).matrix  # system on the low bit
    s_s = subsystem_entropy(psi, [0])

    theta = (np.arange(resolution) + 0.5) * np.pi / resolution
    phi = np.arange(2 * resolution) * np.pi / resolution
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    nx = (np.sin(tt) * np.cos(pp)).ravel()
    ny = (np.sin(tt) * np.sin(pp)).ravel()
    nz = np.cos(tt).ravel()

    proj_up = np.empty((nx.size, 2, 2), dtype=complex)
    proj_up[:, 0, 0] = 0.5 * (1.0 + nz)
    proj_up[:, 0, 1] = 0.5 * (nx - 1j * ny)
    proj_up[:, 1, 0] = 0.5 * (nx + 1j * ny)
    proj_up[:, 1, 1] = 0.5 * (1.0 - nz)
    eye2 = np.eye(2, dtype=complex)

    avg = np.zeros(nx.size)
    for proj in (proj_up, eye2[None, :, :] - proj_up):
        full = np.einsum("mij,kl->mikjl", proj, eye2).reshape(-1, 4, 4)
        projected = full @ rho_sf @ full
        cond = projected.reshape(-1, 2, 2, 2, 2)
        rho_s = np.einsum("mfsft->mst", cond)  # trace out the fragment bit
        prob = np.real(rho_s[:, 0, 0] + rho_s[:, 1, 1])
        half_gap = np.sqrt(
            0.25 * np.real(rho_s[:, 0, 0] - rho_s[:, 1, 1]) ** 2
            + np.abs(rho_s[:, 0, 1]) ** 2
        )
        ok = prob > 1e-12
        lam = np.zeros_like(prob)
        lam[ok] = np.clip((0.5 * prob[ok] + half_gap[ok]) / prob[ok], 0.0, 1.0)
        entropy = np.where(ok, binary_entropy(lam), 0.0)
        avg += prob * entropy
    return float(s_s - np.min(avg))


def quantum_discord(psi: PureState, bs: BranchingState, frag: Fragment) -> float:
    """D = I(S:F) - Holevo(S:F) in bits; ``psi`` must be the dense expansion
    of ``bs``."""
    return mutual_information(psi, frag) - holevo_branching(bs, frag)
