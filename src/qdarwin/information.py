"""Reduced density matrices, entropies, mutual information, Holevo quantity,
quantum discord, and fragment decoherence factors.

All entropies are in bits (base-2 logarithms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .analytics import binary_entropy
from .dynamics import BranchingState, PureState, _ProductState, _site_overlaps
from .model import _integer, _items, _number_array, _sites

_EIG_TOL = 1e-9
_CUT_CACHE_SIZE = 1024
_GRAM_BLOCK_BYTES = 1 << 20  # bound on the state slice a Gram block reads at once
_PLAIN_INT = frozenset((int,))


class NumericalError(ValueError):
    """A computed quantity left its mathematical range beyond tolerance (for
    example a density-matrix spectrum outside [0, 1])."""


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace matrix; positivity is checked where eigenvalues
    are computed."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _number_array(self.matrix, "matrix", complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(m)).real
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"trace must be 1 within 1e-9, got {tr!r}")
        object.__setattr__(self, "matrix", m)


class _CutPlan(NamedTuple):
    """Axis plan of a (keep | rest) cut; see ``_cut``."""

    perm: tuple  # tensor axes: the smaller side's, then the larger side's
    shape: tuple  # (d, D): d rows on the smaller side, D columns on the larger
    on_keep: bool  # whether the rows are the kept qubits


@lru_cache(maxsize=_CUT_CACHE_SIZE)
def _cut(n: int, keep: tuple) -> _CutPlan:
    """Axis plan of the (keep | rest) cut of an n-qubit register.

    Axis a of the amplitude tensor holds qubit n-1-a. The kept axes are
    ordered so that the first kept qubit lands on the least significant bit;
    the traced axes follow in ascending axis order, so the lowest traced qubit
    is the least significant bit and adjacent axes merge without a copy. The
    smaller side (the kept side on a tie) indexes the rows of the cut matrix
    A, whose Gram A A^H has the same nonzero spectrum as the reduced density
    matrix. The plan is geometry only: ``_gram`` and ``_families`` alone read
    ``_GRAM_BLOCK_BYTES``, so a cached plan holds for any budget. ``keep`` may
    hold any integers; ``_sites`` checks and converts them here, once per
    plan. Bad keeps raise on every call (exceptions are not cached).
    """
    keep = _sites(keep, 0, n - 1, "kept qubits")
    kept = [n - 1 - q for q in reversed(keep)]
    rest = [a for a in range(n) if a not in kept]
    on_keep = len(kept) <= len(rest)
    small, large = (kept, rest) if on_keep else (rest, kept)
    return _CutPlan(tuple(small + large), (1 << len(small), 1 << len(large)), on_keep)


def _plan(psi: PureState, keep) -> _CutPlan:
    """The plan of the (keep | rest) cut of ``psi``, from one ``_cut`` lookup.
    The plan cache compares keys by value, so True or 1 + 0j would share the
    checked plan of 1: only a key of plain ints skips the check on a hit."""
    keep = keep if type(keep) is tuple else _items(keep, "kept qubits")
    if not _PLAIN_INT.issuperset(map(type, keep)):
        keep = _sites(keep, 0, psi.n_qubits - 1, "kept qubits")
    return _cut(psi.n_qubits, keep)


def _spectrum(gram: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a complex Hermitian matrix, or of each in a
    stack, from its lower triangle: the LAPACK routine behind
    ``np.linalg.eigvalsh``, so the spectrum is bit-identical, without that
    wrapper's per-call checks and error state. A spectrum that does not
    converge comes back as NaN, not as ``LinAlgError``."""
    return _umath_linalg.eigvalsh_lo(gram, signature="D->d")


def _gram(psi: PureState, plan: _CutPlan) -> np.ndarray:
    """A A^H of the cut matrix A of ``plan``: every entropy and purification
    takes its Gram from here. A state of at most ``_GRAM_BLOCK_BYTES`` takes
    one product of A, a view of the amplitudes whenever the axis order
    allows. A larger state fills only the lower triangle, summed over column
    blocks that each fix the larger side's most significant axes until a
    block holds at most the budget: each block is a slice of the amplitude
    tensor, reshaped (copied if need be) only after slicing, and its product
    is added in row panels of at most the budget, so no temporary is larger
    than one block. A panel multiplies only against the columns up to its
    last row: above the diagonal panels the Gram stays zero, since
    ``_spectrum``, the 2 x 2 spectrum of ``subsystem_entropy`` and the
    ``np.linalg.eigh`` of ``_purification`` read only the lower triangle."""
    tensor = psi.amplitudes.reshape((2,) * psi.n_qubits).transpose(plan.perm)
    if psi.amplitudes.nbytes <= _GRAM_BLOCK_BYTES:
        m = tensor.reshape(plan.shape)
        return m @ m.conj().T
    d, cols = plan.shape
    fixed = 0
    while (1 << fixed) < cols and psi.amplitudes.nbytes >> fixed > _GRAM_BLOCK_BYTES:
        fixed += 1
    panel = max(1, _GRAM_BLOCK_BYTES // (16 * d))
    gram = np.zeros((d, d), dtype=complex)
    for bits in product((0, 1), repeat=fixed):
        a = tensor[(slice(None),) * (d.bit_length() - 1) + bits].reshape(d, cols >> fixed)
        a_h = a.conj().T
        for row in range(0, d, panel):
            end = min(row + panel, d)
            gram[row:end, :end] += a[row:end] @ a_h[:, :end]
    return gram


def _purification(psi: PureState, keep) -> PureState:
    """A pure state on 2f qubits whose reduction onto its bits 0..f-1 is that
    of ``psi`` onto the f qubits ``keep``, in ``_cut``'s row order (the first
    kept qubit on bit 0), so a cut whose smaller side lies in ``keep`` has
    the same entropy on it as on ``psi``. Its amplitudes are V diag(sqrt(lam))
    from the eigendecomposition of the cut's Gram, with the eigenvector index
    on the ancilla bits f..2f-1. ``keep`` must be the smaller side of its cut
    (the kept side on a tie). Raises NumericalError on an eigenvalue below
    -``_EIG_TOL``; those inside the tolerance are clamped to 0, as
    ``_entropy_from_eigenvalues`` clamps them."""
    plan = _plan(psi, keep)
    if not plan.on_keep:
        raise ValueError(f"kept qubits {list(keep)} are the larger side of their cut")
    lam, vecs = np.linalg.eigh(_gram(psi, plan))
    if not lam[0] >= -_EIG_TOL:  # NaN fails too
        raise NumericalError(f"Gram eigenvalue below 0 beyond tolerance: {lam[0]}")
    amps = (vecs * np.sqrt(np.maximum(lam, 0.0))).T.ravel()  # ancilla index on the high bits
    return PureState(2 * (plan.shape[0].bit_length() - 1), amps)


def _families(n: int, keeps) -> tuple:
    """Route the calls ``subsystem_entropy(psi, keep)``, one per keep in
    ``keeps``, on an n-qubit state: each to the state or to the purification
    (``_purification``) of a family of qubits.

    Returns ``(families, routes)``: the families, each a sorted tuple of
    qubits, and one ``(source, keep)`` per call, where source 0 is the state
    and source i the purification of ``families[i - 1]``, and keep names the
    kept qubits on that source. A call moves to a family's purification when
    the smaller side of its cut (the kept side on a tie) lies in the family;
    there its kept qubits are that side, remapped to the family's bits, which
    has the same entropy.

    Only a state larger than one Gram block (``_GRAM_BLOCK_BYTES``) has every
    cut read it block by block, so no smaller state gets a family. Above
    that, the candidates are the calls' smaller sides, and the one with the
    largest saving (c - 1) 2^n - 8^f - c 4^f is taken, where c counts the
    calls not yet moved whose smaller side lies in it: c passes over the
    state become one (its own Gram), one f-qubit eigendecomposition and c
    cuts of a 4^f-amplitude state. This repeats while the saving is positive.
    A cut with nothing on its smaller side takes no pass and never moves.
    """
    routes = [(0, keep) for keep in keeps]
    if 16 << n <= _GRAM_BLOCK_BYTES:
        return (), routes
    every = frozenset(range(n))
    sides = [frozenset(keep) if _cut(n, keep).on_keep else every.difference(keep) for keep in keeps]
    left = [i for i, side in enumerate(sides) if side]
    families = []

    def saving(cand):  # over the calls still left
        c = sum(sides[i] <= cand for i in left)
        return ((c - 1) << n) - 8 ** len(cand) - c * 4 ** len(cand)

    while left:
        best = max(dict.fromkeys(sides[i] for i in left), key=saving)
        if saving(best) <= 0:
            break
        families.append(tuple(sorted(best)))
        bit = {q: j for j, q in enumerate(families[-1])}
        for i in left:
            if sides[i] <= best:
                routes[i] = (len(families), tuple(sorted(bit[q] for q in sides[i])))
        left = [i for i in left if not sides[i] <= best]
    return tuple(families), routes


def reduced_density(psi: PureState, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace of |psi><psi| / ||psi||^2 over every qubit not listed in
    ``keep``, so a state at the edge of its own norm check has unit trace."""
    plan = _plan(psi, keep)
    m = psi.amplitudes.reshape((2,) * psi.n_qubits).transpose(plan.perm).reshape(plan.shape)
    if not plan.on_keep:
        m = m.T  # rows back on the kept qubits
    return DensityMatrix(m @ m.conj().T / psi.norm_sq)


def _entropy_from_eigenvalues(eigs: Sequence[float], top: float = 1.0) -> float:
    """Entropy (bits) of a spectrum of floats in ascending order, as
    ``eigvalsh`` returns it. Raises NumericalError when it leaves [0, top]
    beyond ``_EIG_TOL`` or holds NaN at either end, where ``top`` is the
    trace of the matrix it came from (||psi||^2 for a cut of a pure state);
    eigenvalues inside the tolerance are clamped to [0, 1]."""
    if not (eigs[0] >= -_EIG_TOL and eigs[-1] <= top + _EIG_TOL):  # NaN fails too
        raise NumericalError(f"eigenvalues out of [0, 1] beyond tolerance: {list(eigs)}")
    entropy = 0.0
    for lam in eigs:
        if lam > 0.0:
            lam = lam if lam < 1.0 else 1.0
            entropy -= lam * math.log2(lam)
    return entropy


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr[rho log2 rho] in bits, eigenvalues clamped to [0, 1] before the log."""
    return _entropy_from_eigenvalues(np.linalg.eigvalsh(rho.matrix).tolist())


def subsystem_entropy(psi: PureState, keep: Sequence[int]) -> float:
    """Entropy (bits) of the reduction of a pure state onto ``keep``.

    Computed from the Schmidt spectrum across the (keep | rest) cut, as the
    spectrum of the d x d Gram matrix on whichever side is smaller; identical
    to the entropy of the literal reduced density matrix. Each cut does only
    the work its d needs:

    - d = 1 (keep nothing, or every qubit), or a product state from
      ``dense_product_state``: 0.0, since such a reduction of a pure state
      is pure (``PureState`` has checked the norm); no pass over the state.
    - d = 2 (one qubit on the smaller side): the 2 x 2 Gram, whose spectrum
      mid -+ hypot((a - c) / 2, |b|), mid = (a + c) / 2, is taken in floats
      from its diagonal a, c and lower off-diagonal entry b.
    - d >= 4: the spectrum of the Gram straight from LAPACK (``_spectrum``,
      the routine ``eigvalsh`` calls, without its per-call checks); a
      spectrum that does not converge comes back as NaN and raises
      NumericalError.

    The spectrum must lie in [0, ||psi||^2] (``PureState.norm_sq``) within
    ``_EIG_TOL``, so a state at the edge of its own norm check passes.

    The Gram comes from ``_gram``: a state larger than
    ``_GRAM_BLOCK_BYTES`` has its lower triangle summed block by block, so
    the cut never copies the whole state.
    """
    plan = _plan(psi, keep)  # checks the keep, whatever the state
    d = plan.shape[0]
    if d == 1 or type(psi) is _ProductState:
        return 0.0
    gram = _gram(psi, plan)
    if d > 2:
        return _entropy_from_eigenvalues(_spectrum(gram).tolist(), psi.norm_sq)
    (a, _), (b, c) = gram.tolist()
    mid = 0.5 * (a.real + c.real)
    half_gap = math.hypot(0.5 * (a.real - c.real), abs(b))
    return _entropy_from_eigenvalues((mid - half_gap, mid + half_gap), psi.norm_sq)


def mutual_information(psi: PureState, frag: Sequence[int]) -> float:
    """I(S:F) = S_S + S_F - S_SF in bits for the system qubit and a fragment."""
    sites = _sites(frag, 1, psi.n_qubits - 1, "fragment sites")
    s_s = subsystem_entropy(psi, (0,))
    s_f = subsystem_entropy(psi, sites)
    s_sf = subsystem_entropy(psi, (0, *sites))
    return s_s + s_f - s_sf


def fragment_decoherence_factor(bs: BranchingState, frag: Sequence[int]) -> complex:
    """Product of the branch overlaps over the fragment's sites."""
    return bs.overlap(_sites(frag, 1, bs.n_env, "fragment sites"))


def _rank2_entropy(weight, x) -> np.ndarray:
    """Entropy (bits) of a rank-<=2 reduction of a branching state, whose
    eigenvalues are (1 +- sqrt(1 - 4 w x)) / 2 with w = |alpha0|^2 |beta0|^2,
    for numpy ``weight`` and ``x`` that broadcast. Raises NumericalError when
    the radicand 1 - 4 w x leaves [0, 1] beyond ``_EIG_TOL``; inside it, the
    radicand is clamped to [0, 1].

    x = 1 - |Gamma|^2 gives the entropy of a block whose two branch components
    have squared overlap |Gamma|^2; x = |Gamma_F|^2 - |Gamma|^2 gives the
    conditional term of the Holevo quantity.
    """
    radicand = 1.0 - 4.0 * weight * x
    lo, hi = radicand.min(), radicand.max()
    if not (lo >= -_EIG_TOL and hi <= 1.0 + _EIG_TOL):  # NaN fails too
        raise NumericalError(f"radicand 1 - 4wx out of [0, 1] beyond tolerance: [{lo}, {hi}]")
    return binary_entropy(0.5 * (1.0 + np.sqrt(np.clip(radicand, 0.0, 1.0))))


def _subset_mean(values: np.ndarray) -> np.ndarray:
    """Mean of an (R, S, T, F) table over its S subsets: a running sum in subset
    order, then / S, so a cell's bytes do not depend on the grid's shape."""
    return np.add.accumulate(values, axis=1)[:, -1] / values.shape[1]


def _closed_form_tables(coeffs, fields, times, masks):
    """Exact entropies and Holevo quantity of R branching evolutions,
    vectorized over realizations, times, fragment columns and subsets.

    ``coeffs`` holds each realization's initial pairs, the system's first,
    shape (R, N + 1, 2), and w = |alpha0|^2 |beta0|^2 is read off the first;
    ``fields`` the couplings, shape (R, N). ``masks`` is a boolean table of
    shape (R, F, S, N): ``masks[r, f, s, k]`` marks environment site k + 1 as
    part of subset s of column f. Returns S_S (R, T), every subset's S_F and
    S_SF (R, S, T, F), and the Holevo quantity averaged over them (R, T, F).

    Uses the rank-<=2 structure of every reduction of a branching state: the
    entropy of the system, fragment, and system+fragment blocks depends only
    on the squared branch overlaps of the environment, the fragment, and the
    fragment's complement (the last via purity of the global state).
    """
    gam = _site_overlaps(coeffs[:, 1:], fields, times)  # (R, T, N)
    # the scalar abs: np.abs on complex arrays rounds differently
    weight = np.array([abs(a) ** 2 * abs(b) ** 2 for a, b in coeffs[:, 0]])[:, None]  # (R, 1)
    g_env_sq = np.abs(np.prod(gam, axis=-1)) ** 2
    s_sys = _rank2_entropy(weight, 1.0 - g_env_sq)

    # Each overlap product multiplies in its chosen sites one at a time, in
    # site order, into an (R, S, T, F) accumulator; an unchosen site is skipped,
    # which rounds as multiplying by an exact 1, so every cell rounds as the
    # product of its own sites whatever the realization count.
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
    return s_sys, s_frag, s_joint, _subset_mean(s_sys[:, None, :, None] - s_cond)


def holevo_branching(bs: BranchingState, frag: Sequence[int]) -> float:
    """Holevo quantity (bits) of a fragment of a singly-branching state.

    Closed form in the squared overlaps of the full environment and of the
    fragment; exact for branching states (checked against the measurement
    oracle below for single-site fragments).
    """
    sites = _sites(frag, 1, bs.n_env, "fragment sites")
    mask = np.isin(np.arange(1, bs.n_env + 1), sites)[None, None, None]
    coeffs = np.concatenate([[[bs.alpha0, bs.beta0]], bs.site_coeffs])
    *_, chi = _closed_form_tables(coeffs[None], bs.fields[None], np.array([bs.time]), mask)
    return float(chi[0, 0, 0])


def holevo_grid_oracle(psi: PureState, frag: Sequence[int], resolution: int = 64) -> float:
    """Variational Holevo quantity for a single-site fragment, minimizing the
    post-measurement system entropy over a grid of projective measurements.

    The grid covers Bloch directions (theta_k, phi_l) with theta at the
    ``resolution`` midpoints of [0, pi] and phi at ``2 * resolution`` points
    of [0, 2*pi); the result is a lower bound on the true Holevo quantity.
    """
    sites = _sites(frag, 1, psi.n_qubits - 1, "fragment sites")
    if len(sites) != 1:
        raise ValueError(f"the measurement oracle handles single-site fragments, got {sites}")
    resolution = _integer(resolution, "resolution")
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


def quantum_discord(psi: PureState, bs: BranchingState, frag: Sequence[int]) -> float:
    """D = I(S:F) - Holevo(S:F) in bits; ``psi`` must be the dense expansion
    of ``bs``."""
    return mutual_information(psi, frag) - holevo_branching(bs, frag)
