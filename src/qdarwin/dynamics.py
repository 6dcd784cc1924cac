"""Exact pure-state evolution: analytic branching form, diagonal fast path,
and a dense spectral fallback.

The diagonal path builds its energies by bit doubling in O(2^n). The dense
path builds the full H but diagonalizes it block by block: each block holds
the basis states that share the bits no term of the instance flips, read
from its x and y terms with no scan of H, so a z-only environment coupled to
a transverse system gives 2x2 blocks.

The three engines agree on their common domain. Global phase is never
normalized away; comparisons should align phases first (see
``align_global_phase``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import ModelInstance, _as_rng, hamiltonian_matrix

DIAGONAL_MAX_QUBITS = 26  # memory guardrail for the phase-vector engine


@dataclass(frozen=True)
class PureState:
    """Complex amplitude vector over the computational basis (qubit 0 = LSB).

    A complex128 ndarray is held as given, without a copy: the state shares
    its buffer with the caller, who must not write to it afterwards. Any
    other input (a list, a real or other-dtype array) is converted to a new
    complex128 array. ``norm_sq`` is ||psi||^2 from the norm check, within
    2e-9 of 1.
    """

    n_qubits: int
    amplitudes: np.ndarray
    norm_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state is not normalized: ||psi|| = {norm!r}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "norm_sq", norm * norm)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


def _check_site_norms(coeffs: np.ndarray) -> None:
    """Raise unless every (a, b) row satisfies |a|^2 + |b|^2 = 1 within 1e-12."""
    norms = np.abs(coeffs[:, 0]) ** 2 + np.abs(coeffs[:, 1]) ** 2
    if norms.size and np.max(np.abs(norms - 1.0)) > 1e-12:
        raise ValueError("every site must satisfy |a|^2 + |b|^2 = 1 within 1e-12")


@dataclass(frozen=True)
class ProductCoeffs:
    """Per-site (amplitude on |0>, amplitude on |1>) pairs of a product state."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim != 2 or coeffs.shape[1] != 2 or coeffs.shape[0] < 1:
            raise ValueError(f"expected shape (n_sites, 2), got {coeffs.shape}")
        _check_site_norms(coeffs)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n_sites(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True)
class BranchingState:
    """Singly-branching state in analytic form.

    The state is ``alpha0 |0> (x) prod_i branch0_i(t) + beta0 |1> (x) prod_i
    branch1_i(t)`` where, for a site with initial coefficients (a, b) and
    coupling B, the branch attached to the system's |0> is
    ``(a e^{-iBt}, b e^{+iBt})`` and the branch attached to |1> is its phase
    conjugate. This is the solution of i d/dt psi = H psi for
    H = sigma_z_0 (x) sum_i B_i sigma_z_i under the shared sign conventions,
    and gives the site overlap <branch1|branch0> = |a|^2 e^{-2iBt}
    + |b|^2 e^{+2iBt}.
    """

    alpha0: complex
    beta0: complex
    site_coeffs: np.ndarray
    fields: np.ndarray
    time: float

    def __post_init__(self):
        a0 = complex(self.alpha0)
        b0 = complex(self.beta0)
        if abs(abs(a0) ** 2 + abs(b0) ** 2 - 1.0) > 1e-12:
            raise ValueError("(alpha0, beta0) must be normalized within 1e-12")
        coeffs = np.array(self.site_coeffs, dtype=complex)
        if coeffs.ndim != 2 or coeffs.shape[1] != 2:
            raise ValueError(f"site_coeffs must have shape (N, 2), got {coeffs.shape}")
        fields = np.array(self.fields, dtype=float)
        if fields.shape != (coeffs.shape[0],):
            raise ValueError("fields must hold one coupling per environment site")
        _check_site_norms(coeffs)
        t = float(self.time)
        if not np.isfinite(t) or t < 0:
            raise ValueError(f"time must be finite and >= 0, got {t}")
        object.__setattr__(self, "alpha0", a0)
        object.__setattr__(self, "beta0", b0)
        object.__setattr__(self, "site_coeffs", coeffs)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "time", t)

    @property
    def n_env(self) -> int:
        return self.site_coeffs.shape[0]

    def site_overlap(self, site: int) -> complex:
        """Overlap of the two branch states at one environment site (1-based)."""
        return self.overlap([site])

    def overlap(self, sites: Sequence[int] | None = None) -> complex:
        """Product of site overlaps over ``sites`` (default: full environment)."""
        if sites is None:
            sites = range(1, self.n_env + 1)
        idx = np.array([int(s) for s in sites], dtype=int) - 1
        if np.any((idx < 0) | (idx >= self.n_env)):
            raise ValueError(f"sites {(idx + 1).tolist()} out of range 1..{self.n_env}")
        gam = _site_overlaps(self.site_coeffs[idx], self.fields[idx], np.array([self.time]))
        return complex(np.prod(gam[0]))

    def branch_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-site branch kets attached to system |0> and |1>, shape (N, 2) each."""
        phase = np.exp(-1j * self.fields * self.time)
        branch0 = np.empty_like(self.site_coeffs)
        branch0[:, 0] = self.site_coeffs[:, 0] * phase
        branch0[:, 1] = self.site_coeffs[:, 1] * np.conj(phase)
        branch1 = np.empty_like(branch0)
        branch1[:, 0] = self.site_coeffs[:, 0] * np.conj(phase)
        branch1[:, 1] = self.site_coeffs[:, 1] * phase
        return branch0, branch1


def _site_overlaps(site_coeffs: np.ndarray, fields: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Branch overlaps |a|^2 e^{-2iBt} + |b|^2 e^{+2iBt} of every site at every
    time, shape (..., T, N), for per-site coefficients (a, b) of shape
    (..., N, 2) and couplings B of shape (..., N)."""
    a2 = np.abs(site_coeffs[..., 0]) ** 2
    b2 = np.abs(site_coeffs[..., 1]) ** 2
    phases = np.exp(-2j * (times[:, None] * fields[..., None, :]))
    return a2[..., None, :] * phases + b2[..., None, :] * np.conj(phases)


def random_product_state(n_qubits: int, seed) -> ProductCoeffs:
    """Draw a product state site by site: |a|^2 uniform on [0, 1], the phases
    of both amplitudes independent uniform on [0, 2*pi). Deterministic in
    ``seed``; per-site draw order is (weight, phase of a, phase of b)."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    rng = _as_rng(seed)
    draws = rng.random((n_qubits, 3))  # per site: weight, phase of a, phase of b
    u = draws[:, :1]
    return ProductCoeffs(np.sqrt(np.hstack([u, 1.0 - u])) * np.exp(2j * np.pi * draws[:, 1:]))


def evolve_branching(init: ProductCoeffs, fields, t: float) -> BranchingState:
    """Evolve a separable state under pure system-environment dephasing.

    ``init`` holds the system site first, then one pair per environment site;
    ``fields`` holds the coupling of each environment site to the system.
    """
    fields = np.asarray(fields, dtype=float)
    if init.n_sites != fields.shape[0] + 1:
        raise ValueError(
            f"init has {init.n_sites} sites but fields has {fields.shape[0]} entries"
        )
    return BranchingState(
        alpha0=init.coeffs[0, 0],
        beta0=init.coeffs[0, 1],
        site_coeffs=init.coeffs[1:],
        fields=fields,
        time=t,
    )


def _kron_sites(vectors: np.ndarray) -> np.ndarray:
    """Kronecker product of per-site kets with site 1 on the least significant bit."""
    out = np.ones(1, dtype=complex)
    for v in vectors[::-1]:
        out = np.kron(out, v)
    return out


def branching_to_dense(bs: BranchingState) -> PureState:
    """Expand the analytic branching form into a full amplitude vector."""
    branch0, branch1 = bs.branch_vectors()
    k0 = _kron_sites(branch0)
    k1 = _kron_sites(branch1)
    amps = np.empty(2 * k0.shape[0], dtype=complex)
    amps[0::2] = bs.alpha0 * k0
    amps[1::2] = bs.beta0 * k1
    return PureState(bs.n_env + 1, amps)


def dense_product_state(coeffs: ProductCoeffs) -> PureState:
    """Amplitude vector of a product state (site k on bit k)."""
    return PureState(coeffs.n_sites, _kron_sites(coeffs.coeffs))


def align_global_phase(state: PureState, reference: PureState) -> PureState:
    """Rotate the global phase of ``state`` so that it matches ``reference``
    on the reference's largest-magnitude amplitude."""
    if state.n_qubits != reference.n_qubits:
        raise ValueError("states must live on the same register")
    k = int(np.argmax(np.abs(reference.amplitudes)))
    a = state.amplitudes[k]
    if abs(a) == 0.0:
        return state
    factor = reference.amplitudes[k] / a
    factor /= abs(factor)
    return PureState(state.n_qubits, state.amplitudes * factor)


class DensePropagator:
    """exp(-iHt) through Hermitian eigendecompositions, reusable for many t.

    A qubit that no term of the instance flips (no x or y field on it, no x
    or y factor on it in any coupling) keeps its bit under H, so the basis
    states that share those bits form a block of H. The blocks come from the
    instance's terms, with no scan of H, and are diagonalized in one batched
    ``eigh``: 2x2 blocks for a z-only environment coupled to a transverse
    system, 1x1 blocks (H's diagonal) for a z-only H, one block (H itself)
    when every qubit is flipped. When the flipped qubits are the lowest bits,
    each block is a run of consecutive basis states and no permutation is
    applied. Exact for the time-independent Hamiltonians built here;
    unitarity holds to the accuracy of the factorization.
    """

    def __init__(self, instance: ModelInstance):
        self.n_qubits = instance.n_qubits
        flipped = instance.flip_mask()
        # group the basis states by their never-flipped bits; the stable sort
        # keeps the flipped bits counting up inside each group, so row b of
        # ``blocks`` lists the states of block b
        order = np.argsort(np.arange(1 << self.n_qubits) & ~flipped, kind="stable")
        blocks = order.reshape(-1, 1 << bin(flipped).count("1"))
        # with the flipped qubits on the lowest bits every block is a run of
        # consecutive states, the order is the identity and evolve skips it
        self._order = self._inverse = None
        if flipped & (flipped + 1):
            self._order, self._inverse = order, np.argsort(order)
        h = hamiltonian_matrix(instance)
        if blocks.shape[0] > 1:
            # a copy, so H is released before ``eigh`` allocates; holding it
            # through ``eigh`` raised the peak memory of CODI sweeps by 3 MiB
            h = h[blocks[:, :, None], blocks[:, None, :]]
        else:
            h = h[None]  # one block in the original order: a view, not a copy
        self._energies, self._modes = np.linalg.eigh(h)
        del h  # release H before the conjugate modes are made
        self._modes_h = np.empty_like(self._modes)
        np.conjugate(self._modes.transpose(0, 2, 1), out=self._modes_h)

    def evolve(self, state: PureState, t: float) -> PureState:
        if state.n_qubits != self.n_qubits:
            raise ValueError("state size does not match the propagator")
        amps = state.amplitudes
        if self._order is not None:
            amps = amps[self._order]
        coeffs = _apply_blocks(self._modes_h, amps.reshape(self._energies.shape))
        coeffs *= np.exp(-1j * self._energies * float(t))
        out = _apply_blocks(self._modes, coeffs).ravel()
        if self._inverse is not None:
            out = out[self._inverse]
        return PureState(self.n_qubits, out)


def _apply_blocks(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Each matrix of a (K, s, s) stack times its row of a (K, s) array.

    For s <= 4 einsum's one loop beats matmul's per-block BLAS calls (about
    2x at s = 2); from s = 8 up matmul wins, by 2-3x at s = 512 (one
    OpenBLAS thread, 512 and 4096 states).
    """
    if matrices.shape[-1] <= 4:
        return np.einsum("kij,kj->ki", matrices, vectors)
    return (matrices @ vectors[:, :, None])[:, :, 0]


def evolve_dense(instance: ModelInstance, psi0: PureState, t: float) -> PureState:
    """One-shot dense evolution; build a DensePropagator to reuse the factorization."""
    return DensePropagator(instance).evolve(psi0, t)


class DiagonalPropagator:
    """Phase evolution for instances whose Hamiltonian is diagonal (z-only).

    The energies are built by bit doubling, so no matrix is ever
    materialized and the build is O(2^n); the register may hold up to 26
    qubits. When qubit k joins, the energies of the 2^k states of qubits
    below it gain s_k * (h_k + sum_{i<k} J_ik s_i), a local field that is
    itself bit-doubled from its own lower half.
    """

    def __init__(self, instance: ModelInstance):
        if not instance.is_z_only():
            raise ValueError("non-diagonal instance: couplings or fields off the z axis")
        n_qubits = instance.n_qubits
        if n_qubits > DIAGONAL_MAX_QUBITS:
            raise ValueError(
                f"{n_qubits} qubits exceeds the diagonal-engine cap of {DIAGONAL_MAX_QUBITS}"
            )
        self.n_qubits = n_qubits
        dim = 1 << n_qubits
        energies = np.zeros(dim)
        local = np.empty(dim >> 1)
        for k in range(n_qubits):
            half = 1 << k
            field = local[:half]
            field[0] = instance.fields[k, 2]
            for i in range(k):
                size = 1 << i
                coupling = instance.j_tensor[i, k, 2, 2]
                np.subtract(field[:size], coupling, out=field[size : 2 * size])
                field[:size] += coupling
            # s_k = +1 on the lower half (bit k clear), -1 on the upper
            np.subtract(energies[:half], field, out=energies[half : 2 * half])
            energies[:half] += field
        self._energies = energies

    def evolve(self, state: PureState, t: float) -> PureState:
        if state.n_qubits != self.n_qubits:
            raise ValueError("state size does not match the propagator")
        # one fresh array: the phases, then the evolved amplitudes in place
        # (amps * phase in that operand order, which fixes the rounding)
        phase = np.multiply(-1j * float(t), self._energies)
        np.exp(phase, out=phase)
        np.multiply(state.amplitudes, phase, out=phase)
        return PureState(self.n_qubits, phase)


def evolve_diagonal(instance: ModelInstance, psi0: PureState, t: float) -> PureState:
    """One-shot diagonal evolution; build a DiagonalPropagator to reuse the phases."""
    return DiagonalPropagator(instance).evolve(psi0, t)
