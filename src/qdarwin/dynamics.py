"""Exact pure-state evolution: analytic branching form, diagonal fast path,
and a dense spectral fallback.

The diagonal path reads its energies from the z-diagonal of H's flip-diagonal
form in O(2^n). The dense path builds and diagonalizes only H's blocks: each
block holds the basis states that share the bits no term of the instance
flips, read from its x and y terms with no scan of H, so a z-only environment
coupled to a transverse system gives 2x2 blocks.

The three engines agree on their common domain. Global phase is never
normalized away; comparisons should align phases first (see
``align_global_phase``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import ModelInstance, _as_rng, _integer, _number_array, _positive_integer, _real, _sites

# engine cap: no engine array above 2^26 complex entries (1 GiB), so a
# 26-qubit state and 4^13 entries of H's blocks (the 13-qubit matrix)
_ENGINE_MAX_ENTRIES = 1 << 26


@dataclass(frozen=True)
class PureState:
    """Complex amplitude vector over the computational basis (qubit 0 = LSB).

    A complex128 ndarray is held as given, without a copy: the state shares
    its buffer with the caller, who must not write to it afterwards. Any
    other input (a list, a real or other-dtype array) must hold finite
    numbers only and is converted to a new complex128 array. ``norm_sq`` is
    ||psi||^2 from the norm check, within 2e-9 of 1; a NaN norm fails it.
    """

    n_qubits: int
    amplitudes: np.ndarray
    norm_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_qubits = _integer(self.n_qubits, "n_qubits")
        amps = self.amplitudes
        if type(amps) is not np.ndarray or amps.dtype != complex:
            amps = _number_array(amps, "amplitudes", complex)
        if amps.shape != (1 << n_qubits,):
            raise ValueError(f"expected {1 << n_qubits} amplitudes, got shape {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"state is not normalized: ||psi|| = {norm!r}")
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "norm_sq", norm * norm)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


class _ProductState(PureState):
    """A ``PureState`` whose amplitudes are a product of one-qubit kets, so
    every reduction of it is pure and every subsystem entropy is 0. Only
    ``dense_product_state`` makes one."""


def _check_site_norms(coeffs: np.ndarray) -> None:
    """Raise unless every (a, b) row satisfies |a|^2 + |b|^2 = 1 within 1e-12."""
    norms = np.abs(coeffs[:, 0]) ** 2 + np.abs(coeffs[:, 1]) ** 2
    if np.max(np.abs(norms - 1.0)) > 1e-12:
        raise ValueError("every site must satisfy |a|^2 + |b|^2 = 1 within 1e-12")


@dataclass(frozen=True)
class ProductCoeffs:
    """Per-site (amplitude on |0>, amplitude on |1>) pairs of a product state."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _number_array(self.coeffs, "coeffs", complex)
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
        system = _number_array([[self.alpha0, self.beta0]], "alpha0, beta0", complex)
        coeffs = _number_array(self.site_coeffs, "site_coeffs", complex)
        if coeffs.ndim != 2 or coeffs.shape[1] != 2:
            raise ValueError(f"site_coeffs must have shape (N, 2), got {coeffs.shape}")
        fields = _number_array(self.fields, "fields")
        if fields.shape != (coeffs.shape[0],):
            raise ValueError("fields must hold one coupling per environment site")
        _check_site_norms(np.concatenate([system, coeffs]))  # the system's pair too
        t = _real(self.time, "time")
        if t < 0:
            raise ValueError(f"time must be finite and >= 0, got {t}")
        object.__setattr__(self, "alpha0", system[0, 0].item())
        object.__setattr__(self, "beta0", system[0, 1].item())
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
        idx = np.array(_sites(sites, 1, self.n_env, "sites"), dtype=int) - 1
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
    (..., N, 2) and couplings B of shape (..., N); exactly 1 at t = 0."""
    a2 = np.abs(site_coeffs[..., 0]) ** 2
    b2 = np.abs(site_coeffs[..., 1]) ** 2
    phases = np.exp(-2j * (times[:, None] * fields[..., None, :]))
    overlaps = a2[..., None, :] * phases + b2[..., None, :] * np.conj(phases)
    return np.where(times[:, None] == 0, 1.0, overlaps)


def random_product_state(n_qubits: int, seed) -> ProductCoeffs:
    """Draw a product state site by site: |a|^2 uniform on [0, 1], the phases
    of both amplitudes independent uniform on [0, 2*pi). Deterministic in
    ``seed``; per-site draw order is (weight, phase of a, phase of b)."""
    n_qubits = _positive_integer(n_qubits, "n_qubits")
    rng = _as_rng(seed)
    draws = rng.random((n_qubits, 3))  # per site: weight, phase of a, phase of b
    u = draws[:, :1]
    return ProductCoeffs(np.sqrt(np.hstack([u, 1.0 - u])) * np.exp(2j * np.pi * draws[:, 1:]))


def evolve_branching(init: ProductCoeffs, fields, t: float) -> BranchingState:
    """Evolve a separable state under pure system-environment dephasing.

    ``init`` holds the system site first, then one pair per environment site;
    ``fields`` holds the coupling of each environment site to the system.
    """
    return BranchingState(alpha0=init.coeffs[0, 0], beta0=init.coeffs[0, 1],
                          site_coeffs=init.coeffs[1:], fields=fields, time=t)


_PRODUCT_CHUNK_ROWS = 4096  # rows of _product_into's one temporary: 64 KiB


def _product_into(out: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Write the product of per-site kets into ``out`` (2^n entries, may be a
    strided view), row 0 of ``vectors`` on the least significant bit.

    Site doubling from the most significant site: the 2^m partial products
    in out[:2^m] become out[:2^(m+1)], entry 2i + b = partial[i] * v[b]. That
    is the multiply ``np.kron`` makes, with the same broadcast operands, so
    the bytes are ``np.kron``'s. Rows go from the top down, each chunk read
    through one bounded copy before its entries are overwritten.
    """
    out[0] = 1.0
    chunk = np.empty((min(_PRODUCT_CHUNK_ROWS, out.shape[0] >> 1), 1), dtype=complex)
    size = 1
    for v in vectors[::-1]:
        for hi in range(size, 0, -_PRODUCT_CHUNK_ROWS):
            lo = max(hi - _PRODUCT_CHUNK_ROWS, 0)
            rows = chunk[: hi - lo]
            np.copyto(rows[:, 0], out[lo:hi])
            np.multiply(rows, v[None, :], out=out[2 * lo : 2 * hi].reshape(-1, 2))
        size *= 2
    return out


def branching_to_dense(bs: BranchingState) -> PureState:
    """Expand the analytic branching form into a full amplitude vector, each
    branch built in place in the amplitudes whose system bit it holds, then
    scaled by its system coefficient."""
    amps = np.empty(2 << bs.n_env, dtype=complex)
    for bit, (coeff, branch) in enumerate(zip((bs.alpha0, bs.beta0), bs.branch_vectors())):
        half = _product_into(amps[bit::2], branch)
        np.multiply(coeff, half, out=half)  # coeff first: `half *= coeff` may round differently
    return PureState(bs.n_env + 1, amps)


def dense_product_state(coeffs: ProductCoeffs) -> PureState:
    """Amplitude vector of a product state (site k on bit k), built in place
    in its one 2^n buffer, with no per-site Kronecker intermediates; its
    entropies are 0 with no spectrum taken."""
    amps = np.empty(1 << coeffs.n_sites, dtype=complex)
    return _ProductState(coeffs.n_sites, _product_into(amps, coeffs.coeffs))


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


def _flip_diagonals(instance: ModelInstance) -> dict:
    """H as {flip mask f: diagonal D_f} with H = sum_f D_f X^f, that is
    H[b ^ f, b] = D_f[b].

    D_0, the real z-diagonal, is bit-doubled in O(2^n): when qubit k joins,
    the energies of the 2^k states below it gain s_k * (h_k + sum_{i<k} J_ik s_i),
    a local field bit-doubled from its own lower half. A term with an x or y
    factor is a signed permutation (sigma_x flips a bit, sigma_y flips with
    phase +-i, sigma_z applies +-1) and adds its phase into D_f. The phase is
    formed in place in one array, with no basis index array: a y factor
    multiplies it by i, and a y or z factor on qubit k negates its half whose
    bit k is set, both exact. It is added into D_f in place, or becomes a new
    D_f as 0 + phase, which turns the -0s of a negation into the +0s of a sum.
    """
    dim = 1 << instance.n_qubits
    if dim > _ENGINE_MAX_ENTRIES:
        raise ValueError(f"n_env: {dim} amplitudes exceed the engine cap of {_ENGINE_MAX_ENTRIES}")
    energies = np.zeros(dim)
    local = np.empty(dim >> 1)
    for k in range(instance.n_qubits):
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
    diagonals = {0: energies}
    terms = [(instance.j_tensor[i, j, a, b], ((i, a), (j, b)))
             for i, j, a, b in zip(*np.nonzero(instance.j_tensor)) if min(a, b) < 2]
    terms += [(instance.fields[site, c], ((site, c),))
              for site, c in zip(*np.nonzero(instance.fields[:, :2]))]
    for coeff, factors in terms:
        flip, phase = 0, np.full(dim, coeff, dtype=complex)
        for site, axis in factors:
            flip ^= int(axis < 2) << site  # x and y flip the bit
            if axis == 1:
                phase *= 1j
            if axis:  # y and z negate the states with the bit set
                phase.reshape(-1, 2, 1 << site)[:, 1] *= -1
        if flip in diagonals:
            diagonals[flip] += phase
        else:  # 0 + phase turns a -0 the sign flips leave into +0
            diagonals[flip] = np.add(0, phase, out=phase)
    return diagonals


def _block_axes(n_qubits: int, flipped: int) -> tuple:
    """Axis order of the amplitude tensor, ``amplitudes.reshape((2,) * n)``
    with axis a on qubit n-1-a as in ``information._cut``, that puts the axes
    of the ``flipped`` qubits last. A (K, s) reshape of the tensor so
    transposed has one block of H per row: row k holds the states whose
    never-flipped bits, packed, read k, each at the column its flipped bits,
    packed, read. Rows and columns both count up with the basis index."""
    is_flipped = [(flipped >> (n_qubits - 1 - a)) & 1 for a in range(n_qubits)]
    return tuple(sorted(range(n_qubits), key=is_flipped.__getitem__))


def hamiltonian_matrix(instance: ModelInstance, blocked: bool = False) -> np.ndarray:
    """Dense Hermitian matrix of the instance, or the stack of its blocks.

    ``blocked`` gives the (K, s, s) stack of H's blocks in the layout of
    ``_block_axes`` over ``flip_mask()``: block k, between the states of row
    k, scattered from the flip-diagonal form without the full H. A pattern f
    lies inside the mask, so it maps column c of a row to column c ^ f', f'
    being f's bits packed onto the flipped qubits. ValueError, before any
    array of the register's size exists: K * s^2 above the engine cap.
    """
    n = instance.n_qubits
    flipped = instance.flip_mask() if blocked else (1 << n) - 1
    sites = [q for q in range(n) if (flipped >> q) & 1]
    s = 1 << len(sites)
    k = (1 << n) // s
    if k * s * s > _ENGINE_MAX_ENTRIES:
        raise ValueError(
            f"n_env: {k * s * s} entries of H exceed the engine cap of {_ENGINE_MAX_ENTRIES}"
        )
    axes, cols = _block_axes(n, flipped), np.arange(s)
    h = np.zeros((k, s, s), dtype=complex)
    for flip, diagonal in _flip_diagonals(instance).items():
        packed = sum(((flip >> q) & 1) << j for j, q in enumerate(sites))
        h[:, cols ^ packed, cols] = diagonal.reshape((2,) * n).transpose(axes).reshape(k, s)
    return h if blocked else h[0]


class DensePropagator:
    """exp(-iHt) through Hermitian eigendecompositions, reusable for many t.

    A qubit that no term of the instance flips (no x or y field on it, no x
    or y factor on it in any coupling) keeps its bit under H, so the basis
    states that share those bits form a block of H. The blocks come from the
    instance's terms, with no scan of H; only they are built, never the full
    H, and one batched ``eigh`` diagonalizes them: 2x2 blocks (up to 25
    qubits) for a z-only environment coupled to a transverse system, 1x1
    blocks for a z-only H, one block (H itself, up to 13 qubits) when every
    qubit is flipped. The state's blocks are one transpose of its amplitude
    tensor, the layout of ``_block_axes`` that ``hamiltonian_matrix``
    builds H's blocks in; for CODI's flipped system qubit it is a view.
    The propagator holds the energies and the modes M and nothing else: the
    adjoint is applied as conj(M^T conj(v)), M's indices swapped in einsum,
    so no conjugate copy of the modes is ever made, and ``evolve`` holds at
    most two state-sized temporaries at once.
    Exact for the time-independent Hamiltonians built here;
    unitarity holds to the accuracy of the factorization.
    """

    def __init__(self, instance: ModelInstance):
        self.n_qubits = instance.n_qubits
        self._axes = _block_axes(self.n_qubits, instance.flip_mask())
        self._axes_back = tuple(np.argsort(self._axes).tolist())
        self._energies, self._modes = np.linalg.eigh(hamiltonian_matrix(instance, blocked=True))

    def evolve(self, state: PureState, t: float) -> PureState:
        """The state exp(-iHt) psi; at t = 0 that is ``state`` itself."""
        if state.n_qubits != self.n_qubits:
            raise ValueError("state size does not match the propagator")
        t = _real(t, "t")
        if t == 0.0:
            return state
        tensor = (2,) * self.n_qubits
        blocks = state.amplitudes.reshape(tensor).transpose(self._axes)
        # M^H v as conj(M^T conj(v)), so no adjoint of the modes is held; einsum
        # is ~2x matmul at s = 2, the only block size a sweep reaches, and at
        # s >= 8 matmul saves 0.05-1.7 % of the blocks' eigh per evolve
        coeffs = np.einsum("kji,kj->ki", self._modes, blocks.reshape(self._energies.shape).conj())
        np.conjugate(coeffs, out=coeffs)
        coeffs *= _phases(self._energies, t)
        # rebound, so the coefficients are freed before ravel copies a permuted layout
        coeffs = np.einsum("kij,kj->ki", self._modes, coeffs)
        coeffs = coeffs.reshape(tensor).transpose(self._axes_back)
        return PureState(self.n_qubits, coeffs.ravel())


def _phases(energies: np.ndarray, t: float) -> np.ndarray:
    """exp(-iEt) of each energy, in one fresh array; both engines' phases."""
    phase = np.multiply(-1j * t, energies)
    return np.exp(phase, out=phase)


def evolve_dense(instance: ModelInstance, psi0: PureState, t: float) -> PureState:
    """One-shot dense evolution; build a DensePropagator to reuse the factorization."""
    return DensePropagator(instance).evolve(psi0, t)


class DiagonalPropagator:
    """Phase evolution for instances whose Hamiltonian is diagonal (z-only).

    The energies are the z-diagonal of the instance's flip-diagonal form,
    built in O(2^n) with no matrix; the register may hold up to 26 qubits,
    the engine cap of 2^26 entries.
    """

    def __init__(self, instance: ModelInstance):
        if not instance.is_z_only():
            raise ValueError("non-diagonal instance: couplings or fields off the z axis")
        self.n_qubits = instance.n_qubits
        self._energies = _flip_diagonals(instance)[0]

    def evolve(self, state: PureState, t: float) -> PureState:
        """The state exp(-iHt) psi; at t = 0 that is ``state`` itself."""
        if state.n_qubits != self.n_qubits:
            raise ValueError("state size does not match the propagator")
        t = _real(t, "t")
        if t == 0.0:
            return state
        # the evolved amplitudes overwrite the phases (amps * phase in that
        # operand order, which fixes the rounding)
        phase = _phases(self._energies, t)
        np.multiply(state.amplitudes, phase, out=phase)
        return PureState(self.n_qubits, phase)


def evolve_diagonal(instance: ModelInstance, psi0: PureState, t: float) -> PureState:
    """One-shot diagonal evolution; build a DiagonalPropagator to reuse the phases."""
    return DiagonalPropagator(instance).evolve(psi0, t)
