"""Shared test utilities: independent oracles and state builders."""

import string

import numpy as np

import qdarwin as q
from qdarwin.dynamics import _flip_diagonals  # bound here, so a test may patch dynamics' name

PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

AXES = "xyz"


def kron_pauli(n_qubits, ops):
    """Pauli string by explicit Kronecker products (qubit 0 least significant)."""
    out = np.ones((1, 1), dtype=complex)
    for qubit in reversed(range(n_qubits)):
        out = np.kron(out, PAULI[ops.get(qubit, "i")])
    return out


def oracle_hamiltonian(instance):
    """Independent Hamiltonian builder used to cross-check the package's."""
    n = instance.n_env + 1
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(3):
                for b in range(3):
                    coeff = instance.j_tensor[i, j, a, b]
                    if coeff:
                        h += coeff * kron_pauli(n, {i: AXES[a], j: AXES[b]})
    for site in range(n):
        for c in range(3):
            coeff = instance.fields[site, c]
            if coeff:
                h += coeff * kron_pauli(n, {site: AXES[c]})
    return h


def reference_flip_diagonals(instance):
    """H's flip-diagonal form {f: D_f}, H[b ^ f, b] = D_f[b], with each term's
    phase formed from an integer basis and a (1 - 2 * bit) sign pattern per y
    or z factor, the formula ``dynamics._flip_diagonals`` used before it flipped
    signs in place. D_0 holds no phase and is taken from the package."""
    dim = 1 << instance.n_qubits
    basis = np.arange(dim)
    diagonals = {0: _flip_diagonals(instance)[0]}
    terms = [(instance.j_tensor[i, j, a, b], ((i, a), (j, b)))
             for i, j, a, b in zip(*np.nonzero(instance.j_tensor)) if min(a, b) < 2]
    terms += [(instance.fields[site, c], ((site, c),))
              for site, c in zip(*np.nonzero(instance.fields[:, :2]))]
    for coeff, factors in terms:
        flip, phase = 0, np.full(dim, coeff, dtype=complex)
        for site, axis in factors:
            flip ^= int(axis < 2) << site
            if axis:
                phase *= (1j if axis == 1 else 1) * (1 - 2 * ((basis >> site) & 1))
        diagonals[flip] = diagonals.get(flip, 0) + phase
    return diagonals


def oracle_reduced_density(amplitudes, keep):
    """Partial trace of |psi><psi| by one explicit index contraction.

    Axis a of the amplitude tensor holds qubit n-1-a. Traced qubits share one
    index between ket and bra; kept qubits get a separate bra index. Rows and
    columns of the result index the kept qubits with keep[0] on the least
    significant bit.
    """
    n = amplitudes.size.bit_length() - 1
    ket = list(string.ascii_letters[:n])
    bra = list(ket)
    for q in keep:
        bra[n - 1 - q] = string.ascii_letters[n + q]
    rows = [ket[n - 1 - q] for q in reversed(keep)]
    cols = [bra[n - 1 - q] for q in reversed(keep)]
    tensor = amplitudes.reshape((2,) * n)
    spec = f"{''.join(ket)},{''.join(bra)}->{''.join(rows + cols)}"
    d = 1 << len(keep)
    return np.einsum(spec, tensor, tensor.conj()).reshape(d, d)


def oracle_entropy(rho):
    """Entropy (bits) of a density matrix from its full spectrum."""
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log2(lam)))


def random_state(n_qubits, seed):
    """Haar-like random pure state: normalized complex Gaussian amplitudes."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return q.PureState(n_qubits, amps / np.linalg.norm(amps))


def bell_branching():
    """Two balanced sites at B*t = pi/4: the site overlap vanishes and the
    global state is maximally entangled across the system/site cut."""
    r = 2 ** -0.5
    init = q.ProductCoeffs(np.array([[r, r], [r, r]]))
    return q.evolve_branching(init, [1.0], np.pi / 4)


def random_branching(rng, n_env, t_range=(0.2, 3.0)):
    init = q.random_product_state(n_env + 1, rng)
    fields = rng.uniform(-1.0, 1.0, n_env)
    t = float(rng.uniform(*t_range))
    return q.evolve_branching(init, fields, t)


def small_overlap_branching(rng, n_env=6, t=1.0):
    """Branching state with every site overlap magnitude at most 0.2.

    With site weight a^2 near 1/2 and cos(4Bt) near -1 the squared overlap
    a^4 + b^4 + 2 a^2 b^2 cos(4Bt) stays below 0.04.
    """
    a2 = rng.uniform(0.47, 0.53, n_env)
    cos4bt = rng.uniform(-1.0, -0.93, n_env)
    fields = np.arccos(cos4bt) / (4.0 * t)
    phases = rng.uniform(0.0, 2.0 * np.pi, (n_env, 2))
    coeffs = np.stack(
        [
            np.sqrt(a2) * np.exp(1j * phases[:, 0]),
            np.sqrt(1.0 - a2) * np.exp(1j * phases[:, 1]),
        ],
        axis=1,
    )
    u0 = float(rng.uniform(0.2, 0.8))
    sys_pair = np.array([[np.sqrt(u0), np.sqrt(1.0 - u0)]])
    init = q.ProductCoeffs(np.concatenate([sys_pair, coeffs]))
    bs = q.evolve_branching(init, fields, t)
    assert max(abs(bs.site_overlap(s)) for s in range(1, n_env + 1)) <= 0.2
    return bs


def random_generic_instance(rng, n_env):
    """Dense random instance with all axes and fields populated."""
    n = n_env + 1
    jt = np.zeros((n, n, 3, 3))
    for i in range(n):
        for j in range(i + 1, n):
            jt[i, j] = rng.uniform(-1.0, 1.0, (3, 3))
    fields = rng.uniform(-1.0, 1.0, (n, 3))
    return q.ModelInstance(n_env=n_env, j_tensor=jt, fields=fields)
