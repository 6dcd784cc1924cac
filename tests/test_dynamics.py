import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdarwin as q
from qdarwin import dynamics
from qdarwin.model import _flip_diagonals

from helpers import (
    bell_branching,
    kron_pauli,
    oracle_hamiltonian,
    random_branching,
    random_generic_instance,
)

ORACLE_TIMES = (0.3, 1.0, 3.0, 25.0)


def oracle_evolution(instance, psi0, times):
    """exp(-iHt) psi0 from one full eigendecomposition of the oracle H."""
    energies, modes = np.linalg.eigh(oracle_hamiltonian(instance))
    coeffs = modes.conj().T @ psi0.amplitudes
    return [modes @ (np.exp(-1j * energies * t) * coeffs) for t in times]


def with_z_fields_and_idle_site(instance, rng):
    """Copy of ``instance`` with random z fields on every qubit and every
    coupling of the last environment site removed."""
    jt = instance.j_tensor.copy()
    jt[:, -1] = 0.0
    fields = instance.fields.copy()
    fields[:, 2] = rng.uniform(-1.0, 1.0, instance.n_qubits)
    return q.ModelInstance(n_env=instance.n_env, j_tensor=jt, fields=fields)


def transverse_pair_instance(rng):
    """z couplings to the system, plus x/y fields and an xx/yy coupling on
    environment sites 2 and 4 only: 4x4 blocks over bits 2 and 4."""
    n = 5
    jt = np.zeros((n, n, 3, 3))
    jt[0, 1:, 2, 2] = rng.uniform(-1.0, 1.0, n - 1)
    jt[2, 4, 0, 0] = 0.7
    jt[2, 4, 1, 1] = -0.4
    fields = np.zeros((n, 3))
    fields[:, 2] = rng.uniform(-1.0, 1.0, n)
    fields[2, 0] = 0.3
    fields[4, 1] = 0.5
    return q.ModelInstance(n_env=n - 1, j_tensor=jt, fields=fields)


def three_flipped_instance(rng):
    """z fields and zz couplings on 7 qubits, plus x fields and xx/yy couplings
    on sites 1, 3 and 6 only: 8x8 blocks over those bits."""
    n, flipped = 7, (1, 3, 6)
    jt = np.zeros((n, n, 3, 3))
    jt[..., 2, 2] = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
    fields = np.zeros((n, 3))
    fields[:, 2] = rng.uniform(-1.0, 1.0, n)
    fields[flipped, 0] = rng.uniform(0.1, 1.0, len(flipped))
    for a, b in ((1, 3), (3, 6)):
        jt[a, b, 0, 0], jt[a, b, 1, 1] = rng.uniform(-1.0, 1.0, 2)
    return q.ModelInstance(n_env=n - 1, j_tensor=jt, fields=fields)


def block_case(name, rng):
    if name == "CODI":
        inst = q.sample_instance(q.build_model("CODI", 6), rng)
        return with_z_fields_and_idle_site(inst, rng), 2
    if name == "CPDI_S":
        inst = q.sample_instance(q.build_model("CPDI_S", 6), rng)
        return with_z_fields_and_idle_site(inst, rng), 1
    if name == "transverse-pair":
        return transverse_pair_instance(rng), 4
    return random_generic_instance(rng, 4), 32


def assert_matches_oracle(instance, block_size, seed):
    prop = q.DensePropagator(instance)
    assert prop._modes.shape[1:] == (block_size, block_size)
    # the block layout leaves the amplitude tensor's axes in place, so the
    # blocks are runs of consecutive states, exactly when the flipped qubits
    # are the lowest bits
    mask = instance.flip_mask()
    assert (prop._axes == tuple(range(instance.n_qubits))) == (mask & (mask + 1) == 0)
    psi0 = q.dense_product_state(q.random_product_state(instance.n_qubits, seed))
    for t, expected in zip(ORACLE_TIMES, oracle_evolution(instance, psi0, ORACLE_TIMES)):
        assert np.max(np.abs(prop.evolve(psi0, t).amplitudes - expected)) <= 1e-10
    if instance.is_z_only():
        energies = q.DiagonalPropagator(instance)._energies
        oracle = np.diag(oracle_hamiltonian(instance)).real
        assert np.max(np.abs(energies - oracle)) <= 1e-12


class TestRandomProductState:
    def test_normalized_per_site(self):
        init = q.random_product_state(50, 0)
        norms = np.abs(init.coeffs[:, 0]) ** 2 + np.abs(init.coeffs[:, 1]) ** 2
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_deterministic(self):
        a = q.random_product_state(6, 99)
        b = q.random_product_state(6, 99)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_weight_fourth_moment(self):
        # E[|a|^4 + |b|^4] = E[u^2 + (1-u)^2] = 2/3 for u uniform on [0, 1].
        init = q.random_product_state(100_000, 1)
        eps = np.abs(init.coeffs[:, 0]) ** 4 + np.abs(init.coeffs[:, 1]) ** 4
        assert abs(eps.mean() - 2.0 / 3.0) < 5e-3

    def test_matches_per_site_scalar_draws(self):
        # documented order per site: weight, then the phases of a and b
        rng = np.random.default_rng(31)
        expected = np.empty((7, 2), dtype=complex)
        for k in range(7):
            u = rng.random()
            phase_a = rng.uniform(0.0, 2.0 * np.pi)
            phase_b = rng.uniform(0.0, 2.0 * np.pi)
            expected[k, 0] = np.sqrt(u) * np.exp(1j * phase_a)
            expected[k, 1] = np.sqrt(1.0 - u) * np.exp(1j * phase_b)
        gen = np.random.default_rng(31)
        init = q.random_product_state(7, gen)
        np.testing.assert_array_equal(init.coeffs, expected)
        assert gen.random() == rng.random()  # same number of draws

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            q.random_product_state(0, 1)
        for bad in (True, 2.5, "2"):
            with pytest.raises(ValueError, match="n_qubits: expected an integer"):
                q.random_product_state(bad, 1)
        # an integral float is an integer, as everywhere else
        np.testing.assert_array_equal(q.random_product_state(2.0, 5).coeffs,
                                      q.random_product_state(2, 5).coeffs)


class TestBranchingEvolution:
    def test_t0_branches_equal_initial(self):
        init = q.random_product_state(4, 7)
        bs = q.evolve_branching(init, np.ones(3), 0.0)
        b0, b1 = bs.branch_vectors()
        assert np.array_equal(b0, init.coeffs[1:])
        assert np.array_equal(b1, init.coeffs[1:])
        psi = q.branching_to_dense(bs)
        np.testing.assert_allclose(
            psi.amplitudes, q.dense_product_state(init).amplitudes, atol=1e-15
        )

    def test_pure_zero_site_gives_phase_only_overlap(self):
        init = q.ProductCoeffs(np.array([[0.6, 0.8], [1.0, 0.0]]))
        for t in (0.3, 1.7):
            bs = q.evolve_branching(init, [0.9], t)
            gamma = bs.site_overlap(1)
            assert gamma == pytest.approx(np.exp(-2j * 0.9 * t))
            assert abs(gamma) == pytest.approx(1.0)

    def test_balanced_site_overlap_is_cosine(self):
        r = 2 ** -0.5
        init = q.ProductCoeffs(np.array([[0.6, 0.8], [r, r]]))
        for b, t in [(1.0, 0.4), (0.7, 2.0)]:
            bs = q.evolve_branching(init, [b], t)
            assert bs.site_overlap(1) == pytest.approx(np.cos(2 * b * t))
        bs = q.evolve_branching(init, [1.0], np.pi / 4)
        assert abs(bs.site_overlap(1)) == pytest.approx(0.0, abs=1e-15)

    def test_length_mismatch(self):
        init = q.random_product_state(4, 0)
        for fields in (np.ones(4), np.ones(2)):
            with pytest.raises(ValueError, match="one coupling per environment site"):
                q.evolve_branching(init, fields, 1.0)

    def test_negative_time_rejected(self):
        init = q.random_product_state(2, 0)
        with pytest.raises(ValueError):
            q.evolve_branching(init, np.ones(1), -0.5)


class TestBranchingToDense:
    def test_bell_case_maximally_entangled(self):
        psi = q.branching_to_dense(bell_branching())
        np.testing.assert_allclose(np.abs(psi.amplitudes) ** 2, np.full(4, 0.25), atol=1e-12)
        rho = q.reduced_density(psi, [0]).matrix
        purity = np.trace(rho @ rho).real
        assert purity == pytest.approx(0.5, abs=1e-12)

    def test_norm_one(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            bs = random_branching(rng, 5)
            psi = q.branching_to_dense(bs)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12

    def test_product_state_kron_layout(self):
        # site k of a product state must land on bit k
        init = q.ProductCoeffs(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        psi = q.dense_product_state(init)
        expected = np.zeros(8)
        expected[0b010] = 1.0  # qubit 1 in |1>, qubits 0 and 2 in |0>
        np.testing.assert_array_equal(psi.amplitudes, expected.astype(complex))

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 9, 14])
    @pytest.mark.parametrize("chunk_rows", [1, 3, dynamics._PRODUCT_CHUNK_ROWS])
    def test_product_state_is_kron_bit_for_bit(self, monkeypatch, n_sites, chunk_rows):
        """Site doubling in the final buffer makes np.kron's multiplies, so
        its bytes, for any chunk of rows (14 sites take two 4096-row chunks
        on their last doubling)."""
        monkeypatch.setattr(dynamics, "_PRODUCT_CHUNK_ROWS", chunk_rows)
        coeffs = q.random_product_state(n_sites, n_sites).coeffs
        psi = q.dense_product_state(q.ProductCoeffs(coeffs))
        assert np.array_equal(psi.amplitudes, reduce(np.kron, coeffs[::-1]))

    @pytest.mark.parametrize("n_env", [0, 1, 2, 6, 13])
    def test_branches_are_kron_bit_for_bit(self, n_env):
        """Each branch is built in place in its strided half of the amplitudes,
        then scaled by its system coefficient: the bytes of np.kron and one
        multiply. With no environment the state is the system pair itself."""
        bs = random_branching(np.random.default_rng(n_env), n_env)
        expected = np.empty(2 << n_env, dtype=complex)
        for bit, (coeff, branch) in enumerate(zip((bs.alpha0, bs.beta0), bs.branch_vectors())):
            expected[bit::2] = coeff * reduce(np.kron, branch[::-1], np.ones(1, dtype=complex))
        psi = q.branching_to_dense(bs)
        assert np.array_equal(psi.amplitudes, expected)
        if n_env == 0:
            assert np.array_equal(psi.amplitudes, [bs.alpha0, bs.beta0])


class TestDenseEngine:
    def test_t0_identity(self):
        inst = q.sample_instance(q.build_model("CODI", 3), 5)
        psi0 = q.dense_product_state(q.random_product_state(4, 2))
        psi = q.evolve_dense(inst, psi0, 0.0)
        assert np.max(np.abs(psi.amplitudes - psi0.amplitudes)) <= 1e-12

    def test_norm_preserved_long_time(self):
        inst = q.sample_instance(q.build_model("CODI", 4), 8)
        psi0 = q.dense_product_state(q.random_product_state(5, 3))
        psi = q.evolve_dense(inst, psi0, 100.0)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-10

    def test_matches_branching_on_cpdi(self):
        spec = q.build_model("CPDI", 5)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            inst = q.sample_instance(spec, rng)
            init = q.random_product_state(6, rng)
            fields = inst.j_tensor[0, 1:, 2, 2]
            prop = q.DensePropagator(inst)
            for t in (0.3, 1.0, 3.0):
                psi_b = q.branching_to_dense(q.evolve_branching(init, fields, t))
                psi_d = prop.evolve(q.dense_product_state(init), t)
                aligned = q.align_global_phase(psi_b, psi_d)
                assert np.max(np.abs(aligned.amplitudes - psi_d.amplitudes)) < 1e-8

    @pytest.mark.parametrize("case", ["CODI", "CPDI_S", "transverse-pair", "generic"])
    def test_block_spectral_path_matches_oracle(self, case):
        rng = np.random.default_rng(17)
        instance, block_size = block_case(case, rng)
        assert_matches_oracle(instance, block_size, 5)

    @settings(max_examples=40, deadline=None)
    @given(
        n_qubits=st.integers(2, 6),
        flip_mask=st.integers(0, 63),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_size_follows_flipped_qubits(self, n_qubits, flip_mask, seed):
        # qubits in the mask carry x/y factors, the rest only z; every term is
        # present with probability 1/2
        flip_mask &= (1 << n_qubits) - 1
        flips = [bool(flip_mask >> k & 1) for k in range(n_qubits)]
        rng = np.random.default_rng(seed)
        jt = np.zeros((n_qubits, n_qubits, 3, 3))
        for i in range(n_qubits):
            for j in range(i + 1, n_qubits):
                for a in range(3) if flips[i] else (2,):
                    for b in range(3) if flips[j] else (2,):
                        if rng.random() < 0.5:
                            jt[i, j, a, b] = rng.uniform(-1.0, 1.0)
        fields = np.zeros((n_qubits, 3))
        for k in range(n_qubits):
            if rng.random() < 0.5:
                fields[k, 2] = rng.uniform(-1.0, 1.0)
            if flips[k]:
                fields[k, rng.integers(2)] = rng.uniform(0.1, 1.0)
        instance = q.ModelInstance(n_env=n_qubits - 1, j_tensor=jt, fields=fields)
        assert_matches_oracle(instance, 1 << sum(flips), seed)

    @pytest.mark.parametrize("case, block_size", [
        ("CODI", 2), ("transverse-pair", 4), ("three-flipped", 8), ("generic", 1024),
    ])
    def test_evolve_matches_the_held_adjoint_formula(self, case, block_size):
        """Reference: M (c * exp(-iEt)) with c = M^H v from a held conjugate
        copy of the modes, each block product by einsum. The engine applies
        M^H as conj(M^T conj(v)) and writes the reference's bytes at every
        block size; at t = 0 it returns the state itself."""
        rng = np.random.default_rng(24)
        instance = {
            "CODI": lambda: q.sample_instance(q.build_model("CODI", 8), rng),
            "transverse-pair": lambda: transverse_pair_instance(rng),
            "three-flipped": lambda: three_flipped_instance(rng),
            "generic": lambda: random_generic_instance(rng, 9),  # every qubit flipped
        }[case]()
        prop = q.DensePropagator(instance)
        modes, energies = prop._modes, prop._energies
        assert modes.shape[1:] == (block_size, block_size)
        tensor = (2,) * prop.n_qubits
        psi0 = q.dense_product_state(q.random_product_state(prop.n_qubits, rng))
        v = psi0.amplitudes.reshape(tensor).transpose(prop._axes).reshape(energies.shape)
        coeffs = np.einsum("kij,kj->ki", modes.conj().transpose(0, 2, 1), v)
        assert prop.evolve(psi0, 0.0) is psi0
        for t in (0.3, 1.0, 25.0):
            blocks = np.einsum("kij,kj->ki", modes, coeffs * np.exp(-1j * energies * t))
            expected = blocks.reshape(tensor).transpose(np.argsort(prop._axes)).ravel()
            assert np.array_equal(prop.evolve(psi0, t).amplitudes, expected)

    def test_composition(self):
        inst = q.sample_instance(q.build_model("CODI", 3), 1)
        prop = q.DensePropagator(inst)
        psi0 = q.dense_product_state(q.random_product_state(4, 4))
        once = prop.evolve(psi0, 2.3)
        stepped = prop.evolve(prop.evolve(psi0, 1.4), 0.9)
        assert np.max(np.abs(once.amplitudes - stepped.amplitudes)) <= 1e-9


def scanned_flip_mask(instance):
    """OR of rows ^ cols over the nonzero entries of the oracle H."""
    rows, cols = np.nonzero(oracle_hamiltonian(instance))
    return int(np.bitwise_or.reduce(rows ^ cols, initial=0))


# flipping coupling types (axis on the lower qubit, axis on the higher) and
# the flipping fields
FLIP_PAIRS = ((0, 0), (0, 1), (1, 1), (2, 0))
FLIP_FIELDS = (0, 1)


@st.composite
def transverse_instances(draw):
    """Instances whose flipped qubits are chosen first: either the lowest k
    qubits (blocks of consecutive states) or any set. Each flipped qubit gets
    an x or y field or a flipping coupling; x/y factors sit on flipped qubits
    only, so the chosen set is the expected mask. Two flipped qubits carry an
    XX + YY pair, whose coefficients may be equal."""
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        flipped = list(range(draw(st.integers(1, n))))
    else:
        flipped = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jt = np.zeros((n, n, 3, 3))
    fields = np.zeros((n, 3))
    fields[:, 2] = rng.uniform(-1.0, 1.0, n) * (rng.random(n) < 0.5)
    reached = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                continue
            a, b = FLIP_PAIRS[rng.integers(len(FLIP_PAIRS))]
            if i not in flipped:
                a = 2
            if j not in flipped:
                b = 2
            jt[i, j, a, b] = rng.uniform(-1.0, 1.0)
            reached.update(k for k, axis in ((i, a), (j, b)) if axis != 2)
    for k in flipped:
        if k not in reached or rng.random() < 0.5:
            fields[k, FLIP_FIELDS[rng.integers(2)]] = rng.uniform(0.1, 1.0)
    if len(flipped) >= 2:
        i, j = flipped[:2]
        jt[i, j, 0, 0] = draw(st.sampled_from([0.6, -0.3]))
        jt[i, j, 1, 1] = draw(st.sampled_from([0.6, 0.8]))
    instance = q.ModelInstance(n_env=n - 1, j_tensor=jt, fields=fields)
    return instance, sum(1 << k for k in flipped)


class TestBlockMask:
    """The dense engine's blocks come from the instance's terms."""

    @settings(max_examples=60, deadline=None)
    @given(case=transverse_instances())
    def test_mask_covers_h_and_blocks_evolve_exactly(self, case):
        instance, expected = case
        mask = instance.flip_mask()
        assert mask == expected
        scanned = scanned_flip_mask(instance)
        assert mask & scanned == scanned
        assert_matches_oracle(instance, 1 << bin(mask).count("1"), 3)

    @pytest.mark.parametrize("kind", q.MODEL_KINDS)
    @pytest.mark.parametrize("n_env", [3, 8])
    def test_reference_models_flip_what_h_flips(self, kind, n_env):
        instance = q.sample_instance(q.build_model(kind, n_env), n_env)
        assert instance.flip_mask() == scanned_flip_mask(instance)
        assert instance.flip_mask() == (1 if kind == "CODI" else 0)

    @pytest.mark.parametrize("z_fields", [False, True])
    def test_codi_past_thirteen_qubits_matches_per_string_evolution(self, z_fields):
        """CODI at N = 14 (15 qubits, above the old 13-qubit dense cap), plain
        and with z fields on every qubit, against a closed-form evolution per
        environment z-string e: the system sees E(e) + n(e).sigma with
        n = b0 + (sum_i B_i s_i) z and E(e) the environment's own z energy,
        so exp(-iht) = exp(-iEt) (cos(wt) - i sin(wt) n.sigma / w), w = |n|."""
        start = time.perf_counter()
        n_env = 14
        rng = np.random.default_rng(14)
        instance = q.sample_instance(q.build_model("CODI", n_env), rng)
        if z_fields:
            fields = instance.fields.copy()
            fields[:, 2] = rng.uniform(-1.0, 1.0, n_env + 1)
            instance = q.ModelInstance(n_env=n_env, j_tensor=instance.j_tensor, fields=fields)
        psi0 = q.dense_product_state(q.random_product_state(n_env + 1, rng))
        prop = q.DensePropagator(instance)
        assert prop._modes.shape == (1 << n_env, 2, 2)
        # spins of the environment sites, bit i - 1 of the string index e
        spins = 1 - 2 * ((np.arange(1 << n_env)[:, None] >> np.arange(n_env)) & 1)
        b = instance.fields[0]
        nx, ny = np.full(spins.shape[0], b[0]), np.full(spins.shape[0], b[1])
        nz = b[2] + spins @ instance.j_tensor[0, 1:, 2, 2]
        energy = spins @ instance.fields[1:, 2]  # CODI has no coupling inside the environment
        omega = np.sqrt(nx**2 + ny**2 + nz**2)
        pairs = psi0.amplitudes.reshape(-1, 2)  # row e: system bit clear (s = +1), set (s = -1)
        for t in (0.5, 2.0, 7.3):
            cos, sin = np.cos(omega * t), np.sin(omega * t) / omega
            up = (cos - 1j * sin * nz) * pairs[:, 0] - 1j * sin * (nx - 1j * ny) * pairs[:, 1]
            down = -1j * sin * (nx + 1j * ny) * pairs[:, 0] + (cos + 1j * sin * nz) * pairs[:, 1]
            expected = (np.exp(-1j * energy * t)[:, None] * np.stack([up, down], axis=1)).ravel()
            assert np.max(np.abs(prop.evolve(psi0, t).amplitudes - expected)) <= 1e-10
        assert time.perf_counter() - start <= 2.0

    def test_generic_instance_on_fourteen_qubits_is_refused(self):
        # one 2^14 x 2^14 block: 4^14 entries, above the 4^13 cap
        n = 14
        fields = np.zeros((n, 3))
        fields[:, 0] = 0.5
        instance = q.ModelInstance(n_env=n - 1, j_tensor=np.zeros((n, n, 3, 3)), fields=fields)
        assert instance.flip_mask() == (1 << n) - 1
        with pytest.raises(ValueError, match="cap"):
            q.DensePropagator(instance)

    def test_refused_instance_allocates_nothing_of_its_register(self):
        """The cap is checked from the block counts before any array of the
        register's size exists: a 22-qubit register (64 MiB per state)."""
        n = 22
        fields = np.zeros((n, 3))
        fields[:, 0] = 0.5
        instance = q.ModelInstance(n_env=n - 1, j_tensor=np.zeros((n, n, 3, 3)), fields=fields)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                q.DensePropagator(instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_codi_blocks_are_consecutive_pairs(self):
        prop = q.DensePropagator(q.sample_instance(q.build_model("CODI", 8), 0))
        assert prop._modes.shape == (256, 2, 2)
        assert prop._axes == tuple(range(9))  # the blocks are a view of the state


@st.composite
def z_only_instances(draw):
    """Diagonal instances with z fields and zz couplings on any pair of
    qubits, intra-environment pairs included, each present or not. An
    instance has at least one environment site."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jt = np.zeros((n, n, 3, 3))
    rows, cols = np.triu_indices(n, 1)
    jt[rows, cols, 2, 2] = rng.uniform(-1.0, 1.0, rows.size) * (rng.random(rows.size) < 0.7)
    fields = np.zeros((n, 3))
    fields[:, 2] = rng.uniform(-1.0, 1.0, n) * (rng.random(n) < 0.7)
    return q.ModelInstance(n_env=n - 1, j_tensor=jt, fields=fields)


class TestFlipDiagonals:
    """H = sum_f D_f X^f, with H[b ^ f, b] = D_f[b]."""

    @settings(max_examples=80, deadline=None)
    @given(
        instance=st.one_of(transverse_instances().map(lambda case: case[0]), z_only_instances()),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_form_applies_h_and_keys_make_the_flip_mask(self, instance, seed):
        diagonals = _flip_diagonals(instance)
        rng = np.random.default_rng(seed)
        v = rng.normal(size=1 << instance.n_qubits) + 1j * rng.normal(size=1 << instance.n_qubits)
        basis = np.arange(v.size)
        hv = np.zeros(v.size, dtype=complex)
        for flip, diagonal in diagonals.items():
            hv[basis ^ flip] += diagonal * v
        assert np.max(np.abs(hv - oracle_hamiltonian(instance) @ v)) <= 1e-12
        assert np.bitwise_or.reduce(list(diagonals)) == instance.flip_mask()
        assert diagonals[0].dtype == np.float64

    def test_z_only_build_allocates_no_basis(self):
        """On a z-only register only the energies and the half-size local
        field are allocated: no basis index array, no complex diagonal."""
        n = 18
        jt = np.zeros((n, n, 3, 3))
        jt[0, 1:, 2, 2] = np.linspace(-1.0, 1.0, n - 1)
        jt[1, 2:, 2, 2] = 0.3
        fields = np.zeros((n, 3))
        fields[:, 2] = 0.1
        instance = q.ModelInstance(n_env=n - 1, j_tensor=jt, fields=fields)
        tracemalloc.start()
        try:
            diagonals = _flip_diagonals(instance)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert instance.flip_mask() == 0 and instance.is_z_only()
            structural = tracemalloc.get_traced_memory()[1] - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert list(diagonals) == [0]
        assert peak <= (8 << n) + (4 << n) + (64 << 10)
        assert structural <= 64 << 10  # the structural queries build no 2^n array


class TestDiagonalEngine:
    @given(
        n_env=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        t=st.sampled_from((0.0, 0.7, 3.3, 50.0, 1000.0)),
    )
    def test_matches_dense_on_cpdis(self, n_env, seed, t):
        # z-only instances as in CPDI-S: zz couplings on random pairs, the
        # system included, and z fields on every qubit; on 1 x 1 blocks the
        # dense engine computes the diagonal engine's phases bit for bit
        rng = np.random.default_rng(seed)
        n = n_env + 1
        jt = np.zeros((n, n, 3, 3))
        pairs = np.triu(rng.random((n, n)) < 0.5, 1)
        jt[..., 2, 2][pairs] = rng.uniform(-1.0, 1.0, np.count_nonzero(pairs))
        fields = np.zeros((n, 3))
        fields[:, 2] = rng.uniform(-1.0, 1.0, n)
        inst = q.ModelInstance(n_env=n_env, j_tensor=jt, fields=fields)
        psi0 = q.dense_product_state(q.random_product_state(n, rng))
        dense = q.DensePropagator(inst).evolve(psi0, t)
        diag = q.DiagonalPropagator(inst).evolve(psi0, t)
        assert np.array_equal(dense.amplitudes, diag.amplitudes)

    def test_phases_multiply_the_amplitudes(self):
        inst = q.sample_instance(q.build_model("CPDI_S", 6), 3)
        prop = q.DiagonalPropagator(inst)
        psi0 = q.dense_product_state(q.random_product_state(7, 3))
        for t in (0.0, 0.7, 50.0):
            expected = psi0.amplitudes * np.exp(np.multiply(-1j * t, prop._energies))
            assert np.array_equal(prop.evolve(psi0, t).amplitudes, expected)

    def test_rejects_non_diagonal(self):
        inst = q.sample_instance(q.build_model("CODI", 3), 0)
        with pytest.raises(ValueError, match="non-diagonal"):
            q.DiagonalPropagator(inst)

    def test_register_cap(self):
        inst = q.sample_instance(q.build_model("CPDI", 26), 0)
        with pytest.raises(ValueError, match="cap"):
            q.DiagonalPropagator(inst)

    def test_large_register_is_fast(self):
        inst = q.sample_instance(q.build_model("CPDI", 20), 0)
        psi0 = q.dense_product_state(q.random_product_state(21, 0))
        prop = q.DiagonalPropagator(inst)  # phases built once, reusable over t
        start = time.perf_counter()
        psi = prop.evolve(psi0, 2.0)
        elapsed = time.perf_counter() - start
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-10
        assert elapsed < 1.0

    def test_composition(self):
        inst = q.sample_instance(q.build_model("CPDI_S", 6), 2)
        prop = q.DiagonalPropagator(inst)
        psi0 = q.dense_product_state(q.random_product_state(7, 1))
        once = prop.evolve(psi0, 3.1)
        stepped = prop.evolve(prop.evolve(psi0, 1.1), 2.0)
        assert np.max(np.abs(once.amplitudes - stepped.amplitudes)) <= 1e-9


class TestEngineProperties:
    def test_three_engine_agreement(self):
        spec = q.build_model("CPDI", 4)
        rng = np.random.default_rng(21)
        inst = q.sample_instance(spec, rng)
        init = q.random_product_state(5, rng)
        fields = inst.j_tensor[0, 1:, 2, 2]
        psi0 = q.dense_product_state(init)
        for t in (0.5, 2.0):
            states = [
                q.branching_to_dense(q.evolve_branching(init, fields, t)),
                q.evolve_diagonal(inst, psi0, t),
                q.evolve_dense(inst, psi0, t),
            ]
            ref = states[-1]
            for s in states:
                aligned = q.align_global_phase(s, ref)
                assert np.max(np.abs(aligned.amplitudes - ref.amplitudes)) < 1e-8
                assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-10

    def test_pointer_state_stays_pure(self):
        spec = q.build_model("CPDI", 5)
        inst = q.sample_instance(spec, 9)
        env = q.random_product_state(5, 3)
        coeffs = np.concatenate([np.array([[1.0, 0.0]]), env.coeffs])
        psi0 = q.dense_product_state(q.ProductCoeffs(coeffs))
        prop = q.DensePropagator(inst)
        for t in (0.5, 2.0, 10.0):
            rho = q.reduced_density(prop.evolve(psi0, t), [0]).matrix
            purity = np.trace(rho @ rho).real
            assert purity >= 1.0 - 1e-10

    @pytest.mark.parametrize("case", ["CODI", "generic", "CPDI_S"])
    def test_zero_time_returns_the_state_itself(self, case):
        """exp(-iH 0) = 1: ``evolve`` hands back its input, of any type, once
        the size and the time have passed their checks."""
        rng = np.random.default_rng(12)
        if case == "generic":
            prop = q.DensePropagator(random_generic_instance(rng, 4))
        else:
            inst = q.sample_instance(q.build_model(case, 5), rng)
            prop = (q.DiagonalPropagator if case == "CPDI_S" else q.DensePropagator)(inst)
        psi0 = q.dense_product_state(q.random_product_state(prop.n_qubits, rng))
        psi = prop.evolve(psi0, 0.7)
        for state in (psi0, psi):
            for zero in (0.0, -0.0, 0, np.float64(0.0)):
                assert prop.evolve(state, zero) is state
        for bad in (False, np.nan, "0"):
            with pytest.raises(ValueError, match="t: expected a finite real"):
                prop.evolve(psi0, bad)
        other = q.dense_product_state(q.random_product_state(prop.n_qubits - 1, rng))
        with pytest.raises(ValueError, match="size does not match"):
            prop.evolve(other, 0.0)

    @pytest.mark.parametrize("case", ["CODI", "generic", "CPDI_S"])
    def test_many_steps_match_one_evolve(self, case):
        """A sweep steps each state from the previous time: 1000 steps of 0.05
        stay within float64 rounding of one evolve to t = 50, and unitary."""
        rng = np.random.default_rng(8)
        if case == "generic":
            prop = q.DensePropagator(random_generic_instance(rng, 4))  # one 32 x 32 block
        else:
            inst = q.sample_instance(q.build_model(case, 8), rng)
            prop = (q.DiagonalPropagator if case == "CPDI_S" else q.DensePropagator)(inst)
        psi0 = q.dense_product_state(q.random_product_state(prop.n_qubits, rng))
        psi = psi0
        for _ in range(1000):
            psi = prop.evolve(psi, 0.05)
        direct = prop.evolve(psi0, 50.0)
        assert np.max(np.abs(psi.amplitudes - direct.amplitudes)) <= 1e-11
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12


class TestStateTypes:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            q.PureState(1, np.array([1.0, 1.0]))

    def test_pure_state_size_enforced(self):
        with pytest.raises(ValueError):
            q.PureState(2, np.array([1.0, 0.0]))

    def test_pure_state_holds_complex_array_without_copy(self):
        amps = np.array([0.6, 0.8j])
        assert q.PureState(1, amps).amplitudes is amps
        with pytest.raises(ValueError, match="normalized"):
            q.PureState(1, np.array([1.0 + 0j, 1.0]))  # the norm is still checked

    @pytest.mark.parametrize(
        "amps",
        [[0.6, 0.8], np.array([0.6, 0.8]), np.array([0.5 + 0.5j, 0.5 - 0.5j], dtype=np.complex64)],
    )
    def test_pure_state_converts_other_input(self, amps):
        psi = q.PureState(1, amps)
        assert psi.amplitudes.dtype == np.complex128
        assert psi.amplitudes is not amps
        np.testing.assert_array_equal(psi.amplitudes, np.asarray(amps, dtype=complex))

    @pytest.mark.parametrize(
        "n_qubits, amps, match",
        [
            (1, [np.nan, 0.0], "amplitudes: expected finite"),
            (1, np.array([np.nan, 0.0]), "amplitudes: expected finite"),
            (1, ["1", "0"], "amplitudes: expected finite"),
            (1, [True, False], "amplitudes: expected finite"),
            (1, np.array([True, False]), "amplitudes: expected finite"),
            # a complex128 array is held as given; its NaN or infinite norm
            # fails the norm check
            (1, np.array([np.nan, 0.0], dtype=complex), "normalized"),
            (1, np.array([np.inf, 0.0], dtype=complex), "normalized"),
            (True, [1.0, 0.0], "n_qubits: expected an integer"),
            (1.5, [1.0, 0.0], "n_qubits: expected an integer"),
            ("1", [1.0, 0.0], "n_qubits: expected an integer"),
        ],
    )
    def test_pure_state_takes_finite_numbers_only(self, n_qubits, amps, match):
        with pytest.raises(ValueError, match=match):
            q.PureState(n_qubits, amps)

    def test_pure_state_takes_an_integral_float_register_size(self):
        psi = q.PureState(1.0, [1.0, 0.0])
        assert psi.n_qubits == 1 and type(psi.n_qubits) is int

    def test_product_coeffs_norm_enforced(self):
        with pytest.raises(ValueError):
            q.ProductCoeffs(np.array([[1.0, 0.1]]))

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: q.ProductCoeffs([[1.0, 0.0, 0.0]]), "shape"),
            (lambda: q.ProductCoeffs([1.0, 0.0]), "shape"),
            (lambda: q.ProductCoeffs(np.zeros((0, 2))), "shape"),
            (lambda: q.BranchingState(1.0, 1.0, [[1.0, 0.0]], [0.5], 1.0), "within 1e-12"),
            (lambda: q.BranchingState(0.6, 0.8, [[1.0, 1.0]], [0.5], 1.0), "within 1e-12"),
            (lambda: q.BranchingState(0.6, 0.8, [[1.0, 0.0, 0.0]], [0.5], 1.0),
             "site_coeffs must have shape"),
            (lambda: q.BranchingState(0.6, 0.8, [1.0, 0.0], [0.5], 1.0),
             "site_coeffs must have shape"),
            (lambda: q.BranchingState(0.6, 0.8, [[1.0, 0.0]], [0.5, 0.5], 1.0),
             "one coupling per environment site"),
            (lambda: q.align_global_phase(q.PureState(1, [1.0, 0.0]),
                                          q.PureState(2, [1.0, 0.0, 0.0, 0.0])),
             "same register"),
            (lambda: q.DensePropagator(q.sample_instance(q.build_model("CODI", 2), 0))
             .evolve(q.PureState(2, [1.0, 0.0, 0.0, 0.0]), 1.0), "does not match"),
            (lambda: q.DiagonalPropagator(q.sample_instance(q.build_model("CPDI_S", 2), 0))
             .evolve(q.PureState(2, [1.0, 0.0, 0.0, 0.0]), 1.0), "does not match"),
        ],
        ids=["product-row", "product-1d", "product-empty", "branching-system-norm",
             "branching-site-norm", "branching-row", "branching-1d", "branching-fields",
             "align-registers", "dense-register", "diagonal-register"],
    )
    def test_shapes_norms_and_registers_are_checked(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    @pytest.mark.parametrize(
        "alpha0, beta0",
        [("0.6", "0.8"), (True, 0), (0.6, None), (0.6, float("nan")), ([0.6], 0.8)],
    )
    def test_branching_system_pair_takes_numbers_only(self, alpha0, beta0):
        with pytest.raises(ValueError, match="alpha0, beta0: expected finite complex"):
            q.BranchingState(alpha0=alpha0, beta0=beta0, site_coeffs=[[1, 0]], fields=[0.5],
                             time=1.0)

    def test_branching_system_pair_is_held_as_complex(self):
        bs = q.BranchingState(np.float64(0.6), 0.8j, [[1, 0]], [0.5], 1.0)
        assert (bs.alpha0, bs.beta0) == (0.6, 0.8j)
        assert type(bs.alpha0) is complex and type(bs.beta0) is complex

    def test_branching_state_site_range(self):
        bs = random_branching(np.random.default_rng(1), 3)
        with pytest.raises(ValueError):
            bs.site_overlap(4)

    def test_array_inputs_are_numbers(self):
        init = q.random_product_state(3, 2)
        for bad in (["0.3", True], [0.3, True], [0.3, float("nan")]):
            with pytest.raises(ValueError, match="fields"):
                q.evolve_branching(init, bad, 1.0)
        for bad in ([["1", "0"], [True, False]], [[1, 0], [True, False]], [[10**400, 0]]):
            with pytest.raises(ValueError, match="coeffs"):
                q.ProductCoeffs(bad)
        with pytest.raises(ValueError, match="site_coeffs"):
            q.BranchingState(1.0, 0.0, [["1", "0"]], [0.5], 1.0)
        with pytest.raises(ValueError, match="fields"):
            q.BranchingState(1.0, 0.0, [[1.0, 0.0]], ["0.5"], 1.0)
        # ints, numpy scalars and complex pairs are numbers
        assert q.evolve_branching(init, [np.float32(0.5), 1], 1.0).fields.tolist() == [0.5, 1.0]
        assert q.ProductCoeffs([[1j, 0]]).coeffs.tolist() == [[1j, 0j]]

    def test_propagator_time_is_a_real_number(self):
        dense_inst = q.sample_instance(q.build_model("CODI", 2), 0)
        diag_inst = q.sample_instance(q.build_model("CPDI_S", 2), 0)
        psi0 = q.dense_product_state(q.random_product_state(3, 1))
        evolvers = (q.DensePropagator(dense_inst).evolve, q.DiagonalPropagator(diag_inst).evolve,
                    lambda psi, t: q.evolve_dense(dense_inst, psi, t),
                    lambda psi, t: q.evolve_diagonal(diag_inst, psi, t))
        for evolve in evolvers:
            for bad in ("0.5", True, float("nan"), float("inf")):
                with pytest.raises(ValueError, match="t: expected a finite real"):
                    evolve(psi0, bad)
            # negative times run backwards
            back = evolve(evolve(psi0, np.float64(0.7)), -0.7)
            assert np.max(np.abs(back.amplitudes - psi0.amplitudes)) <= 1e-12

    def test_branching_time_is_a_real_number(self):
        init = q.random_product_state(3, 2)
        for bad in ("1.5", True, float("nan"), -1.0):
            with pytest.raises(ValueError, match="time"):
                q.evolve_branching(init, [0.3, -0.7], bad)
        assert q.evolve_branching(init, [0.3, -0.7], np.float64(1.5)).time == 1.5

    def test_align_global_phase(self):
        psi = q.dense_product_state(q.random_product_state(3, 5))
        rotated = q.PureState(3, psi.amplitudes * np.exp(0.7j))
        aligned = q.align_global_phase(rotated, psi)
        assert np.max(np.abs(aligned.amplitudes - psi.amplitudes)) <= 1e-12
        # no phase to read where the state vanishes on the reference's peak
        one = q.PureState(1, [0.0, 1j])
        assert q.align_global_phase(one, q.PureState(1, [1.0, 0.0])) is one

    def test_overlap_uses_pauli_convention(self):
        # the dense engine and the analytic branch phases share sigma_z|0> = +|0>
        z = kron_pauli(1, {0: "z"})
        assert z[0, 0] == 1.0 + 0j and z[1, 1] == -1.0 + 0j
