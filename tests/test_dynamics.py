import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdarwin as q

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
    # blocks are runs of consecutive states, with no permutation, exactly
    # when the flipped qubits are the lowest bits
    mask = instance.flip_mask()
    assert (prop._order is None) == (mask & (mask + 1) == 0)
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
        with pytest.raises(ValueError):
            q.evolve_branching(init, np.ones(4), 1.0)

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

    def test_codi_blocks_are_consecutive_pairs(self):
        prop = q.DensePropagator(q.sample_instance(q.build_model("CODI", 8), 0))
        assert prop._modes.shape == (256, 2, 2)
        assert prop._order is None


class TestDiagonalEngine:
    def test_matches_dense_on_cpdis(self):
        spec = q.build_model("CPDI_S", 6)
        rng = np.random.default_rng(11)
        inst = q.sample_instance(spec, rng)
        init = q.random_product_state(7, rng)
        psi0 = q.dense_product_state(init)
        dense = q.DensePropagator(inst)
        diag = q.DiagonalPropagator(inst)
        for t in (0.3, 1.0, 3.0):
            pd = dense.evolve(psi0, t)
            pg = diag.evolve(psi0, t)
            aligned = q.align_global_phase(pg, pd)
            assert np.max(np.abs(aligned.amplitudes - pd.amplitudes)) < 1e-9

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

    def test_product_coeffs_norm_enforced(self):
        with pytest.raises(ValueError):
            q.ProductCoeffs(np.array([[1.0, 0.1]]))

    def test_branching_state_site_range(self):
        bs = random_branching(np.random.default_rng(1), 3)
        with pytest.raises(ValueError):
            bs.site_overlap(4)

    def test_align_global_phase(self):
        psi = q.dense_product_state(q.random_product_state(3, 5))
        rotated = q.PureState(3, psi.amplitudes * np.exp(0.7j))
        aligned = q.align_global_phase(rotated, psi)
        assert np.max(np.abs(aligned.amplitudes - psi.amplitudes)) <= 1e-12

    def test_overlap_uses_pauli_convention(self):
        # the dense engine and the analytic branch phases share sigma_z|0> = +|0>
        z = kron_pauli(1, {0: "z"})
        assert z[0, 0] == 1.0 + 0j and z[1, 1] == -1.0 + 0j
