import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qdarwin as q
from qdarwin import information
from qdarwin.information import NumericalError, _closed_form_tables, _cut

from helpers import (
    bell_branching,
    oracle_entropy,
    oracle_reduced_density,
    random_branching,
    random_state,
    small_overlap_branching,
)


class TestReducedDensity:
    def test_product_state_system_block(self):
        coeffs = np.array([[0.6, 0.8j], [1.0, 0.0], [2 ** -0.5, 2 ** -0.5]])
        psi = q.dense_product_state(q.ProductCoeffs(coeffs))
        rho = q.reduced_density(psi, [0]).matrix
        pair = coeffs[0]
        np.testing.assert_allclose(rho, np.outer(pair, pair.conj()), atol=1e-13)

    def test_bell_reduction_is_maximally_mixed(self):
        psi = q.branching_to_dense(bell_branching())
        rho = q.reduced_density(psi, [0]).matrix
        np.testing.assert_allclose(rho, 0.5 * np.eye(2), atol=1e-12)

    def test_keep_everything_is_projector(self):
        psi = q.dense_product_state(q.random_product_state(3, 3))
        rho = q.reduced_density(psi, [0, 1, 2]).matrix
        np.testing.assert_allclose(rho, np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-13)

    def test_keep_order_sets_bit_order(self):
        # keep=[2, 0]: qubit 2 becomes the low bit of the reduced matrix
        coeffs = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        psi = q.dense_product_state(q.ProductCoeffs(coeffs))
        rho = q.reduced_density(psi, [2, 0]).matrix
        expected = np.zeros((4, 4))
        expected[0b10, 0b10] = 1.0  # qubit 0 in |1> lands on the high bit now
        np.testing.assert_allclose(rho, expected, atol=1e-13)

    def test_errors(self):
        psi = q.dense_product_state(q.random_product_state(3, 0))
        with pytest.raises(ValueError):
            q.reduced_density(psi, [0, 0])
        with pytest.raises(ValueError):
            q.reduced_density(psi, [3])


class TestCutPlan:
    @settings(max_examples=40)
    @given(data=st.data(), n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    def test_matches_einsum_partial_trace(self, data, n, seed):
        size = data.draw(st.integers(0, n), label="kept count")
        keep = data.draw(st.permutations(range(n)), label="order")[:size]
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi = q.PureState(n, amps / np.linalg.norm(amps))
        rho = oracle_reduced_density(psi.amplitudes, keep)
        assert abs(q.subsystem_entropy(psi, keep) - oracle_entropy(rho)) < 1e-12
        np.testing.assert_allclose(q.reduced_density(psi, keep).matrix, rho, rtol=0, atol=1e-13)

    def test_bad_keeps_raise_on_every_call(self):
        psi = q.dense_product_state(q.random_product_state(4, 0))
        for _ in range(2):
            for bad in ([1, 1], [0, 4], [-1]):
                with pytest.raises(ValueError):
                    q.subsystem_entropy(psi, bad)
            q.subsystem_entropy(psi, [0, 1])  # a valid cut of the same n is now cached
        assert _cut.cache_info().maxsize is not None

    def test_keeps_of_any_integer_type_share_one_plan(self):
        psi = random_state(6, 6)
        _cut.cache_clear()
        first = q.subsystem_entropy(psi, np.array([0, 2, 3]))  # numpy integers make the plan
        assert _cut(6, (0, 2, 3)).perm == (2, 3, 5, 0, 1, 4)
        assert all(type(axis) is int for axis in _cut(6, (0, 2, 3)).perm)
        for keep in ([0, 2, 3], (0, 2, 3), (np.int64(0), 2, 3), (k for k in (0, 2, 3))):
            assert q.subsystem_entropy(psi, keep) == first
        assert _cut.cache_info().currsize == 1


@pytest.fixture
def gram_block_bytes(monkeypatch):
    """Set the Gram block budget; cut plans made under it are dropped after."""

    def set_budget(nbytes):
        monkeypatch.setattr(information, "_GRAM_BLOCK_BYTES", nbytes)
        _cut.cache_clear()

    yield set_budget
    monkeypatch.undo()
    _cut.cache_clear()


class TestBlockedGram:
    def test_matches_literal_route_on_a_multi_block_state(self):
        psi = random_state(17, 17)  # 2 MiB: more than one 1 MiB block
        keeps = {
            "prefix": (1, 2, 3, 4),
            "joint": (0, 1, 2, 3, 4),
            "scattered": (2, 5, 11, 16),
            "larger than half": (0, 1, 3, 5, 7, 9, 11, 13, 15),
        }
        for label, keep in keeps.items():
            plan = _cut(17, keep)
            assert len(plan.blocks) >= 2, label
            assert plan.on_keep == (len(keep) <= 8), label
            literal = q.von_neumann_entropy(q.reduced_density(psi, keep))
            assert abs(q.subsystem_entropy(psi, keep) - literal) < 1e-10, label

    def test_many_blocks_agree_with_one(self, gram_block_bytes):
        psi = random_state(9, 8)  # N = 8: 8 KiB, one block by default
        keeps = [(), (0,), (3,), (1, 2, 3), (0, 1, 2, 3), (2, 5, 7, 8), (0, 2, 5, 7, 8),
                 tuple(range(1, 9)), tuple(range(9))]
        one = [q.subsystem_entropy(psi, keep) for keep in keeps]
        assert all(len(_cut(9, keep).blocks) == 1 for keep in keeps)
        gram_block_bytes(256)  # 16 amplitudes per block
        many = [q.subsystem_entropy(psi, keep) for keep in keeps]
        assert all(len(_cut(9, keep).blocks) >= 16 for keep in keeps)
        np.testing.assert_allclose(many, one, rtol=0, atol=1e-12)

    def test_fills_the_lower_triangle_of_the_full_gram(self, gram_block_bytes):
        psi = random_state(12, 12)
        gram_block_bytes(16 << 10)  # 4 blocks, and row panels of 16 rows at d = 64
        for keep in ((1, 2, 3, 4, 5, 6), (0, 3, 5, 7, 9, 11), (0, 1, 2, 9, 10, 11)):
            plan = _cut(12, keep)
            d = plan.block_shape[0]
            assert len(plan.blocks) == 4 and d == 64
            tensor = psi.amplitudes.reshape(plan.split).transpose(plan.perm)
            full = np.zeros((d, d), dtype=complex)
            for index in plan.blocks:
                a = tensor[index].reshape(plan.block_shape)
                full += a @ a.conj().T
            gram = information._blocked_gram(psi, keep)
            np.testing.assert_array_equal(np.tril(gram), np.tril(full))

    def test_plan_holds_side_and_blocks(self):
        plan = _cut(19, (0, 1, 2))  # an 8 MiB register
        assert plan.on_keep and plan.shape == (8, 1 << 16)
        assert len(plan.blocks) == 8 and plan.block_shape == (8, 1 << 13)
        plan = _cut(19, tuple(range(12)))
        assert not plan.on_keep and plan.shape == (1 << 7, 1 << 12)
        assert len(plan.blocks) == 8 and plan.block_shape == (1 << 7, 1 << 9)


def small_cuts(n):
    """The cuts with at most one qubit on their smaller side: keep nothing,
    qubit 0, all qubits but 0, and all qubits."""
    return [(), (0,), tuple(range(1, n)), tuple(range(n))]


def smaller_side(n, keep):
    rest = tuple(q for q in range(n) if q not in keep)
    return keep if len(keep) <= len(rest) else rest


@pytest.fixture
def refuse_eigvalsh(monkeypatch):
    """Call to make every later ``np.linalg.eigvalsh`` call fail."""

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    return lambda: monkeypatch.setattr(np.linalg, "eigvalsh", refuse)


class TestSmallCuts:
    """Cuts with a 1- or 2-dimensional smaller side take no eigvalsh."""

    @staticmethod
    def states():
        for n in range(1, 10):
            yield random_state(n, 100 + n)
            yield q.dense_product_state(q.random_product_state(n, 200 + n))
        yield random_state(17, 17)  # 2 MiB: the blocked Gram

    def test_match_the_literal_route_without_eigvalsh(self, refuse_eigvalsh):
        cases = []
        for psi in self.states():
            n = psi.n_qubits
            for keep in small_cuts(n):
                # by purity the smaller side's entropy is the cut's; its
                # literal reduced density has no rounding-noise eigenvalues
                # (up to 2^n - 2 of them on the larger side), and at 17
                # qubits it is the only side that fits in memory
                side = smaller_side(n, keep)
                literal = q.von_neumann_entropy(q.reduced_density(psi, side))
                cases.append((psi, keep, literal))
        refuse_eigvalsh()
        for psi, keep, literal in cases:
            s = q.subsystem_entropy(psi, keep)
            assert s >= 0.0, (psi.n_qubits, keep)
            assert abs(s - literal) < 1e-13, (psi.n_qubits, keep)
            if len(smaller_side(psi.n_qubits, keep)) == 0:
                assert s == 0.0

    def test_bell_pair_is_one_bit(self, refuse_eigvalsh):
        refuse_eigvalsh()
        bell = q.PureState(2, np.array([1.0, 0.0, 0.0, 1.0]) * 2 ** -0.5)
        for psi in (bell, q.branching_to_dense(bell_branching())):
            for keep in ((0,), (1,)):
                assert abs(q.subsystem_entropy(psi, keep) - 1.0) < 1e-15

    def test_trivial_cuts_of_an_edge_normalized_state_are_pure(self, refuse_eigvalsh):
        refuse_eigvalsh()
        # ||psi|| = 1 + 8e-10 passes the state's own 1e-9 check; its trivial
        # cuts must not compare the spectrum [||psi||^2] with 1 + 1e-9
        for n in (3, 17):
            amps = random_state(n, n).amplitudes * (1.0 + 8e-10)
            psi = q.PureState(n, amps)
            assert q.subsystem_entropy(psi, ()) == 0.0
            assert q.subsystem_entropy(psi, tuple(range(n))) == 0.0

    def test_cuts_of_an_edge_normalized_state_stay_in_range(self, monkeypatch):
        # ||psi|| = 1 + 8e-10 passes the state's own 1e-9 check, and a
        # near-pure cut's top eigenvalue ||psi||^2 = 1 + 1.6e-9 is in range
        product = q.dense_product_state(q.random_product_state(5, 3))
        edge = q.PureState(5, product.amplitudes * (1.0 + 8e-10))
        mixed = random_state(5, 5)
        mixed_edge = q.PureState(5, mixed.amplitudes * (1.0 + 8e-10))
        cuts = ((0,), (0, 1), (1, 2, 3))  # d = 2, then d = 4 twice
        for keep in cuts:
            assert abs(q.subsystem_entropy(edge, keep)) < 1e-12
            expected = q.subsystem_entropy(mixed, keep)
            assert abs(q.subsystem_entropy(mixed_edge, keep) - expected) < 1e-8
        # a spectrum beyond the state's own ||psi||^2 + 1e-9 still raises
        partition = information._partition_matrix
        monkeypatch.setattr(
            information,
            "_partition_matrix",
            lambda psi, keep: (1.0 + 2e-9) * partition(psi, keep),
        )
        for keep in cuts:
            with pytest.raises(NumericalError, match="beyond tolerance"):
                q.subsystem_entropy(edge, keep)

    def test_doubled_partition_is_out_of_range(self, monkeypatch):
        psi = random_state(5, 5)
        partition = information._partition_matrix
        monkeypatch.setattr(
            information, "_partition_matrix", lambda psi, keep: 2.0 * partition(psi, keep)
        )
        for keep in ((0,), (0, 1)):  # d = 2, then d = 4
            with pytest.raises(NumericalError, match="beyond tolerance"):
                q.subsystem_entropy(psi, keep)


class TestEntropy:
    def test_pure_state_zero(self):
        psi = q.dense_product_state(q.random_product_state(2, 1))
        assert q.von_neumann_entropy(q.reduced_density(psi, [0, 1])) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert q.von_neumann_entropy(q.DensityMatrix(0.5 * np.eye(2))) == pytest.approx(1.0)

    def test_biased_qubit(self):
        # direct evaluation of -0.9 log2 0.9 - 0.1 log2 0.1
        expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        rho = q.DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
        assert q.von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)

    def test_invalid_density_matrices(self):
        with pytest.raises(ValueError):
            q.DensityMatrix(np.diag([0.9, 0.2]))  # trace
        with pytest.raises(ValueError):
            q.DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
        negative = np.diag([1.1, -0.1]).astype(complex)
        with pytest.raises(ValueError):
            q.von_neumann_entropy(q.DensityMatrix(negative))

    def test_spectrum_out_of_range_is_numerical_error(self):
        negative = np.diag([1.1, -0.1]).astype(complex)
        with pytest.raises(NumericalError, match="beyond tolerance"):
            q.von_neumann_entropy(q.DensityMatrix(negative))
        assert issubclass(NumericalError, ValueError)
        assert "NumericalError" not in q.__all__

    def test_subsystem_entropy_matches_literal_route(self):
        rng = np.random.default_rng(4)
        bs = random_branching(rng, 4)
        psi = q.branching_to_dense(bs)
        for keep in ([0], [1, 3], [0, 2, 4], [1, 2, 3, 4]):
            lit = q.von_neumann_entropy(q.reduced_density(psi, keep))
            assert q.subsystem_entropy(psi, keep) == pytest.approx(lit, abs=1e-10)


class TestMutualInformation:
    def test_product_state_no_correlations(self):
        init = q.random_product_state(5, 6)
        psi = q.dense_product_state(init)
        for frag in ([1], [2, 4], [1, 2, 3, 4]):
            assert abs(q.mutual_information(psi, frag)) <= 1e-10

    def test_bell_pair_two_bits(self):
        psi = q.branching_to_dense(bell_branching())
        assert q.mutual_information(psi, [1]) == pytest.approx(2.0, abs=1e-9)

    def test_monotone_under_fragment_growth(self):
        spec = q.build_model("CPDI", 2)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            inst = q.sample_instance(spec, rng)
            init = q.random_product_state(3, rng)
            psi = q.evolve_dense(inst, q.dense_product_state(init), 1.3)
            assert q.mutual_information(psi, [1]) <= q.mutual_information(psi, [1, 2]) + 1e-9

    def test_full_fragment_doubles_system_entropy(self):
        rng = np.random.default_rng(2)
        bs = random_branching(rng, 4)
        psi = q.branching_to_dense(bs)
        s_s = q.subsystem_entropy(psi, [0])
        assert q.mutual_information(psi, [1, 2, 3, 4]) == pytest.approx(2 * s_s, abs=1e-9)

    def test_fragment_spec_type(self):
        psi = q.branching_to_dense(bell_branching())
        frag = q.FragmentSpec((1,))
        assert q.mutual_information(psi, frag) == pytest.approx(2.0, abs=1e-9)
        assert q.FragmentSpec((2, 4)).complement(5) == q.FragmentSpec((1, 3, 5))
        with pytest.raises(ValueError):
            q.FragmentSpec((1, 1))
        with pytest.raises(ValueError):
            q.mutual_information(psi, [2])  # out of range for one environment site


class TestDecoherenceFactor:
    def test_identity_at_t0(self):
        # coefficients with exactly representable squared magnitudes
        coeffs = np.array([[0.6, 0.8], [0.8, 0.6j], [0.6j, 0.8], [1.0, 0.0], [0.0, 1.0]])
        bs = q.evolve_branching(q.ProductCoeffs(coeffs), np.ones(4), 0.0)
        assert q.fragment_decoherence_factor(bs, [1, 2, 3, 4]) == 1.0 + 0.0j
        random_bs = q.evolve_branching(q.random_product_state(5, 8), np.ones(4), 0.0)
        assert q.fragment_decoherence_factor(random_bs, [1, 2, 3, 4]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_empty_fragment(self):
        bs = random_branching(np.random.default_rng(3), 3)
        assert q.fragment_decoherence_factor(bs, []) == 1.0 + 0.0j

    def test_product_over_sites(self):
        bs = random_branching(np.random.default_rng(5), 4)
        product = bs.site_overlap(2) * bs.site_overlap(4)
        assert q.fragment_decoherence_factor(bs, [2, 4]) == pytest.approx(product)

    def test_magnitude_shrinks_with_fragment(self):
        bs = random_branching(np.random.default_rng(9), 5)
        prev = 1.0
        for n in range(1, 6):
            mag = abs(q.fragment_decoherence_factor(bs, range(1, n + 1)))
            assert mag <= prev + 1e-12
            assert mag <= 1.0 + 1e-12
            prev = mag


class TestHolevo:
    def test_zero_at_t0(self):
        init = q.random_product_state(4, 10)
        bs = q.evolve_branching(init, np.ones(3), 0.0)
        assert q.holevo_branching(bs, [1, 2]) == pytest.approx(0.0, abs=1e-12)

    def test_bell_pair_one_bit(self):
        bs = bell_branching()
        assert q.holevo_branching(bs, [1]) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_mutual_information(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            bs = random_branching(rng, 4)
            psi = q.branching_to_dense(bs)
            for n in range(1, 5):
                frag = list(range(1, n + 1))
                chi = q.holevo_branching(bs, frag)
                i_val = q.mutual_information(psi, frag)
                s_s = q.subsystem_entropy(psi, [0])
                assert -1e-12 <= chi <= i_val + 1e-9
                assert i_val <= 2 * s_s + 1e-9


class TestClosedFormKernel:
    @settings(max_examples=40)
    @given(data=st.data(), n_env=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    def test_mask_table_bounds_and_dense_oracle(self, data, n_env, seed):
        n_r = data.draw(st.integers(1, 3), label="stacked realizations")
        n_f = data.draw(st.integers(1, 4), label="fragment columns")
        n_s = data.draw(st.integers(1, 3), label="subsets per column")
        masks = data.draw(hnp.arrays(bool, (n_r, n_f, n_s, n_env)), label="masks")
        rng = np.random.default_rng(seed)
        inits = [q.random_product_state(n_env + 1, rng) for _ in range(n_r)]
        fields = rng.uniform(-1.0, 1.0, (n_r, n_env))
        times = np.sort(rng.uniform(0.0, 4.0, 3))
        weights = np.array([abs(a) ** 2 * abs(b) ** 2 for (a, b) in (i.coeffs[0] for i in inits)])
        site_coeffs = np.array([init.coeffs[1:] for init in inits])
        i_all, chi_all, s_all = _closed_form_tables(weights, site_coeffs, fields, times, masks)
        assert i_all.shape == chi_all.shape == (n_r, 3, n_f)
        assert s_all.shape == (n_r, 3)
        for r, init in enumerate(inits):
            # each realization's slice is the R = 1 call, bit for bit
            alone = _closed_form_tables(
                weights[r:r + 1], site_coeffs[r:r + 1], fields[r:r + 1], times, masks[r:r + 1]
            )
            for stacked, single in zip((i_all, chi_all, s_all), alone):
                np.testing.assert_array_equal(stacked[r], single[0])
            i_vals, chi_vals, s_sys = i_all[r], chi_all[r], s_all[r]
            assert np.all(chi_vals >= -1e-12)
            assert np.all(chi_vals <= i_vals + 1e-12)  # discord I - chi >= -1e-12
            assert np.all(i_vals <= 2.0 * s_sys[:, None] + 1e-12)
            for ti, t in enumerate(times):
                bs = q.evolve_branching(init, fields[r], t)
                psi = q.branching_to_dense(bs)
                assert abs(s_sys[ti] - q.subsystem_entropy(psi, [0])) < 1e-9
                env_sq = abs(bs.overlap()) ** 2
                for fi, rows in enumerate(masks[r]):
                    subsets = [np.flatnonzero(row) + 1 for row in rows]
                    info = np.mean([q.mutual_information(psi, sites) for sites in subsets])
                    assert abs(i_vals[ti, fi] - info) < 1e-9
                    # Holevo one subset at a time, from the scalar overlaps
                    radicands = [
                        max(0.0, 1.0 - 4.0 * weights[r] * (abs(bs.overlap(sites)) ** 2 - env_sq))
                        for sites in subsets
                    ]
                    cond = np.mean([q.binary_entropy(0.5 + 0.5 * np.sqrt(x)) for x in radicands])
                    assert abs(chi_vals[ti, fi] - (s_sys[ti] - cond)) < 1e-12


class TestHolevoGridOracle:
    def test_product_state_zero(self):
        psi = q.dense_product_state(q.random_product_state(3, 2))
        assert q.holevo_grid_oracle(psi, [1], 16) == pytest.approx(0.0, abs=1e-9)

    def test_bell_pair(self):
        psi = q.branching_to_dense(bell_branching())
        assert q.holevo_grid_oracle(psi, [1], 64) == pytest.approx(1.0, abs=1e-6)

    def test_lower_bound_and_tightness(self):
        rng = np.random.default_rng(17)
        for _ in range(4):
            bs = random_branching(rng, 3)
            psi = q.branching_to_dense(bs)
            site = int(rng.integers(1, 4))
            exact = q.holevo_branching(bs, [site])
            grid = q.holevo_grid_oracle(psi, [site], 64)
            assert grid <= exact + 1e-9
            assert exact - grid <= 0.01

    def test_rejects_bad_inputs(self):
        psi = q.branching_to_dense(bell_branching())
        with pytest.raises(ValueError):
            q.holevo_grid_oracle(psi, [1], 8)
        psi3 = q.dense_product_state(q.random_product_state(3, 1))
        with pytest.raises(ValueError):
            q.holevo_grid_oracle(psi3, [1, 2], 32)


class TestDiscord:
    def test_zero_at_t0(self):
        init = q.random_product_state(4, 20)
        bs = q.evolve_branching(init, np.ones(3), 0.0)
        psi = q.branching_to_dense(bs)
        assert q.quantum_discord(psi, bs, [1, 2]) == pytest.approx(0.0, abs=1e-10)

    def test_bell_pair_one_bit(self):
        bs = bell_branching()
        psi = q.branching_to_dense(bs)
        assert q.quantum_discord(psi, bs, [1]) == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            bs = random_branching(rng, 4)
            psi = q.branching_to_dense(bs)
            for n in range(5):
                assert q.quantum_discord(psi, bs, list(range(1, n + 1))) >= -1e-9


class TestPurityComplementarity:
    def test_fragment_vs_complement_block(self):
        rng = np.random.default_rng(29)
        for _ in range(3):
            bs = random_branching(rng, 4)
            psi = q.branching_to_dense(bs)
            for n in range(5):
                frag = list(range(1, n + 1))
                rest = [0] + [s for s in range(1, 5) if s not in frag]
                s_f = q.von_neumann_entropy(q.reduced_density(psi, frag))
                s_rest = q.von_neumann_entropy(q.reduced_density(psi, rest))
                assert s_f == pytest.approx(s_rest, abs=1e-9)

    @settings(max_examples=40)
    @given(data=st.data(), n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
    def test_fragment_entropy_equals_complement_entropy(self, data, n, seed):
        # a global pure state gives both sides of any cut the same entropy, so
        # S_F = S(system + the fragment's complement) and S_SF = S(complement)
        size = data.draw(st.integers(0, n - 1), label="fragment size")
        env = data.draw(st.permutations(range(1, n)), label="environment order")
        frag, rest = list(env[:size]), list(env[size:])
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi = q.PureState(n, amps / np.linalg.norm(amps))
        s_f = q.subsystem_entropy(psi, frag)
        s_sf = q.subsystem_entropy(psi, [0, *frag])
        assert abs(s_f - q.subsystem_entropy(psi, [0, *rest])) < 1e-12
        assert abs(s_sf - q.subsystem_entropy(psi, rest)) < 1e-12


class TestWeakDecoherenceRegime:
    def test_mutual_information_expansion(self):
        rng = np.random.default_rng(31)
        for _ in range(4):
            bs = small_overlap_branching(rng)
            psi = q.branching_to_dense(bs)
            gam = np.array([bs.site_overlap(s) for s in range(1, bs.n_env + 1)])
            g_env = abs(np.prod(gam)) ** 2
            alpha0_sq = abs(bs.alpha0) ** 2
            for n in range(1, bs.n_env):
                g_f = abs(np.prod(gam[:n])) ** 2
                g_fb = abs(np.prod(gam[n:])) ** 2
                exact = q.mutual_information(psi, range(1, n + 1))
                approx = q.weak_decoherence_mutual_info(g_env, g_f, g_fb, alpha0_sq)
                assert abs(exact - approx) <= 5e-3
