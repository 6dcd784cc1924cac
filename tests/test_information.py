import math
from itertools import product

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

    def test_edge_normalized_state_has_unit_trace(self):
        # ||psi|| = 1 + 8e-10 passes the state's own 1e-9 check, so its
        # reductions must pass DensityMatrix's 1e-9 trace check
        product = q.dense_product_state(q.random_product_state(5, 3))
        edge = q.PureState(5, product.amplitudes * (1.0 + 8e-10))
        for keep in ((0,), (0, 1), (1, 2, 3)):
            rho = q.reduced_density(edge, keep)
            assert abs(np.trace(rho.matrix).real - 1.0) < 1e-15
            assert abs(q.von_neumann_entropy(rho) - q.subsystem_entropy(edge, keep)) < 1e-12
        assert q.holevo_grid_oracle(edge, [1], 16) == pytest.approx(0.0, abs=1e-9)
        # a state of unit norm keeps the bits of its reduction
        pair = q.PureState(2, [0.6, 0.0, 0.0, 0.8j])
        assert pair.norm_sq == 1.0
        gram = information._gram(pair, _cut(2, (0,)))  # rows on the kept qubit
        assert np.array_equal(q.reduced_density(pair, (0,)).matrix, gram)


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

    def test_one_plan_lookup_per_call(self, monkeypatch):
        psi = random_state(6, 6)
        cut, lookups = _cut, []
        monkeypatch.setattr(
            information, "_cut", lambda n, keep: lookups.append(keep) or cut(n, keep)
        )
        for func in (q.subsystem_entropy, q.reduced_density):
            for keep in ((), (0,), (0, 2, 3), [1, 4], np.array([5, 0, 2]), (1, 2, 3, 4, 5)):
                cut.cache_clear()
                for hits in (0, 1):  # a miss, then a hit
                    lookups.clear()
                    func(psi, keep)
                    assert len(lookups) == 1, (func.__name__, keep)
                    assert cut.cache_info()[:2] == (hits, 1), (func.__name__, keep)


@pytest.fixture
def gram_block_bytes(monkeypatch):
    """Set the Gram block budget for the rest of the test."""
    return lambda nbytes: monkeypatch.setattr(information, "_GRAM_BLOCK_BYTES", nbytes)


@pytest.fixture
def gram_blocks(monkeypatch):
    """The number of column blocks of each blocked Gram, recorded as ``_gram``
    draws the blocks' indices from ``itertools.product``."""
    counts = []

    def counted(*args, **kwargs):
        indices = list(product(*args, **kwargs))
        counts.append(len(indices))
        return indices

    monkeypatch.setattr(information, "product", counted)
    return counts


class TestBlockedGram:
    def test_matches_literal_route_on_a_multi_block_state(self, gram_blocks):
        psi = random_state(17, 17)  # 2 MiB: more than one 1 MiB block
        keeps = {
            "prefix": (1, 2, 3, 4),
            "joint": (0, 1, 2, 3, 4),
            "scattered": (2, 5, 11, 16),
            "larger than half": (0, 1, 3, 5, 7, 9, 11, 13, 15),
        }
        for label, keep in keeps.items():
            assert _cut(17, keep).on_keep == (len(keep) <= 8), label
            literal = q.von_neumann_entropy(q.reduced_density(psi, keep))
            assert abs(q.subsystem_entropy(psi, keep) - literal) < 1e-10, label
            assert gram_blocks.pop() >= 2 and not gram_blocks, label

    def test_many_blocks_agree_with_one(self, gram_block_bytes, gram_blocks):
        psi = random_state(9, 8)  # N = 8: 8 KiB, one block by default
        keeps = [(), (0,), (3,), (1, 2, 3), (0, 1, 2, 3), (2, 5, 7, 8), (0, 2, 5, 7, 8),
                 tuple(range(1, 9)), tuple(range(9))]
        one = [q.subsystem_entropy(psi, keep) for keep in keeps]
        assert gram_blocks == []  # one product each, no blocks
        gram_block_bytes(256)  # 16 amplitudes per block
        many = [q.subsystem_entropy(psi, keep) for keep in keeps]
        # every cut but the two trivial ones (d = 1) takes a Gram
        assert len(gram_blocks) == len(keeps) - 2 and min(gram_blocks) >= 16
        np.testing.assert_allclose(many, one, rtol=0, atol=1e-12)

    def test_fills_the_lower_triangle_of_the_full_gram(self, gram_block_bytes, gram_blocks):
        psi = random_state(12, 12)
        gram_block_bytes(16 << 10)  # 4 blocks, and row panels of 16 rows at d = 64
        for keep in ((1, 2, 3, 4, 5, 6), (0, 3, 5, 7, 9, 11), (0, 1, 2, 9, 10, 11)):
            plan = _cut(12, keep)
            d = plan.shape[0]
            assert d == 64
            # each block fixes the larger side's two leading axes, in index order
            tensor = psi.amplitudes.reshape((2,) * 12).transpose(plan.perm)
            full = np.zeros((d, d), dtype=complex)
            for bits in product((0, 1), repeat=2):
                a = tensor[(slice(None),) * 6 + bits].reshape(d, 16)
                full += a @ a.conj().T
            gram = information._gram(psi, plan)
            assert gram_blocks.pop() == 4
            np.testing.assert_array_equal(np.tril(gram), np.tril(full))

    def test_plan_holds_side_and_blocks(self, gram_blocks):
        psi = random_state(19, 19)  # an 8 MiB register
        plan = _cut(19, (0, 1, 2))
        assert plan.on_keep and plan.shape == (8, 1 << 16)
        assert information._gram(psi, plan).shape == (8, 8)
        plan = _cut(19, tuple(range(12)))
        assert not plan.on_keep and plan.shape == (1 << 7, 1 << 12)
        assert information._gram(psi, plan).shape == (1 << 7, 1 << 7)
        assert gram_blocks == [8, 8]  # of 1 MiB: (8, 2^13), then (2^7, 2^9)


def small_cuts(n):
    """The cuts with at most one qubit on their smaller side: keep nothing,
    qubit 0, all qubits but 0, and all qubits."""
    return [(), (0,), tuple(range(1, n)), tuple(range(n))]


def smaller_side(n, keep):
    rest = tuple(q for q in range(n) if q not in keep)
    return keep if len(keep) <= len(rest) else rest


@pytest.fixture
def refuse_eigvalsh(monkeypatch):
    """Call to make every later Hermitian spectrum fail: the one
    ``subsystem_entropy`` takes (``_spectrum``, the LAPACK routine of
    ``np.linalg.eigvalsh``) and ``np.linalg.eigvalsh`` itself."""

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    def arm():
        monkeypatch.setattr(information, "_spectrum", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)

    return arm


class TestSmallCuts:
    """Cuts with a 1- or 2-dimensional smaller side take no eigvalsh."""

    @staticmethod
    def states():
        for n in range(1, 10):
            yield random_state(n, 100 + n)
            # a plain PureState of a product state, so its cuts take a spectrum
            product = q.dense_product_state(q.random_product_state(n, 200 + n))
            yield q.PureState(n, product.amplitudes)
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
        # (amplitudes scaled by 1 + 2e-9)
        gram = information._gram
        monkeypatch.setattr(
            information, "_gram", lambda psi, plan: (1.0 + 2e-9) ** 2 * gram(psi, plan)
        )
        for keep in cuts:
            with pytest.raises(NumericalError, match="beyond tolerance"):
                q.subsystem_entropy(edge, keep)

    def test_doubled_partition_is_out_of_range(self, monkeypatch):
        psi = random_state(5, 5)
        gram = information._gram  # the Gram of amplitudes doubled
        monkeypatch.setattr(information, "_gram", lambda psi, plan: 4.0 * gram(psi, plan))
        for keep in ((0,), (0, 1)):  # d = 2, then d = 4
            with pytest.raises(NumericalError, match="beyond tolerance"):
                q.subsystem_entropy(psi, keep)


def random_hermitian(d, seed, stack=()):
    rng = np.random.default_rng(seed)
    shape = (*stack, d, d)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return a + np.swapaxes(a, -1, -2).conj()


class TestProductState:
    """A state from ``dense_product_state`` is a product of one-qubit kets:
    every cut of it is exactly 0 with no Gram taken, and its keeps are
    checked as any state's."""

    @settings(max_examples=60)
    @given(data=st.data(), n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
    def test_every_cut_is_exactly_zero(self, data, n, seed):
        size = data.draw(st.integers(0, n), label="kept count")
        keep = data.draw(st.permutations(range(n)), label="order")[:size]
        psi = q.dense_product_state(q.random_product_state(n, seed))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(information, "_gram", lambda psi, plan: pytest.fail("Gram taken"))
            assert q.subsystem_entropy(psi, keep) == 0.0
        # the spectrum of the same amplitudes is 0 up to rounding
        assert abs(q.subsystem_entropy(q.PureState(n, psi.amplitudes), keep)) < 1e-12

    @pytest.mark.parametrize("bad", [[True], (0, False), [1, 1], (2, 0, 2), [4], [-1], (0, 1.5)])
    def test_bad_keeps_still_raise(self, bad):
        psi = q.dense_product_state(q.random_product_state(4, 0))
        for _ in range(2):  # a miss, then with the valid cut below cached
            with pytest.raises(ValueError, match="kept qubits"):
                q.subsystem_entropy(psi, bad)
            assert q.subsystem_entropy(psi, [0, 1]) == 0.0

    def test_evolved_and_rebuilt_states_take_the_spectrum(self):
        # only the builder's own state is known to be a product: an evolved
        # state, or its amplitudes in a new PureState, is a plain PureState
        inst = q.sample_instance(q.build_model("CPDI_S", 4), 2)
        psi0 = q.dense_product_state(q.random_product_state(5, 2))
        psi = q.DiagonalPropagator(inst).evolve(psi0, 1.0)
        assert type(psi) is type(q.PureState(5, psi0.amplitudes)) is q.PureState
        assert q.subsystem_entropy(psi, [0]) > 0.01


class TestPurification:
    """A family's purification has the family's reduction on its low bits, so
    every cut whose smaller side lies in the family has the same entropy on
    it as on the state."""

    @pytest.mark.parametrize("n", [6, 9, 12])
    @pytest.mark.parametrize("order", ["prefix", "random"])
    def test_subsets_and_their_complements_match_the_state(self, n, order):
        rng = np.random.default_rng(n)
        psi = random_state(n, n)
        for f in range(1, (n + 1) // 2):  # f < n / 2
            family = tuple(range(f)) if order == "prefix" else tuple(rng.permutation(n)[:f].tolist())
            phi = information._purification(psi, family)
            assert phi.n_qubits == 2 * f
            for mask in range(1 << f):
                bits = [j for j in range(f) if mask >> j & 1]  # family[j] sits on bit j
                sub = [family[j] for j in bits]
                want = q.subsystem_entropy(psi, sub)
                got = (
                    q.subsystem_entropy(psi, [k for k in range(n) if k not in sub]),
                    q.subsystem_entropy(phi, bits),
                    q.subsystem_entropy(phi, [k for k in range(2 * f) if k not in bits]),
                )
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(sub))

    def test_negative_gram_eigenvalue_raises(self, monkeypatch):
        psi = random_state(4, 0)
        gram = np.diag([-1e-6, 1.0 + 1e-6]).astype(complex)
        monkeypatch.setattr(information, "_gram", lambda psi, plan: gram)
        with pytest.raises(NumericalError, match="beyond tolerance"):
            information._purification(psi, (0,))
        # inside the tolerance the eigenvalue is clamped to 0
        gram[0, 0], gram[1, 1] = -1e-12, 1.0 + 1e-12
        phi = information._purification(psi, (0,))
        assert abs(phi.amplitudes[0]) == abs(phi.amplitudes[1]) == 0.0

    def test_the_larger_side_is_refused(self):
        with pytest.raises(ValueError, match="larger side"):
            information._purification(random_state(4, 0), (0, 1, 2))


def call_keeps(sizes):
    """A prefix sweep's cuts in call order: the system, then each size's
    fragment and system + fragment."""
    frags = [tuple(range(1, s + 1)) for s in sizes]
    return [(0,), *(cut for frag in frags for cut in (frag, (0, *frag)))]


class TestFamilies:
    def test_no_family_within_one_gram_block(self):
        assert information._families(9, call_keeps(range(9)))[0] == ()

    def test_large_n_geometry(self):
        """N = 18, sizes 0, 1, 2, 4, 9, 16, 18: the small cuts fall to two
        families, and the two balanced d = 512 cuts stay on the state."""
        keeps = call_keeps([0, 1, 2, 4, 9, 16, 18])
        families, routes = information._families(19, keeps)
        assert families == ((0, 1, 2, 3, 4), (0, 17, 18))
        on_state = [keep for keep, (source, _) in zip(keeps, routes) if source == 0]
        assert on_state == [(), tuple(range(1, 10)), tuple(range(10)), tuple(range(19))]

    @pytest.mark.parametrize("n", [9, 10])
    def test_routes_match_the_state(self, gram_block_bytes, n):
        gram_block_bytes(1 << 10)
        rng = np.random.default_rng(n)
        psi = random_state(n, n)
        keeps = call_keeps(range(n)) + [
            tuple(rng.permutation(n)[:size].tolist()) for size in rng.integers(0, n + 1, 20)
        ]
        families, routes = information._families(n, keeps)
        assert families
        sources = (psi, *(information._purification(psi, family) for family in families))
        for keep, (source, sub) in zip(keeps, routes):
            got = q.subsystem_entropy(sources[source], sub)
            assert abs(got - q.subsystem_entropy(psi, keep)) < 1e-12, (keep, source, sub)


class TestSpectrum:
    """``_spectrum`` is ``eigvalsh``'s LAPACK routine, so every d >= 4 cut
    keeps the bits it had through ``np.linalg.eigvalsh``."""

    def test_numpy_still_ships_the_private_gufunc(self):
        # ``_spectrum`` wraps ``numpy.linalg._umath_linalg.eigvalsh_lo``, a
        # private name: a numpy that renames it fails here by name
        gram = information._gram(random_state(4, 4), _cut(4, (0, 1)))
        assert information._spectrum(gram).shape == (4,)

    @pytest.mark.parametrize("d", [4, 16, 256])
    def test_is_eigvalsh_bit_for_bit(self, d):
        gram = random_hermitian(d, d)
        assert np.array_equal(information._spectrum(gram), np.linalg.eigvalsh(gram))

    def test_broadcasts_over_a_stack(self):
        grams = random_hermitian(8, 1, stack=(5,))
        spectra = information._spectrum(grams)
        assert spectra.shape == (5, 8)
        assert np.array_equal(spectra, np.linalg.eigvalsh(grams))

    @staticmethod
    def cuts(n):
        """Every cut of up to 9 qubits; at 17 qubits, which take the blocked
        Gram, the joint and fragment prefix cuts and a scattered one."""
        if n <= 9:
            return [tuple(k for k in range(n) if bits >> k & 1) for bits in range(1 << n)]
        prefixes = [tuple(range(start, size)) for size in range(n + 1) for start in (0, 1)]
        return prefixes + [(2, 5, 11, 16)]

    @pytest.mark.parametrize("n, seed", [(5, 50), (9, 90), (17, 17)])
    def test_entropies_are_the_eigvalsh_route_bit_for_bit(self, n, seed):
        psi = random_state(n, seed)
        for keep in self.cuts(n):
            d = _cut(n, keep).shape[0]
            if d < 4:
                continue
            gram = information._gram(psi, _cut(n, keep))
            expected = information._entropy_from_eigenvalues(
                np.linalg.eigvalsh(gram).tolist(), psi.norm_sq
            )
            assert q.subsystem_entropy(psi, keep) == expected, keep

    @pytest.mark.parametrize("n, keep", [(5, (0, 1)), (5, (1, 2, 3)), (17, (0, 1, 2, 3))])
    def test_nan_spectrum_raises(self, monkeypatch, n, keep):
        # LAPACK's gufunc returns NaN where eigvalsh raised LinAlgError; the
        # range check must not let a NaN spectrum sum to entropy 0
        psi = random_state(n, n)
        assert _cut(n, keep).shape[0] >= 4
        assert (n == 17) == (psi.amplitudes.nbytes > information._GRAM_BLOCK_BYTES)
        monkeypatch.setattr(
            information, "_spectrum", lambda gram: np.full(gram.shape[-1], np.nan)
        )
        with pytest.raises(NumericalError, match="beyond tolerance"):
            q.subsystem_entropy(psi, keep)

    @pytest.mark.parametrize("eigs", [[np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan]])
    def test_nan_at_either_end_is_out_of_range(self, eigs):
        with pytest.raises(NumericalError):
            information._entropy_from_eigenvalues(eigs)


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
        for shape in ((2,), (2, 3), (1, 2, 2)):
            with pytest.raises(ValueError, match="square"):
                q.DensityMatrix(np.full(shape, 0.5))
        negative = np.diag([1.1, -0.1]).astype(complex)
        with pytest.raises(ValueError):
            q.von_neumann_entropy(q.DensityMatrix(negative))

    @pytest.mark.parametrize(
        "matrix",
        [[["1", "0"], ["0", "0"]], [[True, False], [False, False]], np.eye(2, dtype=bool),
         [[np.nan, 0.0], [0.0, 1.0]], np.array([[1.0, 0.0], [0.0, np.inf]], dtype=complex)],
    )
    def test_density_matrix_takes_finite_numbers_only(self, matrix):
        with pytest.raises(ValueError, match="matrix: expected finite"):
            q.DensityMatrix(matrix)

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
        # a fragment is any sequence of distinct integral sites
        psi = q.branching_to_dense(bell_branching())
        for frag in ((1,), [1], np.array([1]), [np.int64(1)], [1.0]):
            assert q.mutual_information(psi, frag) == pytest.approx(2.0, abs=1e-9)


SITES_BS = random_branching(np.random.default_rng(11), 3)
SITES_PSI = q.branching_to_dense(SITES_BS)

# every entry point that takes a site list, with the argument its errors name
SITE_LIST_CALLS = {
    "mutual_information": (lambda s: q.mutual_information(SITES_PSI, s), "fragment sites"),
    "fragment_decoherence_factor": (
        lambda s: q.fragment_decoherence_factor(SITES_BS, s), "fragment sites"
    ),
    "holevo_branching": (lambda s: q.holevo_branching(SITES_BS, s), "fragment sites"),
    "holevo_grid_oracle": (
        lambda s: q.holevo_grid_oracle(SITES_PSI, s, resolution=16), "fragment sites"
    ),
    "quantum_discord": (lambda s: q.quantum_discord(SITES_PSI, SITES_BS, s), "fragment sites"),
    "subsystem_entropy": (lambda s: q.subsystem_entropy(SITES_PSI, s), "kept qubits"),
    "reduced_density": (lambda s: q.reduced_density(SITES_PSI, s).matrix, "kept qubits"),
    "BranchingState.overlap": (lambda s: SITES_BS.overlap(s), "sites"),
}
# the entry points that take one size or count
SIZE_CALLS = {
    "asymptotic_mutual_info size": (lambda n: q.asymptotic_mutual_info(n, 3, 0.5), "fragment size"),
    "asymptotic_holevo size": (lambda n: q.asymptotic_holevo(n, 0.5), "fragment size"),
    "asymptotic_mutual_info n_env": (lambda n: q.asymptotic_mutual_info(0, n, 0.5), "n_env"),
}
BAD_SITES = {"non-integral": 1.5, "bool": True, "string": "1", "complex": 1 + 0j}
# whole arguments that are not a list of sites
NOT_LISTS = {"number": 5, "none": None, "digit string": "12", "mapping": {1: 1}}


def site_cases():
    for name, (call, arg) in SITE_LIST_CALLS.items():
        cases = {kind: [value] for kind, value in BAD_SITES.items()}
        cases.update({"repeated": [1, 1], "out of range": [4]})  # 3 environment sites
        cases.update(NOT_LISTS)
        if name == "BranchingState.overlap":
            del cases["none"]  # None is its default: the whole environment
        for kind, sites in cases.items():
            yield pytest.param(call, arg, [1], sites, id=f"{name}-{kind}")
    for name, (call, arg) in SIZE_CALLS.items():
        for kind, value in {**BAD_SITES, "out of range": -1}.items():
            yield pytest.param(call, arg, 1, value, id=f"{name}-{kind}")


class TestSiteLists:
    @pytest.mark.parametrize("call, arg, good, bad", site_cases())
    def test_bad_sites_name_the_argument(self, call, arg, good, bad):
        call(good)  # caches the cut plan of site 1, which True equals
        with pytest.raises(ValueError, match=arg):
            call(bad)

    @pytest.mark.parametrize("name", SITE_LIST_CALLS)
    def test_numpy_and_integral_float_sites(self, name):
        call, _ = SITE_LIST_CALLS[name]
        expected = call([2])
        for sites in ([np.int64(2)], np.array([2]), [2.0]):
            np.testing.assert_array_equal(call(sites), expected)

    def test_integral_keeps_share_one_plan(self):
        _cut.cache_clear()
        for keep in ([1, 2], (1, 2), np.array([1, 2]), [1.0, 2.0]):
            q.subsystem_entropy(SITES_PSI, keep)
        assert _cut.cache_info().currsize == 1


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
        coeffs = np.array([init.coeffs for init in inits])
        i_all, chi_all, s_all = _closed_form_tables(coeffs, fields, times, masks)
        # the Holevo oracle's own branch weights
        weights = np.array([abs(a) ** 2 * abs(b) ** 2 for (a, b) in (i.coeffs[0] for i in inits)])
        assert i_all.shape == chi_all.shape == (n_r, 3, n_f)
        assert s_all.shape == (n_r, 3)
        for r, init in enumerate(inits):
            # each realization's slice is the R = 1 call, bit for bit
            alone = _closed_form_tables(coeffs[r:r + 1], fields[r:r + 1], times, masks[r:r + 1])
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


    def test_radicand_out_of_range_raises(self):
        # 1 - 4wx must lie in [0, 1] within _EIG_TOL; beyond it no clamp hides it
        with pytest.raises(NumericalError, match="radicand"):
            information._rank2_entropy(np.float64(0.3), 1.0)  # radicand -0.2
        with pytest.raises(NumericalError, match="radicand"):
            information._rank2_entropy(np.array([0.25, 0.25]), np.array([0.0, -1e-6]))
        tol = information._EIG_TOL
        inside = information._rank2_entropy(0.25, np.array([1.0 + 0.5 * tol, -0.5 * tol]))
        np.testing.assert_allclose(inside, [1.0, 0.0], atol=1e-4)


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
