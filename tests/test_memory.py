"""Transient memory of the state path on an 18-qubit (4 MiB) register,
measured with tracemalloc, which sees numpy's data buffers."""

import tracemalloc

import numpy as np
import pytest

import qdarwin as q
from qdarwin import dynamics, experiments, information

from helpers import random_generic_instance, random_state

N_QUBITS = 18
STATE_BYTES = 16 << N_QUBITS
SLACK = 64 << 10  # Python objects and ufunc buffers


@pytest.fixture(scope="module")
def psi():
    return random_state(N_QUBITS, 18)


@pytest.fixture(scope="module")
def diagonal():
    jt = np.zeros((N_QUBITS, N_QUBITS, 3, 3))
    jt[0, 1:, 2, 2] = np.linspace(-1.0, 1.0, N_QUBITS - 1)
    jt[1, 2:, 2, 2] = 0.3
    fields = np.zeros((N_QUBITS, 3))
    fields[:, 2] = 0.1
    return q.DiagonalPropagator(q.ModelInstance(n_env=N_QUBITS - 1, j_tensor=jt, fields=fields))


@pytest.fixture(scope="module")
def codi():
    """An 18-qubit CODI instance: 2^17 blocks of 2 x 2."""
    return q.sample_instance(q.build_model("CODI", N_QUBITS - 1), 18)


def peak_bytes(func, *args):
    """Peak traced allocation of one call, after an untraced call has filled
    the caches (the cut plan)."""
    func(*args)
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "keep",
    [
        tuple(range(1, 10)),  # a 9-site fragment: the Gram alone is one state
        (1, 3, 5, 7, 9, 11, 13, 15, 17),  # scattered fragment
        tuple(range(1, 9)),  # an 8-site fragment
        tuple(range(10)),  # system and a 9-site fragment
    ],
)
def test_entropy_allocates_gram_and_bounded_blocks(psi, keep):
    d = information._cut(N_QUBITS, keep).shape[0]  # the smaller side of the cut
    block = information._GRAM_BLOCK_BYTES
    # a block, its conjugate and one row panel of their product; smaller than
    # the state, so no full partition or conjugate copy fits under the bound
    assert 3 * block + SLACK < STATE_BYTES
    assert peak_bytes(q.subsystem_entropy, psi, keep) <= 16 * d * d + 3 * block + SLACK


def test_a_new_gram_budget_holds_for_a_cached_plan(psi, monkeypatch):
    """The cut plan is geometry only, so a budget set after the plan is cached
    sizes the Gram blocks of the next call."""
    keep = tuple(range(1, 9))  # d = 256: a 1 MiB Gram
    d = information._cut(N_QUBITS, keep).shape[0]
    blocked = q.subsystem_entropy(psi, keep)  # caches the plan
    monkeypatch.setattr(information, "_GRAM_BLOCK_BYTES", STATE_BYTES)
    unblocked = q.subsystem_entropy(psi, keep)
    block = 512 << 10  # half the default: panels of 128 rows
    monkeypatch.setattr(information, "_GRAM_BLOCK_BYTES", block)
    assert peak_bytes(q.subsystem_entropy, psi, keep) <= 16 * d * d + 3 * block + SLACK
    assert abs(q.subsystem_entropy(psi, keep) - unblocked) < 1e-12
    assert abs(blocked - unblocked) < 1e-12


def test_product_state_is_built_in_its_own_buffer():
    """The amplitudes are written in place in the one 2^n buffer: besides it,
    one chunk of rows and the two iterator buffers numpy's ufunc keeps for the
    broadcast multiply (np.kron's per-site intermediates reached 1.56 states)."""
    coeffs = q.random_product_state(N_QUBITS, 3)
    chunk_bytes = 16 * dynamics._PRODUCT_CHUNK_ROWS
    ufunc_buffers = 2 * 16 * np.getbufsize()
    bound = STATE_BYTES + chunk_bytes + ufunc_buffers + SLACK
    assert peak_bytes(q.dense_product_state, coeffs) <= bound


def test_diagonal_evolve_allocates_one_state(psi, diagonal):
    assert peak_bytes(diagonal.evolve, psi, 1.3) <= STATE_BYTES + (256 << 10)


def test_dense_propagator_holds_only_its_factorization(codi):
    """The build keeps the modes and the energies (2.5 states for CODI's 2 x 2
    blocks) and no conjugate copy of the modes beside them."""
    tracemalloc.start()
    try:
        prop = q.DensePropagator(codi)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= prop._modes.nbytes + prop._energies.nbytes + SLACK


def test_dense_propagator_build_peaks_at_its_factorization(codi):
    """H's blocks (two states for CODI's 2 x 2 blocks) are filled from one
    in-place phase array per term, with no integer basis or sign pattern, so
    the build peaks while eigh holds H beside the modes and the energies:
    4.5 states, against 5.78 when the phases were formed from the basis."""
    assert peak_bytes(q.DensePropagator, codi) <= 4.5 * STATE_BYTES + SLACK


@pytest.mark.parametrize("flipped", [0, 5])
def test_dense_evolve_allocates_two_states(psi, codi, flipped):
    """The coefficients in the eigenbasis, then the evolved state: at most two
    state-sized temporaries at once, plus einsum's iterator buffers, both when
    the blocks are a view of the state (CODI's flipped system qubit) and when
    they are a permuted copy (the transverse field moved to qubit 5)."""
    fields = codi.fields.copy()
    fields[0, 1], fields[flipped, 1] = 0.0, codi.fields[0, 1]  # CODI's y field
    instance = q.ModelInstance(n_env=codi.n_env, j_tensor=codi.j_tensor, fields=fields)
    assert instance.flip_mask() == 1 << flipped
    evolve = q.DensePropagator(instance).evolve
    assert peak_bytes(evolve, psi, 1.3) <= 2 * STATE_BYTES + (256 << 10)


def test_evolve_leaves_its_input_alone(psi, diagonal):
    before = psi.amplitudes.copy()
    out = diagonal.evolve(psi, 2.0)
    assert out.amplitudes is not psi.amplitudes
    np.testing.assert_array_equal(psi.amplitudes, before)

    small = q.dense_product_state(q.random_product_state(5, 3))
    before = small.amplitudes.copy()
    instance = random_generic_instance(np.random.default_rng(5), 4)
    q.DensePropagator(instance).evolve(small, 2.0)
    np.testing.assert_array_equal(small.amplitudes, before)


def test_state_tables_hold_one_state():
    """A realization steps each state from the previous time's, so while its
    entropies are taken it holds one state, not the initial state as well:
    the peak is one state + the largest Gram + the Gram blocks (one 18-qubit
    CPDI-S realization, whose 9|9 cut makes a Gram as large as the state).
    The second size list takes its small cuts from two families'
    purifications, of at most 4^5 amplitudes each, under the same bound."""
    for sizes in ((0, 1, 8, 17), (0, 1, 2, 4, 8, 15, 17)):
        config = q.ExperimentConfig(
            model="CPDI_S", n_env=N_QUBITS - 1, time_grid=(0.0, 1.0, 2.0),
            fragment_sizes=sizes, realizations=1,
        )
        spec = q.build_model(config.model, config.n_env)
        instance, init, masks = experiments._realization(spec, config, 0)
        propagator = q.DiagonalPropagator(instance)  # built before tracing starts
        frags = [tuple(np.flatnonzero(row) + 1) for row in masks[:, 0]]
        keeps = [(0,), *frags, *((0, *frag) for frag in frags)]
        gram_bytes = max(16 * information._cut(N_QUBITS, keep).shape[0] ** 2 for keep in keeps)
        assert gram_bytes == STATE_BYTES
        bound = STATE_BYTES + gram_bytes + 3 * information._GRAM_BLOCK_BYTES
        times = np.asarray(config.time_grid)
        peak = peak_bytes(experiments._state_tables, propagator, init, times, masks)
        assert peak <= bound, sizes


def test_sweep_memory_does_not_grow_with_realizations(monkeypatch):
    """A sweep folds each chunk of realizations into running sums, so its peak
    is the same at 2 and at 20 chunks."""
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 16 * 4 * 5 * 10)  # 10 per chunk

    def sweep_peak(realizations):
        config = q.ExperimentConfig(
            model="CPDI", n_env=4, time_grid=(0.0, 0.5, 1.0, 2.0),
            fragment_sizes=(0, 1, 2, 3, 4), realizations=realizations,
        )
        return peak_bytes(q.run_sweep, config)

    assert sweep_peak(200) <= 1.1 * sweep_peak(20)


def test_sweep_holds_one_instance_at_a_time():
    """A one-cell sweep puts all 512 realizations in one chunk; each is reduced
    to what its engine reads as it is drawn, so the chunk does not hold 512
    dense coupling tensors of (N + 1)^2 x 9 floats (95 MiB at N = 50)."""
    n_env, realizations = 50, 512
    config = q.ExperimentConfig(
        model="CPDI", n_env=n_env, time_grid=(1.0,), fragment_sizes=(25,),
        realizations=realizations,
    )
    assert experiments._CHUNK_BYTES // 16 >= realizations  # one chunk
    instance_bytes = 8 * 9 * (n_env + 1) ** 2
    assert peak_bytes(q.run_sweep, config) < 0.1 * realizations * instance_bytes
