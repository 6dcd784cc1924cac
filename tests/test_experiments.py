import dataclasses
import json
from collections import Counter
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdarwin as q
from qdarwin import experiments, information
from qdarwin.cli import write_sidecar
from qdarwin.experiments import _fig3_time_grid

from helpers import oracle_entropy, oracle_hamiltonian, oracle_reduced_density


def small_config(**kwargs):
    defaults = dict(
        model="CPDI",
        n_env=4,
        time_grid=(0.0, 0.5, 1.5),
        fragment_sizes=(0, 1, 2, 3, 4),
        realizations=3,
        master_seed=7,
    )
    defaults.update(kwargs)
    return q.ExperimentConfig(**defaults)


class TestMixSeed:
    def test_frozen_values(self):
        # golden values pin the seed derivation across releases
        assert q.mix_seed(0, 0) == 16294208416658607535
        assert q.mix_seed(0, 1) == 7960286522194355700
        assert q.mix_seed(123456789, 0) == 2466975172287755897

    def test_distinct_per_index(self):
        seeds = {q.mix_seed(0, r) for r in range(1000)}
        assert len(seeds) == 1000

    def test_arguments_are_checked_integers(self):
        for args, key in (((1.5, 0), "master_seed"), ((True, 0), "master_seed"),
                          ((1, 2.9), "index"), ((1, "2"), "index")):
            with pytest.raises(ValueError, match=f"{key}: expected an integer"):
                q.mix_seed(*args)
        assert q.mix_seed(123456789.0, 0.0) == q.mix_seed(123456789, 0)


class TestConfig:
    def test_validation_errors(self):
        with pytest.raises(ValueError):
            small_config(time_grid=())
        with pytest.raises(ValueError):
            small_config(time_grid=(1.0, 0.5))
        with pytest.raises(ValueError):
            small_config(time_grid=(-1.0, 0.5))
        with pytest.raises(ValueError):
            small_config(fragment_sizes=(0, 5))
        for sizes in ((), (2, 1), (1, 1)):
            with pytest.raises(ValueError, match="fragment_sizes must be nonempty, strictly"):
                small_config(fragment_sizes=sizes)
        with pytest.raises(ValueError):
            small_config(realizations=0)
        with pytest.raises(ValueError):
            small_config(fragment_policy="middle")
        with pytest.raises(ValueError):
            small_config(fragment_sizes=(0, 1.5))
        with pytest.raises(ValueError, match="prefix"):
            small_config(subsets_per_realization=5)
        with pytest.raises(ValueError):
            small_config(overrides={"sigma": 1.0})
        with pytest.raises(ValueError):
            small_config(model="ZZZ")

    def test_unordered_grids_name_their_key(self):
        # a set has no order: it is refused, not sorted or read in hash order
        for key, bad in (("time_grid", {0.0, 0.5, 1.5}), ("fragment_sizes", frozenset((0, 1)))):
            with pytest.raises(ValueError, match=f"^{key}: expected a list"):
                small_config(**{key: bad})

    def test_integer_fields_reject_non_integral_numbers(self):
        for key in ("n_env", "realizations", "master_seed", "subsets_per_realization"):
            for bad in (1.9, True):
                with pytest.raises(ValueError, match=key):
                    small_config(**{key: bad})
        config = small_config(n_env=2.0, fragment_sizes=(0, 2), realizations=2.0, master_seed=7.0)
        assert (config.n_env, config.realizations, config.master_seed) == (2, 2, 7)
        assert all(type(v) is int for v in (config.n_env, config.realizations, config.master_seed))

    def test_keep_realizations_must_be_a_bool(self):
        for bad in ("no", 0, None):
            with pytest.raises(ValueError, match="keep_realizations"):
                small_config(keep_realizations=bad)
        config = small_config(keep_realizations=np.True_)
        assert config.keep_realizations is True
        assert "keep_realizations" not in config.to_json_dict()

    def test_the_spec_is_built_once_and_held(self):
        config = small_config(model="CPDI_S", overrides={"scramble_half_width": 0.1})
        assert config.spec == q.build_model("CPDI_S", 4, scramble_half_width=0.1)
        assert "spec" not in config.to_json_dict() and "spec" not in repr(config)
        assert dataclasses.replace(config, master_seed=1).spec == config.spec

    def test_json_roundtrip(self):
        config = small_config(
            overrides={"half_width": 2.0},
            fragment_policy="random",
            subsets_per_realization=3,
        )
        doc = config.to_json_dict()
        assert q.ExperimentConfig.from_json_dict(doc) == config


class TestRunSweep:
    def test_deterministic(self):
        a = q.run_sweep(small_config())
        b = q.run_sweep(small_config())
        np.testing.assert_array_equal(a.i_mean, b.i_mean)
        np.testing.assert_array_equal(a.chi_mean, b.chi_mean)
        np.testing.assert_array_equal(a.ratio_mean, b.ratio_mean)

    def test_sweep_matches_scalar_api_per_realization(self):
        for config in (
            small_config(realizations=3, keep_realizations=True),
            small_config(
                realizations=3,
                keep_realizations=True,
                fragment_policy="random",
                subsets_per_realization=3,
            ),
        ):
            res = q.run_sweep(config)
            spec = q.build_model(config.model, config.n_env)
            for r in range(config.realizations):
                rng = np.random.default_rng(q.mix_seed(config.master_seed, r))
                instance = q.sample_instance(spec, rng)
                init = q.random_product_state(config.n_env + 1, rng)
                # documented draw: per size in grid order, each subset is the
                # first n entries of a fresh permutation of the sites
                fragments = [
                    [
                        rng.permutation(np.arange(1, config.n_env + 1))[:n]
                        for _ in range(config.subsets_per_realization)
                    ]
                    if config.fragment_policy == "random"
                    else [range(1, n + 1)]
                    for n in config.fragment_sizes
                ]
                fields = instance.j_tensor[0, 1:, 2, 2]
                for ti, t in enumerate(config.time_grid):
                    bs = q.evolve_branching(init, fields, t)
                    psi = q.branching_to_dense(bs)
                    for fi, subsets in enumerate(fragments):
                        chi = np.mean([q.holevo_branching(bs, f) for f in subsets])
                        info = np.mean([q.mutual_information(psi, f) for f in subsets])
                        where = (config.fragment_policy, r, ti, fi)
                        assert abs(res.chi_values[r, ti, fi] - chi) < 1e-12, where
                        assert abs(res.i_values[r, ti, fi] - info) < 1e-9, where

    @pytest.mark.parametrize("policy,subsets", [("prefix", 1), ("random", 3)])
    @pytest.mark.parametrize("model", ["CPDI", "DPDI"])
    def test_chunking_does_not_change_results(self, monkeypatch, model, policy, subsets):
        calls = Counter()
        kernel = experiments._closed_form_tables

        def counting(*args):
            calls["kernel"] += 1
            return kernel(*args)

        monkeypatch.setattr(experiments, "_closed_form_tables", counting)
        config = small_config(
            model=model, realizations=7, keep_realizations=True,
            fragment_policy=policy, subsets_per_realization=subsets,
        )
        cell_bytes = 16 * subsets * len(config.time_grid) * len(config.fragment_sizes)
        runs = []
        # chunks of 1, of 3 (the last one holding 1), and one chunk of all 7
        for budget, kernel_calls in ((1, 7), (3 * cell_bytes, 3), (1 << 40, 1)):
            calls.clear()
            monkeypatch.setattr(experiments, "_CHUNK_BYTES", budget)
            runs.append(q.run_sweep(config))
            assert calls["kernel"] == kernel_calls
        fields = (
            "i_values", "chi_values", "discord_values", "ratio_values", "s_values",
            "smax_values", "i_mean", "i_stderr", "chi_mean", "chi_stderr", "discord_mean",
            "discord_stderr", "s_mean", "s_stderr", "ratio_mean", "ratio_stderr",
        )
        for res in runs[1:]:
            for name in fields:
                np.testing.assert_array_equal(getattr(res, name), getattr(runs[0], name), name)
        # realization r depends on mix_seed(master_seed, r) alone
        head = q.run_sweep(dataclasses.replace(config, realizations=3))
        for res in runs:
            for name in fields[:6]:
                np.testing.assert_array_equal(getattr(head, name), getattr(res, name)[:3], name)

    @pytest.mark.parametrize("model", ["CPDI", "CODI", "CPDI_S"])
    def test_streamed_statistics_do_not_depend_on_chunks(self, monkeypatch, model):
        """Without kept values the statistics are folded chunk by chunk; the
        means still equal np.mean over the realizations bit for bit, and
        neither means nor standard errors depend on the chunk size."""
        config = small_config(model=model, realizations=7, fragment_policy="random",
                              subsets_per_realization=2)
        cell_bytes = 32 * len(config.time_grid) * len(config.fragment_sizes)
        fields = [f"{name}_{kind}" for name in ("i", "chi", "discord", "s", "ratio")
                  for kind in ("mean", "stderr")]
        runs = []
        for budget in (1, 3 * cell_bytes, 1 << 40):
            monkeypatch.setattr(experiments, "_CHUNK_BYTES", budget)
            runs.append(q.run_sweep(config))
        for res in runs[1:]:
            for name in fields:
                np.testing.assert_array_equal(getattr(res, name), getattr(runs[0], name), name)
        kept = q.run_sweep(dataclasses.replace(config, keep_realizations=True))
        for name in ("i", "chi", "discord", "s", "ratio"):
            values = getattr(kept, f"{name}_values")
            if values is None:
                assert model != "CPDI" and np.isnan(getattr(runs[0], f"{name}_mean")).all()
                continue
            if name == "s":
                values = np.repeat(values[:, :, None], len(config.fragment_sizes), axis=2)
            np.testing.assert_array_equal(getattr(runs[0], f"{name}_mean"),
                                          np.mean(values, axis=0), name)
            np.testing.assert_allclose(getattr(runs[0], f"{name}_stderr"),
                                       np.std(values, axis=0, ddof=1) / np.sqrt(7),
                                       rtol=0, atol=1e-15, err_msg=name)

    @pytest.mark.parametrize("subsets", [8, 12, 40])
    @pytest.mark.parametrize("model", ["CPDI", "DPDI"])
    def test_closed_form_cell_does_not_depend_on_the_grid(self, model, subsets):
        """The closed form averages a cell's subsets by a running sum in draw
        order, so the t = 1 cell has the same bytes on a one-cell grid."""
        cells = []
        for grid in ((1.0,), (1.0, 2.0), (0.3, 1.0)):
            res = q.run_sweep(small_config(
                model=model, n_env=8, time_grid=grid, fragment_sizes=(3,), realizations=5,
                fragment_policy="random", subsets_per_realization=subsets,
                keep_realizations=True,
            ))
            ti = grid.index(1.0)
            cells.append((res.i_values[:, ti], res.chi_values[:, ti]))
        for i_vals, chi_vals in cells[1:]:
            np.testing.assert_array_equal(i_vals, cells[0][0])
            np.testing.assert_array_equal(chi_vals, cells[0][1])

    @pytest.mark.parametrize("model", ["CODI", "CPDI_S", "CPDI"])
    def test_subsets_are_averaged_left_to_right(self, model):
        """Every engine averages a cell's subsets with one running sum in
        subset order: each per-realization I equals, bit for bit, a Python sum
        over the subsets of the engine's own per-cut entropies, divided by S.
        Nine subsets pass numpy's 8-element pairwise block, so ``np.mean``
        rounds some cell differently and the comparison can fail."""
        config = small_config(
            model=model, n_env=6, time_grid=(0.5, 1.0, 2.0), fragment_sizes=(1, 2, 3, 4),
            realizations=2, fragment_policy="random", subsets_per_realization=9,
            keep_realizations=True,
        )
        res = q.run_sweep(config)
        times = np.asarray(config.time_grid)
        pairwise_differs = False
        for r in range(config.realizations):
            instance, init, masks = experiments._realization(config.spec, config, r)
            if res.engine == "branching":
                fields = instance.j_tensor[0, 1:, 2, 2]
                tables = experiments._closed_form_tables(
                    init.coeffs[None], fields[None], times, masks[None]
                )
                s_s, s_f, s_sf = (table[0] for table in tables[:3])
            else:
                engine = q.DiagonalPropagator if res.engine == "diagonal" else q.DensePropagator
                s_s, s_f, s_sf = experiments._state_tables(engine(instance), init, times, masks)
            for ti, fi in np.ndindex(res.i_values.shape[1:]):
                terms = [float(s_s[ti] + s_f[si, ti, fi] - s_sf[si, ti, fi]) for si in range(9)]
                total = 0.0
                for term in terms:
                    total += term
                assert res.i_values[r, ti, fi] == total / 9, (r, ti, fi)
                pairwise_differs |= np.mean(terms) != total / 9
        assert pairwise_differs

    def test_one_cell_tables_fold_in_realization_order(self):
        values = np.random.default_rng(3).normal(500.0, 10.0, (200, 1, 1))
        results = []
        for size in (1, 7, 200):
            stats = experiments._RunningStats()
            for start in range(0, 200, size):
                stats.add([values[start:start + size]])
            results.append(stats.mean_stderr())
        for mean, stderr in results[1:]:
            np.testing.assert_array_equal(mean, results[0][0])
            np.testing.assert_array_equal(stderr, results[0][1])
        total = 0.0
        for value in values[:, 0, 0]:
            total += float(value)
        assert results[0][0][0, 0, 0] == total / 200

    def test_variance_clamp_is_bounded(self):
        stats = experiments._RunningStats()
        stats.add([np.full((4, 1, 2), 0.3), np.full((4, 1, 2), -2.0)])
        _, stderr = stats.mean_stderr()
        assert stderr.shape == (2, 1, 2)
        assert np.array_equal(stderr, np.zeros_like(stderr))
        # a spread below zero by more than rounding is a numerical failure
        stats.add([np.array([[[0.3, 0.7]]]), np.array([[[-2.0, -2.0]]])])
        stats.sums[2, 0, 0, 1] = 0.0  # sum(d^2) below sum(d)^2 / R
        with pytest.raises(information.NumericalError, match="negative variance"):
            stats.mean_stderr()

    def test_vanishing_smax_is_counted(self, monkeypatch, tmp_path):
        draw = experiments.random_product_state

        def system_in_zero(n_qubits, rng):
            coeffs = draw(n_qubits, rng).coeffs.copy()
            coeffs[0] = (1.0, 0.0)
            return q.ProductCoeffs(coeffs)

        monkeypatch.setattr(experiments, "random_product_state", system_in_zero)
        res = q.run_sweep(small_config(realizations=4))
        assert res.smax_zeroed == 4
        assert np.all(res.ratio_mean == 0.0)
        write_sidecar(res, tmp_path / "meta.json")
        assert json.loads((tmp_path / "meta.json").read_text())["smax_zeroed"] == 4

    def test_dense_and_branching_engines_agree(self, monkeypatch):
        config = small_config(realizations=4, keep_realizations=True)
        branching = q.run_sweep(config)
        assert branching.engine == "branching"
        # CPDI is z-only, so both state engines can run it as well
        for engine in ("dense", "diagonal"):
            monkeypatch.setattr(experiments, "_engine", lambda spec: engine)
            forced = q.run_sweep(config)
            assert forced.engine == engine
            assert np.max(np.abs(branching.i_values - forced.i_values)) < 1e-7

    def test_monotone_in_fragment_size(self):
        res = q.run_sweep(small_config(realizations=5, keep_realizations=True))
        diffs = np.diff(res.i_values, axis=2)
        assert np.min(diffs) > -1e-9

    def test_dpdi_recurrence(self):
        config = small_config(
            model="DPDI", time_grid=(np.pi,), realizations=4, keep_realizations=True
        )
        res = q.run_sweep(config)
        assert np.max(np.abs(res.i_values)) <= 1e-9

    def test_long_time_ratio_tracks_asymptotics(self):
        config = q.ExperimentConfig(
            model="CPDI",
            n_env=8,
            time_grid=(2.0,),
            fragment_sizes=(4,),
            realizations=100,
            master_seed=0,
            keep_realizations=True,
        )
        res = q.run_sweep(config)
        predicted = []
        for r in range(100):
            rng = np.random.default_rng(q.mix_seed(0, r))
            q.sample_instance(q.build_model("CPDI", 8), rng)
            init = q.random_product_state(9, rng)
            a0 = abs(init.coeffs[0, 0]) ** 2
            predicted.append(q.asymptotic_mutual_info(4, 8, a0) / q.max_system_entropy(a0))
        measured = res.ratio_mean[0, 0]
        assert abs(measured - np.mean(predicted)) < 0.05

    def test_relaxation_time(self):
        # the system entropy saturates within a time of order one
        config = q.ExperimentConfig(
            model="CPDI",
            n_env=8,
            time_grid=(1.0,),
            fragment_sizes=(0,),
            realizations=100,
            master_seed=0,
            keep_realizations=True,
        )
        res = q.run_sweep(config)
        assert np.mean(res.s_values[:, 0] / res.smax_values) >= 0.9

    def test_random_subsets_policy(self):
        config = small_config(fragment_policy="random", subsets_per_realization=2)
        a = q.run_sweep(config)
        b = q.run_sweep(config)
        np.testing.assert_array_equal(a.i_mean, b.i_mean)
        assert np.all(a.i_mean >= -1e-12)
        assert np.all(a.i_mean <= 2.0 + 1e-9)
        # the empty and full fragments are policy-independent
        prefix = q.run_sweep(small_config())
        np.testing.assert_allclose(a.i_mean[:, 0], prefix.i_mean[:, 0], atol=1e-12)
        np.testing.assert_allclose(a.i_mean[:, -1], prefix.i_mean[:, -1], atol=1e-12)

    def test_codi_has_no_holevo_columns(self):
        config = small_config(model="CODI", n_env=3, fragment_sizes=(0, 1, 2, 3))
        res = q.run_sweep(config)
        assert not res.has_holevo
        assert np.isnan(res.chi_mean).all()
        assert np.isnan(res.discord_mean).all()
        assert np.isfinite(res.i_mean).all()

    def test_cpdis_uses_diagonal_and_skips_holevo(self):
        config = small_config(model="CPDI_S", n_env=3, fragment_sizes=(0, 1, 2, 3))
        res = q.run_sweep(config)
        assert not res.has_holevo
        assert np.isnan(res.chi_mean).all()

    def test_stderr_zero_for_single_realization(self):
        res = q.run_sweep(small_config(realizations=1))
        assert np.all(res.i_stderr == 0.0)

    def test_value_grid_lookup(self):
        res = q.run_sweep(small_config())
        np.testing.assert_array_equal(res.value_grid("I"), res.i_mean)
        with pytest.raises(ValueError):
            res.value_grid("entropy")


XY_PAIRS = [a + b for a in "xyz" for b in "xyz" if a + b != "zz"]
HALF_WIDTHS = st.sampled_from((0.5, 1.0, 2.0))


@st.composite
def sweep_specs(draw):
    """A spec of 1..5 environment sites aimed at one engine: pure zz dephasing
    (branching); zz couplings plus a system z field, intra couplings or
    environment z fields (diagonal); or that with x or y terms in one place,
    the system field, the system couplings, the intra couplings or an
    environment field (dense)."""
    n = draw(st.integers(1, 5))
    target = draw(st.sampled_from(("branching", "diagonal", "dense")))
    places = ["b0", "env_fields"] + ["intra_env"] * (n > 1)  # intra couplings need 2 sites
    extras = set()
    if target != "branching":
        extras = draw(st.sets(st.sampled_from(places), min_size=target == "diagonal"))
    transverse = draw(st.sampled_from(["sys_env", *places])) if target == "dense" else None

    def law():
        return q.ContinuousUniform(draw(HALF_WIDTHS))

    def axes(where):
        return draw(st.sampled_from(XY_PAIRS)) if where == transverse else "zz"

    sites = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    sys_env = {(a, site, b): law() for site in sites for a, b in [axes("sys_env")]}
    b0 = [0.0, 0.0, draw(st.sampled_from((-1.0, 0.6))) if "b0" in extras else 0.0]
    if transverse == "b0":
        b0[draw(st.integers(0, 1))] = draw(st.sampled_from((-0.8, 1.0)))
    intra_env, env_fields = {}, {}
    if "intra_env" in extras or transverse == "intra_env":
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for i, j in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)):
            a, b = axes("intra_env")
            intra_env[i, j, a, b] = law()
    if "env_fields" in extras or transverse == "env_fields":
        for site in draw(st.lists(st.integers(1, n), min_size=1, unique=True)):
            env_fields[site, "z"] = law()
        if transverse == "env_fields":
            env_fields[draw(st.integers(1, n)), draw(st.sampled_from("xy"))] = law()
    return q.ModelSpec(label="random", n_env=n, b0=b0, sys_env=sys_env,
                       intra_env=intra_env, env_fields=env_fields)


def structural_engine(spec):
    """The engine the README's rule names: dense for any x or y term, the
    branching form for system-environment zz couplings alone, else diagonal."""
    keys = [*spec.sys_env, *spec.intra_env, *spec.env_fields]
    axes = "".join(part for key in keys for part in key if isinstance(part, str))
    if spec.b0[0] or spec.b0[1] or set(axes) & set("xy"):
        return "dense"
    if not any(spec.b0) and not spec.intra_env and not spec.env_fields:
        return "branching"
    return "diagonal"


class TestSweepOracle:
    """Every engine's sweep tables, realization by realization, against the
    README's documented draw evolved by a full eigendecomposition of the
    independently built Hamiltonian."""

    @settings(max_examples=40, deadline=None)
    @given(
        spec=sweep_specs(),
        times=st.lists(st.floats(0.0, 3.0, allow_subnormal=False), min_size=1, max_size=3,
                       unique=True).map(sorted),
        data=st.data(),
        policy=st.sampled_from(("prefix", "random")),
        realizations=st.integers(1, 3),
        master_seed=st.integers(0, 2**64 - 1),
    )
    def test_sweep_matches_the_eigh_oracle(self, spec, times, data, policy,
                                           realizations, master_seed):
        n = spec.n_env
        sizes = sorted(data.draw(st.sets(st.integers(0, n), min_size=1)))
        subsets = data.draw(st.integers(1, 3)) if policy == "random" else 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "build_model", lambda kind, n_env, **overrides: spec)
            config = q.ExperimentConfig(
                model="CPDI", n_env=n, time_grid=times, fragment_sizes=sizes,
                realizations=realizations, master_seed=master_seed, fragment_policy=policy,
                subsets_per_realization=subsets, keep_realizations=True,
            )
            res = q.run_sweep(config)
        assert res.engine == structural_engine(spec)
        i_oracle = np.empty((realizations, len(times), len(sizes)))
        s_oracle = np.empty((realizations, len(times)))
        for r in range(realizations):
            rng = np.random.default_rng(q.mix_seed(master_seed, r))
            instance = q.sample_instance(spec, rng)
            init = q.random_product_state(n + 1, rng)
            fragments = [
                [rng.permutation(np.arange(1, n + 1))[:size] for _ in range(subsets)]
                if policy == "random" else [np.arange(1, size + 1)]
                for size in sizes
            ]
            energies, modes = np.linalg.eigh(oracle_hamiltonian(instance))
            # site k on bit k: the system's pair is the last Kronecker factor
            psi0 = reduce(np.kron, init.coeffs[::-1])
            for ti, t in enumerate(times):
                psi = modes @ (np.exp(-1j * energies * t) * (modes.conj().T @ psi0))

                def entropy(keep):
                    return oracle_entropy(oracle_reduced_density(psi, list(keep)))

                s_sys = s_oracle[r, ti] = entropy([0])
                for fi, frags in enumerate(fragments):
                    i_oracle[r, ti, fi] = np.mean(
                        [s_sys + entropy(f) - entropy([0, *f]) for f in frags]
                    )
        np.testing.assert_allclose(res.i_values, i_oracle, rtol=0, atol=1e-9)
        np.testing.assert_allclose(res.s_values, s_oracle, rtol=0, atol=1e-9)
        np.testing.assert_allclose(res.i_mean, i_oracle.mean(axis=0), rtol=0, atol=1e-9)
        np.testing.assert_allclose(res.s_mean, np.repeat(s_oracle.mean(axis=0)[:, None],
                                                         len(sizes), axis=1), rtol=0, atol=1e-9)
        if res.engine == "branching":
            assert np.all(res.chi_values >= -1e-9)
            assert np.all(res.chi_values <= res.i_values + 1e-9)
        else:
            assert res.chi_values is None and np.isnan(res.chi_mean).all()


class TestCallStructure:
    """Per realization a state engine builds one propagator, evolves once per
    time and takes one partial-trace entropy per (time, side, subset): the
    system once, then each subset's fragment and system + fragment."""

    @staticmethod
    def _count(monkeypatch):
        counts = Counter()

        def counting(key, func):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return func(*args, **kwargs)
            return wrapper

        for key, name in (
            ("entropy", "subsystem_entropy"),
            ("sample", "sample_instance"),
            ("product_state", "random_product_state"),
            ("dense_state", "dense_product_state"),
            ("smax", "binary_entropy"),
        ):
            monkeypatch.setattr(experiments, name, counting(key, getattr(experiments, name)))
        for cls in (q.DensePropagator, q.DiagonalPropagator):
            monkeypatch.setattr(cls, "__init__", counting("build", cls.__init__))
            monkeypatch.setattr(cls, "evolve", counting("evolve", cls.evolve))
        return counts

    @pytest.mark.parametrize("model,engine", [("CODI", "dense"), ("CPDI_S", "diagonal")])
    @pytest.mark.parametrize("policy,subsets", [("prefix", 1), ("random", 3)])
    def test_state_engine_counts(self, monkeypatch, model, engine, policy, subsets):
        counts = self._count(monkeypatch)
        config = small_config(
            model=model, n_env=3, fragment_sizes=(0, 1, 3), realizations=2,
            fragment_policy=policy, subsets_per_realization=subsets,
        )
        result = q.run_sweep(config)
        assert result.engine == engine
        r, t, f = 2, len(config.time_grid), len(config.fragment_sizes)
        assert counts.pop("smax") >= 1
        assert counts == {
            "entropy": r * t * (1 + 2 * f * subsets), "evolve": r * t, "build": r,
            "sample": r, "product_state": r, "dense_state": r,
        }

    def test_branching_engine_makes_no_state_calls(self, monkeypatch):
        # one draw of each per realization and S_max at least once; no builds,
        # evolves, dense states or partial-trace entropies
        counts = self._count(monkeypatch)
        config = small_config(fragment_policy="random", subsets_per_realization=3)
        result = q.run_sweep(config)
        assert result.engine == "branching"
        assert counts.pop("smax") >= 1
        r = config.realizations
        assert counts == {"sample": r, "product_state": r}


def direct_state_tables(propagator, init, times, masks):
    """The reference loop of ``_state_tables``: each state evolved from the
    initial product state at t = 0, then its partial-trace entropies, S_S of
    shape (T,) and each subset's S_F and S_SF of shape (S, T, F)."""
    psi0 = q.dense_product_state(init)
    s_sys = np.empty(len(times))
    s_f, s_sf = np.empty((2, masks.shape[1], len(times), masks.shape[0]))
    for ti, t in enumerate(times):
        psi = propagator.evolve(psi0, t)
        s_sys[ti] = q.subsystem_entropy(psi, (0,))
        for fi, rows in enumerate(masks):
            for si, row in enumerate(rows):
                frag = (np.flatnonzero(row) + 1).tolist()
                s_f[si, ti, fi] = q.subsystem_entropy(psi, frag)
                s_sf[si, ti, fi] = q.subsystem_entropy(psi, [0, *frag])
    return s_sys, s_f, s_sf


class TestSteppedStates:
    """``_state_tables`` steps each state from the previous grid time; in
    float64 its tables stay within 1e-12 of evolving every time from t = 0."""

    @pytest.mark.parametrize("model", ["CODI", "CPDI_S"])
    @pytest.mark.parametrize("policy,subsets", [("prefix", 1), ("random", 3)])
    @pytest.mark.parametrize("grid", ["fig3", "from 0.7", "one time"])
    def test_matches_direct_evolution(self, model, policy, subsets, grid):
        times = {
            "fig3": _fig3_time_grid(model), "from 0.7": (0.7, 1.3, 4.0, 12.5), "one time": (3.3,),
        }[grid]
        config = small_config(
            model=model, n_env=8, time_grid=times, fragment_sizes=tuple(range(9)),
            realizations=2, fragment_policy=policy, subsets_per_realization=subsets,
        )
        spec = q.build_model(config.model, config.n_env)
        engine = q.DiagonalPropagator if experiments._engine(spec) == "diagonal" else q.DensePropagator
        times = np.asarray(config.time_grid)
        for r in range(config.realizations):
            instance, init, masks = experiments._realization(spec, config, r)
            propagator = engine(instance)
            tables = experiments._state_tables(propagator, init, times, masks)
            refs = direct_state_tables(propagator, init, times, masks)
            for table, ref in zip(tables, refs, strict=True):  # S_S, S_F, S_SF, cut by cut
                np.testing.assert_allclose(table, ref, rtol=0, atol=1e-12)


class TestFamilyRoute:
    """With a 1 KiB Gram block every state past 6 qubits is read block by
    block, so ``_state_tables`` takes the small cuts from the purifications of
    the families ``information._families`` picks; the tables stay within
    1e-12 of the unrouted ones, t = 0 rows stay exactly 0, and each time
    step still makes one ``subsystem_entropy`` call per cut."""

    @pytest.mark.parametrize("model", ["CODI", "CPDI_S"])
    @pytest.mark.parametrize("n_env", [8, 10])
    @pytest.mark.parametrize("policy,subsets", [("prefix", 1), ("random", 3)])
    def test_matches_the_state_route(self, monkeypatch, model, n_env, policy, subsets):
        config = small_config(
            model=model, n_env=n_env, time_grid=(0.0, 0.5, 1.0, 2.0, 5.0),
            fragment_sizes=tuple(range(n_env + 1)), realizations=1,
            fragment_policy=policy, subsets_per_realization=subsets,
        )
        engine = q.DiagonalPropagator if model == "CPDI_S" else q.DensePropagator
        instance, init, masks = experiments._realization(config.spec, config, 0)
        propagator = engine(instance)
        times = np.asarray(config.time_grid)
        refs = experiments._state_tables(propagator, init, times, masks)

        counts = Counter()

        def counting(key, func):
            def wrapper(*args):
                counts[key] += 1
                return func(*args)
            return wrapper

        monkeypatch.setattr(information, "_GRAM_BLOCK_BYTES", 1 << 10)
        monkeypatch.setattr(experiments, "subsystem_entropy",
                            counting("entropy", experiments.subsystem_entropy))
        monkeypatch.setattr(experiments, "_purification",
                            counting("purification", experiments._purification))
        s_sys, s_f, s_sf = tables = experiments._state_tables(propagator, init, times, masks)
        for table, ref in zip(tables, refs, strict=True):  # S_S, S_F, S_SF, cut by cut
            np.testing.assert_allclose(table, ref, rtol=0, atol=1e-12)
        # exactly 0, in every cut
        assert s_sys[0] == 0.0 and not s_f[:, 0].any() and not s_sf[:, 0].any()
        t, f = len(times), len(config.fragment_sizes)
        assert counts["entropy"] == t * (1 + 2 * f * subsets)
        # one purification per family at each time past t = 0
        assert counts["purification"] > 0 and counts["purification"] % (t - 1) == 0


class TestFig2:
    def test_table_shape_and_values(self):
        table = q.reproduce_fig2()
        assert table.shape == (51, 3)
        slope = q.weak_decoherence_slope(0.5)
        # mid-fragment row sits on the plateau
        n = 25
        expected = 1.0 - 0.5 * slope * (2.0 / 3.0) ** 50
        assert table[n, 1] == pytest.approx(expected, abs=1e-12)
        assert abs(table[n, 1] - 1.0) < 1e-6
        # full fragment overshoots toward twice the plateau
        assert table[50, 1] > 1.5
        # the expansion artifact at n = 0 is reported as-is
        assert table[0, 2] == pytest.approx(1.0 - 0.5 * slope, abs=1e-12)

    def test_biased_system(self):
        table = q.reproduce_fig2(n_env=20, alpha0_sq=0.25)
        assert table.shape == (21, 3)
        assert table[10, 1] < 1.0

    def test_n_env_is_a_checked_non_negative_integer(self):
        assert q.reproduce_fig2(n_env=0).shape == (1, 3)
        for n_env in (-1, 1.5, "3", True):
            with pytest.raises(ValueError, match="^n_env"):
                q.reproduce_fig2(n_env=n_env)


class TestFig3Pipelines:
    def test_time_grids(self):
        assert _fig3_time_grid("CPDI")[0] == 0.0
        assert _fig3_time_grid("CPDI")[-1] == 5.0
        assert np.pi in _fig3_time_grid("DPDI")
        assert _fig3_time_grid("CPDI_S")[-1] == 50.0
        for kind in q.MODEL_KINDS:
            grid = _fig3_time_grid(kind)
            assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_small_pipeline_runs_for_every_kind(self):
        for kind in q.MODEL_KINDS:
            res = q.reproduce_fig3(kind, n_env=2, realizations=2)
            assert res.fragment_sizes.tolist() == [0, 1, 2]
            assert np.isfinite(res.i_mean).all()
            assert res.has_holevo == (kind in ("CPDI", "DPDI"))

    def test_overrides_forwarded(self):
        res = q.reproduce_fig3("CPDI", n_env=2, realizations=2, overrides={"half_width": 3.0})
        assert res.config.overrides == {"half_width": 3.0}
