import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

import qdarwin as q
from qdarwin import experiments
from qdarwin.cli import write_sidecar
from qdarwin.experiments import _fig3_time_grid


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

    def test_integer_fields_reject_non_integral_numbers(self):
        for key in ("n_env", "realizations", "master_seed", "subsets_per_realization"):
            for bad in (1.9, True):
                with pytest.raises(ValueError, match=key):
                    small_config(**{key: bad})
        config = small_config(n_env=2.0, fragment_sizes=(0, 2), realizations=2.0, master_seed=7.0)
        assert (config.n_env, config.realizations, config.master_seed) == (2, 2, 7)
        assert all(type(v) is int for v in (config.n_env, config.realizations, config.master_seed))

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
