import numpy as np
import pytest

import qdarwin as q
from qdarwin.model import AXES

from helpers import oracle_hamiltonian, random_generic_instance


class TestBuildModel:
    def test_cpdi_structure(self):
        spec = q.build_model("CPDI", 8)
        assert spec.n_env == 8
        assert spec.b0 == q.Vec3(0.0, 0.0, 0.0)
        assert set(spec.sys_env) == {("z", j, "z") for j in range(1, 9)}
        for law in spec.sys_env.values():
            assert law == q.ContinuousUniform(1.0)
        assert spec.intra_env == {}
        assert spec.env_fields == {}
        assert spec.continuous_support()
        assert spec.is_branching_form()

    def test_codi_adds_transverse_field(self):
        spec = q.build_model("CODI", 8)
        cpdi = q.build_model("CPDI", 8)
        assert spec.b0 == q.Vec3(0.0, 1.0, 0.0)
        assert spec.sys_env == cpdi.sys_env
        assert spec.intra_env == {}
        assert not spec.is_z_only()

    def test_cpdis_intra_entries(self):
        spec = q.build_model("CPDI_S", 2)
        assert set(spec.intra_env) == {(1, 2, "z", "z")}
        assert spec.intra_env[(1, 2, "z", "z")] == q.ContinuousUniform(0.03)
        assert spec.is_z_only() and not spec.is_branching_form()

    def test_dpdi_support(self):
        spec = q.build_model("DPDI", 4)
        dist = spec.sys_env[("z", 1, "z")]
        assert dist == q.DiscreteUniform((-1.0, -0.5, 0.5, 1.0))
        assert not spec.continuous_support()

    def test_kind_spellings(self):
        assert q.build_model("cpdi-s", 2).label == "CPDI_S"

    def test_errors(self):
        with pytest.raises(ValueError):
            q.build_model("XYZ", 4)
        with pytest.raises(ValueError):
            q.build_model("CPDI", 0)
        with pytest.raises(ValueError):
            q.build_model("CPDI", 4, half_width=0.0)
        with pytest.raises(ValueError):
            q.build_model("DPDI", 4, support=())
        with pytest.raises(ValueError):
            q.build_model("DPDI", 4, support=(1.0, 1.0))
        with pytest.raises(ValueError):
            q.build_model("CPDI_S", 4, scramble_half_width=-0.1)

    def test_scramble_zero_disables_intra(self):
        spec = q.build_model("CPDI_S", 4, scramble_half_width=0.0)
        assert spec.intra_env == {}
        inst = q.sample_instance(spec, 11)
        verdict = q.classify(inst, spec.continuous_support())
        assert verdict.no_scrambling


def _mixed_spec():
    """A spec whose entries are given out of draw order, with all three laws."""
    return q.ModelSpec(
        label="mixed",
        n_env=3,
        b0=q.Vec3(0.0, 0.0, 0.3),
        sys_env={
            ("z", 3, "z"): q.ContinuousUniform(1.0),
            ("z", 1, "x"): q.PointMass(0.7),
            ("x", 2, "z"): q.DiscreteUniform((-1.0, 0.5)),
        },
        intra_env={
            (2, 3, "z", "z"): q.PointMass(-0.2),
            (1, 3, "x", "y"): q.ContinuousUniform(0.03),
        },
        env_fields={(3, "x"): q.PointMass(0.25), (1, "z"): q.ContinuousUniform(0.5)},
    )


def _interleaved_spec():
    """Runs of const, uniform and discrete laws, each law type in more than
    one run, across all three mappings."""
    uniform, narrow = q.ContinuousUniform(1.0), q.ContinuousUniform(0.2)
    discrete = q.DiscreteUniform((-1.0, 0.5, 2.0))
    const = q.PointMass(0.3)
    return q.ModelSpec(
        label="interleaved",
        n_env=4,
        b0=q.Vec3(0.0, 0.5, 0.0),
        sys_env={
            ("x", 1, "x"): uniform, ("x", 2, "x"): uniform, ("x", 3, "z"): const,
            ("y", 1, "z"): discrete, ("y", 2, "z"): discrete, ("y", 4, "y"): uniform,
            ("z", 1, "z"): narrow, ("z", 2, "z"): const, ("z", 3, "z"): discrete,
        },
        intra_env={
            (1, 2, "z", "z"): discrete, (1, 3, "z", "z"): uniform, (1, 4, "x", "x"): uniform,
            (2, 3, "y", "y"): const, (2, 4, "z", "z"): narrow, (3, 4, "z", "z"): narrow,
        },
        env_fields={(1, "x"): narrow, (2, "x"): uniform, (3, "z"): discrete, (4, "z"): const},
    )


class TestSourcesAndSpec:
    def test_spec_values_must_be_laws(self):
        spec = q.ModelSpec("t", 1, q.Vec3.zero(), {("z", 1, "z"): q.PointMass(0.7)}, {}, {})
        assert spec.sys_env[("z", 1, "z")] == q.PointMass(0.7)
        # a bare number or a JSON source object is not a law
        for value in (0.5, None, "uniform", {"type": "const", "value": 1.0}):
            with pytest.raises(TypeError, match="not a coupling law"):
                q.ModelSpec("t", 1, q.Vec3.zero(), {("z", 1, "z"): value}, {}, {})
            with pytest.raises(TypeError, match="not a coupling law"):
                q.ModelSpec("t", 2, q.Vec3.zero(), {}, {(1, 2, "z", "z"): value}, {})
            with pytest.raises(TypeError, match="not a coupling law"):
                q.ModelSpec("t", 1, q.Vec3.zero(), {}, {}, {(1, "z"): value})

    def test_zero_sources_dropped(self):
        for zero in (0.0, -0.0, 0):
            spec = q.ModelSpec(
                label="t",
                n_env=2,
                b0=q.Vec3.zero(),
                sys_env={("z", 1, "z"): q.PointMass(zero), ("x", 1, "x"): q.PointMass(0.1)},
                intra_env={(1, 2, "z", "z"): q.PointMass(zero)},
                env_fields={(2, "x"): q.PointMass(zero), (1, "y"): q.DiscreteUniform((0.0,))},
            )
            assert spec.sys_env == {("x", 1, "x"): q.PointMass(0.1)}
            assert spec.intra_env == {}
            # a law that can take the value zero still consumes draws, so it stays
            assert spec.env_fields == {(1, "y"): q.DiscreteUniform((0.0,))}

    def test_invalid_indices_rejected(self):
        with pytest.raises(ValueError):
            q.ModelSpec("t", 1, q.Vec3.zero(), {("z", 2, "z"): q.PointMass(1.0)}, {}, {})
        with pytest.raises(ValueError):
            q.ModelSpec("t", 3, q.Vec3.zero(), {}, {(2, 2, "z", "z"): q.PointMass(1.0)}, {})
        with pytest.raises(ValueError):
            q.ModelSpec("t", 1, q.Vec3.zero(), {}, {}, {(1, "q"): q.PointMass(1.0)})

    def test_non_integral_indices_rejected(self):
        law = q.PointMass(1.0)
        for bad in (1.9, True):
            with pytest.raises(ValueError, match="site"):
                q.ModelSpec("t", 2, q.Vec3.zero(), {("z", bad, "z"): law}, {}, {})
            with pytest.raises(ValueError, match="sites"):
                q.ModelSpec("t", 3, q.Vec3.zero(), {}, {(bad, 3, "z", "z"): law}, {})
            with pytest.raises(ValueError, match="sites"):
                q.ModelSpec("t", 3, q.Vec3.zero(), {}, {(1, bad, "z", "z"): law}, {})
            with pytest.raises(ValueError, match="site"):
                q.ModelSpec("t", 2, q.Vec3.zero(), {}, {}, {(bad, "x"): law})
            with pytest.raises(ValueError, match="n_env"):
                q.ModelSpec("t", bad, q.Vec3.zero(), {}, {}, {})
        # an integral float is the integer it names
        spec = q.ModelSpec(
            "t", 3.0, q.Vec3.zero(), {("z", 2.0, "z"): law}, {(1.0, 3.0, "z", "z"): law},
            {(2.0, "x"): law},
        )
        assert spec.n_env == 3 and type(spec.n_env) is int
        keys = [*spec.sys_env, *spec.intra_env, *spec.env_fields]
        assert keys == [("z", 2, "z"), (1, 3, "z", "z"), (2, "x")]
        assert all(type(k) is int for key in keys for k in key if not isinstance(k, str))

    @pytest.mark.parametrize("kind", [*q.MODEL_KINDS, "mixed"])
    def test_json_roundtrip(self, kind):
        spec = _mixed_spec() if kind == "mixed" else q.build_model(kind, 5)
        back = q.ModelSpec.from_json(spec.to_json())
        assert back == spec
        assert back.to_json() == spec.to_json()
        if kind == "mixed":
            # "const" decodes to the point mass it was encoded from
            assert back.sys_env[("z", 1, "x")] == q.PointMass(0.7)
            assert back.env_fields[(3, "x")] == q.PointMass(0.25)

    def test_json_schema_encoding(self):
        doc = q.build_model("DPDI", 2).to_json_dict()
        assert doc["b0"] == [0.0, 0.0, 0.0]
        assert doc["sys_env"][0] == {
            "axes": "zz",
            "site": 1,
            "source": {"type": "discrete", "support": [-1.0, -0.5, 0.5, 1.0]},
        }
        doc2 = q.build_model("CPDI", 1).to_json_dict()
        assert doc2["sys_env"][0]["source"] == {"type": "uniform", "a": 1.0}


class TestSampleInstance:
    def test_deterministic(self):
        spec = q.build_model("CPDI_S", 5)
        a = q.sample_instance(spec, 12345)
        b = q.sample_instance(spec, 12345)
        assert np.array_equal(a.j_tensor, b.j_tensor)
        assert np.array_equal(a.fields, b.fields)

    def test_seed_changes_draws(self):
        spec = q.build_model("CPDI", 5)
        a = q.sample_instance(spec, 1)
        b = q.sample_instance(spec, 2)
        assert not np.array_equal(a.j_tensor, b.j_tensor)

    def test_cpdi_intra_exactly_zero(self):
        spec = q.build_model("CPDI", 6)
        inst = q.sample_instance(spec, 3)
        assert inst.intra_abs_max() == 0.0
        assert np.array_equal(inst.fields, np.zeros((7, 3)))

    def test_coupling_moments(self):
        # Uniform[-1, 1] has mean 0 and variance 1/3.
        spec = q.build_model("CPDI", 1)
        draws = np.array(
            [q.sample_instance(spec, seed).j_tensor[0, 1, 2, 2] for seed in range(100_000)]
        )
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0 / 3.0) < 0.01

    def test_draw_order_follows_readme(self):
        # entries inserted out of order, mixed axes and sources: the draws
        # follow the documented order, not the insertion order
        uniform = q.ContinuousUniform(1.0)
        support = (-1.0, 0.5, 2.0)
        discrete = q.DiscreteUniform(support)
        spec = q.ModelSpec(
            label="mixed",
            n_env=3,
            b0=q.Vec3(0.2, 0.0, -0.4),
            sys_env={
                ("z", 1, "x"): uniform,
                ("x", 3, "y"): discrete,
                ("y", 1, "y"): q.PointMass(0.7),
                ("x", 2, "z"): uniform,
                ("x", 2, "x"): uniform,
            },
            intra_env={
                (2, 3, "z", "x"): uniform,
                (1, 3, "y", "z"): discrete,
                (1, 2, "x", "x"): uniform,
            },
            env_fields={(3, "x"): uniform, (1, "z"): discrete, (1, "x"): uniform},
        )
        rng = np.random.default_rng(2024)
        jt = np.zeros((4, 4, 3, 3))
        fields = np.zeros((4, 3))
        fields[0] = (0.2, 0.0, -0.4)
        # system-environment entries by (axis, site, axis), x < y < z
        jt[0, 2, 0, 0] = rng.uniform(-1.0, 1.0)
        jt[0, 2, 0, 2] = rng.uniform(-1.0, 1.0)
        jt[0, 3, 0, 1] = support[int(rng.integers(3))]
        jt[0, 1, 1, 1] = 0.7  # constant: no draw
        jt[0, 1, 2, 0] = rng.uniform(-1.0, 1.0)
        # intra-environment entries by (i, j, axis, axis)
        jt[1, 2, 0, 0] = rng.uniform(-1.0, 1.0)
        jt[1, 3, 1, 2] = support[int(rng.integers(3))]
        jt[2, 3, 2, 0] = rng.uniform(-1.0, 1.0)
        # environment fields by site and component
        fields[1, 0] = rng.uniform(-1.0, 1.0)
        fields[1, 2] = support[int(rng.integers(3))]
        fields[3, 0] = rng.uniform(-1.0, 1.0)

        gen = np.random.default_rng(2024)
        inst = q.sample_instance(spec, gen)
        np.testing.assert_array_equal(inst.j_tensor, jt)
        np.testing.assert_array_equal(inst.fields, fields)
        assert gen.random() == rng.random()  # same number of draws

        # the spec holds its entries, and writes them to JSON, in draw order
        sys_order = [("x", 2, "x"), ("x", 2, "z"), ("x", 3, "y"), ("y", 1, "y"), ("z", 1, "x")]
        intra_order = [(1, 2, "x", "x"), (1, 3, "y", "z"), (2, 3, "z", "x")]
        field_order = [(1, "x"), (1, "z"), (3, "x")]
        assert list(spec.sys_env) == sys_order
        assert list(spec.intra_env) == intra_order
        assert list(spec.env_fields) == field_order
        doc = spec.to_json_dict()
        assert [(e["axes"][0], e["site"], e["axes"][1]) for e in doc["sys_env"]] == sys_order
        assert [(*e["sites"], *e["axes"]) for e in doc["intra_env"]] == intra_order
        assert [(e["site"], e["component"]) for e in doc["env_fields"]] == field_order

    @pytest.mark.parametrize(
        "spec",
        [q.build_model(kind, n) for kind in q.MODEL_KINDS for n in (3, 8)] + [_interleaved_spec()],
        ids=[f"{kind}-{n}" for kind in q.MODEL_KINDS for n in (3, 8)] + ["interleaved"],
    )
    def test_vector_draws_match_scalar_loop(self, spec):
        # one scalar generator call per entry, in draw order
        for seed in range(20):
            rng = np.random.default_rng(seed)
            jt = np.zeros((spec.n_env + 1,) * 2 + (3, 3))
            fields = np.zeros((spec.n_env + 1, 3))
            fields[0] = spec.b0.as_array()
            targets = [(jt, (0, j, AXES.index(a), AXES.index(b))) for a, j, b in spec.sys_env]
            targets += [(jt, (i, j, AXES.index(a), AXES.index(b))) for i, j, a, b in spec.intra_env]
            targets += [(fields, (k, AXES.index(c))) for k, c in spec.env_fields]
            laws = [*spec.sys_env.values(), *spec.intra_env.values(), *spec.env_fields.values()]
            for (array, index), law in zip(targets, laws):
                if isinstance(law, q.ContinuousUniform):
                    array[index] = rng.uniform(-law.half_width, law.half_width)
                elif isinstance(law, q.DiscreteUniform):
                    array[index] = law.support[int(rng.integers(len(law.support)))]
                else:
                    array[index] = law.value
            gen = np.random.default_rng(seed)
            inst = q.sample_instance(spec, gen)
            assert np.array_equal(inst.j_tensor, jt)
            assert np.array_equal(inst.fields, fields)
            assert gen.random() == rng.random()

    def test_instance_validation(self):
        jt = np.zeros((3, 3, 3, 3))
        jt[1, 0, 2, 2] = 1.0  # lower-triangular entry
        with pytest.raises(ValueError):
            q.ModelInstance(n_env=2, j_tensor=jt, fields=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            q.ModelInstance(n_env=2, j_tensor=np.zeros((2, 2, 3, 3)), fields=np.zeros((3, 3)))


class TestClassify:
    TABLE = {
        "CPDI": (True, True, True),
        "DPDI": (True, False, True),
        "CODI": (False, True, True),
        "CPDI_S": (True, True, False),
    }

    @pytest.mark.parametrize("kind", q.MODEL_KINDS)
    def test_reference_models(self, kind):
        spec = q.build_model(kind, 6)
        for seed in range(5):
            inst = q.sample_instance(spec, seed)
            verdict = q.classify(inst, spec.continuous_support())
            expected = self.TABLE[kind]
            assert (
                verdict.pointer_basis,
                verdict.continuous_support,
                verdict.no_scrambling,
            ) == expected
            assert verdict.darwinism_supported == all(expected)

    def test_cpdi_pointer_direction_is_z(self):
        spec = q.build_model("CPDI", 4)
        verdict = q.classify(q.sample_instance(spec, 0), True)
        assert verdict.pointer_direction is not None
        np.testing.assert_allclose(
            verdict.pointer_direction.as_array(), [0.0, 0.0, 1.0], atol=1e-12
        )

    def test_all_zero_couplings_rank0(self):
        inst = q.ModelInstance(
            n_env=2, j_tensor=np.zeros((3, 3, 3, 3)), fields=np.zeros((3, 3))
        )
        verdict = q.classify(inst, False)
        assert verdict.pointer_basis
        assert verdict.pointer_direction is None

    def test_rank2_coupling_blocks_pointer_basis(self):
        rng = np.random.default_rng(8)
        inst = random_generic_instance(rng, 3)
        verdict = q.classify(inst, True)
        assert not verdict.pointer_basis

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        inst = random_generic_instance(rng, 3)
        base = q.classify(inst, True)
        for factor in (1e-6, 7.0, 1e6):
            scaled = q.ModelInstance(
                n_env=3, j_tensor=factor * inst.j_tensor, fields=factor * inst.fields
            )
            verdict = q.classify(scaled, True)
            assert (
                verdict.pointer_basis,
                verdict.no_scrambling,
                verdict.darwinism_supported,
            ) == (base.pointer_basis, base.no_scrambling, base.darwinism_supported)

    def test_tol_validation(self):
        inst = q.sample_instance(q.build_model("CPDI", 2), 0)
        with pytest.raises(ValueError):
            q.classify(inst, True, tol=0.0)

    def test_classification_conjunction_enforced(self):
        with pytest.raises(ValueError):
            q.Classification(True, True, True, False)


class TestHamiltonian:
    def test_single_zz_coupling_diagonal(self):
        g = 0.37
        jt = np.zeros((2, 2, 3, 3))
        jt[0, 1, 2, 2] = g
        inst = q.ModelInstance(n_env=1, j_tensor=jt, fields=np.zeros((2, 3)))
        h = q.hamiltonian_matrix(inst)
        np.testing.assert_array_equal(h, np.diag([g, -g, -g, g]).astype(complex))

    def test_hermitian_exactly(self):
        rng = np.random.default_rng(2)
        inst = random_generic_instance(rng, 3)
        h = q.hamiltonian_matrix(inst)
        assert np.array_equal(h, h.conj().T)

    @pytest.mark.parametrize("n_env", [1, 2, 3])
    def test_matches_kron_oracle(self, n_env):
        rng = np.random.default_rng(n_env)
        inst = random_generic_instance(rng, n_env)
        np.testing.assert_allclose(
            q.hamiltonian_matrix(inst), oracle_hamiltonian(inst), atol=1e-13
        )

    def test_cpdi_matrix_is_diagonal(self):
        inst = q.sample_instance(q.build_model("CPDI", 2), 4)
        h = q.hamiltonian_matrix(inst)
        np.testing.assert_allclose(h, np.diag(np.diag(h)), atol=0.0)
        np.testing.assert_allclose(h, oracle_hamiltonian(inst), atol=1e-13)

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(3)
        a = random_generic_instance(rng, 2)
        b = random_generic_instance(rng, 2)
        combined = q.ModelInstance(
            n_env=2,
            j_tensor=2.0 * a.j_tensor - 0.5 * b.j_tensor,
            fields=2.0 * a.fields - 0.5 * b.fields,
        )
        lhs = q.hamiltonian_matrix(combined)
        rhs = 2.0 * q.hamiltonian_matrix(a) - 0.5 * q.hamiltonian_matrix(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_pointer_observable_commutes(self):
        spec = q.build_model("CPDI", 4)
        for seed in range(3):
            inst = q.sample_instance(spec, seed)
            verdict = q.classify(inst, True)
            assert verdict.pointer_basis
            v = verdict.pointer_direction.as_array()
            pauli = [
                np.array([[0, 1], [1, 0]], dtype=complex),
                np.array([[0, -1j], [1j, 0]], dtype=complex),
                np.array([[1, 0], [0, -1]], dtype=complex),
            ]
            a_sys = sum(v[c] * pauli[c] for c in range(3))
            a_full = np.kron(np.eye(1 << 4, dtype=complex), a_sys)  # system is the low bit
            h = q.hamiltonian_matrix(inst)
            comm = a_full @ h - h @ a_full
            assert np.max(np.abs(comm)) <= 1e-10

    def test_dimension_cap(self):
        spec = q.build_model("CPDI", 13)
        with pytest.raises(ValueError, match="cap"):
            q.hamiltonian_matrix(q.sample_instance(spec, 0))


class TestVec3:
    def test_finite_required(self):
        with pytest.raises(ValueError):
            q.Vec3(np.inf, 0.0, 0.0)

    def test_from_array_shape(self):
        with pytest.raises(ValueError):
            q.Vec3.from_array([1.0, 2.0])

    def test_axes_order(self):
        assert AXES == ("x", "y", "z")
