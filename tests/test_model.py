import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qdarwin as q
from qdarwin import dynamics
from qdarwin.dynamics import _block_axes
from qdarwin.model import AXES

from helpers import (
    PAULI, kron_pauli, oracle_hamiltonian, oracle_reduced_density, random_generic_instance,
    reference_flip_diagonals,
)


@st.composite
def records_cases(draw):
    """An instance with a pointer basis and N_env <= 3, small integers
    throughout: a rank-1 system-environment block u w^T, a system field along
    u, environment fields, and, on half the draws, a random integer 3 x 3
    coupling block for every pair of environment sites (all zero at times)."""
    n_env = draw(st.integers(1, 3))
    n = n_env + 1

    def ints(*shape):
        size = int(np.prod(shape))
        values = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
        return np.array(values, dtype=float).reshape(shape)

    u = ints(3)
    assume(u.any())
    jt = np.zeros((n, n, 3, 3))
    jt[0, 1:] = np.outer(u, ints(3 * n_env)).reshape(3, n_env, 3).transpose(1, 0, 2)
    if draw(st.booleans()):
        jt[1:, 1:] = np.triu(np.ones((n_env, n_env)), 1)[:, :, None, None] * ints(n_env, n_env, 3, 3)
    fields = np.vstack([draw(st.integers(-2, 2)) * u, ints(n_env, 3)])
    return q.ModelInstance(n_env=n_env, j_tensor=jt, fields=fields), u, draw(st.integers(0, 2**32 - 1))


@st.composite
def pointer_cases(draw):
    """A system-environment block with N_env <= 3 and a system field, small
    integers throughout so that rank and parallelism are decided far from
    any tolerance: a rank-1 block u w^T with b0 parallel to u, the same with
    a skew b0, or a generic block. Half the rank-1 blocks have w = 0, a
    decoupled system."""
    kind = draw(st.sampled_from(("parallel", "skew", "generic")))
    n_env = draw(st.integers(1, 3))

    def ints(size):
        return np.array(draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size)))

    u = ints(3)
    assume(u.any())
    if kind == "generic":
        block = ints(9 * n_env).reshape(3, 3 * n_env)
        b0 = ints(3)
    else:
        block = np.outer(u, ints(3 * n_env) if draw(st.booleans()) else np.zeros(3 * n_env))
        b0 = draw(st.integers(-2, 2)) * u
        if kind == "skew":
            b0 = b0 + ints(3)
            assume(np.cross(u, b0).any())
    return kind, n_env, block.astype(float), b0.astype(float), draw(st.integers(0, 2**32 - 1))


@st.composite
def block_layout_cases(draw):
    """An instance with N_env <= 4: z fields on every qubit and x/y terms only
    on a random set of qubits (often not the lowest bits), each flipped qubit
    with a nonzero transverse field."""
    n = draw(st.integers(2, 5))
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jt = np.zeros((n, n, 3, 3))
    fields = np.zeros((n, 3))
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(3) if flips[i] else (2,):
                for b in range(3) if flips[j] else (2,):
                    if rng.random() < 0.4:
                        jt[i, j, a, b] = rng.uniform(-1.0, 1.0)
        fields[i, 2] = rng.uniform(-1.0, 1.0)
        if flips[i]:
            fields[i, rng.integers(2)] = rng.uniform(0.1, 1.0)
    return q.ModelInstance(n_env=n - 1, j_tensor=jt, fields=fields), rng


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
        # a string, a bool or NaN is not a real number; each key goes to a
        # model that reads it, so its value check is what refuses it
        for kind, key, value in (
            ("CPDI_S", "scramble_half_width", float("nan")), ("CPDI_S", "half_width", True),
            ("CPDI_S", "half_width", "1"), ("DPDI", "support", "15"),
            ("DPDI", "support", (1.0, float("nan"))),
        ):
            with pytest.raises(ValueError, match=key) as refused:
                q.build_model(kind, 4, **{key: value})
            assert "unknown key" not in str(refused.value)
        for n_env in (3.5, True, "3"):
            with pytest.raises(ValueError, match="n_env: expected an integer"):
                q.build_model("CPDI", n_env)
        assert q.build_model("CPDI", 3.0).n_env == 3

    def test_overrides_the_model_does_not_read_are_refused(self):
        for kind, key, value in (
            ("CPDI", "support", (1.0, 2.0)), ("DPDI", "half_width", 5.0),
            ("CODI", "scramble_half_width", 0.5), ("CPDI_S", "support", (1.0, 2.0)),
            ("CPDI", "sigma", 1.0),
        ):
            with pytest.raises(ValueError, match=rf"unknown key '{key}' in the overrides of {kind}"):
                q.build_model(kind, 4, **{key: value})
        # every parameter a model reads is taken
        for kind, overrides in (
            ("CPDI", {"half_width": 2.0}), ("DPDI", {"support": (1.0, 2.0)}),
            ("CODI", {"half_width": 2.0}),
            ("CPDI_S", {"half_width": 2.0, "scramble_half_width": 0.1}),
        ):
            assert q.build_model(kind, 4, **overrides) != q.build_model(kind, 4)

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

    def test_label_must_be_a_string(self):
        for label in (None, 3, {"type": 1}):
            with pytest.raises(ValueError, match="label"):
                q.ModelSpec(label, 1, q.Vec3.zero(), {}, {}, {})
        doc = q.build_model("CPDI", 1).to_json_dict()
        del doc["label"]
        assert q.ModelSpec.from_json_dict(doc).label == ""

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
        for key in (("z", 1), ("z", 1, "z", "z")):  # a slot short or one too many
            with pytest.raises(ValueError, match="sys_env"):
                q.ModelSpec("t", 1, q.Vec3.zero(), {key: q.PointMass(1.0)}, {}, {})

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


class TestModelInstance:
    def test_n_env_is_a_checked_integer(self):
        inst = q.ModelInstance(n_env=1.0, j_tensor=np.zeros((2, 2, 3, 3)), fields=np.zeros((2, 3)))
        assert type(inst.n_env) is int and inst.n_qubits == 2
        q.DensePropagator(inst)
        with pytest.raises(ValueError, match="n_env: expected an integer"):
            q.ModelInstance(True, np.zeros((2, 2, 3, 3)), np.zeros((2, 3)))
        for n_env in (0, -1):
            with pytest.raises(ValueError, match="n_env must be >= 1"):
                q.ModelInstance(n_env, np.zeros((n_env + 1,) * 2 + (3, 3)),
                                np.zeros((n_env + 1, 3)))


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

    @pytest.mark.parametrize("draw", [
        lambda seed: q.sample_instance(q.build_model("CPDI", 3), seed).j_tensor,
        lambda seed: q.random_product_state(3, seed).coeffs,
    ], ids=["sample_instance", "random_product_state"])
    def test_a_seed_is_a_generator_or_a_non_negative_integer(self, draw):
        reference = draw(2)
        for seed in (2.0, np.int64(2), np.random.default_rng(2)):
            np.testing.assert_array_equal(draw(seed), reference)
        for seed in (-1, 1.5, "3", None, True):
            with pytest.raises(ValueError, match="^seed"):
                draw(seed)

    def test_cpdi_intra_exactly_zero(self):
        spec = q.build_model("CPDI", 6)
        inst = q.sample_instance(spec, 3)
        assert not inst.j_tensor[1:, 1:].any()
        assert np.array_equal(inst.fields, np.zeros((7, 3)))

    def test_coupling_moments(self):
        # Uniform[-1, 1] has mean 0 and variance 1/3: 100 000 draws, 50 per instance
        spec = q.build_model("CPDI", 50)
        draws = np.concatenate(
            [q.sample_instance(spec, seed).j_tensor[0, 1:, 2, 2] for seed in range(2_000)]
        )
        assert draws.size == 100_000
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
        with pytest.raises(ValueError, match="fields must have shape"):
            q.ModelInstance(n_env=2, j_tensor=np.zeros((3, 3, 3, 3)), fields=np.zeros((3, 2)))

    def test_instance_entries_are_numbers(self):
        strung = np.zeros((2, 2, 3, 3)).astype(object)
        strung[0, 1, 2, 2] = "0.5"
        for key, jt, fields in (
            ("j_tensor", strung, np.zeros((2, 3))),
            ("j_tensor", np.full((2, 2, 3, 3), np.nan), np.zeros((2, 3))),
            ("fields", np.zeros((2, 2, 3, 3)), [[True, 0, 0], [0, 0, 1]]),
            ("fields", np.zeros((2, 2, 3, 3)), [[0, 0, 0], [0, 0, "1"]]),
        ):
            with pytest.raises(ValueError, match=f"{key}: expected finite real"):
                q.ModelInstance(n_env=1, j_tensor=jt, fields=fields)
        inst = q.ModelInstance(n_env=1, j_tensor=np.zeros((2, 2, 3, 3), dtype=int),
                               fields=[[0, 0, 1], [0, np.float32(0.5), 0]])
        assert inst.fields.dtype == float and inst.fields[1, 1] == 0.5


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
        # a field on the decoupled system leaves only its own axis
        fields = np.zeros((3, 3))
        fields[0] = [0.6, 0.0, 0.8]
        inst = q.ModelInstance(n_env=2, j_tensor=np.zeros((3, 3, 3, 3)), fields=fields)
        verdict = q.classify(inst, False)
        assert verdict.pointer_basis
        np.testing.assert_allclose(verdict.pointer_direction.as_array(), [0.6, 0.0, 0.8])

    def test_decoupled_system_keeps_its_field_axis_beside_intra_couplings(self):
        jt = np.zeros((3, 3, 3, 3))
        jt[1, 2, 0, 1] = 0.5
        fields = np.zeros((3, 3))
        fields[0] = [0.0, -3.0, 4.0]
        verdict = q.classify(q.ModelInstance(n_env=2, j_tensor=jt, fields=fields), True)
        assert verdict.pointer_basis is True
        assert verdict.pointer_direction == q.Vec3(0.0, -0.6, 0.8)
        assert verdict.no_scrambling is False
        assert verdict.darwinism_supported is False

    @settings(max_examples=150, deadline=None)
    @given(case=pointer_cases())
    def test_pointer_verdict_is_the_commutator_form(self, case):
        """A pointer observable n . sigma_0 with [n . sigma_0, H] = 0 exists
        exactly when M_ab = Re Tr([sigma_a, H]^dag [sigma_b, H]) has a zero
        eigenvalue, and it is then the classified direction (when M's null
        space is one line)."""
        kind, n_env, block, b0, seed = case
        rng = np.random.default_rng(seed)
        n = n_env + 1
        jt = np.zeros((n, n, 3, 3))
        jt[0, 1:] = block.reshape(3, n_env, 3).transpose(1, 0, 2)
        # couplings and fields inside the environment commute with sigma_0
        jt[1:, 1:] = np.triu(rng.integers(-2, 3, (n_env, n_env)), 1)[:, :, None, None]
        fields = np.vstack([b0, rng.integers(-2, 3, (n_env, 3))])
        inst = q.ModelInstance(n_env=n_env, j_tensor=jt, fields=fields)
        h = oracle_hamiltonian(inst)
        comms = [kron_pauli(n, {0: axis}) @ h - h @ kron_pauli(n, {0: axis}) for axis in AXES]
        m = np.array([[np.trace(ca.conj().T @ cb).real for cb in comms] for ca in comms])
        lam, vecs = np.linalg.eigh(m)
        null = lam <= 1e-9 * lam[-1]
        verdict = q.classify(inst, True)
        assert verdict.pointer_basis == bool(null.any())
        if null.sum() == 1:
            assert abs(verdict.pointer_direction.as_array() @ vecs[:, 0]) == pytest.approx(1.0)
        else:
            assert verdict.pointer_direction is None

    @settings(max_examples=60, deadline=None)
    @given(case=records_cases())
    def test_records_stay_product_exactly_without_intra_couplings(self, case):
        """With a pointer basis, the environment state conditional on a
        pointer state, <s|psi(t)>, of a generic product initial state stays a
        product state exactly when there are no intra-environment couplings
        (the classified ``no_scrambling``): every site's reduced state stays
        pure, else some site's purity drops at t = 0.6 or 1.3."""
        inst, u, seed = case
        n = inst.n_qubits
        verdict = q.classify(inst, True)
        assert verdict.pointer_basis
        rng = np.random.default_rng(seed)
        sites = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        psi0 = np.ones(1)
        for site in sites[::-1]:  # qubit 0 least significant
            psi0 = np.kron(psi0, site / np.linalg.norm(site))
        lam, vecs = np.linalg.eigh(oracle_hamiltonian(inst))
        _, pointer = np.linalg.eigh(sum(c * PAULI[a] for c, a in zip(u, AXES)))
        impurity = 0.0
        for t in (0.6, 1.3):
            psi = vecs @ (np.exp(-1j * lam * t) * (vecs.conj().T @ psi0))
            for s in pointer.T:
                env = psi.reshape(-1, 2) @ s.conj()
                env /= np.linalg.norm(env)
                for k in range(n - 1):
                    rho = oracle_reduced_density(env, (k,))
                    impurity = max(impurity, 1.0 - np.trace(rho @ rho).real)
        if verdict.no_scrambling:
            assert impurity < 1e-10
        else:
            assert impurity > 1e-4

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

    @settings(max_examples=60, deadline=None)
    @given(case=block_layout_cases())
    def test_blocks_are_h_gathered_at_their_states(self, case):
        """The stack is H gathered at a layout built here independently: the
        basis states stably sorted by their never-flipped bits, so that row k
        is the k-th group with its flipped bits counting up. The state's
        blocks, one transpose of its amplitude tensor, take the same layout,
        and the blocks hold every nonzero entry of H."""
        instance, rng = case
        n, mask = instance.n_qubits, instance.flip_mask()
        basis = np.arange(1 << n)
        layout = np.argsort(basis & ~mask, kind="stable").reshape(-1, 1 << bin(mask).count("1"))
        rows, cols = layout[:, :, None], layout[:, None, :]
        stack = q.hamiltonian_matrix(instance, blocked=True)
        assert np.array_equal(stack, q.hamiltonian_matrix(instance)[rows, cols])
        block_diagonal = np.zeros_like(stack, shape=(basis.size,) * 2)
        block_diagonal[rows, cols] = stack
        assert np.max(np.abs(block_diagonal - oracle_hamiltonian(instance))) <= 1e-13
        psi = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        blocks = psi.reshape((2,) * n).transpose(_block_axes(n, mask)).reshape(layout.shape)
        assert np.array_equal(blocks, psi[layout])

    @pytest.mark.parametrize("blocked", [True, False])
    def test_phases_match_the_basis_pattern_formula(self, monkeypatch, blocked):
        """The in-place sign flips give H bit for bit, signs of zero included,
        as the integer-basis sign pattern did: CODI and CPDI-S instances, and
        generic ones with x, y and z factors on every pair and site."""
        instances = [q.sample_instance(q.build_model(name, 6), seed)
                     for name in ("CODI", "CPDI_S") for seed in range(4)]
        instances += [random_generic_instance(np.random.default_rng(seed), 3) for seed in range(8)]
        stacks = [q.hamiltonian_matrix(instance, blocked) for instance in instances]
        monkeypatch.setattr(dynamics, "_flip_diagonals", reference_flip_diagonals)
        for instance, h in zip(instances, stacks):
            expected = q.hamiltonian_matrix(instance, blocked)
            assert np.array_equal(h, expected)
            assert np.array_equal(np.signbit(h.view(float)), np.signbit(expected.view(float)))

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

    def test_from_array_takes_numbers_only(self):
        for bad in (["1", 0, 0], [True, 0, 0], [0.0, np.inf, 0.0]):
            with pytest.raises(ValueError, match="Vec3: expected finite real"):
                q.Vec3.from_array(bad)
        assert q.Vec3.from_array(np.array([1, 2, 3])) == q.Vec3(1.0, 2.0, 3.0)

    def test_axes_order(self):
        assert AXES == ("x", "y", "z")
