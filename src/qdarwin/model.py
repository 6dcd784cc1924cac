"""Spin-1/2 models with two-body couplings: specification, sampling, classification.

Conventions shared by every module:

* hbar = 1, so couplings and fields are energies and time is an inverse energy.
* Basis index ``b`` stores qubit ``k`` in bit ``k`` of ``b``. The system is
  qubit 0 (least significant bit); environment sites are qubits 1..N.
* ``sigma_z |0> = +|0>``.
* All sampling goes through numpy's PCG64 generator (``np.random.default_rng``)
  with a fixed draw order, so instances are reproducible across platforms.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

AXES = ("x", "y", "z")
_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}

MODEL_KINDS = ("CPDI", "DPDI", "CODI", "CPDI_S")

HAMILTONIAN_MAX_QUBITS = 13  # dense matrix cap, dimension 8192


def _require_finite(name, *values):
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class Vec3:
    """Real 3-vector (field or coupling direction), components in energy units."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        _require_finite("Vec3 component", self.x, self.y, self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def is_zero(self) -> bool:
        return self.x == 0.0 and self.y == 0.0 and self.z == 0.0

    @staticmethod
    def zero() -> "Vec3":
        return Vec3(0.0, 0.0, 0.0)

    @staticmethod
    def from_array(arr) -> "Vec3":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (3,):
            raise ValueError(f"expected 3 components, got shape {arr.shape}")
        return Vec3(float(arr[0]), float(arr[1]), float(arr[2]))


# ---------------------------------------------------------------------------
# Coupling laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuousUniform:
    """Uniform law on [-half_width, half_width]."""

    half_width: float

    def __post_init__(self):
        _require_finite("half_width", self.half_width)
        if self.half_width <= 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(-self.half_width, self.half_width))


@dataclass(frozen=True)
class DiscreteUniform:
    """Uniform law on a finite set of distinct values."""

    support: tuple

    def __post_init__(self):
        support = tuple(float(v) for v in self.support)
        if not support:
            raise ValueError("support must be nonempty")
        if len(set(support)) != len(support):
            raise ValueError(f"support values must be distinct, got {support}")
        _require_finite("support value", *support)
        object.__setattr__(self, "support", support)

    def sample(self, rng: np.random.Generator) -> float:
        return self.support[int(rng.integers(len(self.support)))]


@dataclass(frozen=True)
class PointMass:
    """Degenerate law concentrated on one value."""

    value: float

    def __post_init__(self):
        _require_finite("value", self.value)

    def sample(self, rng: np.random.Generator) -> float:
        return self.value


# Keys of the model-spec JSON schema, and the parameter key of each source type.
_SPEC_KEYS = ("label", "n_env", "b0", "sys_env", "intra_env", "env_fields")
_SOURCE_KEYS = {"const": "value", "uniform": "a", "discrete": "support"}


def _reject_unknown_keys(doc: dict, allowed, where: str) -> None:
    """Raise ValueError naming the first key of a JSON object outside ``allowed``."""
    for key in doc:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in {where}; allowed: {sorted(allowed)}")


def _integer(value, key: str) -> int:
    """``value`` as an int; raise ValueError naming ``key`` for a bool or a
    value that is not an integral number (an integral float such as 2.0 passes)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{key}: expected an integer, got {value!r}")


def _law(kind: str, param):
    """The coupling law of type ``kind`` with its one parameter: ``const`` a
    value, ``uniform`` a half-width, ``discrete`` a sequence of values."""
    if kind == "const":
        return PointMass(float(param))
    if kind == "uniform":
        return ContinuousUniform(float(param))
    if kind == "discrete":
        return DiscreteUniform(tuple(param))
    raise ValueError(f"unknown law type {kind!r}; allowed: {sorted(_SOURCE_KEYS)}")


def _is_nonzero_law(law) -> bool:
    """False for a point mass at zero; raise TypeError for a value that is not a law."""
    if not isinstance(law, (ContinuousUniform, DiscreteUniform, PointMass)):
        raise TypeError(f"not a coupling law: {law!r}")
    return law != PointMass(0.0)


# ---------------------------------------------------------------------------
# Model specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Structural description of a two-body qubit Hamiltonian before sampling.

    ``sys_env`` maps ``(alpha, site, beta)`` to the law of the coupling
    between ``sigma_alpha`` on the system and ``sigma_beta`` on the given
    environment site. ``intra_env`` maps ``(i, j, alpha, beta)`` with
    ``1 <= i < j <= n_env`` to couplings inside the environment. ``env_fields``
    maps ``(site, component)`` to local field laws. Every law is a
    ``ContinuousUniform``, ``DiscreteUniform`` or ``PointMass``; point masses
    at zero are dropped at construction, and absent keys mean a vanishing
    coefficient. Each mapping is stored in the draw order of
    ``sample_instance``. ``b0`` is the (deterministic) system field.
    """

    label: str
    n_env: int
    b0: Vec3
    sys_env: Mapping
    intra_env: Mapping
    env_fields: Mapping

    def __post_init__(self):
        if self.n_env < 1:
            raise ValueError(f"n_env must be >= 1, got {self.n_env}")

        sys_env = {}
        for key, law in dict(self.sys_env).items():
            alpha, site, beta = key
            if alpha not in AXES or beta not in AXES:
                raise ValueError(f"bad axes in sys_env key {key!r}")
            if not 1 <= site <= self.n_env:
                raise ValueError(f"sys_env site {site} out of range 1..{self.n_env}")
            if _is_nonzero_law(law):
                sys_env[(alpha, int(site), beta)] = law

        intra_env = {}
        for key, law in dict(self.intra_env).items():
            i, j, alpha, beta = key
            if alpha not in AXES or beta not in AXES:
                raise ValueError(f"bad axes in intra_env key {key!r}")
            if not (1 <= i < j <= self.n_env):
                raise ValueError(f"intra_env sites {(i, j)} must satisfy 1 <= i < j <= {self.n_env}")
            if _is_nonzero_law(law):
                intra_env[(int(i), int(j), alpha, beta)] = law

        env_fields = {}
        for key, law in dict(self.env_fields).items():
            site, comp = key
            if comp not in AXES:
                raise ValueError(f"bad component in env_fields key {key!r}")
            if not 1 <= site <= self.n_env:
                raise ValueError(f"env_fields site {site} out of range 1..{self.n_env}")
            if _is_nonzero_law(law):
                env_fields[(int(site), comp)] = law

        object.__setattr__(self, "sys_env", dict(sorted(sys_env.items())))
        object.__setattr__(self, "intra_env", dict(sorted(intra_env.items())))
        object.__setattr__(self, "env_fields", dict(sorted(env_fields.items())))

    # -- structural queries used for classification and engine dispatch ----

    def continuous_support(self) -> bool:
        """True when every system-environment coupling is drawn from a continuous law."""
        laws = list(self.sys_env.values())
        if not laws:
            return False
        return all(isinstance(law, ContinuousUniform) for law in laws)

    def is_z_only(self) -> bool:
        """True when the Hamiltonian contains only sigma_z factors (diagonal)."""
        if self.b0.x != 0.0 or self.b0.y != 0.0:
            return False
        for alpha, _, beta in self.sys_env:
            if alpha != "z" or beta != "z":
                return False
        for _, _, alpha, beta in self.intra_env:
            if alpha != "z" or beta != "z":
                return False
        for _, comp in self.env_fields:
            if comp != "z":
                return False
        return True

    def is_branching_form(self) -> bool:
        """True for pure system-environment dephasing, the shape that keeps an
        initially separable state in singly-branching form at all times."""
        return (
            self.is_z_only()
            and self.b0.is_zero()
            and not self.intra_env
            and not self.env_fields
        )

    # -- JSON schema (documented in the README) ----------------------------

    def to_json_dict(self) -> dict:
        def enc(law):
            if isinstance(law, PointMass):
                return {"type": "const", "value": law.value}
            if isinstance(law, ContinuousUniform):
                return {"type": "uniform", "a": law.half_width}
            return {"type": "discrete", "support": list(law.support)}

        return {
            "label": self.label,
            "n_env": self.n_env,
            "b0": [self.b0.x, self.b0.y, self.b0.z],
            "sys_env": [
                {"axes": a + b, "site": j, "source": enc(law)}
                for (a, j, b), law in self.sys_env.items()
            ],
            "intra_env": [
                {"axes": a + b, "sites": [i, j], "source": enc(law)}
                for (i, j, a, b), law in self.intra_env.items()
            ],
            "env_fields": [
                {"site": i, "component": c, "source": enc(law)}
                for (i, c), law in self.env_fields.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelSpec":
        def dec(obj):
            kind = obj.get("type")
            if kind not in _SOURCE_KEYS:
                raise ValueError(f"unknown source type {kind!r}")
            _reject_unknown_keys(obj, ("type", _SOURCE_KEYS[kind]), f"{kind} source")
            return _law(kind, obj[_SOURCE_KEYS[kind]])

        def entries(name, keys):
            for entry in doc.get(name, []):
                _reject_unknown_keys(entry, keys, f"{name} entry")
                yield entry

        _reject_unknown_keys(doc, _SPEC_KEYS, "model spec")
        sys_env = {}
        for entry in entries("sys_env", ("axes", "site", "source")):
            axes = entry["axes"]
            sys_env[(axes[0], _integer(entry["site"], "site"), axes[1])] = dec(entry["source"])
        intra_env = {}
        for entry in entries("intra_env", ("axes", "sites", "source")):
            axes = entry["axes"]
            i, j = (_integer(site, "sites") for site in entry["sites"])
            intra_env[(i, j, axes[0], axes[1])] = dec(entry["source"])
        env_fields = {}
        for entry in entries("env_fields", ("site", "component", "source")):
            env_fields[(_integer(entry["site"], "site"), entry["component"])] = dec(entry["source"])
        return cls(
            label=str(doc.get("label", "")),
            n_env=_integer(doc["n_env"], "n_env"),
            b0=Vec3.from_array(doc.get("b0", [0.0, 0.0, 0.0])),
            sys_env=sys_env,
            intra_env=intra_env,
            env_fields=env_fields,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        return cls.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Sampled instance
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _lower_triangle(n: int) -> tuple:
    """Read-only (row, column) indices of the i >= j entries of an n x n array."""
    rows, cols = np.tril_indices(n)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@dataclass(frozen=True)
class ModelInstance:
    """Numeric realization of a spec: coupling tensor and per-site fields.

    ``j_tensor[i, j, a, b]`` is the coefficient of ``sigma_a`` on qubit ``i``
    times ``sigma_b`` on qubit ``j``; only entries with ``i < j`` may be
    nonzero. ``fields[i]`` is the local field vector of qubit ``i``.
    """

    n_env: int
    j_tensor: np.ndarray
    fields: np.ndarray

    def __post_init__(self):
        n = self.n_env + 1
        jt = np.asarray(self.j_tensor, dtype=float)
        fl = np.asarray(self.fields, dtype=float)
        if jt.shape != (n, n, 3, 3):
            raise ValueError(f"j_tensor must have shape {(n, n, 3, 3)}, got {jt.shape}")
        if fl.shape != (n, 3):
            raise ValueError(f"fields must have shape {(n, 3)}, got {fl.shape}")
        if not (np.isfinite(jt).all() and np.isfinite(fl).all()):
            raise ValueError("coefficients must be finite")
        if np.any(jt[_lower_triangle(n)] != 0.0):
            raise ValueError("j_tensor entries with i >= j must be zero")
        object.__setattr__(self, "j_tensor", jt)
        object.__setattr__(self, "fields", fl)

    @property
    def n_qubits(self) -> int:
        return self.n_env + 1

    def sys_env_matrix(self) -> np.ndarray:
        """Couplings of the system to the environment as a 3 x 3N matrix,
        rows indexed by the system axis, columns by (site, env axis)."""
        block = self.j_tensor[0, 1:, :, :]            # (N, 3 sys, 3 env)
        return block.transpose(1, 0, 2).reshape(3, 3 * self.n_env)

    def coupling_scale(self) -> float:
        return float(np.max(np.abs(self.j_tensor))) if self.j_tensor.size else 0.0

    def intra_abs_max(self) -> float:
        if self.n_env < 2:
            return 0.0
        return float(np.max(np.abs(self.j_tensor[1:, 1:, :, :])))

    def is_z_only(self) -> bool:
        if np.any(self.j_tensor[:, :, :2, :] != 0.0) or np.any(self.j_tensor[:, :, :, :2] != 0.0):
            return False
        return not np.any(self.fields[:, :2] != 0.0)


@dataclass(frozen=True)
class Classification:
    """Structural verdict for one sampled instance."""

    pointer_basis: bool
    continuous_support: bool
    no_scrambling: bool
    darwinism_supported: bool
    pointer_direction: Vec3 | None = None

    def __post_init__(self):
        expected = self.pointer_basis and self.continuous_support and self.no_scrambling
        if self.darwinism_supported != expected:
            raise ValueError("darwinism_supported must equal the conjunction of the other flags")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def canonical_kind(kind: str) -> str:
    k = str(kind).upper().replace("-", "_")
    if k not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    return k


def build_model(
    kind: str,
    n_env: int,
    half_width: float = 1.0,
    support: Sequence[float] = (-1.0, -0.5, 0.5, 1.0),
    scramble_half_width: float = 0.03,
) -> ModelSpec:
    """Build one of the four reference models.

    All four couple the system to every environment site through ``z z``
    terms. CPDI/CODI/CPDI_S draw the couplings uniformly from
    ``[-half_width, half_width]``; DPDI draws them uniformly from ``support``.
    CODI adds the transverse system field (0, 1, 0); CPDI_S adds ``z z``
    couplings inside the environment drawn from
    ``[-scramble_half_width, scramble_half_width]`` (0 disables them).
    """
    kind = canonical_kind(kind)
    if n_env < 1:
        raise ValueError(f"n_env must be >= 1, got {n_env}")
    if half_width <= 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    if scramble_half_width < 0:
        raise ValueError(f"scramble_half_width must be >= 0, got {scramble_half_width}")
    support = tuple(float(v) for v in support)
    if kind == "DPDI":
        coupling = DiscreteUniform(support)  # validates support
    else:
        coupling = ContinuousUniform(float(half_width))

    sys_env = {("z", j, "z"): coupling for j in range(1, n_env + 1)}
    b0 = Vec3(0.0, 1.0, 0.0) if kind == "CODI" else Vec3.zero()
    intra_env = {}
    if kind == "CPDI_S" and scramble_half_width > 0:
        scramble = ContinuousUniform(float(scramble_half_width))
        intra_env = {
            (i, j, "z", "z"): scramble
            for i in range(1, n_env + 1)
            for j in range(i + 1, n_env + 1)
        }
    return ModelSpec(
        label=kind,
        n_env=n_env,
        b0=b0,
        sys_env=sys_env,
        intra_env=intra_env,
        env_fields={},
    )


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_instance(spec: ModelSpec, seed) -> ModelInstance:
    """Draw one numeric instance of a spec, deterministically in (spec, seed).

    Draw order is fixed: system-environment entries in lexicographic
    (axis, site, axis) order with x < y < z, then intra-environment entries in
    lexicographic (i, j, axis, axis) order, then environment fields by site
    and component; the spec stores its laws in this order. Point-mass laws
    consume no generator state. ``seed`` may be an integer or an
    already-initialized generator.
    """
    rng = _as_rng(seed)
    n = spec.n_env
    jt = np.zeros((n + 1, n + 1, 3, 3))
    for (alpha, j, beta), law in spec.sys_env.items():
        jt[0, j, _AXIS_INDEX[alpha], _AXIS_INDEX[beta]] = law.sample(rng)
    for (i, j, alpha, beta), law in spec.intra_env.items():
        jt[i, j, _AXIS_INDEX[alpha], _AXIS_INDEX[beta]] = law.sample(rng)
    fields = np.zeros((n + 1, 3))
    fields[0] = spec.b0.as_array()
    for (site, comp), law in spec.env_fields.items():
        fields[site, _AXIS_INDEX[comp]] = law.sample(rng)
    return ModelInstance(n_env=n, j_tensor=jt, fields=fields)


def classify(instance: ModelInstance, continuous_support: bool, tol: float = 1e-9) -> Classification:
    """Decide whether the instance supports a pointer basis and redundant records.

    The system-environment block supports a pointer basis iff it has numerical
    rank at most one (second singular value below ``tol`` times the first) and
    the surviving system direction is parallel to the system field. Scrambling
    is absent iff every intra-environment coupling is below ``tol`` times the
    largest coupling magnitude. All tests are relative, so the verdict is
    invariant under rescaling the instance.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    m = instance.sys_env_matrix()
    direction = None
    if not m.any():
        pointer = True  # decoupled system: rank 0, any basis is retained
    else:
        u, s, _ = np.linalg.svd(m)
        rank_ok = s[1] <= tol * s[0]
        if rank_ok:
            v0 = u[:, 0]
            k = int(np.argmax(np.abs(v0)))
            if v0[k] < 0:
                v0 = -v0
            b0 = instance.fields[0]
            b0_norm = float(np.linalg.norm(b0))
            parallel = b0_norm == 0.0 or float(
                np.linalg.norm(np.cross(b0, v0))
            ) <= tol * b0_norm
            pointer = parallel
            if pointer:
                direction = Vec3.from_array(v0 / np.linalg.norm(v0))
        else:
            pointer = False
    scale = instance.coupling_scale()
    no_scrambling = instance.intra_abs_max() <= tol * scale
    return Classification(
        pointer_basis=pointer,
        continuous_support=bool(continuous_support),
        no_scrambling=no_scrambling,
        darwinism_supported=pointer and bool(continuous_support) and no_scrambling,
        pointer_direction=direction,
    )


def _apply_pauli_term(h, basis, coeff, factors):
    """Accumulate coeff * product of single-site Paulis into ``h``.

    Each Pauli string is a signed permutation in the computational basis:
    sigma_x flips a bit, sigma_y flips with phase +-i, sigma_z applies +-1.
    """
    flip = 0
    phase = np.full(basis.shape, coeff, dtype=complex)
    for site, axis in factors:
        bit = (basis >> site) & 1
        if axis == 0:            # x
            flip ^= 1 << site
        elif axis == 1:          # y
            flip ^= 1 << site
            phase *= 1j * (1 - 2 * bit)
        else:                    # z
            phase *= 1 - 2 * bit
    h[basis ^ flip, basis] += phase


def hamiltonian_matrix(instance: ModelInstance) -> np.ndarray:
    """Dense Hermitian matrix of the instance on the full register."""
    n_qubits = instance.n_qubits
    if n_qubits > HAMILTONIAN_MAX_QUBITS:
        raise ValueError(
            f"{n_qubits} qubits exceeds the dense-matrix cap of {HAMILTONIAN_MAX_QUBITS}"
        )
    dim = 1 << n_qubits
    basis = np.arange(dim)
    h = np.zeros((dim, dim), dtype=complex)
    for i, j, a, b in zip(*np.nonzero(instance.j_tensor)):
        _apply_pauli_term(h, basis, instance.j_tensor[i, j, a, b], [(i, a), (j, b)])
    for site, c in zip(*np.nonzero(instance.fields)):
        _apply_pauli_term(h, basis, instance.fields[site, c], [(site, c)])
    return h
