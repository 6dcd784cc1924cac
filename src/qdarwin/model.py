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
import sys
from dataclasses import astuple, dataclass
from functools import lru_cache
from itertools import groupby
from typing import Mapping

import numpy as np

AXES = ("x", "y", "z")
_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}

MODEL_KINDS = ("CPDI", "DPDI", "CODI", "CPDI_S")


@dataclass(frozen=True)
class Vec3:
    """Real 3-vector (field or coupling direction), components in energy units."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for value in (self.x, self.y, self.z):
            _real(value, "Vec3 component")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def is_zero(self) -> bool:
        return self.x == 0.0 and self.y == 0.0 and self.z == 0.0

    @staticmethod
    def zero() -> "Vec3":
        return Vec3(0.0, 0.0, 0.0)

    @staticmethod
    def from_array(arr) -> "Vec3":
        arr = _number_array(arr, "Vec3")
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
        if _real(self.half_width, "half_width") <= 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws in one generator call; the same stream as ``size``
        scalar calls."""
        return rng.uniform(-self.half_width, self.half_width, size=size)


@dataclass(frozen=True)
class DiscreteUniform:
    """Uniform law on a finite set of distinct values."""

    support: tuple

    def __post_init__(self):
        support = tuple(_real(v, "support") for v in _items(self.support, "support"))
        if not support:
            raise ValueError("support must be nonempty")
        if len(set(support)) != len(support):
            raise ValueError(f"support values must be distinct, got {support}")
        object.__setattr__(self, "support", support)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.array(self.support)[rng.integers(len(self.support), size=size)]


@dataclass(frozen=True)
class PointMass:
    """Degenerate law concentrated on one value."""

    value: float

    def __post_init__(self):
        _real(self.value, "value")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` copies of the value; consumes no generator state."""
        return np.full(size, self.value)


# The coupling law of each JSON source type, and the key of its one parameter.
_LAWS = {"const": (PointMass, "value"), "uniform": (ContinuousUniform, "a"),
         "discrete": (DiscreteUniform, "support")}

# The key of each spec mapping, described once: the fields of its JSON entry
# in document order, each with the key slots it holds. An axis field holds
# its slots' x/y/z axes as one string; a site field holds one environment
# site, or a list of several in increasing order.
_KEY_FIELDS = {
    "sys_env": {"axes": (0, 2), "site": (1,)},
    "intra_env": {"axes": (2, 3), "sites": (0, 1)},
    "env_fields": {"site": (0,), "component": (1,)},
}
_AXIS_FIELDS = ("axes", "component")
_SPEC_KEYS = ("label", "n_env", "b0", *_KEY_FIELDS)  # keys of the model-spec JSON schema


def _reject_unknown_keys(doc: dict, allowed, where: str, required=()) -> None:
    """Raise ValueError unless ``doc`` is a JSON object with no key outside
    ``allowed`` and every key of ``required``, naming the first key that is
    unknown, else the first that is missing."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    for key in doc:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in {where}; allowed: {sorted(allowed)}")
    for key in required:
        if key not in doc:
            raise ValueError(f"missing key {key!r} in {where}")


def _integer(value, key: str) -> int:
    """``value`` as an int; raise ValueError naming ``key`` for a bool or a
    value that is not an integral number (an integral float such as 2.0 passes)."""
    # a plain int first: the Integral check is an abstract-class lookup
    if type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{key}: expected an integer, got {value!r}")


def _positive_integer(value, key: str) -> int:
    """``value`` through ``_integer``, required to be at least 1 (a register
    size or a count); raise ValueError naming ``key`` otherwise."""
    n = _integer(value, key)
    if n < 1:
        raise ValueError(f"{key} must be >= 1, got {n}")
    return n


def _items(values, key: str) -> tuple:
    """``values`` (a list, a tuple, a range or a 1-d array) as a tuple; raise ValueError
    naming ``key`` for a string, a mapping or a non-iterable such as a number or None."""
    if not isinstance(values, (str, Mapping)):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise ValueError(f"{key}: expected a list, got {values!r}")


def _sites(values, lo, hi, key: str) -> tuple:
    """``values`` as a tuple of distinct ints within lo..hi, each through
    ``_integer``; raise ValueError naming ``key`` for anything else."""
    sites = tuple(_integer(v, key) for v in _items(values, key))
    if len(set(sites)) != len(sites):
        raise ValueError(f"{key} must be distinct, got {list(sites)}")
    if any(not lo <= s <= hi for s in sites):
        raise ValueError(f"{key} {list(sites)} out of range {lo}..{hi}")
    return sites


def _real(value, key: str) -> float:
    """``value`` as a float; raise ValueError naming ``key`` for a bool, a
    string, NaN, an infinity, an integer beyond the float range or any other
    value that is not a finite real."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:  # NaN fails too
            return float(value)
    raise ValueError(f"{key}: expected a finite real number, got {value!r}")


def _number_array(values, key: str, dtype=float) -> np.ndarray:
    """``values`` as a new array of ``dtype``, float or complex: the array
    counterpart of ``_real``. Raise ValueError naming ``key`` unless every
    entry is a finite number, real for a float array; a bool, a string, NaN,
    an infinity or an integer beyond the float range fails."""
    number = numbers.Complex if dtype is complex else numbers.Real
    if isinstance(values, np.ndarray) and values.dtype != object:
        ok = values.dtype.kind in ("iufc" if dtype is complex else "iuf")
    else:  # a list may hide a bool in a numeric dtype, so each entry is checked
        ok = all(isinstance(v, number) and not isinstance(v, bool)
                 for v in np.asarray(values, dtype=object).ravel())
    try:
        arr = np.array(values, dtype=dtype) if ok else None
    except OverflowError:
        arr = None
    if arr is None or not np.isfinite(arr).all():
        raise ValueError(f"{key}: expected finite {number.__name__.lower()} numbers, "
                         f"got {values!r}")
    return arr


def _source(law) -> dict:
    """The JSON source object of a coupling law."""
    for kind, (law_type, key) in _LAWS.items():
        if type(law) is law_type:
            (param,) = astuple(law)
            return {"type": kind, key: list(param) if isinstance(param, tuple) else param}


def _source_law(source):
    """The coupling law of a JSON source object."""
    kind = source.get("type") if isinstance(source, dict) else None
    if not isinstance(kind, str) or kind not in _LAWS:
        raise ValueError(f"source: expected an object of type {sorted(_LAWS)}, got {source!r}")
    law_type, key = _LAWS[kind]
    _reject_unknown_keys(source, ("type", key), f"{kind} source", (key,))
    return law_type(source[key])


def _check_key(name: str, key, n_env: int) -> tuple:
    """A key of spec mapping ``name`` with its sites as ints. Raise
    ValueError, naming the field, for an axis outside x/y/z or for sites that
    are not integers increasing within 1..n_env."""
    key, fields = list(key), _KEY_FIELDS[name]
    if len(key) != sum(map(len, fields.values())):
        raise ValueError(f"{name} key {tuple(key)!r} does not fill the fields {list(fields)}")
    for field, slots in fields.items():
        if field in _AXIS_FIELDS:
            if any(key[s] not in AXES for s in slots):
                raise ValueError(f"{name} {field} must be x, y or z, got {[key[s] for s in slots]}")
            continue
        bounds = [0, *(_integer(key[s], field) for s in slots), n_env + 1]
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"{name} {field} {bounds[1:-1]} must increase within 1..{n_env}")
        for s, site in zip(slots, bounds[1:]):
            key[s] = site
    return tuple(key)


def _entry_key(name: str, entry: dict) -> tuple:
    """The key of a JSON entry of spec mapping ``name``. Checks the shape of
    each field, axes as one string and sites as a list (one site may stand
    alone), and each site through ``_integer``, so that the key is hashable;
    leaves the rest to ``_check_key``."""
    parts = {}
    for field, slots in _KEY_FIELDS[name].items():
        value = entry[field] if field in _AXIS_FIELDS or len(slots) > 1 else [entry[field]]
        shape = str if field in _AXIS_FIELDS else list
        if not isinstance(value, shape) or len(value) != len(slots):
            raise ValueError(f"{name} {field}: expected a {shape.__name__} of length "
                             f"{len(slots)}, got {entry[field]!r}")
        parts.update(zip(slots, value if shape is str else [_integer(v, field) for v in value]))
    return tuple(parts[s] for s in sorted(parts))


def _entry_fields(name: str, key: tuple) -> dict:
    """The fields of the JSON entry of ``key`` in spec mapping ``name``, but its source."""
    fields = {}
    for field, slots in _KEY_FIELDS[name].items():
        parts = [key[s] for s in slots]
        if field in _AXIS_FIELDS:
            fields[field] = "".join(parts)
        else:
            fields[field] = parts if len(parts) > 1 else parts[0]
    return fields


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
        if not isinstance(self.label, str):
            raise ValueError(f"label: expected a string, got {self.label!r}")
        n_env = _positive_integer(self.n_env, "n_env")
        object.__setattr__(self, "n_env", n_env)
        for name in _KEY_FIELDS:
            laws = dict(getattr(self, name))
            laws = {_check_key(name, key, n_env): law for key, law in laws.items()}
            kept = sorted((key, law) for key, law in laws.items() if _is_nonzero_law(law))
            object.__setattr__(self, name, dict(kept))

    # -- structural queries used for classification and engine dispatch ----

    def continuous_support(self) -> bool:
        """True when every system-environment coupling is drawn from a continuous law."""
        laws = list(self.sys_env.values())
        if not laws:
            return False
        return all(isinstance(law, ContinuousUniform) for law in laws)

    def is_z_only(self) -> bool:
        """True when the Hamiltonian contains only sigma_z factors (diagonal)."""
        return self.b0.x == 0.0 and self.b0.y == 0.0 and all(
            key[s] == "z" for name, fields in _KEY_FIELDS.items() for key in getattr(self, name)
            for field in _AXIS_FIELDS for s in fields.get(field, ())
        )

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
        doc = {"label": self.label, "n_env": self.n_env, "b0": [self.b0.x, self.b0.y, self.b0.z]}
        for name in _KEY_FIELDS:
            doc[name] = [
                {**_entry_fields(name, key), "source": _source(law)}
                for key, law in getattr(self, name).items()
            ]
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelSpec":
        """Assemble a spec from its JSON document; the constructor checks every
        value, this only the document's shape."""
        _reject_unknown_keys(doc, _SPEC_KEYS, "model spec", ("n_env",))
        mappings = {}
        for name, fields in _KEY_FIELDS.items():
            mappings[name] = {}
            for entry in _items(doc.get(name, []), name):
                keys = (*fields, "source")
                _reject_unknown_keys(entry, keys, f"{name} entry", keys)
                key = _entry_key(name, entry)
                if key in mappings[name]:  # tuple equality: site 1 and 1.0 are one key
                    raise ValueError(f"{name}: repeated entry for key {key!r}")
                mappings[name][key] = _source_law(entry["source"])
        b0 = _items(doc.get("b0", [0.0, 0.0, 0.0]), "b0")
        if len(b0) != 3:
            raise ValueError(f"b0: expected a list of 3 numbers, got {list(b0)!r}")
        return cls(
            label=doc.get("label", ""),
            n_env=doc["n_env"],
            b0=Vec3(*(_real(v, "b0") for v in b0)),
            **mappings,
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
        object.__setattr__(self, "n_env", _positive_integer(self.n_env, "n_env"))
        n = self.n_env + 1
        jt = _number_array(self.j_tensor, "j_tensor")
        fl = _number_array(self.fields, "fields")
        if jt.shape != (n, n, 3, 3):
            raise ValueError(f"j_tensor must have shape {(n, n, 3, 3)}, got {jt.shape}")
        if fl.shape != (n, 3):
            raise ValueError(f"fields must have shape {(n, 3)}, got {fl.shape}")
        if np.any(jt[_lower_triangle(n)] != 0.0):
            raise ValueError("j_tensor entries with i >= j must be zero")
        object.__setattr__(self, "j_tensor", jt)
        object.__setattr__(self, "fields", fl)

    @property
    def n_qubits(self) -> int:
        return self.n_env + 1

    def flip_mask(self) -> int:
        """Bit mask of the qubits some term flips: those with an x or y field
        or an x or y factor in a coupling. It holds every bit that a nonzero
        entry of H flips, and more only where terms cancel exactly."""
        transverse = self.fields[:, :2].any(axis=1)
        transverse |= self.j_tensor[:, :, :2, :].any(axis=(1, 2, 3))  # factor on qubit i
        transverse |= self.j_tensor[:, :, :, :2].any(axis=(0, 2, 3))  # factor on qubit j
        return sum(1 << int(k) for k in np.flatnonzero(transverse))

    def is_z_only(self) -> bool:
        return self.flip_mask() == 0


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


# The parameters each reference model reads, with their defaults.
_MODEL_PARAMETERS = {
    "CPDI": {"half_width": 1.0},
    "DPDI": {"support": (-1.0, -0.5, 0.5, 1.0)},
    "CODI": {"half_width": 1.0},
    "CPDI_S": {"half_width": 1.0, "scramble_half_width": 0.03},
}


def build_model(kind: str, n_env: int, **overrides) -> ModelSpec:
    """Build one of the four reference models.

    All four couple the system to every environment site through ``z z``
    terms. CPDI/CODI/CPDI_S draw the couplings uniformly from
    ``[-half_width, half_width]``; DPDI draws them uniformly from ``support``.
    CODI adds the transverse system field (0, 1, 0); CPDI_S adds ``z z``
    couplings inside the environment drawn from
    ``[-scramble_half_width, scramble_half_width]`` (0 disables them).
    ``overrides`` replace the defaults in ``_MODEL_PARAMETERS``; one the model
    does not read raises ValueError naming the key and the model.
    """
    kind = canonical_kind(kind)
    n_env = _positive_integer(n_env, "n_env")
    defaults = _MODEL_PARAMETERS[kind]
    _reject_unknown_keys(overrides, defaults, f"the overrides of {kind}")
    params = {**defaults, **overrides}
    if kind == "DPDI":
        coupling = DiscreteUniform(params["support"])  # validates support
    else:
        coupling = ContinuousUniform(_real(params["half_width"], "half_width"))
    scramble_half_width = _real(params.get("scramble_half_width", 0.0), "scramble_half_width")
    if scramble_half_width < 0:
        raise ValueError(f"scramble_half_width must be >= 0, got {scramble_half_width}")

    sys_env = {("z", j, "z"): coupling for j in range(1, n_env + 1)}
    b0 = Vec3(0.0, 1.0, 0.0) if kind == "CODI" else Vec3.zero()
    intra_env = {}
    if scramble_half_width > 0:
        scramble = ContinuousUniform(scramble_half_width)
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
    """``seed`` if it is a generator, else a new one seeded by ``seed``, which
    must be a non-negative integer; raise ValueError naming ``seed`` otherwise."""
    if isinstance(seed, np.random.Generator):
        return seed
    (seed,) = _sites([seed], 0, math.inf, "seed")
    return np.random.default_rng(seed)


def sample_instance(spec: ModelSpec, seed) -> ModelInstance:
    """Draw one numeric instance of a spec, deterministically in (spec, seed).

    Draw order is fixed: system-environment entries in lexicographic
    (axis, site, axis) order with x < y < z, then intra-environment entries in
    lexicographic (i, j, axis, axis) order, then environment fields by site
    and component; the spec stores its laws in this order. Point-mass laws
    consume no generator state. ``seed`` may be a non-negative integer or an
    already-initialized generator.
    """
    rng = _as_rng(seed)
    n = spec.n_env
    couplings = [(0, j, alpha, beta) for alpha, j, beta in spec.sys_env] + list(spec.intra_env)
    values = _draw(
        [*spec.sys_env.values(), *spec.intra_env.values(), *spec.env_fields.values()], rng
    )
    jt = np.zeros((n + 1, n + 1, 3, 3))
    for (i, j, alpha, beta), value in zip(couplings, values):
        jt[i, j, _AXIS_INDEX[alpha], _AXIS_INDEX[beta]] = value
    fields = np.zeros((n + 1, 3))
    fields[0] = spec.b0.as_array()
    for (site, comp), value in zip(spec.env_fields, values[len(couplings):]):
        fields[site, _AXIS_INDEX[comp]] = value
    return ModelInstance(n_env=n, j_tensor=jt, fields=fields)


def _draw(laws, rng: np.random.Generator) -> np.ndarray:
    """One value per law, in order; each run of consecutive equal laws is
    drawn in one vector call, which leaves the generator where scalar draws
    would."""
    values = np.empty(len(laws))
    start = 0
    for law, run in groupby(laws):
        stop = start + len(list(run))
        values[start:stop] = law.sample(rng, stop - start)
        start = stop
    return values


def classify(instance: ModelInstance, continuous_support: bool, tol: float = 1e-9) -> Classification:
    """Decide whether the instance supports a pointer basis and redundant records.

    The system-environment block supports a pointer basis iff it has numerical
    rank at most one (second singular value below ``tol`` times the first) and
    the surviving system direction is parallel to the system field; a
    decoupled system's pointer axis is its field's, if it has one. Scrambling
    is absent iff every intra-environment coupling is below ``tol`` times the
    largest coupling magnitude. All tests are relative, so the verdict is
    invariant under rescaling the instance.
    """
    if _real(tol, "tol") <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    jt, b0 = instance.j_tensor, instance.fields[0]
    block = jt[0, 1:].transpose(1, 0, 2).reshape(3, -1)  # (system axis, site x env axis)
    axis, pointer = b0, True  # a decoupled system keeps its field's axis, or every axis
    if block.any():
        u, s, _ = np.linalg.svd(block)
        axis = u[:, 0]
        if axis[np.argmax(np.abs(axis))] < 0:
            axis = -axis
        pointer = bool(s[1] <= tol * s[0]
                       and np.linalg.norm(np.cross(b0, axis)) <= tol * np.linalg.norm(b0))
    direction = Vec3.from_array(axis / np.linalg.norm(axis)) if pointer and axis.any() else None
    no_scrambling = bool(np.abs(jt[1:, 1:]).max() <= tol * np.abs(jt).max())
    return Classification(
        pointer_basis=pointer,
        continuous_support=bool(continuous_support),
        no_scrambling=no_scrambling,
        darwinism_supported=pointer and bool(continuous_support) and no_scrambling,
        pointer_direction=direction,
    )
