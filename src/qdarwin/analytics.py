"""Closed-form and asymptotic predictions: characteristic functions,
disorder-averaged decoherence factors, and the weak-decoherence and long-time
expressions for the information quantities.

All entropies are in bits; the expansion coefficient returned by
``weak_decoherence_slope`` carries the 1/ln(2) conversion so the expansions
are exact derivatives of the base-2 entropies.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ContinuousUniform, DiscreteUniform, PointMass, _number_array, _real, _sites

_LN2 = math.log(2.0)


def binary_entropy(p):
    """-p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0. Accepts arrays."""
    arr = _number_array(p, "p")
    if not (np.all(arr >= -1e-12) and np.all(arr <= 1.0 + 1e-12)):  # NaN fails too
        raise ValueError("probability out of [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    out = np.zeros_like(arr)
    mask = (arr > 0.0) & (arr < 1.0)
    q = arr[mask]
    out[mask] = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    return float(out) if out.ndim == 0 else out


def characteristic_function(dist, k):
    """E[e^{ikX}] for a coupling distribution; scalar or array ``k``."""
    k_arr = _number_array(k, "k")
    if isinstance(dist, ContinuousUniform):
        out = np.sinc(dist.half_width * k_arr / np.pi).astype(complex)
    elif isinstance(dist, DiscreteUniform):
        support = np.asarray(dist.support)
        out = np.mean(np.exp(1j * np.multiply.outer(support, k_arr)), axis=0)
    elif isinstance(dist, PointMass):
        out = np.exp(1j * dist.value * k_arr)
    else:
        raise TypeError(f"not a coupling distribution: {dist!r}")
    return complex(out) if out.ndim == 0 else out


def _check_unit_interval(name, value) -> float:
    x = _real(value, name)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return x


def _check_open_unit_interval(name, value) -> float:
    x = _real(value, name)
    if not 0.0 < x < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {x}")
    return x


def averaged_gamma_squared(dist, alpha_sq, t):
    """Disorder average of the squared site decoherence factor |Gamma_i(t)|^2.

    Equal to a^4 + b^4 + 2 a^2 b^2 Re f(4t) with a^2 = ``alpha_sq`` and f the
    characteristic function of the coupling; 1 at t = 0, and for continuous
    couplings it decays to a^4 + b^4 as t grows. Scalar or array ``t``.
    """
    a2 = _check_unit_interval("alpha_sq", alpha_sq)
    b2 = 1.0 - a2
    re = np.real(characteristic_function(dist, 4.0 * _number_array(t, "t")))
    out = a2 * a2 + b2 * b2 + 2.0 * a2 * b2 * re
    return float(out) if np.ndim(out) == 0 else out


def gamma_squared_floor(alpha_sq) -> float:
    """Long-time value of the averaged squared decoherence factor for one site."""
    a2 = _check_unit_interval("alpha_sq", alpha_sq)
    return a2 * a2 + (1.0 - a2) * (1.0 - a2)


def weak_decoherence_slope(alpha0_sq) -> float:
    """Sensitivity of the system entropy (in bits) to a small squared
    decoherence factor: S ~ S_max - slope/2 * |Gamma|^2.

    Evaluates 4x(1-x) artanh(u) / u / ln 2 with u = 1-2x directly, with no
    series window: the limit artanh(u)/u = 1 is taken only at u = 0 (x = 1/2).
    """
    x = _check_open_unit_interval("alpha0_sq", alpha0_sq)
    u = 1.0 - 2.0 * x
    ratio = math.atanh(u) / u if u else 1.0
    return 4.0 * x * (1.0 - x) * ratio / _LN2


def max_system_entropy(alpha0_sq) -> float:
    """Entropy (bits) of the fully decohered system qubit."""
    return binary_entropy(_check_unit_interval("alpha0_sq", alpha0_sq))


def _first_order(alpha0_sq, x) -> float:
    """S_max - slope/2 * x: the expansion shared by the weak-decoherence and
    long-time forms, with x the signed sum of squared decoherence factors."""
    slope = weak_decoherence_slope(alpha0_sq)  # first: it names alpha0_sq, binary_entropy says p
    return binary_entropy(alpha0_sq) - 0.5 * slope * x


def weak_decoherence_mutual_info(gamma_sq, gamma_f_sq, gamma_fbar_sq, alpha0_sq) -> float:
    """Mutual information for small decoherence factors:
    S_max - slope/2 * (|Gamma|^2 + |Gamma_F|^2 - |Gamma_Fbar|^2)."""
    g = _check_unit_interval("gamma_sq", gamma_sq)
    gf = _check_unit_interval("gamma_f_sq", gamma_f_sq)
    gfb = _check_unit_interval("gamma_fbar_sq", gamma_fbar_sq)
    return _first_order(alpha0_sq, g + gf - gfb)


def weak_decoherence_holevo(gamma_f_sq, alpha0_sq) -> float:
    """Holevo quantity for small decoherence factors: S_max - slope/2 * |Gamma_F|^2."""
    return _first_order(alpha0_sq, _check_unit_interval("gamma_f_sq", gamma_f_sq))


def asymptotic_mutual_info(n, n_env, alpha0_sq, mean_floor=2.0 / 3.0) -> float:
    """Long-time, initial-state-averaged mutual information vs fragment size:
    S_max - slope/2 * (m^N + m^n - m^(N-n)) with m = ``mean_floor``.

    First order in the floor powers: accurate only where m^n and m^(N-n) are
    both small (at m = 2/3 the bias stays near 3e-3 bits for min(n, N-n) >= 5,
    but reaches ~0.017 at min(n, N-n) = 3). The default m = 2/3 is the
    long-time floor; at finite t with uniform initial weights the mean floor
    is 2/3 + Re f(4t)/3, f the coupling's characteristic function."""
    (n_env,) = _sites([n_env], 0, math.inf, "n_env")
    (n,) = _sites([n], 0, n_env, "fragment size")
    mf = _check_open_unit_interval("mean_floor", mean_floor)
    return _first_order(alpha0_sq, mf ** n_env + mf ** n - mf ** (n_env - n))


def asymptotic_holevo(n, alpha0_sq, mean_floor=2.0 / 3.0) -> float:
    """Long-time, initial-state-averaged Holevo quantity vs fragment size:
    S_max - slope/2 * m^n.

    First order in the floor power: accurate only where m^n is small. The
    default m = 2/3 is the long-time floor; at finite t with uniform initial
    weights the mean floor is 2/3 + Re f(4t)/3, f the coupling's
    characteristic function."""
    (n,) = _sites([n], 0, math.inf, "fragment size")
    mf = _check_open_unit_interval("mean_floor", mean_floor)
    return _first_order(alpha0_sq, mf ** n)
