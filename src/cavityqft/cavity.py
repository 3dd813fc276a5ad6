"""Spin-dependent reflection off a single-sided atom-cavity system.

All rates and detunings are ordinary frequencies in GHz (mu_B/h =
13.996 GHz/T).  The exact finite-cooperativity reflection coefficient is
used throughout; the high-cooperativity phase formula is kept only as a
diagnostic.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# Bohr magneton over Planck constant, ordinary-frequency convention.
MU_B_GHZ_PER_T = 13.996

# Charged quantum dot in a nanophotonic cavity: achievable device numbers.
QD_G = 11.0
QD_KAPPA = 0.3
QD_GAMMA = 28.0
QD_LANDE_E = 0.43
QD_LANDE_H = 0.21
QD_B_FIELD_T = 1.93


class DegenerateCooperativity(ValueError):
    """Cooperativity <= 1: no real offset detuning exists."""


class OutOfRangeError(ValueError):
    """No Stark shift within the allowed range realizes the requested phase."""


@dataclass(frozen=True)
class CavityParams:
    """Physical rates of the atom-cavity system.

    g: atom-cavity coupling strength, kappa: atom dipole decay rate,
    gamma: cavity decay rate.  All GHz, all strictly positive.
    """

    g: float
    kappa: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("g", "kappa", "gamma"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {value}")

    @property
    def cooperativity(self) -> float:
        return 4.0 * self.g * self.g / (self.gamma * self.kappa)


@dataclass(frozen=True)
class OperatingPoint:
    """Detuning configuration for one reflection.

    Spin-up detuning is delta_S + delta_0, spin-down detuning is
    delta_S + delta_Z + delta_0.
    """

    delta_0: float
    delta_Z: float
    delta_S: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(delta_0=self.delta_0, delta_Z=self.delta_Z, delta_S=self.delta_S)

    @property
    def delta_up(self) -> float:
        return self.delta_S + self.delta_0

    @property
    def delta_down(self) -> float:
        return self.delta_S + self.delta_Z + self.delta_0


@dataclass(frozen=True)
class ZeemanConfig:
    """Lande factors and applied magnetic field (Tesla)."""

    g_e: float
    g_h: float
    B: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.g_e) and math.isfinite(self.g_h)):
            raise ValueError("Lande factors must be finite")
        if not math.isfinite(self.B) or self.B < 0.0:
            raise ValueError(f"B must be nonnegative, got {self.B}")


@dataclass(frozen=True)
class ReflectionResult:
    """Reflection coefficients and phases for the two spin states.

    delta_theta = theta_down - theta_up, reduced into [0, 2*pi).
    Phases are principal-value arguments in (-pi, pi].
    """

    r_up: complex
    r_down: complex
    theta_up: float
    theta_down: float
    delta_theta: float


def quantum_dot_params() -> CavityParams:
    """Achievable quantum-dot device parameters (g=11, kappa=0.3, gamma=28 GHz)."""
    return CavityParams(g=QD_G, kappa=QD_KAPPA, gamma=QD_GAMMA)


def cooperativity(params: CavityParams) -> float:
    """On-resonant cooperativity 4 g^2 / (gamma kappa)."""
    return params.cooperativity


def reflection(params: CavityParams, delta: float) -> complex:
    """Exact reflection coefficient (C_s - 1)/(C_s + 1).

    C_s = C / (1 + 2i delta / kappa) is the spin-dependent cooperativity.
    The denominator cannot vanish for positive C and real detuning.
    """
    c_s = params.cooperativity / (1.0 + 2.0j * delta / params.kappa)
    return (c_s - 1.0) / (c_s + 1.0)


def high_cooperativity_phase(params: CavityParams, delta: float) -> float:
    """High-C limit of the reflection phase: Im ln[(1 - 2i d/kC)/(1 + 2i d/kC)].

    Valid only for C >> 1 (not checked).  Empirically this agrees with
    arg(reflection(...)) directly, with zero constant offset.
    """
    x = 2.0 * delta / (params.kappa * params.cooperativity)
    return cmath.log((1.0 - 1.0j * x) / (1.0 + 1.0j * x)).imag


def _reflect(
    c: float, kappa: float, delta_0: float, delta_Z: float, delta_S: float
) -> tuple[complex, complex, float]:
    """r_up, r_down and delta_theta at one operating point, on plain numbers.

    c is the cooperativity.  These are the expressions of `reflection` and
    the spin detunings of `OperatingPoint`, so the solver and the phase
    table get exactly what `controlled_phase` returns without building a
    dataclass per point.
    """
    c_up = c / (1.0 + 2.0j * (delta_S + delta_0) / kappa)
    c_down = c / (1.0 + 2.0j * (delta_S + delta_Z + delta_0) / kappa)
    r_up = (c_up - 1.0) / (c_up + 1.0)
    r_down = (c_down - 1.0) / (c_down + 1.0)
    return r_up, r_down, (cmath.phase(r_down) - cmath.phase(r_up)) % TWO_PI


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def controlled_phase(params: CavityParams, op: OperatingPoint) -> ReflectionResult:
    """Evaluate both spin reflections at an operating point.

    The relative phase delta_theta is the controlled-phase angle the
    reflection implements between the photon and the atom.
    """
    r_up, r_down, delta_theta = _reflect(
        params.cooperativity, params.kappa, op.delta_0, op.delta_Z, op.delta_S
    )
    return ReflectionResult(
        r_up=r_up,
        r_down=r_down,
        theta_up=cmath.phase(r_up),
        theta_down=cmath.phase(r_down),
        delta_theta=delta_theta,
    )


def zeeman_splitting(cfg: ZeemanConfig) -> float:
    """Zeeman splitting (g_e + g_h) mu_B B / h in GHz."""
    return (cfg.g_e + cfg.g_h) * MU_B_GHZ_PER_T * cfg.B


def default_operating_point(params: CavityParams) -> tuple[float, float]:
    """Offset detuning and Zeeman splitting giving delta_theta = pi at zero Stark shift.

    Returns (delta_0, delta_Z) = ((kappa/2) sqrt(C^2-1), -kappa sqrt(C^2-1)).
    """
    c = params.cooperativity
    if c <= 1.0:
        raise DegenerateCooperativity(f"cooperativity must exceed 1, got {c}")
    delta_0 = 0.5 * params.kappa * math.sqrt(c * c - 1.0)
    return delta_0, -2.0 * delta_0


def solve_stark_shift(
    params: CavityParams,
    delta_0: float,
    delta_Z: float,
    k: int,
    delta_S_max: float,
    tol: float = 1e-9,
) -> float:
    """Stark shift in [0, delta_S_max] at which delta_theta = 2*pi/2^k.

    Bracketed bisection on the exact phase expression; the phase curve is
    monotone decreasing over the physical branch (verified by sampling in
    the test suite).  The bisection stops once the midpoint equals an end
    of the bracket, since the bracket cannot shrink after that.  Raises
    OutOfRangeError when the target phase is not reachable within the
    allowed tuning range.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not math.isfinite(delta_S_max) or delta_S_max <= 0.0:
        raise ValueError(f"delta_S_max must be finite and positive, got {delta_S_max}")
    _require_finite(delta_0=delta_0, delta_Z=delta_Z)
    target = TWO_PI / 2.0**k
    c, kappa = params.cooperativity, params.kappa

    def f(s: float) -> float:
        return _reflect(c, kappa, delta_0, delta_Z, s)[2] - target

    f0 = f(0.0)
    if abs(f0) <= tol:
        return 0.0
    if f0 < 0.0:
        raise OutOfRangeError(f"target phase for k={k} exceeds the phase at zero Stark shift")

    # Geometric sweep to locate a sign change, then bisect.
    lo = 0.0
    hi = None
    sweep = delta_S_max * 2.0**-40
    while sweep < delta_S_max:
        if f(sweep) < 0.0:
            hi = sweep
            break
        lo = sweep
        sweep *= 2.0
    if hi is None:
        if f(delta_S_max) >= 0.0:
            raise OutOfRangeError(
                f"CR_{k} not reachable with Stark shift up to {delta_S_max} GHz"
            )
        hi = delta_S_max

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    # lo + hi overflows only for a bracket end above half the largest float
    _require_finite(delta_S=root)
    if abs(f(root)) > tol:
        raise OutOfRangeError(f"bisection for k={k} did not converge to {tol} rad")
    return root


def phase_curve(
    params: CavityParams,
    delta_0: float,
    delta_Z: float,
    delta_S_values: list[float],
) -> list[tuple[float, float, float, float]]:
    """Tabulate (delta_S, delta_theta, |r_up|, |r_down|) over a Stark-shift range."""
    _require_finite(delta_0=delta_0, delta_Z=delta_Z)
    c, kappa = params.cooperativity, params.kappa
    rows = []
    for s in delta_S_values:
        _require_finite(delta_S=s)
        r_up, r_down, delta_theta = _reflect(c, kappa, delta_0, delta_Z, s)
        rows.append((s, delta_theta, abs(r_up), abs(r_down)))
    return rows
