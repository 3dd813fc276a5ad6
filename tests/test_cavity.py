"""Reflection coefficient, operating point, and Stark-shift solver."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqft.analysis import STARK_RANGE_GHZ, cavity_params_for_cooperativity
from cavityqft.cavity import (
    CavityParams,
    DegenerateCooperativity,
    OperatingPoint,
    OutOfRangeError,
    ZeemanConfig,
    controlled_phase,
    cooperativity,
    default_operating_point,
    high_cooperativity_phase,
    phase_curve,
    quantum_dot_params,
    reflection,
    solve_stark_shift,
    zeeman_splitting,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def qd():
    return quantum_dot_params()


@pytest.fixture(scope="module")
def op_defaults(qd):
    return default_operating_point(qd)


def test_quantum_dot_cooperativity(qd):
    assert cooperativity(qd) == pytest.approx(4 * 11.0**2 / (28.0 * 0.3))
    assert qd.cooperativity == cooperativity(qd)


def test_params_validation():
    with pytest.raises(ValueError):
        CavityParams(g=1.0, kappa=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        CavityParams(g=1.0, kappa=1.0, gamma=-2.0)


def test_reflection_magnitude_bounded(qd):
    for delta in np.linspace(-200.0, 200.0, 101):
        assert abs(reflection(qd, float(delta))) <= 1.0 + 1e-12


def test_reflection_far_detuned_is_bare_mirror(qd):
    # far off resonance the atom decouples and the bare cavity reflects with a sign flip
    assert reflection(qd, 1e9) == pytest.approx(-1.0, abs=1e-6)


def test_reflection_on_resonance(qd):
    C = cooperativity(qd)
    assert reflection(qd, 0.0) == pytest.approx((C - 1) / (C + 1))


def test_high_cooperativity_phase_matches_arg(qd):
    # the large-C closed form tracks arg(r) with zero offset
    for delta in (0.0, 2.0, 8.64, -5.0, 40.0):
        exact = math.atan2(reflection(qd, delta).imag, reflection(qd, delta).real)
        assert high_cooperativity_phase(qd, delta) == pytest.approx(exact, abs=2e-3)


def test_default_operating_point_value(qd):
    delta_0, delta_Z = default_operating_point(qd)
    C = cooperativity(qd)
    assert delta_0 == pytest.approx(0.5 * 0.3 * math.sqrt(C**2 - 1))
    assert delta_Z == pytest.approx(-2.0 * delta_0)
    assert delta_0 == pytest.approx(8.64, abs=0.01)


def test_default_operating_point_degenerate():
    weak = CavityParams(g=0.1, kappa=0.3, gamma=28.0)
    assert cooperativity(weak) < 1.0
    with pytest.raises(DegenerateCooperativity):
        default_operating_point(weak)


def test_controlled_phase_pi_at_zero_stark(qd, op_defaults):
    delta_0, delta_Z = op_defaults
    res = controlled_phase(qd, OperatingPoint(delta_0, delta_Z, 0.0))
    assert res.delta_theta == pytest.approx(math.pi, abs=1e-9)
    # the two spin reflections sit at conjugate detunings with unit |r|
    assert abs(res.r_up) == pytest.approx(abs(res.r_down), abs=1e-12)


def test_delta_theta_monotone_decreasing(qd, op_defaults):
    delta_0, delta_Z = op_defaults
    values = [
        controlled_phase(qd, OperatingPoint(delta_0, delta_Z, s)).delta_theta
        for s in np.geomspace(0.5, 800.0, 40)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


@settings(max_examples=50, deadline=None)
@given(st.floats(1.05, 400.0), st.lists(st.floats(-60.0, 0.0), min_size=1, max_size=30))
def test_delta_theta_monotone_for_any_cooperativity(C, exponents):
    # solve_stark_shift bisects delta_theta - 2 pi / 2^k over delta_S >= 0,
    # which needs the phase to fall monotonically from pi on that branch
    params = cavity_params_for_cooperativity(C)
    delta_0, delta_Z = default_operating_point(params)
    shifts = sorted([0.0] + [STARK_RANGE_GHZ * 2.0**x for x in exponents])
    phases = [
        controlled_phase(params, OperatingPoint(delta_0, delta_Z, s)).delta_theta for s in shifts
    ]
    slack = 4 * math.ulp(math.pi)  # rounding where the curve is flat, near pi and near 0
    for s1, s2, a, b in zip(shifts, shifts[1:], phases, phases[1:]):
        assert b <= a + slack
        # a factor 2 in delta_S is a resolvable step for the targets k = 2 .. 24
        if s2 >= 2 * s1 and 2 * math.pi / 2**24 <= b and a <= math.pi / 2:
            assert b < a


def test_delta_theta_in_principal_range(qd, op_defaults):
    delta_0, delta_Z = op_defaults
    for s in (0.0, 1.0, 10.0, 100.0):
        dt = controlled_phase(qd, OperatingPoint(delta_0, delta_Z, s)).delta_theta
        assert 0.0 <= dt < 2 * math.pi


def test_zeeman_splitting_matches_field():
    cfg = ZeemanConfig(g_e=0.43, g_h=0.21, B=1.93)
    assert zeeman_splitting(cfg) == pytest.approx((0.43 + 0.21) * 13.996 * 1.93)


def test_zeeman_matches_twice_offset(qd, op_defaults):
    delta_0, _ = op_defaults
    split = zeeman_splitting(ZeemanConfig(0.43, 0.21, 1.93))
    assert split == pytest.approx(2 * delta_0, rel=5e-3)


def test_solve_stark_shift_k1_is_zero(qd, op_defaults):
    delta_0, delta_Z = op_defaults
    assert solve_stark_shift(qd, delta_0, delta_Z, 1, 1000.0) == 0.0


def test_solve_stark_shift_hits_target(qd, op_defaults):
    delta_0, delta_Z = op_defaults
    for k in range(2, 11):
        s = solve_stark_shift(qd, delta_0, delta_Z, k, 1000.0)
        dt = controlled_phase(qd, OperatingPoint(delta_0, delta_Z, s)).delta_theta
        assert dt == pytest.approx(2 * math.pi / 2**k, abs=1e-8)


def test_solve_stark_shift_out_of_range(qd, op_defaults):
    delta_0, delta_Z = op_defaults
    with pytest.raises(OutOfRangeError):
        solve_stark_shift(qd, delta_0, delta_Z, 15, 1000.0)


def test_solve_stark_shift_asymptotic_scaling(qd, op_defaults):
    delta_0, delta_Z = op_defaults
    C = cooperativity(qd)
    for k in (8, 10, 12, 14):
        s = solve_stark_shift(qd, delta_0, delta_Z, k, 1000.0)
        predicted = 0.3 * C * math.sqrt(2**k / (2 * math.pi))
        assert s == pytest.approx(predicted, rel=0.1)


def test_phase_curve_rows(qd, op_defaults):
    delta_0, delta_Z = op_defaults
    rows = phase_curve(qd, delta_0, delta_Z, [0.0, 10.0])
    assert len(rows) == 2
    assert rows[0][0] == 0.0
    assert rows[0][1] == pytest.approx(math.pi, abs=1e-9)
    assert all(0.0 < r[2] <= 1.0 and 0.0 < r[3] <= 1.0 for r in rows)


# --- reference: the solver and phase table before the scalar kernel ---------
#
# These evaluate each point through an OperatingPoint and the reflection
# expressions of `reflection` and `controlled_phase`, and bisect for a
# fixed 200 steps.  The package must return exactly the same numbers and
# raise exactly the same errors.


def _reference_reflections(params, delta_0, delta_Z, delta_S):
    op = OperatingPoint(delta_0=delta_0, delta_Z=delta_Z, delta_S=delta_S)

    def r(delta):
        c_s = params.cooperativity / (1.0 + 2.0j * delta / params.kappa)
        return (c_s - 1.0) / (c_s + 1.0)

    r_up, r_down = r(op.delta_up), r(op.delta_down)
    return r_up, r_down, (cmath.phase(r_down) - cmath.phase(r_up)) % TWO_PI


def _reference_solve_stark_shift(params, delta_0, delta_Z, k, delta_S_max, tol=1e-9):
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if delta_S_max <= 0.0:
        raise ValueError(f"delta_S_max must be positive, got {delta_S_max}")
    target = TWO_PI / 2.0**k

    def f(s):
        return _reference_reflections(params, delta_0, delta_Z, s)[2] - target

    f0 = f(0.0)
    if abs(f0) <= tol:
        return 0.0
    if f0 < 0.0:
        raise OutOfRangeError(f"target phase for k={k} exceeds the phase at zero Stark shift")
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
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    if abs(f(root)) > tol:
        raise OutOfRangeError(f"bisection for k={k} did not converge to {tol} rad")
    return root


def _reference_phase_curve(params, delta_0, delta_Z, delta_S_values):
    rows = []
    for s in delta_S_values:
        r_up, r_down, delta_theta = _reference_reflections(params, delta_0, delta_Z, s)
        rows.append((s, delta_theta, abs(r_up), abs(r_down)))
    return rows


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(1.05, 400.0),
    st.integers(1, 60),
    st.sampled_from([1000.0, 20000.0, STARK_RANGE_GHZ]),
)
def test_solve_stark_shift_matches_reference_bit_for_bit(C, k, delta_S_max):
    params = cavity_params_for_cooperativity(C)
    delta_0, delta_Z = default_operating_point(params)
    args = (params, delta_0, delta_Z, k, delta_S_max)
    assert _outcome(solve_stark_shift, *args) == _outcome(_reference_solve_stark_shift, *args)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(1.05, 400.0),
    st.lists(st.floats(-1e4, 1e7), max_size=20),
    st.integers(0, 40),
)
def test_phase_curve_matches_reference_bit_for_bit(C, values, points):
    params = cavity_params_for_cooperativity(C)
    delta_0, delta_Z = default_operating_point(params)
    # the CLI tabulates numpy float64 points, which take numpy's complex arithmetic
    for shifts in (values, list(np.linspace(-50.0, 3000.0, points))):
        got = phase_curve(params, delta_0, delta_Z, shifts)
        expected = _reference_phase_curve(params, delta_0, delta_Z, shifts)
        assert got == expected
        assert [type(x) for row in got for x in row] == [type(x) for row in expected for x in row]


@pytest.mark.parametrize("delta_S_max", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_solve_stark_shift_rejects_bad_range(qd, op_defaults, delta_S_max):
    delta_0, delta_Z = op_defaults
    with pytest.raises(ValueError, match="delta_S_max must be finite and positive") as info:
        solve_stark_shift(qd, delta_0, delta_Z, 3, delta_S_max)
    assert not isinstance(info.value, OutOfRangeError)


@pytest.mark.parametrize(
    "delta_0, delta_Z, shifts, message",
    [
        (math.nan, -1.0, [0.0], "delta_0 must be finite"),
        (1.0, math.inf, [0.0], "delta_Z must be finite"),
        (1.0, -2.0, [0.0, math.nan], "delta_S must be finite"),
    ],
)
def test_nonfinite_detunings_rejected(qd, delta_0, delta_Z, shifts, message):
    with pytest.raises(ValueError, match=message):
        phase_curve(qd, delta_0, delta_Z, shifts)
    if shifts == [0.0]:
        with pytest.raises(ValueError, match=message):
            solve_stark_shift(qd, delta_0, delta_Z, 2, 1000.0)
