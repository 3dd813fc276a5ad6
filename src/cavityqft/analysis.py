"""Diamond-distance error budget and success-probability bound.

The total distance for N photons is

    D = N^2 d_p + 2N d_H + 3N d_1
        + sum_{k=2..K} (N-k+1) d_k + sum_{k=K+1..N} (N-k+1) d_k*

with d_p the per-cycle atomic dephasing distance, d_H the atomic Hadamard
error, d_k the lossy-reflection distance and d_k* the distance of a
discarded CR_k from identity.  P_s = 1 - D lower-bounds the probability
of a correct output.

Two d_k conventions are supported: "exact" evaluates the post-selection
closed form (1-m)/(1+m) on the solved reflection magnitudes, which is
what the chaining bound requires; "approximate" evaluates
1/(2C^2 + 8 Delta^2 / kappa^2), the small-loss estimate used for the
published success-probability curves.  The two differ by roughly a
factor 2C; see the README.

D is the paper's closed-form estimate.  `schedule_distance` (D_sched)
instead sums the terms of the compiled schedule's own steps, and the
density-matrix validation checks against it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import cavity as cav
from . import circuit as circ
from .cavity import CavityParams, OperatingPoint
from .circuit import QuantumState
from .scheduler import REFLECT, TimingConfig, compile_timeline, timeline_to_program

ORACLE_DIM_CAP = 6


class DegenerateOperator(ValueError):
    """Post-selection operator with zero largest eigenvalue."""


class BoundViolation(AssertionError):
    """Simulated trace distance exceeded the diamond-distance budget."""


# --- individual budget terms ----------------------------------------------


def term_dp(T_cycle_ns: float, T2_us: float) -> float:
    """Dephasing-vs-identity distance over one operation cycle."""
    # negated comparisons so that NaN fails them
    if not (T_cycle_ns >= 0.0 and T2_us > 0.0):
        raise ValueError("need T_cycle >= 0 and T2 > 0")
    if math.isinf(T2_us):
        return 0.0
    return 0.5 * (1.0 - math.exp(-T_cycle_ns / (T2_us * 1000.0)))


def term_dh(p: float) -> float:
    """Imperfect-vs-ideal atomic Hadamard distance."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return p


def term_dk_star(k: int) -> float:
    """Distance of a discarded CR_k from identity: |1 - e^{i 2 pi/2^k}| / 2."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return math.sin(math.pi / 2.0**k)


def term_dk(r_up: complex, r_down: complex) -> float:
    """Lossy-reflection distance (1 - m)/(1 + m), m = min reflection magnitude."""
    m = min(abs(r_up), abs(r_down))
    if m > 1.0 + 1e-12:
        raise ValueError("reflection magnitudes must not exceed 1")
    return (1.0 - m) / (1.0 + m)


def term_dk_approx(params: CavityParams, op: OperatingPoint) -> float:
    """Small-loss estimate 1/(2C^2 + 8 Delta^2/kappa^2), Delta the smaller |detuning|."""
    c = params.cooperativity
    delta = min(abs(op.delta_up), abs(op.delta_down))
    return 1.0 / (2.0 * c * c + 8.0 * delta * delta / params.kappa**2)


# --- post-selection distance: closed form and oracle ----------------------


@dataclass(frozen=True)
class MeasurementDiag:
    """Sorted nonnegative diagonal of a post-selection operator."""

    lambdas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", tuple(float(x) for x in self.lambdas))
        if not self.lambdas:
            raise ValueError("empty diagonal")
        if any(x < 0.0 for x in self.lambdas):
            raise ValueError("eigenvalues must be nonnegative")
        if list(self.lambdas) != sorted(self.lambdas, reverse=True):
            raise ValueError("eigenvalues must be sorted descending")


def postselection_distance(m: MeasurementDiag) -> float:
    """Closed form (lam_max - lam_min)/(lam_max + lam_min)."""
    top, bottom = m.lambdas[0], m.lambdas[-1]
    if top == 0.0:
        raise DegenerateOperator("largest eigenvalue is zero")
    return (top - bottom) / (top + bottom)


def _postselection_cos_sq(
    x: np.ndarray, weights: np.ndarray, weights_sq: np.ndarray
) -> tuple[float, np.ndarray]:
    """|<psi|M psi>|^2 / (|psi|^2 |M psi|^2), psi = a + ib, x = (a, b), and its gradient in x.

    M = diag(weights) is real, so the objective depends on s = a^2 + b^2
    alone: f = o^2 / (n q) with n = sum s, o = sum w s, q = sum w^2 s, and
    df/ds = f (2w/o - 1/n - w^2/q).
    """
    d = len(weights)
    a, b = x[:d], x[d:]
    s = a * a + b * b
    n = s.sum()
    q = weights_sq @ s
    if n < 1e-300 or q < 1e-300:
        return 1.0, np.zeros_like(x)
    o = weights @ s
    f = o * o / (n * q)
    g = f * (2.0 * weights / o - 1.0 / n - weights_sq / q)
    return f, 2.0 * np.concatenate((g * a, g * b))


def _max_postselection_angle(weights: np.ndarray, trials: int, rng: np.random.Generator) -> float:
    """Maximize sqrt(1 - |<psi|phi>|^2), phi = M psi / |M psi|, by local search."""
    d = len(weights)
    weights_sq = weights * weights
    best = 1.0
    for _ in range(trials):
        x0 = rng.standard_normal(2 * d)
        res = minimize(
            _postselection_cos_sq,
            x0,
            args=(weights, weights_sq),
            jac=True,
            method="L-BFGS-B",
            options=dict(ftol=1e-15, gtol=1e-12, maxiter=500),
        )
        best = min(best, float(res.fun))
    return math.sqrt(max(1.0 - best, 0.0))


def brute_force_postselection_distance(
    m: MeasurementDiag,
    trials: int = 50,
    seed: int = 0,
    ancilla: bool | None = None,
) -> float:
    """Distance to identity by direct maximization over pure states.

    Independent of the closed form: random-restart local optimization of
    the post-measurement overlap.  With ancilla=None the maximization is
    run both on the bare space and on an equal-dimension ancilla
    extension, returning the larger value.
    """
    lam = np.asarray(m.lambdas, dtype=float)
    if len(lam) > ORACLE_DIM_CAP:
        raise ValueError(f"oracle capped at dimension {ORACLE_DIM_CAP}")
    rng = np.random.default_rng(seed)
    results = []
    modes = [False, True] if ancilla is None else [ancilla]
    for extended in modes:
        weights = np.kron(lam, np.ones(len(lam))) if extended else lam
        results.append(_max_postselection_angle(weights, trials, rng))
    return max(results)


def diamond_distance_kraus(
    kraus_a: list[np.ndarray],
    kraus_b: list[np.ndarray],
    trials: int = 40,
    seed: int = 0,
) -> float:
    """Brute-force diamond distance between two Kraus channels.

    Maximizes (1/2) || (A x I)(psi) - (B x I)(psi) ||_1 over ancilla-
    extended pure states; the maximum of the diamond norm is attained on
    pure states.  Small dimensions only.
    """
    dim = kraus_a[0].shape[0]
    if dim > ORACLE_DIM_CAP:
        raise ValueError(f"oracle capped at dimension {ORACLE_DIM_CAP}")
    eye = np.eye(dim)
    ext_a = [np.kron(k, eye) for k in kraus_a]
    ext_b = [np.kron(k, eye) for k in kraus_b]
    d2 = dim * dim
    rng = np.random.default_rng(seed)

    def neg_dist(x: np.ndarray) -> float:
        psi = x[:d2] + 1j * x[d2:]
        norm = np.linalg.norm(psi)
        if norm < 1e-150:
            return 0.0
        psi = psi / norm
        rho = np.outer(psi, psi.conj())
        out = sum(k @ rho @ k.conj().T for k in ext_a)
        out -= sum(k @ rho @ k.conj().T for k in ext_b)
        return -0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(out))))

    best = 0.0
    for _ in range(trials):
        res = minimize(
            neg_dist,
            rng.standard_normal(2 * d2),
            method="L-BFGS-B",
            options=dict(ftol=1e-14, gtol=1e-10, maxiter=400),
        )
        best = max(best, -float(res.fun))
    return best


# --- budget assembly ------------------------------------------------------


@dataclass(frozen=True)
class NoiseBudget:
    """Noise parameters of one run configuration.

    K=None means no CR truncation (every gate implemented).  gates is
    either the string "ideal" (lossless reflections, d_1 = d_k = 0) or a
    CavityParams whose solved operating points set the reflection losses.
    """

    T2_us: float
    p: float
    T_cycle_ns: float = 5.0
    K: int | None = None
    gates: CavityParams | str = "ideal"
    dk_mode: str = "exact"

    def __post_init__(self) -> None:
        # negated comparisons so that NaN fails them
        if not self.T2_us > 0.0:
            raise ValueError(f"T2 must be positive, got {self.T2_us}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if not self.T_cycle_ns > 0.0:
            raise ValueError(f"T_cycle must be positive, got {self.T_cycle_ns}")
        if self.K is not None and self.K < 1:
            raise ValueError("K must be >= 1")
        if self.dk_mode not in ("exact", "approximate"):
            raise ValueError(f"unknown dk_mode {self.dk_mode!r}")
        if isinstance(self.gates, str) and self.gates != "ideal":
            raise ValueError(f"unknown gate quality {self.gates!r}")

    @property
    def ideal_gates(self) -> bool:
        return isinstance(self.gates, str)


@dataclass(frozen=True)
class GateLoss:
    """Solved operating point and loss terms for one CR_k."""

    k: int
    r_up_abs: float
    r_down_abs: float
    dk_exact: float
    dk_approx: float


@dataclass
class DistanceReport:
    N: int
    d_p: float
    d_H: float
    d_1: float
    sum_dk: float  # sum (N-k+1) d_k
    sum_dk_star: float  # sum (N-k+1) d_k*
    D: float
    raw: float  # 1 - D, possibly negative
    P_s: float  # clipped at 0


# Upper end of the Stark-shift search; the solver's geometric sweep starts
# at 2^-40 of it and so visits the grid 1000 * 2^i GHz, i = -10 .. 29.
STARK_RANGE_GHZ = 1000.0 * 2.0**30


def _gate_loss(params: CavityParams, k: int) -> GateLoss:
    delta_0, delta_Z = cav.default_operating_point(params)
    delta_S = cav.solve_stark_shift(params, delta_0, delta_Z, k, STARK_RANGE_GHZ)
    op = OperatingPoint(delta_0, delta_Z, delta_S)
    res = cav.controlled_phase(params, op)
    return GateLoss(
        k=k,
        r_up_abs=abs(res.r_up),
        r_down_abs=abs(res.r_down),
        dk_exact=term_dk(res.r_up, res.r_down),
        dk_approx=term_dk_approx(params, op),
    )


def _extend_losses(
    solved: dict[int, GateLoss], params: CavityParams, k_max: int
) -> dict[int, GateLoss]:
    """`solved`, the losses of CR_1 .. CR_len(solved) on `params`, extended
    in place to hold every k up to k_max."""
    for k in range(len(solved) + 1, k_max + 1):
        solved[k] = _gate_loss(params, k)
    return solved


def solve_gate_losses(params: CavityParams, k_max: int) -> dict[int, GateLoss]:
    """Operating points and loss terms for CR_1 .. CR_{k_max}.

    Every call solves each operating point afresh and returns a fresh
    dict.  Nothing is kept between calls: `max_photons`, `sweep_success`
    and `validate_bound_small_n` reuse their solves within the one call.
    """
    return _extend_losses({}, params, k_max)


def total_distance(N: int, budget: NoiseBudget) -> DistanceReport:
    """Assemble every term of the budget for N photons."""
    return _total_distance(N, budget, {})


def _total_distance(N: int, budget: NoiseBudget, solved: dict[int, GateLoss]) -> DistanceReport:
    """`total_distance`, taking the gate losses from `solved` (extended as needed)."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    k_eff = N if budget.K is None else min(budget.K, N)
    d_p = term_dp(budget.T_cycle_ns, budget.T2_us)
    d_h = term_dh(budget.p)
    d_1 = 0.0
    sum_dk = 0  # the int 0 of an empty sum, as with ideal gates for any N
    if not budget.ideal_gates:
        losses = _extend_losses(solved, budget.gates, k_eff)
        pick = (lambda g: g.dk_exact) if budget.dk_mode == "exact" else (lambda g: g.dk_approx)
        d_1 = pick(losses[1])
        sum_dk = sum((N - k + 1) * pick(losses[k]) for k in range(2, k_eff + 1))
    # the discarded gates K+1 .. N; none when K is None or K >= N
    sum_dk_star = sum((N - k + 1) * term_dk_star(k) for k in range(k_eff + 1, N + 1))
    D = N * N * d_p + 2 * N * d_h + 3 * N * d_1 + sum_dk + sum_dk_star
    raw = 1.0 - D
    return DistanceReport(
        N=N,
        d_p=d_p,
        d_H=d_h,
        d_1=d_1,
        sum_dk=sum_dk,
        sum_dk_star=sum_dk_star,
        D=D,
        raw=raw,
        P_s=max(raw, 0.0),
    )


def max_photons(budget: NoiseBudget, n_max: int = 100_000) -> int | None:
    """Photon number at which the success bound reaches zero.

    Scans N upward and returns the first N <= n_max with 1 - D <= 0, or
    None if the bound stays positive up to n_max.
    """
    solved: dict[int, GateLoss] = {}
    for n in range(1, n_max + 1):
        if _total_distance(n, budget, solved).raw <= 0.0:
            return n
    return None


# --- scenario sweeps ------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    budget: NoiseBudget


def cavity_params_for_cooperativity(
    C: float, kappa: float = cav.QD_KAPPA, gamma: float = cav.QD_GAMMA
) -> CavityParams:
    """Device with the quantum-dot decay rates scaled to cooperativity C."""
    return CavityParams(g=math.sqrt(C * gamma * kappa / 4.0), kappa=kappa, gamma=gamma)


def preset_scenarios(name: str) -> tuple[list[Scenario], list[int]]:
    """Built-in scenario sets for the published success-probability figures."""
    n_values = list(range(1, 51))
    if name == "fig4":
        # Finite-cooperativity curves use the published small-loss d_k
        # estimate; the lossless reference keeps the same K=10 truncation.
        scenarios = [
            Scenario(
                f"C={c:g}",
                NoiseBudget(
                    T2_us=20.0,
                    p=0.001,
                    K=10,
                    gates=cavity_params_for_cooperativity(c),
                    dk_mode="approximate",
                ),
            )
            for c in (57.62, 100.0, 200.0, 400.0)
        ]
        scenarios.append(Scenario("ideal", NoiseBudget(T2_us=20.0, p=0.001, K=10)))
        return scenarios, n_values
    if name == "fig5a":
        return [
            Scenario(
                "T2=inf" if math.isinf(t2) else f"T2={t2:g}us",
                NoiseBudget(T2_us=t2, p=0.01),
            )
            for t2 in (5.0, 20.0, 100.0, math.inf)
        ], n_values
    if name == "fig5b":
        return [
            Scenario(f"p={p:g}", NoiseBudget(T2_us=20.0, p=p))
            for p in (0.001, 0.01, 0.05)
        ], n_values
    raise ValueError(f"unknown preset {name!r}")


def sweep_success(n_values: list[int], scenarios: list[Scenario]) -> list[dict]:
    """P_s(N) table rows for every scenario.

    Scenarios on the same device share its solved operating points.
    """
    solved: dict[CavityParams | str, dict[int, GateLoss]] = {}
    rows = []
    for scenario in scenarios:
        device = solved.setdefault(scenario.budget.gates, {})
        for n in n_values:
            report = _total_distance(n, scenario.budget, device)
            rows.append(
                {
                    "scenario_id": scenario.scenario_id,
                    "N": n,
                    "d_p": report.d_p,
                    "d_H": report.d_H,
                    "d1": report.d_1,
                    "sum_dk": report.sum_dk,
                    "sum_dk_star": report.sum_dk_star,
                    "D": report.D,
                    "P_s_raw": report.raw,
                    "P_s": report.P_s,
                }
            )
    return rows


def scenario_from_config(entry: dict) -> Scenario:
    """Scenario from a JSON config entry.

    Keys: T2_us (number or "inf"), p, T_cycle_ns, K (int or null),
    cooperativity (number or "ideal"), optional scenario_id, dk_mode.
    """
    t2 = entry["T2_us"]
    t2 = math.inf if t2 in ("inf", None) else float(t2)
    coop = entry.get("cooperativity", "ideal")
    if coop == "ideal":
        gates: CavityParams | str = "ideal"
    else:
        gates = cavity_params_for_cooperativity(float(coop))
    budget = NoiseBudget(
        T2_us=t2,
        p=float(entry["p"]),
        T_cycle_ns=float(entry.get("T_cycle_ns", 5.0)),
        K=None if entry.get("K") is None else int(entry["K"]),
        gates=gates,
        dk_mode=entry.get("dk_mode", "exact"),
    )
    default_id = f"C={coop}" if coop != "ideal" else "ideal"
    return Scenario(entry.get("scenario_id", default_id), budget)


# --- bound validation against the density-matrix simulation ---------------


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def _noisy_steps(
    n: int, budget: NoiseBudget, solved: dict[int, GateLoss]
) -> tuple[np.ndarray, list[float | None] | None, dict[int, tuple[float, float]] | None]:
    """The protocol as `simulate_noisy_protocol` runs it: the timeline's
    Reflect rows, the atom's dephasing factor before each of them (None
    when T2 is infinite) and (|r_up|, |r_down|) of each CR_k (None for
    ideal gates), taken from `solved` (extended as needed)."""
    k_eff = n if budget.K is None else min(budget.K, n)
    timeline = compile_timeline(TimingConfig.default(n, budget.T_cycle_ns), k_eff)
    losses = None
    if not budget.ideal_gates:
        losses = {
            k: (loss.r_up_abs, loss.r_down_abs)
            for k, loss in _extend_losses(solved, budget.gates, k_eff).items()
        }
    dephasing = None
    t2_ns = budget.T2_us * 1000.0
    if math.isfinite(t2_ns):
        # the atom dephases between consecutive reflections
        times = timeline.events["time"][timeline.events["kind"] == REFLECT]
        dephasing = [None] + [math.exp(-dt / t2_ns) for dt in np.diff(times).tolist()]
    return timeline_to_program(timeline), dephasing, losses


def _schedule_distance(n: int, budget: NoiseBudget, steps: tuple) -> float:
    """D_sched of the steps `_noisy_steps` returned for n and budget."""
    program, dephasing, losses = steps
    d = 0.0
    if dephasing is not None:
        d += sum(0.5 * (1.0 - factor) for factor in dephasing[1:])
    d += int(np.count_nonzero(program["hadamards"] & circ.H_ATOM)) * term_dh(budget.p)
    if losses is not None:
        d += sum(term_dk(*losses[k]) for k in program["k"].tolist())
    if budget.K is not None:
        d += sum((n - k + 1) * term_dk_star(k) for k in range(budget.K + 1, n + 1))
    return d


def schedule_distance(n: int, budget: NoiseBudget) -> float:
    """Distance budget D_sched of the schedule `simulate_noisy_protocol` runs.

    `total_distance` is the paper's closed-form estimate; D_sched counts
    the steps of the compiled timeline instead.  It sums, over the same
    Reflect rows and times the simulator uses:

    - (1 - e^{-dt/T2})/2 for each interval dt between consecutive
      reflections, the distance of the atom's dephasing over it,
    - p for each step with an atomic Hadamard,
    - the exact d_k = (1 - m)/(1 + m) of each reflection's CR_k
      (whatever the budget's dk_mode),
    - (N - k + 1) d_k* for each discarded k > K.

    Each term bounds its step's distance from the ideal step, so for
    trace-preserving steps the sum bounds the whole run by subadditivity.
    The lossy reflections are post-selected and renormalized, and no such
    argument is given for chaining them, so the bound is checked
    empirically (`validate_bound_small_n`).
    """
    return _schedule_distance(n, budget, _noisy_steps(n, budget, {}))


def _run_noisy(steps: tuple, p: float, input_state: QuantumState) -> tuple[QuantumState, float]:
    program, dephasing, losses = steps
    # one density matrix, owned by this run and updated in place throughout
    state = input_state.to_density()
    weight = circ.run_steps(program, state, dephasing, losses, p)
    return state, weight


def simulate_noisy_protocol(
    n: int, budget: NoiseBudget, input_state: QuantumState
) -> tuple[QuantumState, float]:
    """Density-matrix run of the full protocol with all noise sources.

    The timeline's program runs through the same step interpreter as
    `circuit.simulate_program`, with noise on every step: the atom dephases
    for the real time elapsed since the previous reflection, atomic
    Hadamards carry the phase-flip error p, and (for cavity gates) each
    reflection applies the solved lossy post-selection.  Returns the
    renormalized output and the accumulated post-selection weight.
    """
    return _run_noisy(_noisy_steps(n, budget, {}), budget.p, input_state)


@dataclass
class BoundReport:
    """Worst simulated distance against D = D_sched (`schedule_distance`);
    D_paper is the paper's estimate (`total_distance`), kept for comparison."""

    n: int
    D: float
    D_paper: float
    max_trace_distance: float
    margin: float
    distances: list[float] = field(default_factory=list)

    # numerical fuzz allowance so a zero-noise run with distances at the
    # float floor does not read as a violation
    TOL = 1e-9

    @property
    def ok(self) -> bool:
        return self.margin >= -self.TOL


def validate_bound_small_n(
    n: int, budget: NoiseBudget, seed: int = 7, n_random: int = 20
) -> BoundReport:
    """Check simulated output error against D_sched on many inputs.

    Inputs are all photon basis states plus seeded random pure photon
    states; a violation indicates a bug in the channels or the budget.
    The noisy steps are prepared once and run on every input.  The check
    is empirical: see `schedule_distance`.
    """
    if n + 1 > circ.MAX_DENSITY_QUBITS:
        raise ValueError("density-matrix path too large for bound validation")
    ideal_program = circ.build_qft_program(n, n)
    solved: dict[int, GateLoss] = {}
    steps = _noisy_steps(n, budget, solved)
    D = _schedule_distance(n, budget, steps)
    rng = np.random.default_rng(seed)

    inputs = []
    for x in range(2**n):
        bits = [(x >> (n - 1 - b)) & 1 for b in range(n)]
        inputs.append(QuantumState.basis(n, bits))
    for _ in range(n_random):
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        amps /= np.linalg.norm(amps)
        inputs.append(QuantumState.from_photon_state(n, amps))

    distances = []
    for state in inputs:
        ideal = circ.simulate_program(ideal_program, state).to_density()
        noisy, _ = _run_noisy(steps, budget.p, state)
        distances.append(trace_distance(noisy.data, ideal.data))
    worst = max(distances)
    result = BoundReport(
        n=n,
        D=D,
        D_paper=_total_distance(n, budget, solved).D,
        max_trace_distance=worst,
        margin=D - worst,
        distances=distances,
    )
    if not result.ok:
        raise BoundViolation(f"trace distance {worst} exceeds budget D_sched={D} for n={n}")
    return result
