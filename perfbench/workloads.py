"""Seeded request streams, request execution and output checks.

Every workload is a stream of rounds.  A round holds a fixed mix of
request kinds, so a run of whole rounds has the same composition for
every seed.  Sizes inside each kind are Latin hypercube samples in seeded
strata (see Stratified); the seed also sets bits, amplitudes and the
order of the requests.

A request is a plain dict with a "kind" key.  Each kind has three steps:
prepare (untimed: writes input files, builds input states), run (timed:
one call into the package) and check (untimed: compares the output with
an independent reference and returns an error message or None).
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from cavityqft import analysis, cavity, circuit, cli

TWO_PI = 2.0 * math.pi
CHECK_TOL = 1e-9


# --- independent references ------------------------------------------------


def qft_reference(n: int, photon_amps: np.ndarray) -> np.ndarray:
    """Streaming-QFT output on the full register, built from numpy's FFT.

    The transform is U[y, x] = exp(2 pi i x y / 2^n) / 2^(n/2), which is
    the orthonormal inverse FFT.  The register index has the atom as its
    most significant bit, then photons 1..n; after the protocol the atom
    holds y1, photon 1 holds |0> and photon j >= 2 holds y_(n+2-j), so
    the low n-1 register bits are the low n-1 bits of y in reverse order.
    """
    y_amps = np.fft.ifft(np.asarray(photon_amps, dtype=complex), norm="ortho")
    y = np.arange(2**n)
    low = y & ((1 << (n - 1)) - 1)
    reversed_low = np.zeros_like(low)
    for b in range(n - 1):
        reversed_low |= ((low >> b) & 1) << (n - 2 - b)
    index = ((y >> (n - 1)) << n) | reversed_low
    out = np.zeros(2 ** (n + 1), dtype=complex)
    out[index] = y_amps
    return out


def delta_theta(C: float, kappa: float, delta_S: np.ndarray) -> np.ndarray:
    """Controlled-phase angle at the default operating point, in [0, 2 pi).

    The phase difference of the reflections (_reflection) of spin down at
    delta_S - delta_0 and spin up at delta_S + delta_0, with
    delta_0 = (kappa/2) sqrt(C^2 - 1).
    """
    delta_0 = 0.5 * kappa * math.sqrt(C * C - 1.0)
    s = np.asarray(delta_S, dtype=float)
    return (
        np.angle(_reflection(C, kappa, s - delta_0)) - np.angle(_reflection(C, kappa, s + delta_0))
    ) % TWO_PI


def _reflection(C: float, kappa: float, delta) -> np.ndarray:
    """r(delta) = (C_s - 1)/(C_s + 1), C_s = C / (1 + 2 i delta / kappa)."""
    c_s = C / (1.0 + 2.0j * np.asarray(delta) / kappa)
    return (c_s - 1.0) / (c_s + 1.0)


def cr_losses(C: float, kappa: float, k_max: int, dk_mode: str) -> np.ndarray:
    """Loss terms d_1 .. d_k_max of the CR_k gates at the default operating point.

    Entry k - 1 is the term of CR_k.  CR_1 sits at zero Stark shift, where
    the default operating point gives delta_theta = pi; every other Stark
    shift solves delta_theta = 2 pi / 2^k by bisection on the reflection
    formula, in a bracket doubled from 1000 GHz.  "exact" is
    (1 - m)/(1 + m), m the smaller reflection magnitude; "approximate" is
    1/(2 C^2 + 8 Delta^2 / kappa^2), Delta the smaller spin detuning.
    """
    delta_0 = 0.5 * kappa * math.sqrt(C * C - 1.0)
    target = TWO_PI / 2.0 ** np.arange(1, k_max + 1)
    lo, hi = np.zeros(k_max), np.full(k_max, 1000.0)
    while np.any(unreached := delta_theta(C, kappa, hi) > target):
        hi[unreached] *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = delta_theta(C, kappa, mid) > target
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    delta_S = 0.5 * (lo + hi)
    delta_S[0] = 0.0
    if dk_mode == "approximate":
        detuning = np.minimum(np.abs(delta_S - delta_0), np.abs(delta_S + delta_0))
        return 1.0 / (2.0 * C * C + 8.0 * detuning**2 / kappa**2)
    m = np.minimum(np.abs(_reflection(C, kappa, delta_S - delta_0)),
                   np.abs(_reflection(C, kappa, delta_S + delta_0)))
    return (1.0 - m) / (1.0 + m)


def angle_gap(a, b) -> np.ndarray:
    """Absolute difference of two angles, modulo 2 pi."""
    return np.abs((np.asarray(a) - np.asarray(b) + math.pi) % TWO_PI - math.pi)


def reflect_count(n: int, K: int) -> int:
    """Reflections in the schedule: three swap reflections per photon plus its CR_k."""
    return sum(3 + min(n - i, K - 1) for i in range(1, n + 1))


def _comments(path: str) -> dict[str, str]:
    """The '# key: value' trailer lines of a CLI CSV output."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].partition(":")
                out[key.strip()] = value.strip()
    return out


# --- request kinds ---------------------------------------------------------


def _g_for(C: float) -> float:
    return math.sqrt(C * cavity.QD_GAMMA * cavity.QD_KAPPA / 4.0)


def _cli(argv: list[str], out: str) -> int:
    return cli.main(argv + ["--out", out])


# phase-curve: CLI, default 2001 points and kmax 10, seeded coupling g.


def run_phase_curve(req, ctx):
    # Above C ~ 300 the CR_9 and CR_10 points lie beyond the default
    # 1000 GHz Stark-shift search range.
    return _cli(["phase-curve", "--g", repr(req["g"]), "--stark-max", "20000"], ctx.out)


def check_phase_curve(req, code, ctx):
    if code != 0:
        return f"exit code {code}"
    C = 4.0 * req["g"] ** 2 / (cavity.QD_GAMMA * cavity.QD_KAPPA)
    rows = np.loadtxt(ctx.out, delimiter=",", skiprows=1, comments="#", ndmin=2)
    if rows.shape != (2001, 4):
        return f"phase-curve table has shape {rows.shape}"
    if np.max(angle_gap(rows[:, 1], delta_theta(C, cavity.QD_KAPPA, rows[:, 0]))) > 1e-8:
        return "phase-curve delta_theta differs from the reflection formula"
    marks = json.loads(_comments(ctx.out)["marks"])
    if [m["k"] for m in marks] != list(range(1, 11)):
        return "phase-curve marks do not list k = 1..10"
    for m in marks:
        got = delta_theta(C, cavity.QD_KAPPA, float(m["delta_S_GHz"]))
        if angle_gap(got, TWO_PI / 2.0 ** m["k"]) > 1e-6:
            return f"mark k={m['k']} does not realize 2 pi / 2^k"
    return None


# success --config: CLI over a seeded JSON scenario file.


def prepare_success(req, ctx):
    with open(ctx.config, "w") as fh:
        json.dump(req["config"], fh)


def run_success(req, ctx):
    return _cli(["success", "--config", ctx.config], ctx.out)


def check_success(req, code, ctx):
    if code != 0:
        return f"exit code {code}"
    config = req["config"]
    n_max = config["N_max"]
    with open(ctx.out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n_max * len(config["scenarios"]):
        return f"success table has {len(rows)} rows"
    for s_index, scenario in enumerate(config["scenarios"]):
        block = rows[s_index * n_max:(s_index + 1) * n_max]
        t2, K = scenario["T2_us"], scenario["K"]
        d_p = 0.0 if t2 == "inf" else 0.5 * (1.0 - math.exp(-5.0 / (t2 * 1000.0)))
        d_k = cr_losses(scenario["cooperativity"], cavity.QD_KAPPA,
                        n_max if K is None else min(K, n_max), scenario["dk_mode"])
        prev_D = -1.0
        for N, row in enumerate(block, start=1):
            if row["scenario_id"] != scenario["scenario_id"] or int(row["N"]) != N:
                return f"row order wrong at {scenario['scenario_id']} N={N}"
            k_eff = N if K is None else min(K, N)
            sum_dk = sum((N - k + 1) * d_k[k - 1] for k in range(2, k_eff + 1))
            dk_star = 0.0 if K is None else sum(
                (N - k + 1) * math.sin(math.pi / 2.0**k) for k in range(K + 1, N + 1)
            )
            # (expected value, tolerance); the loss terms come from a root
            # solve and, at large k, from 1 - m near the rounding error
            expected = {
                "d_p": (d_p, 1e-10 * d_p),
                "d_H": (scenario["p"], 1e-10 * scenario["p"]),
                "d1": (d_k[0], 1e-9 * d_k[0] + 1e-15),
                "sum_dk": (sum_dk, 1e-9 * sum_dk + 1e-15 * N * N),
                "sum_dk_star": (dk_star, 1e-10 * max(dk_star, 1.0)),
            }
            got = {key: float(row[key]) for key in expected}
            for key, (value, tol) in expected.items():
                if abs(got[key] - value) > tol:
                    where = f"{scenario['scenario_id']} N={N}"
                    return f"{key} is {got[key]}, expected {value} at {where}"
            D, raw, P_s = float(row["D"]), float(row["P_s_raw"]), float(row["P_s"])
            weighted = (N * N * got["d_p"] + 2 * N * got["d_H"] + 3 * N * got["d1"]
                        + got["sum_dk"] + got["sum_dk_star"])
            if (
                abs(D - weighted) > 1e-10 * D  # the CSV has 12 significant digits
                or abs(raw - (1.0 - D)) > 1e-10 * max(1.0, D)
                or P_s != max(raw, 0.0)
                or D < prev_D * (1.0 - 1e-11)
            ):
                return f"budget row inconsistent at {scenario['scenario_id']} N={N}"
            prev_D = D
    return None


# max_photons: library call, cavity gates, K = None.


def _photon_budget(req) -> analysis.NoiseBudget:
    gates = analysis.cavity_params_for_cooperativity(req["C"])
    return analysis.NoiseBudget(T2_us=req["T2_us"], p=req["p"], gates=gates)


def run_max_photons(req, ctx):
    return analysis.max_photons(_photon_budget(req))


def check_max_photons(req, N, ctx):
    budget = _photon_budget(req)
    if not isinstance(N, int) or N < 1:
        return f"max_photons returned {N!r}"
    if analysis.total_distance(N, budget).raw > 0.0:
        return f"raw bound still positive at N={N}"
    if N > 1 and analysis.total_distance(N - 1, budget).raw <= 0.0:
        return f"raw bound already crossed at N={N - 1}"
    return None


# simulate (pure): CLI on a basis input, K = n.


def run_simulate_cli(req, ctx):
    return _cli(["simulate", "--n", str(req["n"]), "--input", req["bits"]], ctx.out)


def check_simulate_cli(req, code, ctx):
    if code != 0:
        return f"exit code {code}"
    n = req["n"]
    amps = np.loadtxt(ctx.out, delimiter=",", skiprows=1, usecols=(2, 3), ndmin=2)
    got = amps[:, 0] + 1j * amps[:, 1]
    photon_amps = np.zeros(2**n, dtype=complex)
    photon_amps[int(req["bits"], 2)] = 1.0
    expected = qft_reference(n, photon_amps)
    if got.shape != expected.shape or np.max(np.abs(got - expected)) > 1e-10:
        return "simulate output differs from the FFT reference"
    return None


# simulate_program (pure): library call on a seeded random superposition.


def prepare_simulate_lib(req, ctx):
    ctx.state = circuit.QuantumState.from_photon_state(req["n"], req["amps"])


def run_simulate_lib(req, ctx):
    program = circuit.build_qft_program(req["n"], req["K"])
    return circuit.simulate_program(program, ctx.state)


def check_simulate_lib(req, final, ctx):
    ctx.state = None
    n, K = req["n"], req["K"]
    if K == n:
        if np.max(np.abs(final.data - qft_reference(n, req["amps"]))) > 1e-10:
            return "simulate_program output differs from the FFT reference"
    elif abs(np.vdot(final.data, final.data).real - 1.0) > 1e-10:
        return "truncated-transform output is not normalized"
    return None


# validate_bound_small_n: density-matrix bound check on small n.


def _budget(spec) -> analysis.NoiseBudget:
    gates = "ideal" if spec["C"] is None else analysis.cavity_params_for_cooperativity(spec["C"])
    return analysis.NoiseBudget(T2_us=spec["T2_us"], p=spec["p"], K=spec["K"], gates=gates)


def run_validate(req, ctx):
    return analysis.validate_bound_small_n(
        req["n"], _budget(req["budget"]), seed=req["seed"], n_random=5
    )


def check_validate(req, report, ctx):
    if not report.ok or report.max_trace_distance > report.D + CHECK_TOL:
        return f"trace distance {report.max_trace_distance} exceeds D={report.D}"
    if len(report.distances) != 2 ** req["n"] + 5:
        return f"validated {len(report.distances)} inputs"
    return None


# simulate --noise: CLI density-matrix run with the budget next to it.


def run_simulate_noise(req, ctx):
    spec = req["budget"]
    argv = [
        "simulate", "--n", str(req["n"]), "--input", req["bits"], "--noise",
        "--T2-us", repr(spec["T2_us"]), "--p", repr(spec["p"]),
    ]
    if spec["C"] is not None:
        argv += ["--cooperativity", repr(spec["C"])]
    if spec["K"] is not None:
        argv += ["--cutoff", str(spec["K"])]
    return _cli(argv, ctx.out)


def check_simulate_noise(req, code, ctx):
    if code != 0:
        return f"exit code {code}"
    info = _comments(ctx.out)
    dist, budget_D = float(info["trace_distance"]), float(info["budget_D"])
    if dist > budget_D + CHECK_TOL:
        return f"trace distance {dist} exceeds D={budget_D}"
    pops = np.loadtxt(ctx.out, delimiter=",", skiprows=1, usecols=(2,), comments="#")
    if abs(pops.sum() - 1.0) > 1e-9:
        return "output populations do not sum to 1"
    return None


# brute_force_postselection_distance: the optimizer oracle.


def run_oracle(req, ctx):
    return analysis.brute_force_postselection_distance(
        analysis.MeasurementDiag(tuple(req["lambdas"])), trials=20, seed=req["seed"]
    )


def check_oracle(req, value, ctx):
    top, bottom = req["lambdas"][0], req["lambdas"][-1]
    closed = (top - bottom) / (top + bottom)
    if abs(closed - value) > 1e-4:
        return f"oracle {value} differs from closed form {closed}"
    return None


# timeline --check-equivalence: CLI schedule compile, validate and dump.


def run_timeline(req, ctx):
    argv = ["timeline", "--n", str(req["n"]), "--cutoff", str(req["K"]), "--check-equivalence"]
    return _cli(argv, ctx.out)


def check_timeline(req, code, ctx):
    if code != 0:
        return f"exit code {code}"
    info = _comments(ctx.out)
    if info.get("program_equivalent") != "True":
        return "timeline not equivalent to the gate program"
    expected = reflect_count(req["n"], req["K"])
    if int(info["reflects"]) != expected:
        return f"reflects {info['reflects']}, expected {expected}"
    return None


@dataclass(frozen=True)
class Kind:
    run: Callable
    check: Callable
    prepare: Callable | None = None


KINDS = {
    "phase-curve": Kind(run_phase_curve, check_phase_curve),
    "success": Kind(run_success, check_success, prepare_success),
    "max-photons": Kind(run_max_photons, check_max_photons),
    "simulate-cli": Kind(run_simulate_cli, check_simulate_cli),
    "simulate-lib": Kind(run_simulate_lib, check_simulate_lib, prepare_simulate_lib),
    "validate": Kind(run_validate, check_validate),
    "simulate-noise": Kind(run_simulate_noise, check_simulate_noise),
    "oracle": Kind(run_oracle, check_oracle),
    "timeline": Kind(run_timeline, check_timeline),
}


# --- seeded rounds ---------------------------------------------------------


class Stratified:
    """Latin hypercube samples on [0, 1)^d, drawn in blocks of m points.

    In every block each coordinate has exactly one point in each of its m
    equal strata, at a seeded position inside the stratum, and the blocks
    come in seeded order.  A block spans a pass's fewest rounds, so runs
    with different seeds do nearly the same work.
    """

    def __init__(self, rng: np.random.Generator, d: int, m: int):
        self.rng, self.d, self.m = rng, d, m
        self.block: list[list[float]] = []

    def __call__(self) -> list[float]:
        if not self.block:
            cols = [(self.rng.permutation(self.m) + self.rng.random(self.m)) / self.m
                    for _ in range(self.d)]
            self.block = [[float(c[i]) for c in cols] for i in range(self.m)]
        return self.block.pop()


def _pick(u: float, lo: int, hi: int) -> int:
    """Integer in [lo, hi] from u in [0, 1)."""
    return lo + int(u * (hi - lo + 1))


def _optional_cutoff(u: float, lo: int, hi: int) -> int | None:
    """None for u < 1/2, else an integer in [lo, hi]."""
    return None if u < 0.5 else _pick(2.0 * u - 1.0, lo, hi)


def _bits(rng: np.random.Generator, n: int) -> str:
    return "".join(str(b) for b in rng.integers(0, 2, n))


def _scenarios(rng: np.random.Generator, u_count: float, u_C: float) -> list[dict]:
    """3-5 scenarios; about half of them share one cooperativity.

    The first scenario has K = None: on cavity gates it costs O(N_max^2)
    Stark-shift solves, which sets the request's size.  Other scenarios on
    the shared device may also have K = None and reuse its operating
    points; scenarios on their own device have K in 5..15.
    """
    count = _pick(u_count, 3, 5)
    shared = 30.0 + 370.0 * u_C
    scenarios = []
    for i in range(count):
        on_shared = i < (count + 1) // 2
        C = shared if on_shared else float(rng.uniform(30.0, 400.0))
        if i == 0 or (on_shared and rng.random() < 0.5):
            K = None
        else:
            K = int(rng.integers(5, 16))
        scenarios.append({
            "scenario_id": f"s{i}",
            "cooperativity": C,
            "T2_us": "inf" if rng.random() < 0.1 else float(rng.uniform(5.0, 100.0)),
            "p": float(rng.uniform(0.001, 0.02)),
            "K": K,
            "dk_mode": "exact" if rng.random() < 0.5 else "approximate",
        })
    return scenarios


def budget_scan_rounds(rng: np.random.Generator):
    phase, success, photons = Stratified(rng, 1, 12), Stratified(rng, 3, 9), Stratified(rng, 3, 18)
    while True:
        reqs = []
        for _ in range(4):
            (u,) = phase()
            reqs.append({"kind": "phase-curve", "g": _g_for(30.0 + 370.0 * u)})
        for _ in range(3):
            u_n, u_count, u_C = success()
            # N_max <= 40 keeps the K=None scenario under about 1 s.
            config = {"N_max": _pick(u_n, 20, 40), "scenarios": _scenarios(rng, u_count, u_C)}
            reqs.append({"kind": "success", "config": config})
        for _ in range(6):
            u_C, u_T2, u_p = photons()
            # p >= 0.008 keeps the crossing N, and with it the O(N^2) solve
            # count, small enough for about 1 s.
            reqs.append({
                "kind": "max-photons",
                "C": 50.0 + 250.0 * u_C,
                "T2_us": 5.0 + 95.0 * u_T2,
                "p": 0.008 + 0.012 * u_p,
            })
        yield reqs


# Requests per round and kind for each n below 16: a request costs about
# twice as much at n + 1, so smaller n get more copies and a run more
# samples.  Each round adds one n = 16 request, of the two kinds in turn.
QFT_COPIES = {13: 4, 14: 2, 15: 1}


def qft_pure_rounds(rng: np.random.Generator):
    # Every other library request of each n is the full transform (K = n);
    # the rest draw K from seven strata, as many as two rounds hold.
    cutoffs = Stratified(rng, 1, 7)
    full = dict.fromkeys(range(13, 17), True)

    def cli(n):
        return {"kind": "simulate-cli", "n": n, "bits": _bits(rng, n)}

    def lib(n):
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        K = n if full[n] else _pick(cutoffs()[0], 3, n - 1)
        full[n] = not full[n]
        return {"kind": "simulate-lib", "n": n, "K": K, "amps": amps / np.linalg.norm(amps)}

    for index in itertools.count():
        reqs = []
        for n, copies in QFT_COPIES.items():
            for _ in range(copies):
                reqs += [cli(n), lib(n)]
        reqs.append(lib(16) if index % 2 else cli(16))
        yield reqs


def _noise_budget(u: list[float], n: int) -> dict:
    u_gates, u_T2, u_p, u_K = u
    return {
        "C": None if u_gates < 0.5 else 30.0 + 370.0 * (2.0 * u_gates - 1.0),
        "T2_us": 5.0 + 95.0 * u_T2,
        "p": 0.001 + 0.049 * u_p,
        "K": _optional_cutoff(u_K, 1, n),
    }


def noisy_verify_rounds(rng: np.random.Generator):
    validate = {n: Stratified(rng, 4, 4) for n in (3, 4)}
    noise = {n: Stratified(rng, 4, 4) for n in (5, 6, 7)}
    oracle = {dim: Stratified(rng, dim, 4) for dim in (2, 3, 4)}
    while True:
        reqs = []
        for n, seq in validate.items():
            reqs.append({
                "kind": "validate", "n": n, "budget": _noise_budget(seq(), n),
                "seed": int(rng.integers(2**31)),
            })
        for n, seq in noise.items():
            reqs.append({
                "kind": "simulate-noise", "n": n, "bits": _bits(rng, n),
                "budget": _noise_budget(seq(), n),
            })
        for dim, seq in oracle.items():
            lam = sorted((0.05 + 0.95 * u for u in seq()), reverse=True)
            reqs.append({
                "kind": "oracle", "lambdas": [x / lam[0] for x in lam],
                "seed": int(rng.integers(2**31)),
            })
        yield reqs


def timeline_scale_rounds(rng: np.random.Generator):
    # n = 100 + 200 u^2 puts more requests at small n, where they are cheap
    # (validation is O(n^3)), while the range still reaches n near 300.
    full, truncated = Stratified(rng, 1, 16), Stratified(rng, 2, 16)
    while True:
        reqs = []
        for _ in range(4):
            (u,) = full()
            n = 100 + int(200.0 * u * u)
            reqs.append({"kind": "timeline", "n": n, "K": n})
        for _ in range(4):
            u, u_K = truncated()
            reqs.append({"kind": "timeline", "n": 100 + int(200.0 * u * u), "K": _pick(u_K, 5, 20)})
        yield reqs


@dataclass(frozen=True)
class Workload:
    make_rounds: Callable[[np.random.Generator], Iterator[list[dict]]]
    warmup: dict
    # Fewest rounds in a pass, so that at least ten requests lie beyond
    # tail_pct; also the fixed round count of a traced run.
    min_rounds: int
    # Fixed tail percentile, low enough that the Harrell-Davis estimate
    # has at least ten requests beyond it at min_rounds rounds even when
    # request times cluster: about twelve in expectation.
    tail_pct: float


WORKLOADS = {
    # The paper's P_s and capacity curves: cavity solver and analysis
    # budget, every request on a fresh device.
    "budget-scan": Workload(budget_scan_rounds, {"kind": "phase-curve", "g": _g_for(25.0)}, 3, 67.0),
    # The pure state-vector gate kernel on states up to the L2 size.
    "qft-pure": Workload(qft_pure_rounds, {"kind": "simulate-cli", "n": 12, "bits": "1" * 12}, 2, 62.0),
    # The gate simulator on density matrices with noise channels, plus the
    # optimizer oracle.
    "noisy-verify": Workload(
        noisy_verify_rounds,
        {"kind": "simulate-noise", "n": 4, "bits": "1011",
         "budget": {"C": 57.62, "T2_us": 20.0, "p": 0.01, "K": None}},
        4,
        62.0,
    ),
    # The hardware schedule checked at the photon numbers where the budget
    # crosses zero.
    "timeline-scale": Workload(timeline_scale_rounds, {"kind": "timeline", "n": 50, "K": 50}, 4, 62.0),
}


def rounds(workload: str, seed: int) -> Iterator[list[dict]]:
    """Endless stream of rounds in seeded order; the same seed gives the same requests."""
    rng = np.random.default_rng(seed)
    for batch in WORKLOADS[workload].make_rounds(rng):
        rng.shuffle(batch)
        yield batch


class Context:
    """Scratch paths and state handed from a request's prepare to its run."""

    def __init__(self, tmpdir: str):
        self.out = os.path.join(tmpdir, "out.csv")
        self.config = os.path.join(tmpdir, "scenarios.json")
        self.state = None
