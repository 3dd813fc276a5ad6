"""Command-line entry point.

Subcommands: phase-curve, success, simulate, timeline, validate.
Exit codes: 0 success, 1 validation failure, 2 invalid input.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analysis, cavity as cav, circuit as circ, scheduler as sched, tables

DEFAULT_SEED = 12345


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit(args, columns: dict, extra: dict | None = None) -> None:
    """Write a table of columns (see tables) as CSV or JSON.

    In CSV each extra is a "# key: value" line after the table, except that
    each entry of a "violations" list is a "# VIOLATION: entry" line.
    """
    extra = extra or {}
    if args.format == "json":
        rows = [dict(zip(columns, cells)) for cells in zip(*map(tables.pylist, columns.values()))]
        _write(args.out, json.dumps({"rows": rows, **extra}, indent=2, default=str) + "\n")
    else:
        text = tables.to_csv(columns)
        for key, value in extra.items():
            if key == "violations":
                text += "".join(f"# VIOLATION: {v}\n" for v in value)
            else:
                text += f"# {key}: {value}\n"
        _write(args.out, text)


# --- phase-curve ----------------------------------------------------------


def cmd_phase_curve(args) -> int:
    params = cav.CavityParams(g=args.g, kappa=args.kappa, gamma=args.gamma)
    delta_0, delta_Z = cav.default_operating_point(params)
    if args.points < 0:
        raise ValueError(f"points must be >= 0, got {args.points}")
    if args.kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {args.kmax}")
    values = list(np.linspace(args.smin, args.smax, args.points))
    curve = np.array(cav.phase_curve(params, delta_0, delta_Z, values), dtype=np.float64)
    names = ["delta_S_GHz", "delta_theta_rad", "r_up_abs", "r_down_abs"]
    columns = dict(zip(names, curve.reshape(-1, 4).T))
    marks = []
    for k in range(1, args.kmax + 1):
        delta_S = cav.solve_stark_shift(params, delta_0, delta_Z, k, args.stark_max)
        marks.append({"k": k, "delta_S_GHz": tables.fmt(delta_S)})
    _emit(args, columns, extra={"marks": json.dumps(marks)})
    return 0


# --- success sweeps -------------------------------------------------------

SWEEP_COLUMNS = [
    "scenario_id",
    "N",
    "d_p",
    "d_H",
    "d1",
    "sum_dk",
    "sum_dk_star",
    "D",
    "P_s_raw",
    "P_s",
]


def cmd_success(args) -> int:
    if args.n_max is not None and args.n_max < 0:
        raise ValueError(f"n-max must be >= 0, got {args.n_max}")
    if args.preset:
        scenarios, n_values = analysis.preset_scenarios(args.preset)
    else:
        with open(args.config) as fh:
            config = json.load(fh)
        scenarios = [analysis.scenario_from_config(entry) for entry in config["scenarios"]]
        n_max = int(config.get("N_max", 50))
        if n_max < 0:
            raise ValueError(f"N_max must be >= 0, got {n_max}")
        n_values = list(range(1, n_max + 1))
    if args.n_max is not None:
        n_values = [n for n in n_values if n <= args.n_max]
    rows = analysis.sweep_success(n_values, scenarios)
    _emit(args, {c: [row[c] for row in rows] for c in SWEEP_COLUMNS})
    return 0


# --- circuit simulation ---------------------------------------------------


def _parse_bits(text: str, n: int) -> list[int]:
    digits = text.strip()
    if len(digits) != n or not set(digits) <= {"0", "1"}:
        raise ValueError(f"input must be {n} bits of 0/1, got {text!r}")
    return [int(c) for c in digits]


def _basis_column(n: int) -> np.ndarray:
    """Bit strings of the indices 0 .. 2**(n + 1) - 1, n + 1 digits each, as bytes."""
    index = np.arange(2 ** (n + 1))
    bits = np.empty((index.size, n + 1), np.uint8)
    for b in range(n + 1):
        bits[:, b] = (index >> (n - b)) & 1
    return (bits + ord("0")).view(f"S{n + 1}").ravel()


def cmd_simulate(args) -> int:
    n = args.n
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # admit the size before any list or state of it is built
    cap = circ.MAX_DENSITY_QUBITS if args.noise else circ.MAX_PURE_QUBITS
    if n + 1 > cap:
        path = "density" if args.noise else "pure"
        raise ValueError(
            f"n must be <= {cap - 1}: the {path} path is capped at {cap} qubits, got {n}"
        )
    cutoff = args.cutoff if args.cutoff is not None else n
    bits = _parse_bits(args.input, n) if args.input else [0] * n
    state = circ.QuantumState.basis(n, bits)
    if not args.noise:
        program = circ.build_qft_program(n, cutoff)
        final = circ.simulate_program(program, state)
        amps = final.data
        index = np.arange(amps.size)
        _emit(args, {"index": index, "basis": _basis_column(n), "re": amps.real, "im": amps.imag})
        return 0

    gates: cav.CavityParams | str = "ideal"
    if args.cooperativity is not None:
        gates = analysis.cavity_params_for_cooperativity(args.cooperativity)
    budget = analysis.NoiseBudget(
        T2_us=args.T2_us, p=args.p, K=cutoff, gates=gates
    )
    noisy, weight = analysis.simulate_noisy_protocol(n, budget, state)
    ideal = circ.simulate_program(circ.build_qft_program(n, n), state).to_density()
    dist = analysis.trace_distance(noisy.data, ideal.data)
    report = analysis.total_distance(n, budget)
    populations = noisy.data.diagonal().real
    extra = {
        "trace_distance": tables.fmt(dist),
        "budget_D": tables.fmt(report.D),
        "P_s": tables.fmt(report.P_s),
        "postselection_weight": tables.fmt(weight),
    }
    index = np.arange(populations.size)
    _emit(args, {"index": index, "basis": _basis_column(n), "population": populations}, extra=extra)
    return 0


# --- timeline -------------------------------------------------------------


def cmd_timeline(args) -> int:
    cfg = sched.TimingConfig.default(args.n, args.T_cycle)
    cutoff = args.cutoff if args.cutoff is not None else args.n
    timeline = sched.compile_timeline(cfg, cutoff)
    report = sched.validate_timeline(timeline)
    extra = {
        "reflects": report.reflect_count,
        "makespan_ns": tables.fmt(report.makespan),
        "idle_cycles": report.idle_cycles,
    }
    equal = True
    if args.check_equivalence:
        compiled = sched.timeline_to_program(timeline)
        equal = bool(np.array_equal(compiled, circ.build_qft_program(args.n, cutoff)))
        extra["program_equivalent"] = equal
    if equal:  # a program mismatch is reported alone
        extra["violations"] = report.violations
    _emit(args, sched.timeline_columns(timeline), extra)
    return 0 if equal and report.ok else 1


# --- validate -------------------------------------------------------------


def _suite_swap_identity() -> bool:
    # three CR_1 reflections, each followed by Hadamards on atom and photon
    program = np.array([(1, 1, circ.H_ATOM | circ.H_PHOTON)] * 3, circ.STEP)
    basis = np.eye(4, dtype=complex)
    outputs = [circ.simulate_program(program, circ.QuantumState(1, v)).data for v in basis]
    got = np.column_stack(outputs)
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    return np.linalg.norm(got - swap, 2) < 1e-12


def _suite_qft_equivalence(max_n: int = 6) -> bool:
    for n in range(1, max_n + 1):
        program = circ.build_qft_program(n, n)
        qft = circ.ideal_qft_unitary(n)
        for x in range(2**n):
            bits = [(x >> (n - 1 - b)) & 1 for b in range(n)]
            out = circ.simulate_program(program, circ.QuantumState.basis(n, bits))
            expected = circ.embed_qft_output(n, qft[:, x])
            if np.max(np.abs(out.data - expected)) > 1e-10:
                return False
    return True


def _suite_scheduler_equivalence(max_n: int = 10) -> bool:
    for n in range(1, max_n + 1):
        for cutoff in range(1, n + 1):
            timeline = sched.compile_timeline(sched.TimingConfig.default(n), cutoff)
            compiled = sched.timeline_to_program(timeline)
            if not np.array_equal(compiled, circ.build_qft_program(n, cutoff)):
                return False
            if not sched.validate_timeline(timeline).ok:
                return False
    return True


def _suite_oracle_agreement(seed: int) -> bool:
    rng = np.random.default_rng(seed)
    for dim in (2, 3, 4):
        for trial in range(4):
            lam = np.sort(rng.uniform(0.05, 1.0, dim))[::-1]
            lam /= lam[0]
            m = analysis.MeasurementDiag(tuple(lam))
            closed = analysis.postselection_distance(m)
            brute = analysis.brute_force_postselection_distance(m, trials=20, seed=seed + trial)
            if abs(closed - brute) > 1e-4:
                return False
    return True


def _suite_budget_crossings() -> bool:
    a = analysis.max_photons(analysis.NoiseBudget(T2_us=5.0, p=0.01))
    b = analysis.total_distance(50, analysis.NoiseBudget(T2_us=math.inf, p=0.01))
    return a == 29 and abs(b.raw) < 1e-12


def _suite_bound_validation(seed: int) -> bool:
    budget = analysis.NoiseBudget(T2_us=20.0, p=0.01)
    try:
        analysis.validate_bound_small_n(2, budget, seed=seed, n_random=5)
    except analysis.BoundViolation:
        return False
    return True


def cmd_validate(args) -> int:
    suites = [
        ("swap-identity", _suite_swap_identity),
        ("qft-equivalence", _suite_qft_equivalence),
        ("scheduler-equivalence", _suite_scheduler_equivalence),
        ("oracle-agreement", lambda: _suite_oracle_agreement(args.seed)),
        ("budget-crossings", _suite_budget_crossings),
        ("bound-validation", lambda: _suite_bound_validation(args.seed)),
    ]
    failed = []
    for name, suite in suites:
        ok = suite()
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failed.append(name)
    if failed:
        print("failing suites:", ", ".join(failed))
        return 1
    return 0


# --- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cavity-qft")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("phase-curve", parents=[common])
    p.add_argument("--g", type=float, default=cav.QD_G)
    p.add_argument("--kappa", type=float, default=cav.QD_KAPPA)
    p.add_argument("--gamma", type=float, default=cav.QD_GAMMA)
    p.add_argument("--smin", type=float, default=0.0)
    p.add_argument("--smax", type=float, default=1000.0)
    p.add_argument("--points", type=int, default=2001)
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--stark-max", type=float, default=analysis.STARK_RANGE_GHZ)
    p.set_defaults(func=cmd_phase_curve)

    p = sub.add_parser("success", parents=[common])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=("fig4", "fig5a", "fig5b"))
    group.add_argument("--config", help="JSON scenario file")
    p.add_argument("--n-max", type=int, default=None)
    p.set_defaults(func=cmd_success)

    p = sub.add_parser("simulate", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--input", default=None, help="photon bitstring, e.g. 010")
    p.add_argument("--noise", action="store_true")
    p.add_argument("--T2-us", type=float, default=20.0)
    p.add_argument("--p", type=float, default=0.01)
    p.add_argument("--cooperativity", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("timeline", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--T-cycle", type=float, default=5.0)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--check-equivalence", action="store_true")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("validate")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, TypeError, circ.ZeroWeight) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
