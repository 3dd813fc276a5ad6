"""Command-line interface: output formats, exit codes, determinism."""
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavityqft import analysis, cli, tables
from cavityqft import circuit as circ
from cavityqft.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_phase_curve_includes_pi_point(capsys):
    code, out = run_cli(capsys, "phase-curve", "--points", "3", "--kmax", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta_S_GHz,delta_theta_rad,r_up_abs,r_down_abs"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(math.pi, abs=1e-9)


def test_phase_curve_marks_list_k(capsys):
    code, out = run_cli(capsys, "phase-curve", "--points", "2", "--kmax", "10")
    assert code == 0
    marks_line = next(line for line in out.splitlines() if line.startswith("# marks:"))
    marks = json.loads(marks_line.split(":", 1)[1])
    assert [m["k"] for m in marks] == list(range(1, 11))


def test_phase_curve_high_cooperativity(capsys):
    # g = 28.98 GHz gives C = 400, where CR_9 and CR_10 need Stark shifts beyond 1000 GHz
    code, out = run_cli(capsys, "phase-curve", "--g", "28.98", "--points", "2")
    assert code == 0
    marks_line = next(line for line in out.splitlines() if line.startswith("# marks:"))
    marks = json.loads(marks_line.split(":", 1)[1])
    assert [m["k"] for m in marks] == list(range(1, 11))
    shifts = [float(m["delta_S_GHz"]) for m in marks]
    assert shifts == sorted(shifts) and shifts[-1] > 1000.0


def test_phase_curve_empty_range(capsys):
    code, out = run_cli(capsys, "phase-curve", "--points", "0", "--kmax", "1")
    assert code == 0
    assert out.splitlines()[0] == "delta_S_GHz,delta_theta_rad,r_up_abs,r_down_abs"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--stark-max", "nan"], "error: delta_S_max must be finite and positive, got nan"),
        (["--stark-max", "inf"], "error: delta_S_max must be finite and positive, got inf"),
        (["--stark-max=-inf"], "error: delta_S_max must be finite and positive, got -inf"),
        (["--stark-max", "0"], "error: delta_S_max must be finite and positive, got 0.0"),
        (["--stark-max=-5"], "error: delta_S_max must be finite and positive, got -5.0"),
        (["--points", "-3"], "error: points must be >= 0, got -3"),
        (["--smin", "nan"], "error: delta_S must be finite"),
    ],
)
def test_phase_curve_invalid_input_exit_code(capsys, argv, message):
    code = main(["phase-curve", "--points", "3", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.strip() == message
    assert captured.out == ""


def test_success_preset_row_count(capsys):
    code, out = run_cli(capsys, "success", "--preset", "fig5b", "--n-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("scenario_id,N,")
    assert len(lines) == 1 + 3 * 3  # three scenarios, N=1..3


def test_success_config_file(capsys, tmp_path):
    config = {
        "scenarios": [{"scenario_id": "one", "T2_us": 20.0, "p": 0.01, "cooperativity": "ideal"}],
        "N_max": 1,
    }
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(config))
    code, out = run_cli(capsys, "success", "--config", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("one,1,")


@pytest.mark.parametrize(
    "config",
    [
        {"scenarios": [{"T2_us": 20, "p": None}]},
        {"scenarios": 5},
        {"scenarios": [{"T2_us": 20, "p": 0.01, "T_cycle_ns": 0}]},
    ],
)
def test_success_malformed_config_exit_code(capsys, tmp_path, config):
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(config))
    code = main(["success", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_success_requires_source(capsys):
    with pytest.raises(SystemExit):
        main(["success"])


def test_simulate_single_photon(capsys):
    code, out = run_cli(capsys, "simulate", "--n", "1", "--input", "0")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    amps = {r[1]: complex(float(r[2]), float(r[3])) for r in rows}
    inv_sqrt2 = 1 / math.sqrt(2)
    assert amps["00"].real == pytest.approx(inv_sqrt2)
    assert amps["10"].real == pytest.approx(inv_sqrt2)


def test_simulate_noise_reports_bound(capsys):
    code, out = run_cli(capsys, "simulate", "--n", "2", "--input", "10", "--noise")
    assert code == 0
    comments = dict(
        line[2:].split(": ", 1) for line in out.splitlines() if line.startswith("# ")
    )
    assert float(comments["trace_distance"]) <= float(comments["budget_D"])


def test_simulate_bad_input_exit_code(capsys):
    code, _ = run_cli(capsys, "simulate", "--n", "2", "--input", "01021")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--cutoff", "0"], "error: cutoff must be >= 1, got 0"),
        (["--cutoff", "-1"], "error: cutoff must be >= 1, got -1"),
        (["--cutoff", "0", "--noise"], "error: K must be >= 1"),
        (["--n", "0", "--noise"], "error: n must be >= 1, got 0"),
        (["--input", "1x1"], "error: input must be 3 bits of 0/1, got '1x1'"),
    ],
)
def test_simulate_invalid_cutoff_exit_code(capsys, argv, message):
    code = main(["simulate", "--n", "3", "--input", "101", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.strip() == message
    assert captured.out == ""


def test_simulate_nan_budget_exit_code(capsys):
    code = main(["simulate", "--n", "2", "--input", "10", "--noise", "--T2-us", "nan"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_timeline_csv_and_equivalence(capsys):
    code, out = run_cli(capsys, "timeline", "--n", "3", "--check-equivalence")
    assert code == 0
    assert out.splitlines()[0] == "time_ns,event_kind,photon,parameter"
    assert "# program_equivalent: True" in out


def test_timeline_reflect_count(capsys):
    code, out = run_cli(capsys, "timeline", "--n", "3")
    assert code == 0
    assert "# reflects: 12" in out


def test_timeline_json_matches_csv(capsys):
    argv = ["timeline", "--n", "4", "--cutoff", "3", "--check-equivalence"]
    code, csv_out = run_cli(capsys, *argv)
    assert code == 0
    code, json_out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    lines = csv_out.splitlines()
    table = [line for line in lines[1:] if not line.startswith("# ")]
    assert len(payload["rows"]) == len(table)
    for row, line in zip(payload["rows"], table):
        time_ns, kind, photon, parameter = line.split(",")
        assert list(row) == ["time_ns", "event_kind", "photon", "parameter"]
        assert f"{row['time_ns']:.11e}" == time_ns
        assert row["event_kind"] == kind
        assert row["photon"] == (int(photon) if photon else None)
        assert row["parameter"] == parameter
    assert payload["reflects"] == 3 * 4 + 3 + 2
    assert payload["makespan_ns"] == next(x[15:] for x in lines if x.startswith("# makespan_ns: "))
    assert payload["idle_cycles"] == int(lines[-2].removeprefix("# idle_cycles: "))
    assert payload["program_equivalent"] is True
    assert payload["violations"] == []


def test_timeline_violations_in_both_formats(capsys):
    # at T_cycle = 1e-300, tau_2 = T_cycle / 20 is below the 1e-9 ns tolerance
    argv = ["timeline", "--n", "2", "--T-cycle", "1e-300"]
    code, out = run_cli(capsys, *argv)
    assert code == 1
    violations = [x[13:] for x in out.splitlines() if x.startswith("# VIOLATION: ")]
    assert violations and all(v.startswith("overlapping reflections") for v in violations)
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    assert json.loads(out)["violations"] == violations


def test_timeline_reports_program_mismatch(capsys, monkeypatch):
    # a reference program that differs in one CR_k setting
    reference = circ.build_qft_program

    def build(n, K):
        program = reference(n, K)
        program["k"][-1] += 1
        return program

    monkeypatch.setattr(circ, "build_qft_program", build)
    code, out = run_cli(capsys, "timeline", "--n", "3", "--check-equivalence", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["program_equivalent"] is False
    assert "violations" not in payload  # a mismatch is reported alone


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--n", "200", "--check-equivalence"],
            "98deac9031b56fcc96d5c494d16e23b2d2247ef3448b4932c413d844ebe224db",
        ),
        (
            ["--n", "300", "--cutoff", "12", "--check-equivalence"],
            "8884b73fe26e4329c6bf82a6ea566ad0066c5497492a6684f0601c7643d1efee",
        ),
    ],
)
def test_timeline_output_digest(capsys, argv, digest):
    # SHA-256 of the output of the object-based scheduler, before the columnar one
    code, out = run_cli(capsys, "timeline", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--T-cycle", "nan"], "error: T_cycle must be finite, got nan"),
        (["--T-cycle", "inf"], "error: T_cycle must be finite, got inf"),
        (["--cutoff", "0"], "error: cutoff must be >= 1, got 0"),
        (["--cutoff", "-2", "--check-equivalence"], "error: cutoff must be >= 1, got -2"),
    ],
)
def test_timeline_invalid_input_exit_code(capsys, argv, message):
    code = main(["timeline", "--n", "3", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.strip() == message
    assert captured.out == ""


def test_zero_weight_exit_code(capsys, monkeypatch):
    def lose_everything(*args, **kwargs):
        raise circ.ZeroWeight("post-selection weight underflowed")

    monkeypatch.setattr(analysis, "simulate_noisy_protocol", lose_everything)
    code = main(["simulate", "--n", "2", "--input", "10", "--noise", "--cooperativity", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.strip() == "error: post-selection weight underflowed"
    assert captured.out == ""


def test_validate_exits_zero(capsys):
    code, out = run_cli(capsys, "validate")
    assert code == 0
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_output_file_and_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = main(["success", "--preset", "fig5a", "--n-max", "10", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_format(capsys):
    code, out = run_cli(capsys, "success", "--preset", "fig5b", "--n-max", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 3
    assert payload["rows"][0]["N"] == 1


def test_golden_outputs_unchanged(monkeypatch, tmp_path):
    # digests of success --preset fig4|fig5a|fig5b and phase-curve, kept by the benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import golden

    assert golden.mismatches(str(tmp_path / "out.csv")) == []


def test_benchmark_requests_pass_their_checks(monkeypatch, tmp_path):
    # one small request of each kind the benchmark runs, through its
    # prepare, run and check steps
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    rng = np.random.default_rng(4)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    scenario = {"cooperativity": 57.62, "T2_us": 20.0, "p": 0.01}
    noise = {"C": 57.62, "T2_us": 20.0, "p": 0.01, "K": 2}
    requests = [
        {"kind": "phase-curve", "g": workloads._g_for(57.62)},
        {"kind": "success", "config": {"N_max": 6, "scenarios": [
            {**scenario, "scenario_id": "a", "K": None, "dk_mode": "exact"},
            {**scenario, "scenario_id": "b", "K": 3, "dk_mode": "approximate", "T2_us": "inf"},
        ]}},
        {"kind": "max-photons", "C": 57.62, "T2_us": 20.0, "p": 0.01},
        {"kind": "simulate-cli", "n": 4, "bits": "1011"},
        {"kind": "simulate-lib", "n": 3, "K": 3, "amps": amps / np.linalg.norm(amps)},
        {"kind": "validate", "n": 2, "budget": noise, "seed": 11},
        {"kind": "simulate-noise", "n": 3, "bits": "101", "budget": noise},
        {"kind": "oracle", "lambdas": [1.0, 0.6, 0.3], "seed": 5},
        {"kind": "timeline", "n": 30, "K": 30},
    ]
    assert sorted(r["kind"] for r in requests) == sorted(workloads.KINDS)
    errors = {}
    for req in requests:
        kind, ctx = workloads.KINDS[req["kind"]], workloads.Context(str(tmp_path))
        if kind.prepare is not None:
            kind.prepare(req, ctx)
        errors[req["kind"]] = kind.check(req, kind.run(req, ctx), ctx)
    assert errors == dict.fromkeys(workloads.KINDS)


# --- column-wise CSV writer -------------------------------------------------


def _reference_csv(columns: list[str], rows: list[dict]) -> str:
    """The row-by-row writer the column-wise one replaced."""
    out = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            value = row[col]
            cells.append(f"{value:.11e}" if isinstance(value, float) else str(value))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def _float_texts(xs: list[float]) -> list[str]:
    matrix, lengths = tables.float_cells(np.array(xs, dtype=np.float64))
    width = matrix.shape[1]
    return [bytes(row[width - n :]).decode() for row, n in zip(matrix, lengths)]


SPECIAL_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e-33, 9.99999999999995e55,
]
# Near ties whose scaled value rounds the wrong way without the tie guard,
# and values whose 12 digits round up to 1e12 and carry into the exponent.
HARD_FLOATS = [
    2.310953758615e48, 2.557430091525e-23, -1.311010121735e-20,
    0.999999999999996, -9.9999999999997e-31, 9.9999999999998e44,
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), max_size=40))
@example(SPECIAL_FLOATS)
@example(HARD_FLOATS)
def test_float_cells_match_format_on_all_doubles(xs):
    assert _float_texts(xs) == [f"{x:.11e}" for x in xs]


@st.composite
def near_ties(draw):
    """A 13-digit decimal ending in 5 and its two binary neighbours."""
    digits = draw(st.integers(10**11, 10**12 - 1))
    x = float(f"{digits}5e{draw(st.integers(-330, 300))}") * draw(st.sampled_from((1, -1)))
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


@settings(max_examples=200, deadline=None)
@given(st.lists(near_ties(), max_size=10))
def test_float_cells_match_format_near_ties(triples):
    xs = [float(x) for triple in triples for x in triple]
    assert _float_texts(xs) == [f"{x:.11e}" for x in xs]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 40), st.integers(0, 2**20), st.integers(1, 20), st.floats(-1, 1)),
        max_size=40,
    )
)
def test_float_cells_match_format_at_amplitude_scale(params):
    # QFT amplitudes cos(2 pi k / 2^m) / 2^(n/2) and arbitrary values of that size
    xs = []
    for n, k, m, c in params:
        xs += [math.cos(2 * math.pi * k / 2**m) * 2 ** (-n / 2), c * 2 ** (-n / 2)]
    assert _float_texts(xs) == [f"{x:.11e}" for x in xs]


def test_writer_matches_row_writer_on_mixed_cells():
    columns = {
        "scenario_id": ["a", "b,c", "Grüße ✓", "nul\0byte", ""],
        "N": [1, 2, 3, 40, 50],
        "sum_dk": [0, 1.5, 0, -2.5e-300, math.nan],
        "D": np.array([0.1, -0.0, 1e300, 2.0**-1074, math.inf]),
        "index": np.array([0, -7, 10, 2**63 - 1, -(2**63)]),
        "basis": np.array([b"01", b"10", b"11", b"00", b"01"]),
    }
    rows = [
        dict(zip(columns, cells))
        for cells in zip(*(tables.pylist(column) for column in columns.values()))
    ]
    assert tables.to_csv(columns) == _reference_csv(list(columns), rows)


text_cells = st.text(st.characters(codec="ascii"), max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 12).flatmap(
        lambda rows: st.lists(
            st.one_of(
                st.lists(text_cells, min_size=rows, max_size=rows).map(
                    lambda xs: np.array([x.encode() for x in xs], dtype=bytes)
                ),
                st.lists(st.floats(), min_size=rows, max_size=rows).map(np.array),
                st.lists(st.integers(-(2**63), 2**63 - 1), min_size=rows, max_size=rows).map(
                    lambda xs: np.array(xs, dtype=np.int64)
                ),
            ),
            min_size=1,
            max_size=5,
        )
    )
)
def test_writer_bytes_columns_with_short_cells(arrays):
    # bytes cells of any length 0..6 in one column, inner NULs included (numpy
    # drops trailing ones), mixed with float and int columns
    columns = {f"c{i}": array for i, array in enumerate(arrays)}
    rows = [
        dict(zip(columns, cells))
        for cells in zip(*(tables.pylist(column) for column in columns.values()))
    ]
    assert tables.to_csv(columns) == _reference_csv(list(columns), rows)


def test_writer_zero_rows(capsys):
    empty = {"a": np.array([]), "b": [], "c": np.array([], dtype=int)}
    assert tables.to_csv(empty) == "a,b,c\n"
    code, out = run_cli(capsys, "phase-curve", "--points", "0", "--kmax", "1")
    assert code == 0
    names = ["delta_S_GHz", "delta_theta_rad", "r_up_abs", "r_down_abs"]
    assert out.split("# marks: ")[0] == _reference_csv(names, [])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_success_text_cells_match_row_writer(capsys, tmp_path, fmt):
    config = {
        "scenarios": [
            {"scenario_id": "comma,inside", "T2_us": 20.0, "p": 0.01},
            {"scenario_id": "Grüße ✓", "T2_us": "inf", "p": 0.0, "K": 2},
            {"scenario_id": "nul\0byte", "T2_us": 5.0, "p": 0.01, "cooperativity": 57.62},
        ],
        "N_max": 4,
    }
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(config))
    code, out = run_cli(capsys, "success", "--config", str(path), "--format", fmt)
    assert code == 0
    scenarios = [analysis.scenario_from_config(entry) for entry in config["scenarios"]]
    rows = analysis.sweep_success([1, 2, 3, 4], scenarios)
    assert [row["sum_dk"] for row in rows if row["N"] == 1] == [0, 0, 0]  # int cells
    if fmt == "csv":
        assert out == _reference_csv(cli.SWEEP_COLUMNS, rows)
    else:
        assert out == json.dumps({"rows": rows}, indent=2, default=str) + "\n"


def _simulate_cases():
    rng = np.random.default_rng(7)
    for n in range(1, 13):
        for bits in sorted({"1" * n, "".join(map(str, rng.integers(0, 2, n)))}):
            for K in sorted({n, max(1, n - 2), 1}):
                yield n, bits, K


@pytest.mark.parametrize("n, bits, K", list(_simulate_cases()))
def test_simulate_matches_row_writer(capsys, n, bits, K):
    program = circ.build_qft_program(n, K)
    final = circ.simulate_program(program, circ.QuantumState.basis(n, [int(b) for b in bits]))
    rows = [
        {"index": i, "basis": format(i, f"0{n + 1}b"), "re": float(a.real), "im": float(a.imag)}
        for i, a in enumerate(final.data)
    ]
    argv = ["simulate", "--n", str(n), "--input", bits, "--cutoff", str(K)]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == _reference_csv(["index", "basis", "re", "im"], rows)
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps({"rows": rows}, indent=2, default=str) + "\n"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--n", "16", "--input", "1011001110001011"],
            "3b2454958eef8b31d87d2e090eb94c9604074f0187376d63d6325d95bd3402f8",
        ),
        (
            ["--n", "5", "--input", "10110", "--noise", "--cooperativity", "57.62"],
            "0c0721faeabf80c48189f997d6164d224d48ef8465c159a65b56540d0a72a001",
        ),
    ],
)
def test_simulate_output_digest(capsys, argv, digest):
    # SHA-256 of the output of the row-by-row writer, before the column-wise one
    code, out = run_cli(capsys, "simulate", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
