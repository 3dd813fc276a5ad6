"""Command-line interface: output formats, exit codes, determinism."""
import json
import math
from pathlib import Path

import pytest

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
