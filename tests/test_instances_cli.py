import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stickygas
from stickygas.cli import _fmt, _write_csv, main
from stickygas.errors import InstanceFormatError, NonPositiveMass
from stickygas.instances import (
    instance_document,
    load_instance,
    parse_instance,
    random_instance,
)

HEAD_ON = """
{
  "particles": [
    {"x": 0.0, "m": 1.0, "v": 1.0, "theta": 0.0},
    {"x": 1.0, "m": 1.0, "v": 0.0, "theta": 0.0}
  ],
  "t_end": 3.0
}
"""


class TestInstanceFormat:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(3)
        data = random_instance(rng, 8)
        text = instance_document(data, t_end=2.5, seed=3)
        back = parse_instance(text)
        assert np.array_equal(back.data.positions, data.positions)
        assert np.array_equal(back.data.masses, data.masses)
        assert np.array_equal(back.data.velocities, data.velocities)
        assert np.array_equal(back.data.accelerations, data.accelerations)
        assert back.t_end == 2.5 and back.seed == 3

    def test_unknown_top_level_key(self):
        with pytest.raises(InstanceFormatError, match="unknown top-level"):
            parse_instance('{"particles": [], "extra": 1}')

    def test_unknown_particle_key(self):
        with pytest.raises(InstanceFormatError, match="unknown keys"):
            parse_instance('{"particles": [{"x": 0, "m": 1, "v": 0, "theta": 0, "q": 1}]}')

    def test_missing_particle_key(self):
        with pytest.raises(InstanceFormatError, match="missing keys"):
            parse_instance('{"particles": [{"x": 0, "m": 1, "v": 0}]}')

    def test_bad_json_reports_line(self):
        with pytest.raises(InstanceFormatError, match="line 2"):
            parse_instance('{\n  "particles": oops\n}')

    def test_validation_errors_propagate(self):
        with pytest.raises(NonPositiveMass):
            parse_instance('{"particles": [{"x": 0, "m": 0, "v": 0, "theta": 0}]}')

    def test_tolerance_override(self):
        inst = parse_instance(
            '{"particles": [{"x": 0, "m": 1, "v": 0, "theta": 0}],'
            ' "tolerances": {"abs": 1e-7}}')
        assert inst.tolerances.abs_tol == 1e-7
        assert inst.tolerances.rel_tol == 1e-12

    @pytest.mark.parametrize("field", ['"t_end": {}', '"tolerances": {{"abs": {}}}',
                                       '"tolerances": {{"rel": {}}}'])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_settings_rejected(self, field, bad):
        text = ('{"particles": [{"x": 0, "m": 1, "v": 0, "theta": 0}], '
                + field.format(bad) + "}")
        with pytest.raises(InstanceFormatError, match="finite"):
            parse_instance(text)


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(HEAD_ON)
    return path


class TestCli:
    def test_simulate_writes_events_and_trajectory(self, instance_file, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", str(instance_file), "--out-dir", str(out),
                     "--samples", "16"]) == 0
        events = (out / "events.csv").read_text().splitlines()
        assert events[0].startswith("time,left_index,right_index")
        assert len(events) == 2 and events[1].startswith("1,0,1,0-0;1-1,2,0,0.5,1")
        trajectory = (out / "trajectory.csv").read_text().splitlines()
        assert trajectory[0] == "t,x0,x1,v0,v1,theta0,theta1"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"

    def test_simulate_is_byte_deterministic(self, instance_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", str(instance_file), "--out-dir", str(out1)])
        main(["simulate", str(instance_file), "--out-dir", str(out2)])
        for name in ("events.csv", "trajectory.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_gvp_match(self, instance_file, tmp_path):
        out = tmp_path / "out"
        assert main(["gvp", str(instance_file), "--times", "0.0,0.5,2.0",
                     "--out-dir", str(out)]) == 0
        report = (out / "gvp_report.csv").read_text()
        assert report.count("MATCH") == 3 and "MISMATCH" not in report

    def test_gvp_rejects_increasing_acceleration(self, tmp_path, capsys):
        path = tmp_path / "incr.json"
        path.write_text('{"particles": [{"x": 0, "m": 1, "v": 2, "theta": 0},'
                        ' {"x": 1, "m": 1, "v": 0, "theta": 1}]}')
        assert main(["gvp", str(path), "--times", "1.0",
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "non-increasing" in capsys.readouterr().err

    def test_gas_window(self, instance_file, tmp_path):
        out = tmp_path / "out"
        assert main(["gas", str(instance_file), "--window", "0.5:1.5",
                     "--out-dir", str(out)]) == 0
        vel = (out / "velocity_residuals.csv").read_text().splitlines()
        header = vel[0].split(",")
        i_jump = header.index("jump")
        i_nojump = header.index("residual_without_jumps")
        jumps = [float(row.split(",")[i_jump]) for row in vel[1:]]
        nojumps = [float(row.split(",")[i_nojump]) for row in vel[1:]]
        assert any(abs(j) > 1e-3 for j in jumps)  # the shock is visible
        assert all(abs(j - nj) <= 1e-8 for j, nj in zip(jumps, nojumps))
        assert (out / "position_residuals.csv").exists()
        assert (out / "congestion.csv").exists()

    def test_gas_bad_window(self, instance_file, tmp_path, capsys):
        assert main(["gas", str(instance_file), "--window", "nope",
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_dermoune(self, instance_file, tmp_path):
        out = tmp_path / "out"
        assert main(["dermoune", str(instance_file), "--times", "0.5,2.0",
                     "--out-dir", str(out)]) == 0
        rows = (out / "dermoune.csv").read_text().splitlines()
        assert all(row.endswith("true") for row in rows[1:])

    def test_fuzz_clean_run(self, tmp_path):
        out = tmp_path / "out"
        assert main(["fuzz", "--count", "4", "--seed", "11", "--n-max", "8",
                     "--out-dir", str(out)]) == 0
        rows = (out / "fuzz_summary.csv").read_text().splitlines()
        assert len(rows) == 5 and all(row.endswith(",") for row in rows[1:])

    def test_fuzz_injection_is_detected(self, tmp_path):
        out = tmp_path / "out"
        assert main(["fuzz", "--count", "3", "--seed", "11", "--n-max", "8",
                     "--out-dir", str(out), "--inject-failure"]) == 1
        summary = (out / "fuzz_summary.csv").read_text()
        assert "conservation:" in summary
        repro = sorted(out.glob("failure_*.json"))
        assert repro and load_instance(repro[0]).data.n >= 2

    def test_malformed_instance_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"particles": [{"x": 0, "m": 0, "v": 1, "theta": 0}]}')
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "NonPositiveMass" in capsys.readouterr().err

    def test_non_finite_instance_exit_code(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"particles": [{"x": 0, "m": 1, "v": NaN, "theta": 0}]}')
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "NonFiniteValue" in capsys.readouterr().err
        path.write_text(HEAD_ON.replace('"t_end": 3.0', '"t_end": Infinity'))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("flag", ["--t-end", "--tol-abs", "--tol-rel"])
    def test_non_finite_flag_exit_code(self, instance_file, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(instance_file), "--out-dir", str(tmp_path / "o"),
                  flag, "nan"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["gvp", "dermoune"])
    @pytest.mark.parametrize("times", ["1.0,abc", "x", "0.5,", "nan", "0.5,inf"])
    def test_bad_times_exit_code(self, instance_file, tmp_path, capsys, command, times):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, str(instance_file), "--times", times, "--out-dir", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--times" in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path / "o")]) == 2


def test_csv_float_rows_format_like_fmt(tmp_path):
    rows = [
        [-0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, 1.0 / 3.0, np.float64(2.5)],
        [1.5, True, False, 7, -0.0, "a-b", np.float64(-0.0), np.float64(math.nan)],
        [],
    ]
    path = tmp_path / "t.csv"
    _write_csv(path, ["h"], rows)
    expected = "\n".join(["h"] + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"
    assert path.read_bytes() == expected.encode()


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(stickygas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, stickygas.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"
