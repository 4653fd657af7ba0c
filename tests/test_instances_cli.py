import json
import math
import multiprocessing
import os
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stickygas
from stickygas import cli, simulate, validate
from stickygas.cli import _fmt, _write_csv, main
from stickygas.errors import InstanceFormatError, NonPositiveMass, SamplingExhausted
from stickygas.instances import (
    instance_document,
    load_instance,
    parse_instance,
    random_instance,
)
from stickygas.tolerances import Tolerances
from tests.conftest import lattice_instance

HEAD_ON = """
{
  "particles": [
    {"x": 0.0, "m": 1.0, "v": 1.0, "theta": 0.0},
    {"x": 1.0, "m": 1.0, "v": 0.0, "theta": 0.0}
  ],
  "t_end": 3.0
}
"""

# random_instance(np.random.default_rng(265), 12), n = 10
GVP_TOL_CASE = """
{
  "particles": [
    {"x": 0.3997595271966137, "m": 0.5758771243756396, "v": 0.0931188962734417, "theta": 1.9905000272298035},
    {"x": 0.8933621870404462, "m": 0.5894306823593027, "v": -0.5299073315990406, "theta": 1.2009345787362207},
    {"x": 1.8060638683048902, "m": 0.22319590628075978, "v": -1.8061047236775092, "theta": 1.0009917436925593},
    {"x": 2.0398139377671765, "m": 0.9161096165110336, "v": -2.4007369980557365, "theta": 0.8257066615703299},
    {"x": 2.511850380870928, "m": 0.17910096081081864, "v": -1.4807437522074003, "theta": 0.7358011365932358},
    {"x": 4.410494783699952, "m": 0.6344622268301108, "v": 1.0607022923529452, "theta": 0.45327733419402444},
    {"x": 7.317289878389644, "m": 0.5606010995693286, "v": 0.31518654397646184, "theta": 0.13600054575627896},
    {"x": 7.812116188516033, "m": 1.544900788436716, "v": -0.7533658568246134, "theta": -0.5356698659231309},
    {"x": 8.075506568158259, "m": 9.857265045820766, "v": -2.268675842075059, "theta": -1.2777726832039706},
    {"x": 8.090666547141826, "m": 9.15989915502962, "v": 0.6087087755851013, "theta": -2.349544550164041}
  ]
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

    @pytest.mark.parametrize("bad", ['"0.5"', "true", "false", "null", "[1]"])
    @pytest.mark.parametrize("key", ["x", "m", "v", "theta"])
    def test_particle_field_must_be_a_number(self, key, bad):
        """A string or a boolean used to load through float(): "0.5" as 0.5,
        true as 1.0."""
        particle = {"x": "0", "m": "1", "v": "0", "theta": "0"}  # JSON text per key
        particle[key] = bad
        text = '{"particles": [{%s}]}' % ", ".join(f'"{k}": {v}' for k, v in particle.items())
        with pytest.raises(InstanceFormatError, match=f"field '{key}' must be a number"):
            parse_instance(text)

    @pytest.mark.parametrize("bad", ['"2"', "true", "false", "[2]", "{}"])
    @pytest.mark.parametrize("field", ['"t_end": {}', '"tolerances": {{"abs": {}}}',
                                       '"tolerances": {{"rel": {}}}'])
    def test_setting_must_be_a_number(self, field, bad):
        """`"t_end": "2"` used to load as 2.0 and `"abs": false` as 0.0."""
        text = ('{"particles": [{"x": 0, "m": 1, "v": 0, "theta": 0}], '
                + field.format(bad) + "}")
        with pytest.raises(InstanceFormatError, match="must be a number"):
            parse_instance(text)

    @pytest.mark.parametrize("bad", ["true", "false", "1.0", '"3"'])
    def test_seed_must_be_an_integer(self, bad):
        """`"seed": true` used to be kept as True (bool is an int)."""
        text = '{"particles": [{"x": 0, "m": 1, "v": 0, "theta": 0}], "seed": %s}' % bad
        with pytest.raises(InstanceFormatError, match="`seed` must be an integer"):
            parse_instance(text)

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_oversized_integer_literal_rejected(self, digits):
        """Past binary64 float() overflows, and past 4300 digits json.loads
        itself refuses the literal; both used to escape as tracebacks."""
        text = '{"particles": [{"x": 1%s, "m": 1, "v": 0, "theta": 0}]}' % ("0" * digits)
        with pytest.raises(InstanceFormatError):
            parse_instance(text)

    @pytest.mark.parametrize("key", ["abs", "rel"])
    def test_negative_tolerance_rejected(self, key):
        text = '{"particles": [{"x": 0, "m": 1, "v": 0, "theta": 0}], "tolerances": {"%s": %s}}'
        with pytest.raises(InstanceFormatError, match="non-negative"):
            parse_instance(text % (key, "-1e-9"))
        assert parse_instance(text % (key, "0")).tolerances == Tolerances(
            **{f"{key}_tol": 0.0})


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
        assert report.splitlines()[0] == "time,verdict,simulated,reconstructed,tie_indices"
        assert report.count("MATCH") == 3 and "MISMATCH" not in report

    def test_gvp_rejects_increasing_acceleration(self, tmp_path, capsys):
        path = tmp_path / "incr.json"
        path.write_text('{"particles": [{"x": 0, "m": 1, "v": 2, "theta": 0},'
                        ' {"x": 1, "m": 1, "v": 0, "theta": 1}]}')
        assert main(["gvp", str(path), "--times", "1.0",
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "non-increasing" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_gvp_rejects_unresolvable_prefix_masses(self, tmp_path, capsys):
        """pm[2] - pm[1] is 0 in binary64: no margin can be formed."""
        path = tmp_path / "masses.json"
        path.write_text('{"particles": [{"x": 0, "m": 1e20, "v": 0, "theta": 0},'
                        ' {"x": 1, "m": 1e-10, "v": 0, "theta": 0},'
                        ' {"x": 2, "m": 1, "v": -1, "theta": 0}]}')
        assert main(["gvp", str(path), "--times", "0.5",
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "PreconditionViolated" in capsys.readouterr().err
        assert not (tmp_path / "o" / "gvp_report.csv").exists()

    def test_gvp_simulates_at_the_given_tolerances(self, tmp_path):
        """random_instance(default_rng(265), 12): at abs_tol 0.01 the run
        merges 0-0, 1-1 and 2-3 in one event at t = 0.5795, which the
        variational cut at 0.585 does not reproduce."""
        path = tmp_path / "rng265.json"
        path.write_text(GVP_TOL_CASE)
        out = tmp_path / "out"
        assert main(["gvp", str(path), "--tol-abs", "0.01", "--times", "0.585",
                     "--out-dir", str(out)]) == 1
        (row,) = (out / "gvp_report.csv").read_text().splitlines()[1:]
        _, verdict, simulated, reconstructed, _ = row.split(",")
        assert (verdict, simulated) == ("MISMATCH", "0-3|4-4|5-5|6-8|9-9")
        assert reconstructed == "0-1|2-3|4-4|5-5|6-8|9-9"
        assert main(["simulate", str(path), "--tol-abs", "0.01", "--samples", "2",
                     "--out-dir", str(tmp_path / "sim")]) == 0
        events = (tmp_path / "sim" / "events.csv").read_text().splitlines()
        assert events[4].startswith("0.579484200643681,0,3,0-0;1-1;2-3,")

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

    def test_gas_congestion_rows_without_the_law(self, monkeypatch, tmp_path):
        """The designed pair's velocities meet once, at t = 1: one row, and
        the command builds the velocity law at no time."""
        def no_law(*args):
            raise AssertionError("velocity_space_fields called")

        monkeypatch.setattr(stickygas.gas, "velocity_space_fields", no_law)
        path = tmp_path / "pair.json"
        path.write_text(instance_document(validate([0.0, 10.0], [1.0, 1.0], [0.0, 1.0],
                                                   [1.0, 0.0])))
        out = tmp_path / "out"
        assert main(["gas", str(path), "--window", "0.5:2", "--out-dir", str(out)]) == 0
        assert (out / "congestion.csv").read_text().splitlines() == [
            "t,velocity,weight,w,a", "1,1,1,0.5,0.25"]

    def test_manifest_bytes_match_the_instance_document(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('''{"particles": [
            {"x": -0.0, "m": 0.30000000000000004, "v": -0.0, "theta": 1.3333333333333333},
            {"x": 0.1, "m": 2.0, "v": -0.0, "theta": -0.0},
            {"x": 1.0000000000000002, "m": 1e-05, "v": -1.2345678901234567, "theta": -0.0}],
            "t_end": 2.0000000000000004, "seed": 7}''')
        inst = load_instance(path)
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out-dir", str(out), "--samples", "4"]) == 0
        # the manifest as first built: the instance text parsed back and dumped again
        doc = {
            "command": "simulate",
            "instance": json.loads(instance_document(inst.data, inst.t_end, inst.seed)),
            "parameters": {"t_end": 2.0000000000000004, "samples": 4,
                           "tol_abs": Tolerances().abs_tol, "tol_rel": Tolerances().rel_tol},
            "outputs": ["events.csv", "trajectory.csv"],
        }
        expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert (out / "manifest.json").read_bytes() == expected.encode()
        assert '"x": -0.0' in expected and "0.30000000000000004" in expected

    def test_gas_bad_window(self, instance_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gas", str(instance_file), "--window", "nope",
                  "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("window", ["1:inf", "nan:1", "1:", "a:b", "-inf:1", "1:2:3",
                                        "1:0.5", "0:1", "1:1"])
    def test_non_finite_window_exit_code(self, instance_file, tmp_path, capsys, window):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["gas", str(instance_file), "--window", window, "--out-dir", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--window" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["-1", "-200", "x", "1.5"])
    def test_bad_samples_exit_code(self, instance_file, tmp_path, capsys, samples):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(instance_file), "--samples", samples, "--out-dir", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--samples" in err and "Traceback" not in err
        assert not out.exists()

    def test_zero_samples_writes_only_event_rows(self, instance_file, tmp_path):
        out = tmp_path / "o"
        assert main(["simulate", str(instance_file), "--samples", "0",
                     "--out-dir", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[1:] == ["1,1,1,0.5,0.5,0,0"]  # the one shock, at t=1

    @pytest.mark.parametrize("n_max", ["1", "0", "-4", "two"])
    def test_bad_n_max_exit_code(self, tmp_path, capsys, n_max):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--count", "2", "--n-max", n_max, "--out-dir", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--n-max" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-3", "two"])
    def test_bad_count_exit_code(self, tmp_path, capsys, count):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", f"--count={count}", "--out-dir", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--count" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-5", "-1", "x"])
    def test_bad_seed_exit_code(self, tmp_path, capsys, seed):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--count", "1", f"--seed={seed}", "--out-dir", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        assert not out.exists()

    def test_zero_seed_accepted(self, tmp_path):
        assert main(["fuzz", "--count", "1", "--seed", "0", "--n-max", "3",
                     "--out-dir", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
    def test_fuzz_has_no_tolerance_flags(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--count", "1", flag, "1e-9", "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_smallest_n_max(self, tmp_path):
        assert main(["fuzz", "--count", "3", "--n-max", "2",
                     "--out-dir", str(tmp_path / "o")]) == 0

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

    @pytest.mark.parametrize("t_end", ["-1", "-1e-300", "-0.5"])
    def test_negative_t_end_flag_writes_nothing(self, instance_file, tmp_path, t_end):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            # "=" keeps argparse from reading "-1e-300" as an option
            main(["simulate", str(instance_file), "--out-dir", str(out), f"--t-end={t_end}"])
        assert exc.value.code == 2
        assert not (out / "events.csv").exists()

    @pytest.mark.parametrize("t_end", ["-1", "-1e-300"])
    def test_negative_instance_t_end_writes_nothing(self, tmp_path, capsys, t_end):
        path = tmp_path / "inst.json"
        path.write_text(HEAD_ON.replace('"t_end": 3.0', f'"t_end": {t_end}'))
        out = tmp_path / "o"
        assert main(["simulate", str(path), "--out-dir", str(out)]) == 2
        assert "InstanceFormatError" in capsys.readouterr().err
        assert not (out / "events.csv").exists()

    def test_zero_t_end_accepted(self, instance_file, tmp_path):
        out = tmp_path / "o"
        assert main(["simulate", str(instance_file), "--out-dir", str(out),
                     "--t-end", "0", "--samples", "2"]) == 0
        assert (out / "trajectory.csv").read_text().count("\n") == 2

    @pytest.mark.parametrize("flag", ["--t-end", "--tol-abs", "--tol-rel"])
    def test_non_finite_flag_exit_code(self, instance_file, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(instance_file), "--out-dir", str(tmp_path / "o"),
                  flag, "nan"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
    def test_negative_tolerance_flag_writes_nothing(self, instance_file, tmp_path, capsys, flag):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(instance_file), "--out-dir", str(out), f"{flag}=-1e-9"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["abs", "rel"])
    def test_negative_instance_tolerance_writes_nothing(self, tmp_path, capsys, key):
        # equal accelerations: a negative abs tolerance used to end in a
        # ZeroDivisionError traceback (exit 1), and loops forever otherwise
        path = tmp_path / "inst.json"
        path.write_text(HEAD_ON.replace('"t_end": 3.0', f'"tolerances": {{"{key}": -1e-9}}'))
        out = tmp_path / "o"
        assert main(["simulate", str(path), "--out-dir", str(out)]) == 2
        assert "InstanceFormatError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new", [('"x": 0.0', '"x": "0.0"'), ('"m": 1.0', '"m": true'),
                                          ('"t_end": 3.0', '"t_end": "3"'),
                                          ('"t_end": 3.0', '"tolerances": {"abs": false}'),
                                          ('"t_end": 3.0', '"seed": true')])
    def test_non_numeric_instance_value_writes_nothing(self, tmp_path, capsys, old, new):
        path = tmp_path / "inst.json"
        path.write_text(HEAD_ON.replace(old, new, 1))
        out = tmp_path / "o"
        assert main(["simulate", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "InstanceFormatError" in err and "Traceback" not in err
        assert not out.exists()

    def test_zero_tolerance_flags_accepted(self, instance_file, tmp_path):
        out = tmp_path / "o"
        assert main(["simulate", str(instance_file), "--out-dir", str(out),
                     "--tol-abs", "0", "--tol-rel", "0", "--samples", "2"]) == 0
        params = json.loads((out / "manifest.json").read_text())["parameters"]
        assert (params["tol_abs"], params["tol_rel"]) == (0.0, 0.0)

    @pytest.mark.parametrize("command", ["gvp", "dermoune"])
    @pytest.mark.parametrize("times", ["1.0,abc", "x", "0.5,", "nan", "0.5,inf", "-1",
                                       "0.5,-1e-300"])
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


def old_trajectory_csv(timeline, t_end, samples) -> bytes:
    """trajectory.csv as `simulate` built it before the per-life writer: one
    (rows x 3N+1) float matrix from the per-particle samples, each cell
    through _fmt, the lines joined into one string."""
    ts = sorted(set(np.linspace(0.0, t_end, samples).tolist())
                | {s for s in timeline.event_times if s <= t_end})
    n = timeline.initial.n
    theta = np.array([timeline.accelerations_at(t) for t in ts]).reshape(len(ts), n)
    rows = np.column_stack([ts, timeline.sample_positions(ts),
                            timeline.sample_velocities(ts), theta]).tolist()
    header = (["t"] + [f"x{j}" for j in range(n)] + [f"v{j}" for j in range(n)]
              + [f"theta{j}" for j in range(n)])
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def t_end_cases(times) -> list:
    """No --t-end, then one before the first event, one inside a segment and
    one past the last event."""
    if not times:
        return [None, 1.0, 2.0, 3.0]
    mid = len(times) // 2
    inside = 0.5 * (times[mid - 1] + times[mid]) if mid else times[0] + 0.5
    return [None, 0.5 * times[0], inside, times[-1] + 1.0]


ROW_BLOCKS = [1, 7, cli._ROW_BLOCK]


class TestTrajectoryWriter:
    """The per-life trajectory.csv must equal the old per-particle matrix,
    whatever the row block: a block of 1 or 7 rows splits most lives."""

    def check(self, monkeypatch, tmp_path, data, samples_cases=(0, 1, 16)):
        path = tmp_path / "inst.json"
        path.write_text(instance_document(data))
        timeline = simulate(load_instance(path).data)
        out = tmp_path / "out"
        for t_end in t_end_cases(timeline.event_times):
            for samples in samples_cases:
                flags = ["--samples", str(samples)]
                if t_end is not None:
                    flags += ["--t-end", repr(t_end)]
                for block in ROW_BLOCKS:
                    monkeypatch.setattr(cli, "_ROW_BLOCK", block)
                    assert main(["simulate", str(path), "--out-dir", str(out), *flags]) == 0
                    used = json.loads((out / "manifest.json").read_text())["parameters"]["t_end"]
                    assert t_end is None or used == t_end
                    expected = old_trajectory_csv(timeline, used, samples)
                    assert (out / "trajectory.csv").read_bytes() == expected, (
                        t_end, samples, block)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_instances(self, monkeypatch, tmp_path, seed):
        rng = np.random.default_rng(seed + 6000)
        self.check(monkeypatch, tmp_path, random_instance(rng, 30, admissible=seed % 2 == 0))

    @pytest.mark.parametrize("seed", range(20))
    def test_lattice_pile_ups(self, monkeypatch, tmp_path, seed):
        # integer data: exactly simultaneous merges, multi-member lives
        self.check(monkeypatch, tmp_path, lattice_instance(seed, 25))

    def test_coincident_paths(self, monkeypatch, tmp_path):
        # paths coincide at t=0: the first segment has zero length
        touching = validate([0.0, 5e-10, 3.0], [1.0, 1.0, 1.0], [0.0, 0.0, -1.0],
                            [0.0, 0.0, 0.0])
        assert simulate(touching).bounds[:2] == (0.0, 0.0)
        self.check(monkeypatch, tmp_path, touching)

    def test_negative_zeros(self, monkeypatch, tmp_path):
        data = validate([-0.0, 0.5, 1.0, 2.0], [1.0, 2.0, 1.0, 0.5], [-0.0, 0.0, -0.5, -0.0],
                        [-0.0, -0.0, -0.0, -1.0])
        self.check(monkeypatch, tmp_path, data)

    @pytest.mark.parametrize("seed", range(3))
    def test_default_blocks_split_lives(self, monkeypatch, tmp_path, seed):
        # more rows than two default blocks, so lives cross block ends at
        # every block size
        samples = 2 * cli._ROW_BLOCK + 3
        data = random_instance(np.random.default_rng(seed + 6200), 12, n_min=12)
        self.check(monkeypatch, tmp_path, data, samples_cases=(samples,))

    def test_memory_stays_below_the_matrix_writer(self, tmp_path):
        # random family, N=200, traced allocations.  --samples 200: about 400
        # rows, a 4.5 MB trajectory.csv; the (rows x 3N+1) matrix writer
        # peaked at 21.2 MB, the per-life writer at 7.1 MB.  --samples 2000:
        # about 2,200 rows, a 24.7 MB trajectory.csv; the per-life writer
        # that built every row before the first line peaked at 31.7 MB.  The
        # row-block writer peaks at 3.6 and 4.1 MB.
        data = random_instance(np.random.default_rng(0), 200, n_min=200)
        path = tmp_path / "inst.json"
        path.write_text(instance_document(data))
        for samples in (200, 2000):
            argv = ["simulate", str(path), "--out-dir", str(tmp_path / "out"),
                    "--samples", str(samples)]
            assert main(argv) == 0  # first call: caches and lazy imports
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 12 * 2**20, samples


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(stickygas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


class TestEventRows:
    """events.csv reads each merged cluster's velocity and position off its
    path at the event time: the cells trajectory.csv prints for its left
    member in the row of that time."""

    def check(self, tmp_path, data):
        path = tmp_path / "inst.json"
        path.write_text(instance_document(data))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out-dir", str(out), "--samples", "0"]) == 0
        rows = {}
        for line in (out / "trajectory.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            rows[cells[0]] = cells
        events = (out / "events.csv").read_text().splitlines()[1:]
        assert events
        for line in events:
            time, left, *_, velocity, position = line.split(",")
            row = rows[time]
            j = int(left)
            assert (velocity, position) == (row[1 + data.n + j], row[1 + j]), line

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, tmp_path, seed):
        self.check(tmp_path, random_instance(np.random.default_rng(seed + 6100), 40))

    @pytest.mark.parametrize("seed", range(5))
    def test_lattice_pile_ups(self, tmp_path, seed):
        self.check(tmp_path, lattice_instance(seed, 25))


def test_cli_import_leaves_scipy_unloaded(instance_file, tmp_path):
    # multiprocessing is imported by fuzz alone, when it starts workers
    code = ("import sys, stickygas.cli\n"
            "before = [name in sys.modules for name in ('scipy', 'multiprocessing')]\n"
            f"rc = stickygas.cli.main(['gas', {str(instance_file)!r}, '--window', '0.5:1.5',"
            f" '--out-dir', {str(tmp_path / 'out')!r}])\n"
            "print(*before, rc, *[name in sys.modules for name in ('scipy', 'multiprocessing')])")
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False False 0 False False"


def test_fuzz_with_oracle_leaves_numpy_ma_unloaded(tmp_path):
    # checked in the parent and in each worker process, after its oracle runs
    log = tmp_path / "workers.log"
    code = ("import os, sys\n"
            "from stickygas import cli\n"
            "suites = cli.run_instance_suites\n"
            "def logged(*args, **kwargs):\n"
            "    results = suites(*args, **kwargs)\n"
            f"    with open({str(log)!r}, 'a') as fh:\n"
            "        print(os.getpid(), results[-1].name, 'numpy.ma' in sys.modules, file=fh)\n"
            "    return results\n"
            "cli.run_instance_suites = logged\n"
            "cli._usable_cpus = lambda: 2\n"
            "before = 'numpy.ma' in sys.modules\n"
            "rc = cli.main(['fuzz', '--count', '3', '--with-oracle', '--out-dir',"
            f" {str(tmp_path / 'out')!r}])\n"
            "print(os.getpid(), before, rc, 'numpy.ma' in sys.modules)")
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
    parent, *verdict = result.stdout.strip().splitlines()[-1].split()
    assert verdict == ["False", "0", "False"]
    lines = [line.split() for line in log.read_text().splitlines()]
    assert len(lines) == 3
    assert all(pid != parent and rest == ["oracle-equivalence", "False"]
               for pid, *rest in lines)


class TestFuzzWorkers:
    """fuzz shares its instances out over forked worker processes.  Whatever
    their number, it writes the bytes of the in-process run, reports an error
    raised inside an instance as it does in process, and leaves no process
    behind."""

    BATCHES = {
        "oracle": ["--count", "9", "--seed", "11", "--n-max", "8", "--with-oracle"],
        "injected": ["--count", "7", "--seed", "11", "--n-max", "8", "--inject-failure"],
    }

    @staticmethod
    def run(monkeypatch, tmp_path, workers, argv):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        out = tmp_path / f"w{workers}"
        code = main(["fuzz", *argv, "--out-dir", str(out)])
        assert multiprocessing.active_children() == []
        return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.fixture(scope="class")
    def in_process(self, tmp_path_factory):
        with pytest.MonkeyPatch.context() as mp:
            # one CPU: no pool is made
            mp.setattr(multiprocessing, "get_context", None)
            return {name: self.run(mp, tmp_path_factory.mktemp(name), 1, argv)
                    for name, argv in self.BATCHES.items()}

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_outputs_equal_the_in_process_run(self, monkeypatch, tmp_path, in_process,
                                              workers, batch):
        got = self.run(monkeypatch, tmp_path, workers, self.BATCHES[batch])
        assert got == in_process[batch]

    def test_the_batches_pass_and_fail(self, in_process):
        code, files = in_process["oracle"]
        assert code == 0 and "oracle-equivalence" in files["fuzz_summary.csv"].decode()
        code, files = in_process["injected"]
        assert code == 1 and sum(name.startswith("failure_") for name in files) >= 2

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_error_inside_an_instance(self, monkeypatch, tmp_path, capsys, workers):
        suites = cli.run_instance_suites

        def failing(data, rng, **kwargs):
            if data.n == 5:
                raise SamplingExhausted("no admissible sample time")
            return suites(data, rng, **kwargs)

        monkeypatch.setattr(cli, "run_instance_suites", failing)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        assert main(["fuzz", "--count", "12", "--seed", "11", "--n-max", "8",
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "SamplingExhausted: no admissible sample time" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_one_worker_per_instance_at_most(self, monkeypatch, tmp_path):
        # four CPUs but one instance: no pool is made
        monkeypatch.setattr(multiprocessing, "get_context", None)
        code, files = self.run(monkeypatch, tmp_path, 4, ["--count", "1", "--n-max", "3"])
        assert code == 0 and len(files["fuzz_summary.csv"].splitlines()) == 2


def test_gas_runs_without_scipy(tmp_path):
    data = random_instance(np.random.default_rng(5), 10)
    path = tmp_path / "inst.json"
    path.write_text(instance_document(data))
    shocks = simulate(data).event_times
    window = f"{0.5 * shocks[0]!r}:{1.2 * shocks[-1]!r}"
    out = tmp_path / "out"
    code = ("import sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now fails\n"
            "from stickygas.cli import main\n"
            f"sys.exit(main(['gas', {str(path)!r}, '--window', {window!r},"
            f" '--out-dir', {str(out)!r}]))")
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
    for name in ("position_residuals.csv", "velocity_residuals.csv"):
        rows = (out / name).read_text().splitlines()[1:]
        assert len(rows) == 6
        assert all(row.endswith(",true") for row in rows)


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_congestion_demo_runs(capsys):
    runpy.run_path(str(SCRIPTS / "congestion_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "velocity coincidences: [1.0]" in out
    assert "a=0.2500" in out


def test_two_parabola_cases_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["two_parabola_cases.py", "--count", "5",
                                      "--out-dir", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / "two_parabola_cases.py"), run_name="__main__")
    for name in ("two_crossings.csv", "one_crossing.csv"):
        rows = (tmp_path / name).read_text().splitlines()
        assert len(rows) == 6
