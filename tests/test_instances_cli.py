import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stickygas
from stickygas import simulate, validate
from stickygas.cli import _fmt, _write_csv, main
from stickygas.errors import InstanceFormatError, NonPositiveMass
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

    @pytest.mark.parametrize("window", ["1:inf", "nan:1", "1:", "a:b", "-inf:1", "1:2:3"])
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


class TestTrajectoryWriter:
    """The per-life trajectory.csv must equal the old per-particle matrix."""

    def check(self, tmp_path, data):
        path = tmp_path / "inst.json"
        path.write_text(instance_document(data))
        timeline = simulate(load_instance(path).data)
        out = tmp_path / "out"
        for t_end in t_end_cases(timeline.event_times):
            for samples in (0, 1, 16):
                flags = ["--samples", str(samples)]
                if t_end is not None:
                    flags += ["--t-end", repr(t_end)]
                assert main(["simulate", str(path), "--out-dir", str(out), *flags]) == 0
                used = json.loads((out / "manifest.json").read_text())["parameters"]["t_end"]
                assert t_end is None or used == t_end
                expected = old_trajectory_csv(timeline, used, samples)
                assert (out / "trajectory.csv").read_bytes() == expected, (t_end, samples)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_instances(self, tmp_path, seed):
        rng = np.random.default_rng(seed + 6000)
        self.check(tmp_path, random_instance(rng, 30, admissible=seed % 2 == 0))

    @pytest.mark.parametrize("seed", range(20))
    def test_lattice_pile_ups(self, tmp_path, seed):
        # integer data: exactly simultaneous merges, multi-member lives
        self.check(tmp_path, lattice_instance(seed, 25))

    def test_coincident_paths(self, tmp_path):
        # paths coincide at t=0: the first segment has zero length
        touching = validate([0.0, 5e-10, 3.0], [1.0, 1.0, 1.0], [0.0, 0.0, -1.0],
                            [0.0, 0.0, 0.0])
        assert simulate(touching).bounds[:2] == (0.0, 0.0)
        self.check(tmp_path, touching)

    def test_negative_zeros(self, tmp_path):
        data = validate([-0.0, 0.5, 1.0, 2.0], [1.0, 2.0, 1.0, 0.5], [-0.0, 0.0, -0.5, -0.0],
                        [-0.0, -0.0, -0.0, -1.0])
        self.check(tmp_path, data)

    def test_memory_stays_below_the_matrix_writer(self, tmp_path):
        # random family, N=200: the (rows x 3N+1) matrix writer peaked at
        # 21.2 MB of traced allocations, the per-life writer at 7.1 MB, for a
        # 4.5 MB trajectory.csv
        data = random_instance(np.random.default_rng(0), 200, n_min=200)
        path = tmp_path / "inst.json"
        path.write_text(instance_document(data))
        argv = ["simulate", str(path), "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0  # first call: caches and lazy imports
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(stickygas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_import_leaves_scipy_unloaded(instance_file, tmp_path):
    code = ("import sys, stickygas.cli\n"
            "before = 'scipy' in sys.modules\n"
            f"rc = stickygas.cli.main(['gas', {str(instance_file)!r}, '--window', '0.5:1.5',"
            f" '--out-dir', {str(tmp_path / 'out')!r}])\n"
            "print(before, rc, 'scipy' in sys.modules)")
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False 0 False"


def test_fuzz_with_oracle_leaves_numpy_ma_unloaded(tmp_path):
    code = ("import sys\n"
            "from stickygas.cli import main\n"
            "before = 'numpy.ma' in sys.modules\n"
            f"rc = main(['fuzz', '--count', '3', '--with-oracle', '--out-dir', {str(tmp_path)!r}])\n"
            "print(before, rc, 'numpy.ma' in sys.modules)")
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "False 0 False"


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
