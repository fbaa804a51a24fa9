"""Command line interface: exit codes, output files, and printed results
for all five subcommands, driven through main(argv)."""

import re
from dataclasses import replace

import pytest

from patchslide import bundled_scenario_text, read_trajectory, resolve_scenario, serialize_scenario
from patchslide.cli import main

TRANSLATE_YAML = """
slider: {m: 0.5, I_z: 5.0e-4, q_z: 0.08}
friction: {mu: 0.31, e_t: 1.0, e_o: 1.0, e_r: 0.01}
patch:
  type: polygon
  vertices: [[-0.025, -0.025], [0.025, -0.025], [0.025, 0.025], [-0.025, 0.025]]
initial: {v_x: 0.5, v_y: 0.0, w_z: 0.0}
run: {h: 0.01, duration: 0.3}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ simulate

def test_simulate_bundled_example1(tmp_path, capsys):
    out = tmp_path / "ex1.csv"
    code, stdout, stderr = run(capsys, "simulate", "--scenario", "example1", "--out", str(out))
    assert code == 0
    assert stderr == ""
    assert "steps 45/45" in stdout
    assert "rest=no" in stdout
    # solve time alone, then the whole run; the run contains every solve
    timing = re.search(r"solve (\d+\.\d{3}) ms/step  wall (\d+\.\d{3}) ms/step", stdout)
    assert timing is not None
    assert float(timing[1]) <= float(timing[2])
    assert f"trajectory written to {out}" in stdout
    assert len(read_trajectory(out)) == 45


def test_simulate_zero_duration_writes_header_only(tmp_path, capsys):
    out = tmp_path / "none.csv"
    code, stdout, _ = run(capsys, "simulate", "--scenario", "example1",
                          "--duration", "0", "--out", str(out))
    assert code == 0
    assert "steps 0/0" in stdout
    assert read_trajectory(out) == []


def test_simulate_step_override(tmp_path, capsys):
    out = tmp_path / "fine.csv"
    code, stdout, _ = run(capsys, "simulate", "--scenario", "example1",
                          "--duration", "0.1", "--h", "0.005", "--out", str(out))
    assert code == 0
    assert "steps 20/20" in stdout
    rows = read_trajectory(out)
    assert len(rows) == 20
    assert rows[0]["t"] == pytest.approx(0.005)


def test_simulate_unknown_scenario_is_validation_error(capsys):
    code, _, stderr = run(capsys, "simulate", "--scenario", "no_such_scenario")
    assert code == 1
    assert "error:" in stderr


def test_simulate_reruns_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(capsys, "simulate", "--scenario", "example2", "--out", str(a))[0] == 0
    assert run(capsys, "simulate", "--scenario", "example2", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_plot_data(tmp_path, capsys):
    out = tmp_path / "ex1.csv"
    code, stdout, _ = run(capsys, "simulate", "--scenario", "example1",
                          "--duration", "0.05", "--out", str(out), "--plot-data")
    assert code == 0
    assert "plot data: 22 files" in stdout
    assert (tmp_path / "ex1.v_x.dat").exists()
    assert (tmp_path / "ex1.residual_norm.dat").exists()


def test_simulate_contact_loss_is_solver_error(tmp_path, capsys):
    # constant vertical pull equal to the weight: no normal impulse left
    lifted = TRANSLATE_YAML + """
schedule:
  type: constant
  wrench: {lambda_z: 4.9}
"""
    scen = tmp_path / "lifted.yaml"
    scen.write_text(lifted)
    code, _, stderr = run(capsys, "simulate", "--scenario", str(scen))
    assert code == 2
    assert "step 0" in stderr


# ------------------------------------------------------------------- compare

def test_compare_example1_agrees(capsys):
    code, stdout, stderr = run(capsys, "compare", "--scenario", "example1")
    assert code == 0
    assert stderr == ""
    assert "steps 45" in stdout
    assert "OK: both solution paths agree within 1e-06" in stdout
    assert "dissipation_check_failures 0" in stdout


def test_compare_example2_agrees_through_rest(capsys):
    code, stdout, _ = run(capsys, "compare", "--scenario", "example2")
    assert code == 0
    assert "steps 56" in stdout
    assert "OK" in stdout


def test_compare_stops_where_simulate_stops(tmp_path, capsys):
    # with sigma_min 0.1 example1 ends on a slow-slip rest (0 < sigma <
    # sigma_min) at its 40th step; compare must not check steps past it
    scen = resolve_scenario("example1")
    scen = replace(scen, options=replace(scen.options, sigma_min=0.1))
    path = tmp_path / "slow_rest.yaml"
    path.write_text(serialize_scenario(scen))
    code, sim_out, _ = run(capsys, "simulate", "--scenario", str(path),
                           "--out", str(tmp_path / "slow_rest.csv"))
    assert code == 0
    assert "steps 40/45  rest=yes" in sim_out
    last = read_trajectory(tmp_path / "slow_rest.csv")[-1]
    assert 0.0 < last["sigma"] < 0.1
    code, cmp_out, _ = run(capsys, "compare", "--scenario", str(path))
    assert code == 0
    assert re.search(r"^steps 40  ", cmp_out, re.MULTILINE)


@pytest.mark.filterwarnings("ignore:step .* left the support hull")
@pytest.mark.parametrize("name", ["example1", "example3"])
def test_compare_solves_each_step_from_simulates_warm_start(name, capsys, monkeypatch):
    # compare must check the configuration simulate runs: the same warm
    # start at every step, so the same sigma to the bit.  The oracle and the
    # dissipation check are stubbed out; only the solves matter here
    import patchslide.cli as cli_module
    from patchslide import simulate

    solved = []
    real_solve = cli_module.solve_step_info

    def spy(inputs, guess, options):
        imp, info = real_solve(inputs, guess, options)
        solved.append(imp.sigma)
        return imp, info

    class Kkt:
        dissipation_optimality = True

    monkeypatch.setattr(cli_module, "solve_step_info", spy)
    monkeypatch.setattr(cli_module, "oracle_solve_step", lambda inputs: real_solve(inputs)[0])
    monkeypatch.setattr(cli_module, "verify_kkt", lambda sol, inputs, seed: Kkt)
    code, _, _ = run(capsys, "compare", "--scenario", name)
    assert code == 0
    records = simulate(resolve_scenario(name))
    assert [s.hex() for s in solved] == [r.impulses.sigma.hex() for r in records]


def test_compare_loose_solver_tol_fails(capsys):
    code, stdout, stderr = run(capsys, "compare", "--scenario", "example1",
                               "--solver-tol", "1e-3")
    assert code == 3
    assert "FAIL: deviation exceeds 1e-06" in stderr
    m = re.search(r"max_deviation (\S+)", stdout)
    assert m and float(m.group(1)) > 1e-6


# --------------------------------------------------------------------- sysid

def _parse_estimates(stdout):
    out = {}
    for key in ("et2mu", "ratio_o", "ratio_r"):
        m = re.search(rf"{key}\s*=\s*([0-9.eE+-]+)", stdout)
        assert m, f"missing {key} in output:\n{stdout}"
        out[key] = float(m.group(1))
    return out


def test_sysid_recovers_example1_friction(tmp_path, capsys):
    out = tmp_path / "ex1.csv"
    assert run(capsys, "simulate", "--scenario", "example1", "--out", str(out))[0] == 0
    code, stdout, _ = run(capsys, "sysid", "--trajectory", str(out),
                          "--m", "0.5", "--I-z", "5e-4", "--q-z", "0.08")
    assert code == 0
    est = _parse_estimates(stdout)
    assert est["et2mu"] == pytest.approx(0.31, rel=1e-6)
    assert est["ratio_o"] == pytest.approx(1.0, rel=1e-6)
    assert est["ratio_r"] == pytest.approx(1e-4, rel=1e-6)
    assert "steps used 44 of 44 (0 skipped)" in stdout


def test_sysid_empty_trajectory_is_validation_error(tmp_path, capsys):
    out = tmp_path / "none.csv"
    assert run(capsys, "simulate", "--scenario", "example1",
               "--duration", "0", "--out", str(out))[0] == 0
    code, _, stderr = run(capsys, "sysid", "--trajectory", str(out),
                          "--m", "0.5", "--I-z", "5e-4", "--q-z", "0.08")
    assert code == 1
    assert "error:" in stderr


# ----------------------------------------------------------------- translate

def test_translate_runs_to_rest(tmp_path, capsys):
    scen = tmp_path / "slide.yaml"
    scen.write_text(TRANSLATE_YAML)
    out = tmp_path / "slide.csv"
    code, stdout, _ = run(capsys, "translate", "--scenario", str(scen), "--out", str(out))
    assert code == 0
    assert "steps 17/30" in stdout
    assert "rest=yes" in stdout
    rows = read_trajectory(out)
    assert len(rows) == 17
    assert rows[-1]["v_x"] == 0.0 and rows[-1]["v_y"] == 0.0
    assert rows[-1]["sigma"] == 0.0
    assert rows[0]["v_x"] == pytest.approx(0.46962, abs=1e-12)


def test_translate_rejects_initial_spin(tmp_path, capsys):
    scen = tmp_path / "spin.yaml"
    scen.write_text(TRANSLATE_YAML.replace("w_z: 0.0", "w_z: 2.0"))
    code, _, stderr = run(capsys, "translate", "--scenario", str(scen))
    assert code == 1
    assert "requires w_z = 0" in stderr


def test_translate_rejects_torque_schedules(tmp_path, capsys):
    scen = tmp_path / "torqued.yaml"
    scen.write_text(TRANSLATE_YAML + """
schedule:
  type: constant
  wrench: {lambda_ztau: 0.01}
""")
    code, _, stderr = run(capsys, "translate", "--scenario", str(scen))
    assert code == 1
    assert "torque-free" in stderr


# --------------------------------------------------------------- quasistatic

def test_quasistatic_frozen_side_push(capsys):
    code, stdout, _ = run(capsys, "quasistatic",
                          "--contact-x", "0.05", "--contact-y", "0",
                          "--vx", "0", "--vy", "0.1", "--c", "0.01")
    assert code == 0
    v_x, v_y, w_z = (float(tok) for tok in stdout.split())
    assert v_x == pytest.approx(0.0, abs=1e-18)
    assert v_y == pytest.approx(0.05 / 13.0, rel=1e-14)
    assert w_z == pytest.approx(25.0 / 13.0, rel=1e-14)


def test_quasistatic_contact_at_cm(capsys):
    code, stdout, _ = run(capsys, "quasistatic",
                          "--contact-x", "0.2", "--contact-y", "-0.1",
                          "--vx", "0.4", "--vy", "0.0",
                          "--cm-x", "0.2", "--cm-y", "-0.1", "--c", "1.0")
    assert code == 0
    v_x, v_y, w_z = (float(tok) for tok in stdout.split())
    assert (v_x, v_y, w_z) == (0.4, 0.0, 0.0)


def test_quasistatic_rejects_nonpositive_c(capsys):
    code, _, stderr = run(capsys, "quasistatic",
                          "--contact-x", "0.05", "--contact-y", "0",
                          "--vx", "0", "--vy", "0.1", "--c", "0")
    assert code == 1
    assert "error:" in stderr


@pytest.mark.parametrize("v_x, message", [
    (".nan", "initial state must be finite"),
    ("1.0e+200", "square overflows a double"),
])
def test_simulate_rejects_unusable_initial_state(tmp_path, capsys, v_x, message):
    scen = tmp_path / "bad.yaml"
    scen.write_text(TRANSLATE_YAML.replace("v_x: 0.5", f"v_x: {v_x}"))
    code, _, stderr = run(capsys, "simulate", "--scenario", str(scen),
                          "--out", str(tmp_path / "bad.csv"))
    assert code == 1
    assert message in stderr


@pytest.mark.parametrize("needle, repl, message", [
    ("m: 0.5", "m: 1" + "0" * 400, "slider.m is out of range for a double"),
    ("run:", "schedule: {type: constant, wrench: {lambda_x: .inf}}\nrun:", "constant wrench must be finite"),
])
def test_simulate_rejects_unusable_numbers_at_load(tmp_path, capsys, needle, repl, message):
    scen = tmp_path / "bad.yaml"
    scen.write_text(TRANSLATE_YAML.replace(needle, repl))
    code, _, stderr = run(capsys, "simulate", "--scenario", str(scen),
                          "--out", str(tmp_path / "bad.csv"))
    assert code == 1
    assert message in stderr


# a finite load whose impulse per step, squared in friction-ellipsoid
# units, overflows a double: the constant and table schedules fail at load,
# the state-dependent pusher at its first step, both with exit code 1
_HUGE_SCHEDULES = [
    ("schedule: {type: constant, wrench: {lambda_ztau: 1.0e+308}}", "applied load is too large"),
    ("schedule:\n  type: table\n  rows:\n    - {t: 0.0, wrench: {}}\n"
     "    - {t: 0.2, wrench: {lambda_x: 1.0e+200}}", "applied load is too large"),
    ("schedule: {type: body_pusher, point: [-0.025, 0.0, 0.0], direction: [1.0, 0.0],"
     " force_mean: 1.0e+200, period: 0.1}", "step 0: load is too large"),
]


@pytest.mark.parametrize("schedule, message", _HUGE_SCHEDULES, ids=["constant", "table", "pusher"])
def test_simulate_rejects_overflowing_load(tmp_path, capsys, schedule, message):
    text = bundled_scenario_text("example1").replace("schedule:\n  type: constant", schedule)
    assert schedule in text
    scen = tmp_path / "huge.yaml"
    scen.write_text(text)
    code, _, stderr = run(capsys, "simulate", "--scenario", str(scen),
                          "--out", str(tmp_path / "huge.csv"))
    assert code == 1
    assert message in stderr
