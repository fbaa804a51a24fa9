"""Command line interface: exit codes, output files, and printed results
for all five subcommands, driven through main(argv)."""

import csv
import os
import re
from dataclasses import astuple, replace

import pytest

import patchslide.cli as cli_module
from patchslide import COLUMNS, bundled_scenario_text, read_trajectory, resolve_scenario, serialize_scenario, write_trajectory
from patchslide.cli import main
from patchslide.errors import NoConvergenceError, PatchSlideError, ToppleRiskError, ValidationError

TRANSLATE_YAML = """
slider: {m: 0.5, I_z: 5.0e-4, q_z: 0.08}
friction: {mu: 0.31, e_t: 1.0, e_o: 1.0, e_r: 0.01}
patch:
  type: polygon
  vertices: [[-0.025, -0.025], [0.025, -0.025], [0.025, 0.025], [-0.025, 0.025]]
initial: {v_x: 0.5, v_y: 0.0, w_z: 0.0}
run: {h: 0.01, duration: 0.3}
"""

PUSHED_YAML = TRANSLATE_YAML.replace("v_y: 0.0", "v_y: 0.3").replace("duration: 0.3", "duration: 3.0") + """
schedule:
  type: constant
  wrench: {lambda_x: 0.4, lambda_y: -0.2}
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


def test_simulate_over_longer_files_writes_what_a_fresh_run_writes(tmp_path, capsys):
    # the CSV and every plot data file are overwritten in place and cut to
    # the new length
    fresh = tmp_path / "fresh"
    reused = tmp_path / "reused"
    fresh.mkdir()
    reused.mkdir()
    argv = ("simulate", "--scenario", "example1", "--plot-data", "--out")
    assert run(capsys, *argv, str(reused / "ex1.csv"))[0] == 0
    for d in (reused, fresh):
        assert run(capsys, *argv, str(d / "ex1.csv"), "--duration", "0.05")[0] == 0
    names = sorted(p.name for p in fresh.iterdir())
    assert len(names) == 23
    assert sorted(p.name for p in reused.iterdir()) == names
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name


def test_simulate_writes_through_a_symlinked_out(tmp_path, capsys):
    target = tmp_path / "target.csv"
    target.write_text("an earlier, longer trajectory\n" * 1000)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    fresh = tmp_path / "fresh.csv"
    for out in (link, fresh):
        assert run(capsys, "simulate", "--scenario", "example1", "--out", str(out))[0] == 0
    assert link.is_symlink()
    assert target.read_bytes() == fresh.read_bytes()


def test_simulate_out_devnull(capsys):
    # a device cannot be truncated; it is written and left as it is
    code, stdout, stderr = run(capsys, "simulate", "--scenario", "example1", "--out", os.devnull)
    assert code == 0
    assert stderr == ""
    assert f"trajectory written to {os.devnull}" in stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_write_that_fails_prints_one_error_line(capsys):
    # the OSError escaped with a traceback
    code, stdout, stderr = run(capsys, "simulate", "--scenario", "example1", "--out", "/dev/full")
    assert code == 1
    assert stdout == ""
    assert stderr == "error: cannot write trajectory file /dev/full: No space left on device\n"


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


def _bits(value) -> tuple[str, ...]:
    # a value type's float fields, bit for bit
    return tuple(float(x).hex() for x in astuple(value))


@pytest.mark.filterwarnings("ignore:step .* left the support hull")
@pytest.mark.parametrize("name", ["example1", "example3"])
def test_compare_checks_each_record_simulate_wrote(name, capsys, monkeypatch):
    # compare checks the configuration simulate runs: call k of the oracle
    # and of the dissipation check gets step k's inputs as simulate had
    # them (the start state, the applied and normal impulses of record k)
    # and the dissipation check gets the impulse simulate wrote
    from patchslide import simulate
    from patchslide.oracle import oracle_solve_step as real_oracle, verify_kkt as real_kkt

    oracle_calls, kkt_calls = [], []

    def oracle(inputs):
        oracle_calls.append(inputs)
        return real_oracle(inputs)

    def kkt(sol, inputs, seed):
        kkt_calls.append((sol, inputs))
        return real_kkt(sol, inputs, seed=seed)

    monkeypatch.setattr("patchslide.oracle.oracle_solve_step", oracle)
    monkeypatch.setattr("patchslide.oracle.verify_kkt", kkt)
    code, _, _ = run(capsys, "compare", "--scenario", name)
    assert code == 0
    scen = resolve_scenario(name)
    records = simulate(scen)
    starts = [scen.initial] + [r.state for r in records[:-1]]
    assert len(oracle_calls) == len(kkt_calls) == len(records)
    for inputs, (sol, kkt_inputs), start, rec in zip(oracle_calls, kkt_calls, starts, records):
        assert kkt_inputs is inputs
        assert inputs.params == scen.params and inputs.friction == scen.friction
        assert _bits(inputs.state) == _bits(start)
        assert _bits(inputs.applied) == _bits(rec.applied)
        assert inputs.p_n.hex() == rec.impulses.p_n.hex()
        assert _bits(sol) == _bits(rec.impulses)


@pytest.mark.filterwarnings("ignore:step .* left the support hull")
@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_compare_reports_the_oracle_deviation_of_simulates_records(name, capsys):
    # the report recomputed here from simulate's records and the oracle
    from patchslide import StepInputs, oracle_solve_step, simulate, verify_kkt

    scen = resolve_scenario(name)
    m, I_z = scen.params.m, scen.params.I_z
    devs, failures = [], 0
    start = scen.initial
    for rec in simulate(scen):
        sol = rec.impulses
        inputs = StepInputs(scen.params, scen.friction, start, rec.applied, sol.p_n)
        ref = oracle_solve_step(inputs)
        d = (abs(sol.p_t - ref.p_t), abs(sol.p_o - ref.p_o), abs(sol.p_r - ref.p_r))
        devs.append(max(*d, d[0] / m, d[1] / m, d[2] / I_z))
        failures += not verify_kkt(sol, inputs).dissipation_optimality
        start = rec.state
    worst = devs.index(max(devs))
    report = (
        f"steps {len(devs)}  max_deviation {devs[worst]:.3e} (step {worst})  "
        f"dissipation_check_failures {failures}\n"
        "OK: both solution paths agree within 1e-06\n"
    )
    assert run(capsys, "compare", "--scenario", name) == (0, report, "")


def test_compare_deviation_above_tolerance_fails(capsys, monkeypatch):
    # an oracle that moves the solve's p_t by 2e-6 on every step
    from patchslide.solver import solve_step

    def off(inputs):
        imp = solve_step(inputs)
        return replace(imp, p_t=imp.p_t + 2e-6)

    monkeypatch.setattr("patchslide.oracle.oracle_solve_step", off)
    code, stdout, stderr = run(capsys, "compare", "--scenario", "example1")
    assert code == 3
    assert "FAIL: deviation exceeds 1e-06" in stderr
    m = re.search(r"max_deviation (\S+)", stdout)
    assert m and float(m.group(1)) > 1e-6


def test_compare_zero_duration_reports_no_steps(capsys):
    code, stdout, _ = run(capsys, "compare", "--scenario", "example1", "--duration", "0")
    assert code == 0
    assert stdout.splitlines()[0] == "steps 0  max_deviation 0.000e+00  dissipation_check_failures 0"


# compare and translate run through simulate's loop, so all three apply the
# scenario's topple policy; q_z 0.1 puts the ECP outside the square at step 0
_TOPPLING_YAML = TRANSLATE_YAML.replace("q_z: 0.08", "q_z: 0.1")


@pytest.mark.parametrize("command", ["simulate", "compare", "translate"])
def test_topple_policy_error_stops_every_stepping_command(tmp_path, capsys, command):
    scen = tmp_path / "topple.yaml"
    scen.write_text(_TOPPLING_YAML.replace("duration: 0.3}", "duration: 0.3, topple_policy: error}"))
    argv = [command, "--scenario", str(scen)]
    if command != "compare":
        argv += ["--out", str(tmp_path / "topple.csv")]
    code, _, stderr = run(capsys, *argv)
    assert code == 2
    assert "step 0: equivalent contact point left the support hull" in stderr


@pytest.mark.parametrize("command", ["simulate", "compare", "translate"])
def test_topple_policy_warn_warns_once_in_every_stepping_command(tmp_path, capsys, command):
    scen = tmp_path / "topple.yaml"
    scen.write_text(_TOPPLING_YAML)
    argv = [command, "--scenario", str(scen)]
    if command != "compare":
        argv += ["--out", str(tmp_path / "topple.csv")]
    with pytest.warns(UserWarning, match="left the support hull") as caught:
        code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(caught) == 1


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


@pytest.mark.parametrize("n_rows", [0, 1])
def test_sysid_without_a_transition_says_it_needs_two_rows(tmp_path, capsys, ex1_records, n_rows):
    # a header-only or one-row file pairs into no observed step at all,
    # which used to be reported as "all 0 observed steps were degenerate"
    out = tmp_path / f"rows{n_rows}.csv"
    write_trajectory(ex1_records[:n_rows], out)
    code, stdout, stderr = run(capsys, "sysid", "--trajectory", str(out),
                               "--m", "0.5", "--I-z", "5e-4", "--q-z", "0.08")
    assert code == 1
    assert stdout == ""
    assert stderr == "error: no observed steps: a trajectory needs at least two rows\n"


@pytest.mark.parametrize("cell, message", [
    ("p_n", "normal impulse is not finite, got inf"),
    ("t", "observed step length is not finite: t = "),
])
def test_sysid_rejects_an_infinite_cell(tmp_path, capsys, ex1_csv, cell, message):
    # an inf p_n used to be read, paired and skipped as a degenerate step:
    # "steps used 43 of 44 (1 skipped)", exit 0
    rows = ex1_csv.read_text().splitlines()
    cells = rows[5].split(",")
    cells[rows[0].split(",").index(cell)] = "inf"
    rows[5] = ",".join(cells)
    out = tmp_path / "inf.csv"
    out.write_text("\n".join(rows) + "\n")
    code, stdout, stderr = run(capsys, "sysid", "--trajectory", str(out),
                               "--m", "0.5", "--I-z", "5e-4", "--q-z", "0.08")
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"error: {message}")


def _file_error_cases():
    # (argv, the file its error names) for a path under a temporary
    # directory: trajectory files that cannot be opened, a scenario and a
    # trajectory that are not UTF-8 text, and a trajectory field longer
    # than csv's limit
    sysid = ("--m", "1", "--I-z", "1", "--q-z", "0")

    def bad_yaml(d):
        path = d / "bad.yaml"
        path.write_bytes(bundled_scenario_text("example1").encode() + b"\n# \xff\n")
        return ("simulate", "--scenario", str(path), "--out", str(d / "x.csv")), path

    def bad_csv(d):
        path = d / "bad.csv"
        path.write_bytes(b"\xff\xfet,q_x\r\n")
        return ("sysid", "--trajectory", str(path)) + sysid, path

    def huge_csv_field(d):
        path = d / "huge.csv"
        path.write_text(",".join(COLUMNS) + "\n" + "1" * (csv.field_size_limit() + 1) + "\n")
        return ("sysid", "--trajectory", str(path)) + sysid, path

    def plot_file_is_a_directory(d):
        # the first plot file cannot be written, which is found before the
        # run: no trajectory is written either
        path = d / "traj.q_x.dat"
        path.mkdir()
        return ("simulate", "--scenario", "example1", "--out", str(d / "traj.csv"), "--plot-data"), path

    return {
        "out in a missing directory": lambda d: (
            ("simulate", "--scenario", "example1", "--out", str(d / "missing" / "x.csv")), d / "missing" / "x.csv"),
        "out is a directory": lambda d: (("simulate", "--scenario", "example1", "--out", str(d)), d),
        "plot data file is a directory": plot_file_is_a_directory,
        "missing trajectory": lambda d: (("sysid", "--trajectory", str(d / "none.csv")) + sysid, d / "none.csv"),
        "scenario not UTF-8": bad_yaml,
        "trajectory not UTF-8": bad_csv,
        "trajectory field over the csv limit": huge_csv_field,
    }


@pytest.mark.parametrize("name", list(_file_error_cases()))
def test_file_errors_print_one_error_line_naming_the_file(tmp_path, capsys, name):
    # each raised a raw OSError or UnicodeDecodeError with a traceback;
    # none leaves a file behind
    argv, path = _file_error_cases()[name](tmp_path)
    before = sorted(tmp_path.rglob("*"))
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1 and str(path) in stderr, stderr
    assert sorted(tmp_path.rglob("*")) == before


def test_unwritable_out_fails_before_the_first_step(tmp_path, capsys, monkeypatch):
    # the run used to complete before the write found the path unusable
    def never(*args):
        raise AssertionError("simulate ran")

    monkeypatch.setattr(cli_module, "simulate", never)
    scen = tmp_path / "slide.yaml"
    scen.write_text(TRANSLATE_YAML)
    for command in ("simulate", "translate"):
        out = tmp_path / "missing" / "x.csv"
        code, stdout, stderr = run(capsys, command, "--scenario", str(scen), "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert stderr == f"error: cannot open trajectory file {out}: No such file or directory\n"
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("column", ["q_x", "residual_norm"])
def test_unwritable_plot_data_fails_before_the_first_step(tmp_path, capsys, monkeypatch, column):
    # every plot data file is checked before the run, the first and the last
    def never(*args):
        raise AssertionError("simulate ran")

    monkeypatch.setattr(cli_module, "simulate", never)
    blocked = tmp_path / f"traj.{column}.dat"
    blocked.mkdir()
    code, stdout, stderr = run(capsys, "simulate", "--scenario", "example1",
                               "--out", str(tmp_path / "traj.csv"), "--plot-data")
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: cannot write plot data file {blocked}: Is a directory\n"
    assert list(tmp_path.iterdir()) == [blocked]


def test_a_run_that_fails_creates_and_truncates_no_file(tmp_path, capsys):
    # the path is checked before the run without creating or truncating
    # it: a run that fails at step 0 leaves an existing trajectory as it
    # was, and makes no new one
    ex1 = resolve_scenario("example1")
    scen = tmp_path / "fast.yaml"
    scen.write_text(serialize_scenario(replace(
        ex1, friction=replace(ex1.friction, e_t=1e70, e_o=1e70),
        initial=replace(ex1.initial, v_x=1e100))))
    kept = tmp_path / "kept.csv"
    kept.write_text("an earlier trajectory\n")
    for out in (kept, tmp_path / "new.csv"):
        code, stdout, stderr = run(capsys, "simulate", "--scenario", str(scen), "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: step 0: velocity is too large")
    assert kept.read_text() == "an earlier trajectory\n"
    assert not (tmp_path / "new.csv").exists()


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


_CLOSED_FORM_LINE = re.compile(r"closed_form max_deviation (\S+)( \(step \d+\))?")


def _simulate_and_translate(tmp_path, capsys, text):
    # both commands on one scenario: translate writes simulate's CSV byte
    # for byte, and prints one more line, its largest deviation from the
    # closed form, below 1e-12 (4.4e-16 at most on these runs).  Returns
    # the summary line they share and the CSV
    path = tmp_path / "slide.yaml"
    path.write_text(text)
    out = {}
    for command in ("simulate", "translate"):
        csv = tmp_path / f"{command}.csv"
        code, out[command], stderr = run(capsys, command, "--scenario", str(path), "--out", str(csv))
        assert code == 0 and stderr == ""
    assert csv.read_bytes() == (tmp_path / "simulate.csv").read_bytes()
    summary, deviation, written = out["translate"].splitlines()
    # the summaries differ only in their timings
    assert out["simulate"].split("  solve ")[0] == summary.split("  solve ")[0]
    match = _CLOSED_FORM_LINE.fullmatch(deviation)
    assert match is not None and float(match[1]) < 1e-12, deviation
    assert written == f"trajectory written to {csv}"
    return summary, csv


@pytest.mark.parametrize("text, n_steps", [(TRANSLATE_YAML, 17), (PUSHED_YAML, 25)], ids=["unforced", "pushed"])
def test_translate_writes_simulates_csv_and_checks_it_against_the_closed_form(tmp_path, capsys, text, n_steps):
    summary, csv = _simulate_and_translate(tmp_path, capsys, text)
    assert summary.startswith(f"steps {n_steps}/")
    assert read_trajectory(csv)[-1]["sigma"] == 0.0


def test_translate_and_simulate_stop_at_the_same_step(tmp_path, capsys):
    # translate runs simulate, so both stop by its one rule: example1
    # without spin at sigma_min 0.05 slides on at sigma 0.046 after 36
    # steps, which ends both runs, short of the exact rest at step 38
    scen = resolve_scenario("example1")
    text = serialize_scenario(replace(scen, initial=replace(scen.initial, w_z=0.0),
                                      options=replace(scen.options, sigma_min=0.05)))
    summary, csv = _simulate_and_translate(tmp_path, capsys, text)
    assert summary.startswith("steps 36/45  rest=yes")
    assert 0.0 < read_trajectory(csv)[-1]["sigma"] < 0.05


def test_translate_fails_on_a_record_off_the_closed_form(tmp_path, capsys, monkeypatch):
    # a closed form off by 1e-3 at step 5: the check names that step, exits
    # 3 and writes no file
    from patchslide.closed_form import pure_translation_step as real

    calls = []

    def off_at_step_5(v_u, applied, p_n, f, m):
        res = real(v_u, applied, p_n, f, m)
        calls.append(res)
        return replace(res, p_t=res.p_t + 1e-3) if len(calls) == 6 else res

    monkeypatch.setattr("patchslide.closed_form.pure_translation_step", off_at_step_5)
    path = tmp_path / "slide.yaml"
    path.write_text(TRANSLATE_YAML)
    out = tmp_path / "slide.csv"
    code, stdout, stderr = run(capsys, "translate", "--scenario", str(path), "--out", str(out))
    assert code == 3
    assert len(calls) == 17
    assert "closed_form max_deviation 2.000e-03 (step 5)" in stdout.splitlines()
    assert "trajectory written" not in stdout
    assert stderr == "FAIL: deviation exceeds 1e-06\n"
    assert sorted(tmp_path.iterdir()) == [path]


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


def test_translate_zero_duration_writes_header_only(tmp_path, capsys):
    scen = tmp_path / "slide.yaml"
    scen.write_text(TRANSLATE_YAML)
    out = tmp_path / "none.csv"
    code, stdout, _ = run(capsys, "translate", "--scenario", str(scen),
                          "--duration", "0", "--out", str(out))
    assert code == 0
    assert "steps 0/0" in stdout
    assert read_trajectory(out) == []
    assert len(out.read_bytes().splitlines()) == 1


def test_translate_rejects_anisotropic_friction_at_step_0(tmp_path, capsys):
    scen = tmp_path / "aniso.yaml"
    scen.write_text(TRANSLATE_YAML.replace("e_o: 1.0", "e_o: 1.5"))
    code, _, stderr = run(capsys, "translate", "--scenario", str(scen),
                          "--out", str(tmp_path / "aniso.csv"))
    assert code == 1
    assert "error: step 0: pure translation requires e_t == e_o" in stderr
    assert not (tmp_path / "aniso.csv").exists()


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



def test_simulate_reports_an_overflowing_pusher_phase(tmp_path, capsys):
    text = bundled_scenario_text("example3")
    assert text.count("period: 0.1") == 1
    scen = tmp_path / "fast.yaml"
    scen.write_text(text.replace("period: 0.1", "period: 1.0e-320"))
    code, _, stderr = run(capsys, "simulate", "--scenario", str(scen), "--out", str(tmp_path / "fast.csv"))
    assert code == 1
    assert stderr.startswith("error: step 1: pusher phase 2*pi*t/period = inf overflows a double")
    assert "Traceback" not in stderr

@pytest.mark.parametrize("text, message", [
    (TRANSLATE_YAML.replace("q_z: 0.08}", "q_z: 0.08, 1: 2, foo: 3}"), "unknown key(s) ['foo', 1] in slider"),
    (TRANSLATE_YAML + "null: 1\nextra: 2\n", "unknown key(s) ['extra', None] in scenario document"),
], ids=["section", "document"])
def test_simulate_rejects_unknown_keys_of_mixed_types(tmp_path, capsys, text, message):
    # keys that do not sort together (an int or null beside a str) are
    # named like any other unknown key, never a TypeError traceback
    scen = tmp_path / "mixed.yaml"
    scen.write_text(text)
    code, _, stderr = run(capsys, "simulate", "--scenario", str(scen), "--out", str(tmp_path / "mixed.csv"))
    assert code == 1
    assert message in stderr


def test_simulate_reports_a_normal_impulse_that_underflows(tmp_path, capsys):
    from test_stepper import underflowing_normal_impulse

    scen = tmp_path / "tiny.yaml"
    scen.write_text(serialize_scenario(underflowing_normal_impulse()))
    code, stdout, stderr = run(capsys, "simulate", "--scenario", str(scen), "--out", str(tmp_path / "tiny.csv"))
    assert (code, stdout, stderr) == (1, "", "error: step 0: normal impulse must be positive\n")
    assert not (tmp_path / "tiny.csv").exists()


class _UnnamedError(PatchSlideError):
    """A package error that the CLI does not name."""


@pytest.mark.parametrize("error, exit_code", [
    (_UnnamedError, 1), (ValidationError, 1), (NoConvergenceError, 2), (ToppleRiskError, 2),
], ids=["unnamed", "validation", "no-convergence", "topple"])
def test_every_package_error_exits_with_its_code(capsys, monkeypatch, error, exit_code):
    # solver failures exit 2 and every other PatchSlideError exits 1, so a
    # new subclass never escapes as a traceback
    def fail(inp):
        raise error("boom")

    monkeypatch.setattr("patchslide.closed_form.quasi_static_velocity", fail)
    assert run(capsys, "quasistatic", "--contact-x", "0.05", "--contact-y", "0",
               "--vx", "0", "--vy", "0.1", "--c", "0.01") == (exit_code, "", "error: boom\n")


# ------------------------------------------------------ numeric flag edges

# each subcommand with arguments that make it valid; sysid reads example1's
# trajectory, written once for the module
_EDGE_BASE = {
    "simulate": ["--scenario", "example1"],
    "compare": ["--scenario", "example1"],
    "translate": ["--scenario", "example1"],
    "sysid": ["--trajectory", "EX1_CSV", "--m", "0.5", "--I-z", "5e-4", "--q-z", "0.08"],
    "quasistatic": ["--contact-x", "0.05", "--contact-y", "0", "--vx", "0", "--vy", "0.1", "--c", "0.01"],
}
_EDGE_FLAGS = {
    "simulate": ["--duration", "--h"],
    "compare": ["--duration", "--h", "--seed"],
    "translate": ["--duration", "--h"],
    "sysid": ["--m", "--I-z", "--q-z", "--floor"],
    "quasistatic": ["--contact-x", "--contact-y", "--vx", "--vy", "--cm-x", "--cm-y", "--c"],
}
_EDGE_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e308"]
# Left out: a huge but finite --duration whose step count is still a double
# (1e300 at h = 0.01, say) on a scenario that never comes to rest, such as
# example3's pusher, would run for about 1e302 steps.  example1 slides to
# rest within 65 steps, and its 1e308 overflows the step count, so every
# case below ends quickly.
_EDGE_CASES = [
    (command, flag, value)
    for command, flags in _EDGE_FLAGS.items()
    for flag in flags
    for value in _EDGE_VALUES + (["1e-300"] if flag == "--h" else [])
]


@pytest.fixture(scope="module")
def ex1_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("edges") / "ex1.csv"
    assert main(["simulate", "--scenario", "example1", "--out", str(path)]) == 0
    return path


def _edge_argv(command, extra, tmp_path, ex1_csv):
    # "flag=value" keeps argparse from reading a value such as -inf as a flag
    argv = [command] + [str(ex1_csv) if a == "EX1_CSV" else a for a in _EDGE_BASE[command]]
    if command in ("simulate", "translate"):
        argv += ["--out", str(tmp_path / "out.csv")]
    return argv + [extra]


@pytest.mark.filterwarnings("ignore:step .* left the support hull")
@pytest.mark.parametrize("command, flag, value", _EDGE_CASES,
                         ids=[f"{c} {f}={v}" for c, f, v in _EDGE_CASES])
def test_numeric_flag_edges_end_in_an_exit_code(tmp_path, capsys, ex1_csv, command, flag, value):
    # a bad number fails with a package error or argparse's usage error
    # (exit 1, for a value that --seed cannot parse as an int), never with
    # a raw exception
    try:
        code = main(_edge_argv(command, f"{flag}={value}", tmp_path, ex1_csv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.out + captured.err
    if code != 0:
        assert re.search(r"(^|: )error: ", captured.err, re.MULTILINE)


@pytest.mark.parametrize("command, extra, message", [
    ("simulate", "--h=1e-300", "normal impulse is too small"),
    ("simulate", "--duration=1e308", "the step count, overflows a double"),
    ("compare", "--seed=-1", "seed must be nonnegative"),
    ("sysid", "--m=nan", "slider parameters must be finite"),
    ("sysid", "--m=-0.5", "mass must be positive"),
    ("sysid", "--floor=nan", "degeneracy floor must be finite and nonnegative"),
    ("sysid", "--m=1e308", "all 44 observed steps were degenerate"),
    ("quasistatic", "--contact-x=nan", "contact point, contact velocity and cm must be finite"),
    ("quasistatic", "--c=1e200", "c^2 + |contact point - cm|^2 overflows a double"),
    ("quasistatic", "--vy=1e308", "quasi-static velocity overflows a double"),
])
def test_bad_numbers_at_the_edge_are_validation_errors(tmp_path, capsys, ex1_csv, command, extra, message):
    # each used to end in a raw exception, a solver error (exit 2 after 100
    # iterations, for h = 1e-300), or a printed nan or complex estimate
    code, stdout, stderr = run(capsys, *_edge_argv(command, extra, tmp_path, ex1_csv))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ") and message in stderr


@pytest.mark.parametrize("argv, message", [
    (["compare", "--scenario", "example1", "--seed=nan"], "argument --seed: invalid int value: 'nan'"),
    (["compare", "--scenario", "example1", "--seed=1e308"], "argument --seed: invalid int value: '1e308'"),
    (["simulate", "--h=0.01"], "the following arguments are required: --scenario"),
    (["simulate", "--scenario", "example1", "--h=abc"], "argument --h: invalid float value: 'abc'"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    # a mistyped flag is an input problem, told apart from a solver failure
    # (exit 2) by its exit status; argparse alone would exit 2
    with pytest.raises(SystemExit) as e:
        main(argv)
    captured = capsys.readouterr()
    assert e.value.code == 1
    assert captured.out == ""
    assert re.search(r"^patchslide( \w+)?: error: ", captured.err, re.MULTILINE)
    assert message in captured.err


def test_sysid_skips_steps_whose_ratio_overflows(tmp_path, capsys, ex1_csv):
    # --q-z 1e308 makes ratio_o overflow on most steps; those steps are
    # skipped as degenerate, where the median used to print as -inf.  Which
    # steps overflow turns on roundoff-sized impulses in example1's records,
    # so the count moves with them, as tests/test_golden.py's digest does
    code, stdout, _ = run(capsys, *_edge_argv("sysid", "--q-z=1e308", tmp_path, ex1_csv))
    assert code == 0
    assert "inf" not in stdout and "mad nan" not in stdout
    assert "steps used 7 of 44 (37 skipped)" in stdout


def test_sysid_prints_no_root_of_a_negative_ratio(tmp_path, capsys, monkeypatch, ex1_csv):
    # the printed e_o/e_t and e_r/e_t are real roots, or nan; a negative
    # median ratio used to print a complex number
    from patchslide import FrictionEstimate

    est = FrictionEstimate(et2mu=0.31, ratio_o=-0.25, ratio_r=1e-4, per_step=((0.31, -0.25, 1e-4),),
                           dispersion=(0.0, 0.0, 0.0), n_skipped=0)
    monkeypatch.setattr("patchslide.sysid.batch_estimate", lambda steps, m, I_z, q_z, floor: est)
    code, stdout, _ = run(capsys, *_edge_argv("sysid", "--floor=1e-8", tmp_path, ex1_csv))
    assert code == 0
    assert "e_o/e_t = nan" in stdout
    assert "e_r/e_t = 0.01\n" in stdout
