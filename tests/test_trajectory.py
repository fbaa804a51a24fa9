"""Trajectory CSV schema: exact round trips, stability across reruns,
transition pairing, and strict read-side validation."""

import csv
import hashlib
import io
import os
import stat

import pytest

from patchslide import (
    COLUMNS,
    AppliedImpulse,
    ContactImpulse,
    Ecp,
    ObservedStep,
    SliderState,
    StepDiagnostics,
    TrajectoryRecord,
    ValidationError,
    observed_steps,
    read_trajectory,
    simulate,
    write_plot_data,
    write_trajectory,
)


def test_column_order_is_pinned():
    assert COLUMNS == (
        "t", "q_x", "q_y", "theta_z", "v_x", "v_y", "w_z",
        "p_t", "p_o", "p_r", "sigma", "p_n", "a_x", "a_y",
        "in_hull", "in_patch",
        "p_x", "p_y", "p_xtau", "p_ytau", "p_ztau",
        "newton_iters", "residual_norm",
    )
    assert len(COLUMNS) == 23


def test_header_only_file_round_trip(tmp_path):
    path = tmp_path / "empty.csv"
    write_trajectory([], path)
    text = path.read_text()
    assert text.splitlines() == [",".join(COLUMNS)]
    assert read_trajectory(path) == []
    assert observed_steps([]) == []


def test_values_round_trip_exactly(ex1_records, tmp_path):
    path = tmp_path / "ex1.csv"
    write_trajectory(ex1_records, path)
    rows = read_trajectory(path)
    assert len(rows) == len(ex1_records)
    for rec, row in zip(ex1_records, rows):
        # 17 significant digits reproduce every double bit for bit
        assert row["t"] == rec.state.t
        assert row["q_x"] == rec.state.q_x
        assert row["q_y"] == rec.state.q_y
        assert row["theta_z"] == rec.state.theta_z
        assert row["v_x"] == rec.state.v_x
        assert row["v_y"] == rec.state.v_y
        assert row["w_z"] == rec.state.w_z
        assert row["p_t"] == rec.impulses.p_t
        assert row["p_o"] == rec.impulses.p_o
        assert row["p_r"] == rec.impulses.p_r
        assert row["sigma"] == rec.impulses.sigma
        assert row["p_n"] == rec.impulses.p_n
        assert row["a_x"] == rec.ecp.a_x
        assert row["a_y"] == rec.ecp.a_y
        assert row["in_hull"] is rec.ecp.in_hull
        assert row["in_patch"] is rec.ecp.in_patch
        assert row["p_x"] == rec.applied.p_x
        assert row["p_ztau"] == rec.applied.p_ztau
        assert row["newton_iters"] == rec.diagnostics.newton_iters
        assert row["residual_norm"] == rec.diagnostics.residual_norm


def _reference_bytes(records):
    """The file as a csv.writer over 17-significant-digit cells writes it."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(COLUMNS)
    for rec in records:
        s, i, e, a, d = rec.state, rec.impulses, rec.ecp, rec.applied, rec.diagnostics
        writer.writerow(
            [f"{x:.17g}" for x in (s.t, s.q_x, s.q_y, s.theta_z, s.v_x, s.v_y, s.w_z,
                                   i.p_t, i.p_o, i.p_r, i.sigma, i.p_n, e.a_x, e.a_y)]
            + ["1" if e.in_hull else "0", "1" if e.in_patch else "0"]
            + [f"{x:.17g}" for x in (a.p_x, a.p_y, a.p_xtau, a.p_ytau, a.p_ztau)]
            + [str(d.newton_iters), f"{d.residual_norm:.17g}"]
        )
    return buf.getvalue().encode()


def _awkward_record(x, flag, iters):
    return TrajectoryRecord(
        state=SliderState(q_x=-0.0, q_y=5e-324, theta_z=1e-300,
                          v_x=1.7976931348623157e308, v_y=-x, w_z=3.0, t=x),
        impulses=ContactImpulse(p_t=-5e-324, p_o=0.1, p_r=-1e-300, sigma=0.0, p_n=2.0**60),
        ecp=Ecp(a_x=1.0 / 3.0, a_y=-2.5e-17, in_hull=flag, in_patch=not flag),
        applied=AppliedImpulse(p_x=-1.7976931348623157e308, p_y=1e22, p_z=0.0,
                               p_xtau=123456789.0, p_ytau=-0.0, p_ztau=2.2250738585072014e-308),
        diagnostics=StepDiagnostics(newton_iters=iters, residual_norm=5e-324, rest_flag=flag),
    )


def test_written_bytes_match_a_csv_writer_reference(ex1_records, tmp_path):
    records = [_awkward_record(0.1, True, 0), _awkward_record(42.0, False, 10**15)]
    path = tmp_path / "awkward.csv"
    write_trajectory(records, path)
    assert path.read_bytes() == _reference_bytes(records)
    # every awkward value comes back exactly, signed zeros included
    rows = read_trajectory(path)
    assert [str(r["q_x"]) for r in rows] == ["-0.0", "-0.0"]
    assert [r["q_y"] for r in rows] == [5e-324, 5e-324]
    assert [r["v_x"] for r in rows] == [1.7976931348623157e308] * 2
    assert [r["p_n"] for r in rows] == [2.0**60] * 2
    assert [r["newton_iters"] for r in rows] == [0, 10**15]
    assert [(r["in_hull"], r["in_patch"]) for r in rows] == [(True, False), (False, True)]
    ex1 = tmp_path / "ex1.csv"
    write_trajectory(ex1_records, ex1)
    assert ex1.read_bytes() == _reference_bytes(ex1_records)


def test_rewrites_are_byte_identical(ex1_scenario, ex1_records, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_trajectory(ex1_records, a)
    write_trajectory(simulate(ex1_scenario), b)
    assert a.read_bytes() == b.read_bytes()


def test_overwriting_a_longer_file_leaves_exactly_the_new_bytes(ex1_records, tmp_path):
    # the file is overwritten in place and cut to the new length; it keeps
    # its mode bits
    fresh = tmp_path / "fresh.csv"
    write_trajectory(ex1_records[:3], fresh)
    old = tmp_path / "old.csv"
    write_trajectory(ex1_records, old)
    os.chmod(old, 0o640)
    write_trajectory(ex1_records[:3], old)
    assert old.read_bytes() == fresh.read_bytes()
    assert stat.S_IMODE(old.stat().st_mode) == 0o640


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("steps", [0, None], ids=["header-fails-on-close", "rows-fail-on-write"])
def test_a_write_that_fails_is_validation_error(ex1_records, steps):
    with pytest.raises(ValidationError) as info:
        write_trajectory(ex1_records[:steps], "/dev/full")
    assert str(info.value) == "cannot write trajectory file /dev/full: No space left on device"


def test_observed_steps_pairing(ex1_records, tmp_path):
    path = tmp_path / "ex1.csv"
    write_trajectory(ex1_records, path)
    rows = read_trajectory(path)
    steps = observed_steps(rows)
    assert len(steps) == len(rows) - 1
    for k, st in enumerate(steps):
        # transition k runs from row k's state to row k+1's state and
        # carries the later row's applied and normal impulses
        assert st.state_u.t == ex1_records[k].state.t
        assert st.state_u1.t == ex1_records[k + 1].state.t
        assert st.state_u.v_x == ex1_records[k].state.v_x
        assert st.state_u1.v_x == ex1_records[k + 1].state.v_x
        assert st.applied.p_x == ex1_records[k + 1].applied.p_x
        assert st.p_n == ex1_records[k + 1].impulses.p_n


def test_write_plot_data_per_column(ex1_records, tmp_path):
    path = tmp_path / "ex1.csv"
    write_trajectory(ex1_records, path)
    rows = read_trajectory(path)
    files = write_plot_data(rows, tmp_path / "plots" / "ex1")
    assert len(files) == len(COLUMNS) - 1
    assert sorted(f.name for f in files) == sorted(
        f"ex1.{c}.dat" for c in COLUMNS if c != "t")
    vx = (tmp_path / "plots" / "ex1.v_x.dat").read_text().splitlines()
    assert len(vx) == len(rows)
    t0, v0 = vx[0].split("\t")
    assert float(t0) == rows[0]["t"]
    assert float(v0) == rows[0]["v_x"]
    for col in ("v_x", "in_hull", "newton_iters"):
        reference = "".join(f"{row['t']:.17g}\t{float(row[col]):.17g}\n" for row in rows)
        assert (tmp_path / "plots" / f"ex1.{col}.dat").read_bytes() == reference.encode()


# example1's 22 plot files as write_plot_data wrote them when it formatted
# the t column once per output file: SHA-256 over each file's name, a NUL
# and its bytes, in the order returned.  Like tests/test_golden.py's digest
# it moves with example1's records, and only with them.
PLOT_FILES_SHA256 = "4371978a87b17c3509e7ac35468e4019bc84d9e4455ea1b46f6b036549ef2bdf"


def test_write_plot_data_bytes_are_pinned(ex1_records, tmp_path):
    path = tmp_path / "ex1.csv"
    write_trajectory(ex1_records, path)
    files = write_plot_data(read_trajectory(path), tmp_path / "plots" / "ex1")
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    assert len(files) == 22
    assert digest.hexdigest() == PLOT_FILES_SHA256


def _class_call_steps(rows):
    # observed_steps as the class calls build it
    states = [
        SliderState(row["q_x"], row["q_y"], row["theta_z"], row["v_x"], row["v_y"], row["w_z"], row["t"])
        for row in rows
    ]
    return [
        ObservedStep(
            prev, cur,
            AppliedImpulse(row["p_x"], row["p_y"], 0.0, row["p_xtau"], row["p_ytau"], row["p_ztau"]),
            row["p_n"],
        )
        for prev, cur, row in zip(states, states[1:], rows[1:])
    ]


def _assert_same_steps(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        for part in ("state_u", "state_u1", "applied"):
            assert type(getattr(a, part)) is type(getattr(b, part))
        assert a == b
        assert repr(a) == repr(b)  # == cannot tell -0.0 from 0.0


def test_observed_steps_equal_the_class_call_construction(
        ex1_records, ex2_records, ex3_records, tmp_path):
    awkward = [_awkward_record(0.1, True, 0), _awkward_record(42.0, False, 10**15)]
    for k, records in enumerate((ex1_records, ex2_records, ex3_records, awkward)):
        path = tmp_path / f"{k}.csv"
        write_trajectory(records, path)
        rows = read_trajectory(path)
        _assert_same_steps(observed_steps(rows), _class_call_steps(rows))


@pytest.mark.parametrize("cell, value, message", [
    ("t", None, "observed step must advance time"),
    ("t", float("nan"), "observed step must advance time"),
    ("p_n", 0.0, "normal impulse must be positive"),
    ("p_n", -1.0, "normal impulse must be positive"),
    ("p_n", float("nan"), "normal impulse must be positive"),
])
def test_observed_steps_reject_a_bad_transition_as_the_class_calls_do(
        ex1_records, tmp_path, cell, value, message):
    path = tmp_path / "ex1.csv"
    write_trajectory(ex1_records, path)
    rows = read_trajectory(path)
    # None: row 3's time repeats row 2's, so that transition does not advance
    rows[3][cell] = rows[2][cell] if value is None else value
    with pytest.raises(ValidationError) as want:
        _class_call_steps(rows)
    with pytest.raises(ValidationError) as got:
        observed_steps(rows)
    assert str(got.value) == str(want.value) == message


@pytest.mark.parametrize("cell, message", [
    ("p_n", "normal impulse is not finite, got inf"),
    ("t", "observed step length is not finite: t = 0.03 to inf"),
])
def test_observed_steps_reject_an_infinite_cell_as_the_class_calls_do(ex1_records, tmp_path, cell, message):
    path = tmp_path / "ex1.csv"
    write_trajectory(ex1_records, path)
    rows = read_trajectory(path)
    rows[3][cell] = float("inf")
    with pytest.raises(ValidationError) as want:
        _class_call_steps(rows)
    with pytest.raises(ValidationError) as got:
        observed_steps(rows)
    assert str(got.value) == str(want.value) == message


def test_read_rejects_wrong_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,x,y\n1,2,3\n")
    with pytest.raises(ValidationError, match="header"):
        read_trajectory(p)


def test_read_rejects_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ValidationError, match="empty file"):
        read_trajectory(p)


def test_read_rejects_truncated_row(ex1_records, tmp_path):
    p = tmp_path / "trunc.csv"
    write_trajectory(ex1_records[:3], p)
    lines = p.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:10])
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=r":3: expected 23 fields"):
        read_trajectory(p)


def test_read_rejects_non_numeric_cell(ex1_records, tmp_path):
    p = tmp_path / "garbled.csv"
    write_trajectory(ex1_records[:3], p)
    lines = p.read_text().splitlines()
    cells = lines[3].split(",")
    cells[4] = "fast"
    lines[3] = ",".join(cells)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=r":4:"):
        read_trajectory(p)


def _edited_log(records, tmp_path, edits):
    """Write records, then apply edits {line number: (column, text)}; a
    column of None cuts the row to its first ten cells."""
    p = tmp_path / "edited.csv"
    write_trajectory(records, p)
    lines = p.read_text().splitlines()
    for ln, (col, text) in edits.items():
        cells = lines[ln - 1].split(",")
        if col is None:
            cells = cells[:10]
        else:
            cells[col] = text
        lines[ln - 1] = ",".join(cells)
    p.write_text("\n".join(lines) + "\n")
    return p


def _read_error(path):
    with pytest.raises(ValidationError) as info:
        read_trajectory(path)
    return str(info.value)


@pytest.mark.parametrize("edits,message", [
    # a bad cell before a short row
    ({3: (4, "fast"), 5: (None, "")}, ":3: could not convert string to float: 'fast'"),
    # a short row before a bad cell
    ({3: (None, ""), 5: (4, "fast")}, ":3: expected 23 fields, got 10"),
    # a bad cell late in one row before a bad cell early in the next
    ({3: (21, "many"), 4: (1, "left")}, ":3: invalid literal for int() with base 10: 'many'"),
    ({4: (15, "yes")}, ":4: invalid literal for int() with base 10: 'yes'"),
], ids=["bad-cell-then-short-row", "short-row-then-bad-cell", "late-cell-then-early-cell", "bad-flag"])
def test_read_reports_the_first_bad_line(ex1_records, tmp_path, edits, message):
    p = _edited_log(ex1_records[:6], tmp_path, edits)
    assert _read_error(p) == f"{p}{message}"


def test_read_rejects_a_field_over_the_csv_limit(tmp_path):
    # csv.Error escaped read_trajectory
    limit = csv.field_size_limit()
    p = tmp_path / "huge.csv"
    p.write_text(",".join(COLUMNS) + "\n" + "1" * (limit + 1) + "\n")
    assert _read_error(p) == f"{p}:2: field larger than field limit ({limit})"
