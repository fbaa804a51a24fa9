"""Trajectory CSV persistence.

One row per completed step, fixed column order, floats at 17 significant
digits so that doubles round-trip exactly and downstream identification
can reconstruct impulses losslessly.  The same schema is written by the
simulate and translate commands and read back by sysid.
"""

from __future__ import annotations

import csv
import errno
import os
import stat
from itertools import repeat, starmap
from operator import itemgetter
from pathlib import Path

from .core import AppliedImpulse, SliderState
from .errors import ValidationError
from .stepper import TrajectoryRecord
from .sysid import ObservedStep

__all__ = [
    "COLUMNS",
    "write_trajectory",
    "read_trajectory",
    "observed_steps",
    "write_plot_data",
]

COLUMNS = (
    "t", "q_x", "q_y", "theta_z", "v_x", "v_y", "w_z",
    "p_t", "p_o", "p_r", "sigma", "p_n", "a_x", "a_y",
    "in_hull", "in_patch",
    "p_x", "p_y", "p_xtau", "p_ytau", "p_ztau",
    "newton_iters", "residual_norm",
)


def _flag(v: str) -> bool:
    return bool(int(v))


# one parser per column, in COLUMNS order; it also fixes each column's format
_CONVERTERS = tuple(
    _flag if c in ("in_hull", "in_patch") else int if c == "newton_iters" else float
    for c in COLUMNS
)

# exactly the bytes csv.writer writes: no %.17g or %d field holds a
# delimiter, quote or line break, so nothing is quoted, and "\r\n" is its
# default line terminator
_HEADER = ",".join(COLUMNS) + "\r\n"
_ROW = ",".join("%.17g" if conv is float else "%d" for conv in _CONVERTERS) + "\r\n"


def _record_row(rec: TrajectoryRecord) -> str:
    s = rec.state
    i = rec.impulses
    e = rec.ecp
    a = rec.applied
    d = rec.diagnostics
    return _ROW % (
        s.t, s.q_x, s.q_y, s.theta_z, s.v_x, s.v_y, s.w_z,
        i.p_t, i.p_o, i.p_r, i.sigma, i.p_n,
        e.a_x, e.a_y, e.in_hull, e.in_patch,
        a.p_x, a.p_y, a.p_xtau, a.p_ytau, a.p_ztau,
        d.newton_iters, d.residual_norm,
    )


def _file_error(what: str, path: str | Path, e: OSError) -> ValidationError:
    # what cannot be done to path, and the system's reason
    return ValidationError(f"{what} {path}: {e.strerror or e}")


def _open(path: str | Path):
    # the trajectory file at path, opened for reading as csv wants;
    # ValidationError naming the path when it cannot be
    try:
        return open(path, newline="")
    except OSError as e:
        raise _file_error("cannot open trajectory file", path, e) from e


def _check_writable(path: str | Path, what: str = "cannot open trajectory file") -> None:
    # raise the ValidationError "<what> <path>: <reason>" if path cannot be
    # opened for writing, without creating or truncating it: an existing
    # file is opened for writing in place, a new one needs a writable
    # directory
    try:
        os.close(os.open(path, os.O_WRONLY))
        return
    except FileNotFoundError as e:
        missing = e
    except OSError as e:
        raise _file_error(what, path, e) from e
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise _file_error(what, path, missing) from missing
    if not os.access(parent, os.W_OK | os.X_OK):
        denied = PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        raise _file_error(what, path, denied)


# no O_TRUNC: cutting a file to zero length makes ext4 (auto_da_alloc)
# write its blocks back when it is closed, cutting it to a non-zero length
# afterwards does not.  O_BINARY keeps Windows from translating newlines.
_REPLACE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _replace(path: str | Path, text: str, what: str, newline: str | None = None) -> None:
    # give the file at path exactly the content text, written as
    # open(path, "w", newline=newline) would write it: overwrite it in
    # place, then cut a regular file to the end of text (a device such as
    # /dev/null cannot be truncated).  Any OSError becomes the
    # ValidationError "<what> <path>: <reason>"
    try:
        with open(os.open(path, _REPLACE_FLAGS, 0o666), "w", newline=newline) as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as e:
        raise _file_error(what, path, e) from e


def write_trajectory(records: list[TrajectoryRecord], path: str | Path) -> None:
    """Write records to CSV; a run with no steps yields a header-only file.
    An existing file is overwritten in place and cut to the new length.
    Raises ValidationError when the file cannot be opened or written."""
    _replace(path, _HEADER + "".join(map(_record_row, records)), "cannot write trajectory file", newline="")


def _raise_first_error(path: str | Path, raw: list[list[str]]) -> None:
    """Convert row by row and raise ValidationError for the first bad line
    in file order."""
    for ln, cells in enumerate(raw, start=2):
        if len(cells) != len(COLUMNS):
            raise ValidationError(f"{path}:{ln}: expected {len(COLUMNS)} fields, got {len(cells)}")
        try:
            for conv, val in zip(_CONVERTERS, cells):
                conv(val)
        except ValueError as e:
            raise ValidationError(f"{path}:{ln}: {e}") from None


def read_trajectory(path: str | Path) -> list[dict]:
    """Read a trajectory CSV into one dict per row, with numeric types
    restored.  Raises ValidationError when the file cannot be opened or
    decoded, when the header does not match the schema, or naming the
    first line that csv cannot split (such as one with a field longer than
    csv.field_size_limit()), whose field count is wrong or whose value
    fails to parse."""
    with _open(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            if tuple(header) != COLUMNS:
                raise ValidationError(
                    f"{path}: header does not match the trajectory schema "
                    f"(got {header!r})"
                )
            raw = list(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file, expected a trajectory header") from None
        except UnicodeDecodeError as e:
            raise ValidationError(f"{path}: not a {e.encoding} text file ({e.reason})") from None
        except csv.Error as e:
            raise ValidationError(f"{path}:{reader.line_num}: {e}") from None
    n = len(COLUMNS)
    try:
        # zip(*raw) would drop the cells of short rows, so count fields first
        if not all(len(cells) == n for cells in raw):
            raise ValueError("wrong field count")
        columns = [list(map(conv, col)) for conv, col in zip(_CONVERTERS, zip(*raw))]
    except ValueError:
        _raise_first_error(path, raw)
        raise
    return list(map(dict, map(zip, repeat(COLUMNS), zip(*columns))))


# a row's SliderState fields, and the impulses that end a transition at it
_STATE_CELLS = itemgetter("q_x", "q_y", "theta_z", "v_x", "v_y", "w_z", "t")
_STEP_CELLS = itemgetter("p_x", "p_y", "p_xtau", "p_ytau", "p_ztau", "p_n")


def observed_steps(rows: list[dict]) -> list[ObservedStep]:
    """Pair consecutive rows into observed transitions for identification.

    Row k holds the state after step k and the impulse applied during
    step k, so the transition from row k to row k+1 uses row k+1's
    applied and normal impulses.  N rows yield N-1 transitions; the
    initial state is not recoverable from the file.
    """
    # one frozen state per row, shared by the two transitions it ends and
    # starts; the positional builders give what the class calls give
    states = list(starmap(SliderState._new, map(_STATE_CELLS, rows)))
    new_applied = AppliedImpulse._new
    new_step = ObservedStep._new
    return [
        new_step(prev, cur, new_applied(p_x, p_y, 0.0, p_xtau, p_ytau, p_ztau), p_n)
        for prev, cur, (p_x, p_y, p_xtau, p_ytau, p_ztau, p_n) in zip(states, states[1:], map(_STEP_CELLS, rows[1:]))
    ]


def _plot_data_paths(prefix: str | Path) -> list[Path]:
    # the files write_plot_data writes for prefix, in COLUMNS order: one
    # <prefix>.<column>.dat per column after t
    prefix = Path(prefix)
    return [prefix.with_name(f"{prefix.name}.{col}.dat") for col in COLUMNS[1:]]


def write_plot_data(rows: list[dict], prefix: str | Path) -> list[Path]:
    """Emit one two-column (t, value) file per numeric column, named
    <prefix>.<column>.dat, ready for external plotting tools.  An existing
    file is overwritten in place and cut to the new length.  Raises
    ValidationError naming the file or directory that cannot be made."""
    prefix = Path(prefix)
    try:
        prefix.parent.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise _file_error("cannot make plot data directory", prefix.parent, e) from e
    # every file's first column, formatted once
    times = ["%.17g\t" % row["t"] for row in rows]
    written = _plot_data_paths(prefix)
    for col, out in zip(COLUMNS[1:], written):
        _replace(out, "".join([t + "%.17g\n" % float(row[col]) for t, row in zip(times, rows)]),
                 "cannot write plot data file")
    return written
