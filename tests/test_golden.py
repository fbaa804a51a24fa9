"""Records of the bundled examples, pinned bit for bit.

The digest below is a SHA-256 over every record of example1, example2 and
example3 and of example1 at h = 1e-3: for each record, the repr of its
state, contact impulse, ECP and applied impulse, then its scalar
iteration count, the exact bits of its residual norm (float.hex) and its
rest flag.  Any change to the arithmetic of a step, however small, moves
it.

The digest may change only on purpose, for a change meant to alter the
records (a different integrator or solve, say).  Such a change records the
old and new digest and the reason in CHANGES.md.  A change meant to leave
outputs alone, such as a speed-up, must leave it as it is.
"""

import hashlib
import warnings
from dataclasses import replace

from patchslide import resolve_scenario, simulate

GOLDEN_RECORDS = 851
GOLDEN_SHA256 = "cc8838781f2bd82ca8bcb973bf248ce3a98fc35a8d2f289eb56b89a16b9001fa"


def _scenarios():
    scens = [resolve_scenario(name) for name in ("example1", "example2", "example3")]
    scens.append(replace(scens[0], h=1e-3))
    return scens


def _line(rec) -> str:
    d = rec.diagnostics
    fields = (rec.state, rec.impulses, rec.ecp, rec.applied)
    return f"{fields!r}|{d.newton_iters}|{d.residual_norm.hex()}|{d.rest_flag}\n"


def test_bundled_example_records_are_bit_identical():
    digest = hashlib.sha256()
    n = 0
    for scen in _scenarios():
        with warnings.catch_warnings():
            # example3's pusher takes the ECP out of the hull; the flag is in the records
            warnings.simplefilter("ignore", UserWarning)
            records = simulate(scen)
        for rec in records:
            digest.update(_line(rec).encode())
            n += 1
    assert n == GOLDEN_RECORDS
    assert digest.hexdigest() == GOLDEN_SHA256
