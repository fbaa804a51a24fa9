"""Correctness checks on the program's outputs.

They run outside the timed region.  Each returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

# the bound the compare command holds the two solution paths to
COMPARE_TOLERANCE = 1e-6
# sliding impulses sit on the friction ellipsoid to this share of (mu p_n)^2
ELLIPSOID_REL_TOL = 1e-9
# identification must recover the generating triple to this relative error
SYSID_REL_TOL = 1e-6


def check_records(scen, records) -> list[str]:
    """Rest records carry exactly zero velocities; sliding impulses lie on
    the friction ellipsoid.

    The program flags two kinds of step as rest, and either ends the run.
    On a stopping step (sigma = 0) friction absorbs all momentum and the
    velocities must be exactly zero.  A converged slip slower than the
    scenario's sigma_min is declared rest too; its velocities are the
    true, tiny end-of-step velocities, and its impulse must still lie on
    the ellipsoid (the sampled oracle steps check such solves as well)."""
    f = scen.friction
    sigma_min = scen.options.sigma_min
    problems = []
    for k, rec in enumerate(records):
        s = rec.state
        imp = rec.impulses
        if rec.diagnostics.rest_flag:
            if k != len(records) - 1:
                problems.append(f"step {k}: rest record before the end of the run")
            if imp.sigma == 0.0 and (s.v_x, s.v_y, s.w_z) != (0.0, 0.0, 0.0):
                problems.append(f"step {k}: stopping record with nonzero velocity")
            if not 0.0 <= imp.sigma < sigma_min:
                problems.append(f"step {k}: rest record with slip speed {imp.sigma!r}")
        elif not imp.sigma >= sigma_min:
            problems.append(f"step {k}: slip speed {imp.sigma!r} below sigma_min, not flagged as rest")
        if imp.sigma > 0.0:
            bound = (f.mu * imp.p_n) ** 2
            gap = (imp.p_t / f.e_t) ** 2 + (imp.p_o / f.e_o) ** 2 + (imp.p_r / f.e_r) ** 2 - bound
            if not abs(gap) <= ELLIPSOID_REL_TOL * bound:
                problems.append(f"step {k}: impulse off the friction ellipsoid by {gap / bound:.3e} of (mu p_n)^2")
    return problems


def sample_steps(rng: np.random.Generator, runs: dict[int, list], k: int) -> list[tuple[int, int]]:
    """k (run, step) pairs drawn uniformly over all recorded steps."""
    index = [(i, j) for i in sorted(runs) for j in range(len(runs[i]))]
    if len(index) <= k:
        return index
    picks = rng.choice(len(index), size=k, replace=False)
    return [index[p] for p in sorted(picks)]


def check_against_oracle(ps, scen, records, step: int) -> list[str]:
    """The recorded impulse of one step agrees with the independent oracle
    solve of the same step inputs, by the compare command's measure."""
    state_u = scen.initial if step == 0 else records[step - 1].state
    inputs = ps.assemble_inputs(state_u, scen)
    try:
        ref = ps.oracle_solve_step(inputs)
    except ps.OracleFailure as e:
        return [f"step {step}: oracle failed: {e}"]
    sol = records[step].impulses
    m = scen.params.m
    I_z = scen.params.I_z
    d_t = abs(sol.p_t - ref.p_t)
    d_o = abs(sol.p_o - ref.p_o)
    d_r = abs(sol.p_r - ref.p_r)
    dev = max(d_t, d_o, d_r, d_t / m, d_o / m, d_r / I_z)
    if not dev <= COMPARE_TOLERANCE:
        return [f"step {step}: deviates from the oracle by {dev:.3e}"]
    return []


def check_estimate(estimate, truth) -> list[str]:
    got = (estimate.et2mu, estimate.ratio_o, estimate.ratio_r)
    problems = []
    for name, g, t in zip(("et2mu", "ratio_o", "ratio_r"), got, truth):
        if not abs(g - t) <= SYSID_REL_TOL * abs(t):
            problems.append(f"{name} = {g!r}, generated with {t!r}")
    return problems
