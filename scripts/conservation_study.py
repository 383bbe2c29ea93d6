#!/usr/bin/env python3
"""Drift of the conserved quantities against integrator tolerance.

Draws one generic phase-space state, reduces it, and integrates the same
trajectory on the unreduced space, the translation-reduced space and the
invariant variety to T = 100 over a range of tolerances, printing the
observed relative drifts.  Conservation is monitored, never enforced, so the
drift should track the tolerance until it hits the floating-point floor.
"""

import sys
import time

import numpy as np

from spheretop.dynamics import (
    FlowConfig,
    drift_summary,
    integrate,
    invariants_point,
    invariants_reduced,
    invariants_state,
    make_invariant_rhs,
    make_reduced_rhs,
    make_state_rhs,
    point_to_vec,
    reduced_to_vec,
    sample_columns,
    state_to_vec,
)
from spheretop.phase_space import MassParams, Potential, random_phase_state
from spheretop.reduction import hilbert_map, left_reduce


def main(seed: str = "3") -> int:
    rng = np.random.default_rng(int(seed))
    m = MassParams(1.0, 1.4)
    pot = Potential.linear(0.9)
    state = random_phase_state(rng, momentum_scale=0.5)
    rs = left_reduce(state)
    levels = (
        ("full", make_state_rhs(m, pot), state_to_vec(state), invariants_state(m, pot)),
        ("reduced", make_reduced_rhs(m, pot), reduced_to_vec(rs), invariants_reduced(m, pot)),
        ("invariant", make_invariant_rhs(m, pot), point_to_vec(hilbert_map(rs)),
         invariants_point(m, pot)),
    )

    print(f"{'tol':>8} {'space':>10} {'steps':>7} {'sec':>6}  drift per invariant")
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        cfg = FlowConfig(rel_tol=tol, abs_tol=tol)
        for label, rhs, start, funcs in levels:
            t0 = time.perf_counter()
            traj = integrate(rhs, start, 100.0, cfg, sample_dt=5.0)
            dt = time.perf_counter() - t0
            drifts = drift_summary(sample_columns(traj, funcs))
            pretty = "  ".join(f"{k}={v:.1e}" for k, v in drifts.items())
            print(f"{tol:8.0e} {label:>10} {traj.n_accepted:7d} {dt:6.2f}  {pretty}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
