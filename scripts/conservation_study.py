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
    make_body_rhs,
    make_invariant_rhs,
    make_reduced_rhs,
    sample_blocks,
)
from spheretop.phase_space import (
    MassParams,
    Potential,
    from_body_coords,
    random_phase_state,
    to_body_coords,
)
from spheretop.reduction import hilbert_map, left_reduce


def main(seed: str = "3") -> int:
    rng = np.random.default_rng(int(seed))
    m = MassParams(1.0, 1.4)
    pot = Potential.linear(0.9)
    state = random_phase_state(rng, momentum_scale=0.5)
    rs = left_reduce(state)
    levels = (
        # integrated in (g, B), measured in (g, p)
        ("full", make_body_rhs(m, pot), to_body_coords(state), invariants_state(m, pot),
         from_body_coords),
        ("reduced", make_reduced_rhs(m, pot), tuple(rs), invariants_reduced(m, pot), None),
        ("invariant", make_invariant_rhs(m, pot), tuple(hilbert_map(rs)),
         invariants_point(m, pot), None),
    )

    print(f"{'tol':>8} {'space':>10} {'steps':>7} {'sec':>6}  drift per invariant")
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        cfg = FlowConfig(rel_tol=tol, abs_tol=tol)
        for label, rhs, start, funcs, leave in levels:
            t0 = time.perf_counter()
            traj = integrate(rhs, start, 100.0, cfg, sample_dt=5.0)
            dt = time.perf_counter() - t0
            drifts = drift_summary(sample_blocks(traj, funcs, leave)[1])
            pretty = "  ".join(f"{k}={v:.1e}" for k, v in drifts.items())
            print(f"{tol:8.0e} {label:>10} {traj.n_accepted:7d} {dt:6.2f}  {pretty}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
