"""In-memory span tracing at the public boundaries of the spheretop modules.

The tracer replaces module attributes with timing wrappers, so every call that
goes through a module namespace (``relequil.solve_re``, ``cli.integrate``, the
names each module imported from another, ...) is recorded as a span: name,
start, end, parent span and operation id.  Self time is a span's duration minus
the part its child spans cover.  Aggregates (calls, self and inclusive time,
failures, bytes) are kept as the spans close; the raw spans stay in compact
arrays and are written once, at the end of the run.

Wrappers pass straight through while the tracer is inactive, so the benchmark's
own correctness checks, which call the same library functions, do not count
towards the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (defining module, function) pairs wrapped wherever a spheretop module binds
# them.  quat_mul is the exception: the layer of interest is its use by the
# flows, the reduction and the RE reconstruction, not the Quaternion operators.
TARGETS = (
    ("relequil", "solve_re"),
    ("relequil", "zeta_of"),
    ("relequil", "phi_branches"),
    ("relequil", "reconstruct_re"),
    ("relequil", "re_from_tau"),
    ("relequil", "verify_re_fixed_point"),
    ("stability", "linearize"),
    ("stability", "jacobian_full_reduced"),
    ("stability", "fold_locus"),
    ("stability", "charpoly_2body"),
    ("stability", "charpoly_lagrange"),
    ("energy_casimir", "ec_sample"),
    ("energy_casimir", "ec_surface"),
    ("energy_casimir", "ec_csv"),
    ("phase_space", "hamiltonian_2body"),
    ("phase_space", "momentum_left"),
    ("phase_space", "momentum_right"),
    ("dynamics", "rhs_full_reduced"),
    ("dynamics", "trajectory_csv"),
    ("dynamics", "drift_summary"),
    ("reduction", "left_reduce"),
    ("reduction", "hilbert_map"),
    ("reduction", "all_casimirs"),
    ("reduction", "stratum_classify"),
)
QUAT_MUL_SITES = ("dynamics", "reduction", "relequil")
NEW_OP = {"energy_casimir.ec_sample"}  # one grid node is one operation
BYTES = {"energy_casimir.ec_csv", "dynamics.trajectory_csv"}
LEVELS = {16: "full", 10: "reduced", 8: "invariants"}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self) -> None:
        self.active = False
        self.op = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.failed: list[int] = []
        self.nbytes: list[int] = []
        self.counters: dict[str, int] = {}
        self.root_s = 0.0
        self._stack: list[list] = []
        self.s_name = array("i")
        self.s_parent = array("q")
        self.s_op = array("q")
        self.s_start = array("d")
        self.s_end = array("d")
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.failed.append(0)
            self.nbytes.append(0)
        return nid

    def _open(self, nid: int, new_op: bool) -> list:
        if new_op:
            self.op += 1
        stack = self._stack
        idx = len(self.s_start)
        self.s_name.append(nid)
        self.s_parent.append(stack[-1][0] if stack else -1)
        self.s_op.append(self.op)
        self.s_start.append(0.0)
        self.s_end.append(0.0)
        frame = [idx, 0.0, 0.0]
        stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def _close(self, nid: int, frame: list, ok: bool) -> None:
        t1 = perf_counter()
        stack = self._stack
        stack.pop()
        idx, child, t0 = frame
        dur = t1 - t0
        self.s_start[idx] = t0
        self.s_end[idx] = t1
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        self.total_s[nid] += dur
        if not ok:
            self.failed[nid] += 1
        if stack:
            stack[-1][1] += dur
        else:
            self.root_s += dur

    def wrap(self, name: str, fn, *, new_op: bool = False):
        nid = self._id(name)
        measure = name in BYTES
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(nid, new_op)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._close(nid, frame, ok)
            if measure:
                tracer.nbytes[nid] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str, *, new_op: bool = False):
        if not self.active:
            yield
            return
        nid = self._id(name)
        frame = self._open(nid, new_op)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(nid, frame, ok)

    def count(self, name: str, n: int) -> None:
        if self.active:
            self.counters[name] = self.counters.get(name, 0) + n

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions in every loaded spheretop module."""
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "spheretop" or name.startswith("spheretop."))}
        for modname, fname in TARGETS:
            orig = getattr(mods[f"spheretop.{modname}"], fname)
            wrapper = self.wrap(f"{modname}.{fname}", orig,
                                new_op=f"{modname}.{fname}" in NEW_OP)
            for mod in mods.values():
                if getattr(mod, fname, None) is orig:
                    self._patch(mod, fname, wrapper)
        orig = mods["spheretop.quaternion"].quat_mul
        wrapper = self.wrap("quaternion.quat_mul", orig)
        for site in QUAT_MUL_SITES:
            self._patch(mods[f"spheretop.{site}"], "quat_mul", wrapper)
        cli = mods["spheretop.cli"]
        self._patch(cli, "integrate", self._wrap_integrate(cli.integrate))

    def _wrap_integrate(self, integrate):
        """Per-level spans around the integrator and the callable it is given.

        The level is read off the state dimension (16, 10 or 8)."""
        tracer = self
        wrapped = {level: (self.wrap(f"dynamics.integrate.{level}", integrate),
                           f"dynamics.rhs.{level}") for level in LEVELS.values()}

        def traced_integrate(rhs, y0, *args, **kwargs):
            level = LEVELS[len(y0)]
            outer, rhs_name = wrapped[level]
            traj = outer(tracer.wrap(rhs_name, rhs), y0, *args, **kwargs)
            tracer.count(f"dynamics.integrate.{level}.accepted", traj.n_accepted)
            tracer.count(f"dynamics.integrate.{level}.rejected", traj.n_rejected)
            return traj

        return traced_integrate

    def _patch(self, mod, attr: str, value) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def snapshot_counts(self) -> dict[str, int]:
        """Every count the tracer keeps; these must repeat exactly per seed."""
        out = {f"{n}.calls": c for n, c in zip(self.names, self.calls)}
        out.update({f"{n}.failed": f for n, f in zip(self.names, self.failed)})
        out.update({f"{n}.bytes": b for n, b in zip(self.names, self.nbytes)})
        out.update(self.counters)
        return out

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, total_s, failed and bytes so far."""
        return {n: {"calls": c, "self_s": s, "total_s": t, "failed": f, "bytes": b}
                for n, c, s, t, f, b in zip(self.names, self.calls, self.self_s,
                                            self.total_s, self.failed, self.nbytes)}

    def write(self, path: Path) -> None:
        """Write the raw spans as a compressed NumPy archive."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh, names=np.array(self.names), name=np.frombuffer(self.s_name, np.int32),
                parent=np.frombuffer(self.s_parent, np.int64),
                op=np.frombuffer(self.s_op, np.int64),
                start=np.frombuffer(self.s_start, np.float64),
                end=np.frombuffer(self.s_end, np.float64))
