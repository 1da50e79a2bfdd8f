"""The three benchmark workloads: inputs built from a seed, ops, and checks.

A workload object builds every input from its seed in `__init__`, before
any op runs, so the library only ever sees generated inputs.  `run_op(i)`
runs op number i and returns True when that op's correctness check holds;
ops cycle round-robin over the workload's `cycle` cases, so a slow window
of the host hits every case alike.  `fingerprint()` hashes the generated
inputs, which lets the smoke test see that a new seed gives new inputs.
`nominal_rate` (ops/s on a 2-CPU host) sizes the fixed op count of a
traced run.

The library is reached through attribute lookups at call time
(`um.ep_field`, `cli.main`, ...), so the wrappers of a traced run see
every call the ops make.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import unimech as um
import unimech.cli as cli

# One flow_long op: a fixed-length RK4 segment that continues the previous
# one; 50 steps keep one op near 10-20 ms on a 2-CPU host.  The identity
# residual differentiates the states three times, so its rounding floor
# grows like eps * |pi| / h^3: at h = 1e-3 it neared 1e-6 after ~3e4 steps
# of a unit-scale ep3 run, at h = 2e-3 it stays near 1e-7.
FLOW_STEPS = 50
FLOW_H = 2e-3
DRIFT_TOL = 1e-8  # relative energy drift over a whole trajectory
RESIDUAL_TOL = 1e-6  # transported-momentum identity, as in acceptance criterion 7

# jet_products: the composite round and its group-law tolerance.
JET_GROUPS = (("SO", 3), ("SL", 2), ("GL", 3))
TN_ORDERS = (2, 3, 4)
ITERATED_ORDERS = (2, 3)
JET_POOL = 4
GROUP_LAW_TOL = 1e-9

# cli_runs: short integrations, so the per-run fixed costs (parse, build,
# validate, report, write-out) are about half of each op.
CLI_STEPS = 40
CLI_H = 1e-3
CLI_DRIFT_TOL = 1e-8


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()[:16]


def _spd(rng: np.random.Generator, n: int) -> np.ndarray:
    """A well-conditioned full symmetric positive-definite inertia."""
    a = rng.standard_normal((n, n))
    return a @ a.T / n + np.eye(n)


class _Trajectory:
    """One long trajectory of flow_long, advanced segment by segment."""

    def __init__(self, field, spec, state, algebra=None):
        self.field = field
        self.spec = spec
        self.state = np.asarray(state, dtype=float)
        self.h0 = spec.hamiltonian(self.state)
        self.drift = 0.0  # bound on max |H - H0| over the whole trajectory
        self.algebra = algebra  # set for ep3: run the identity residual too


class FlowLong:
    """Three long trajectories advanced round-robin: kepler `ep` with a
    diagonal inertia (dim 6), tokamak/so3 `lp` with a full SPD inertia
    (dim 12, the Cholesky path) and so3 `ep3` from an aligned start
    pi2 = c * pi1 (dim 9, identity inertia as the identity check needs)."""

    cycle = 3
    nominal_rate = 70

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        kepler = um.build_model("kepler", {"e": float(rng.uniform(0.2, 0.9))})
        kepler_spec = um.EnergySpec.diagonal(rng.uniform(0.5, 2.0, 6))
        tokamak = um.build_model("tokamak", {"base": "so3", "b_i": float(rng.uniform(0.5, 1.5))})
        tokamak_spec = um.EnergySpec.quadratic(_spd(rng, 12))
        so3 = um.preset("so3")
        ep3_spec = um.EnergySpec.identity(9)
        p0, p1 = rng.standard_normal(3), rng.standard_normal(3)
        pi = np.concatenate([p0, p1, float(rng.uniform(0.5, 1.0)) * p1])
        self.cases = [
            _Trajectory(lambda y: um.ep_field(kepler, kepler_spec, y),
                        kepler_spec, 0.5 * rng.standard_normal(6)),
            _Trajectory(lambda y: um.lp_field(tokamak, tokamak_spec, y),
                        tokamak_spec, 0.5 * rng.standard_normal(12)),
            _Trajectory(lambda y: um.ep3_field(so3, ep3_spec, y), ep3_spec, pi, algebra=so3),
        ]
        self._inputs = (kepler_spec.inertia, tokamak_spec.inertia, kepler.theta, tokamak.theta,
                        *(c.state for c in self.cases))

    def fingerprint(self) -> str:
        return _digest(*self._inputs)

    def run_op(self, i: int) -> bool:
        c = self.cases[i % self.cycle]
        traj = um.rk4(c.field, c.state, FLOW_H, FLOW_STEPS)
        entry = um.conservation_report(traj, {"hamiltonian": c.spec.hamiltonian})["hamiltonian"]
        c.state = traj.states[-1]
        c.drift = max(c.drift, abs(entry["initial"] - c.h0) + entry["max_abs_drift"])
        ok = c.drift <= DRIFT_TOL * abs(c.h0)
        if c.algebra is not None:
            residual = um.third_order_identity_residual(c.algebra, c.spec, traj)
            ok = ok and float(np.max(residual)) <= RESIDUAL_TOL
        return ok


def _jet_gap(a, b) -> float:
    return max(float(np.max(np.abs(a.base - b.base))),
               float(np.max(np.abs(a.slots - b.slots), initial=0.0)))


class JetProducts:
    """Every op is the same composite round over SO(3), SL(2) and GL(3):
    tn_multiply + tn_inverse at orders 2-4, iterated_multiply +
    iterated_inverse at orders 2-3, and one GL(3) t3_factorize.  The round
    then checks a * a^-1 = e on one of its pairs, rotating through them."""

    cycle = 1
    nominal_rate = 150

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.layouts = []  # (kind, order, pool, unit)
        for group, dim in JET_GROUPS:
            for kind, orders in (("tangent", TN_ORDERS), ("iterated", ITERATED_ORDERS)):
                for order in orders:
                    pool = [um.random_jet(group, dim, order, kind=kind, rng=rng)
                            for _ in range(JET_POOL)]
                    unit = um.unit_jet(group, dim, order, kind=kind)
                    self.layouts.append((kind, order, pool, unit))
        self.triples = [um.random_jet("GL", 3, 3, kind="iterated", rng=rng)
                        for _ in range(JET_POOL)]

    def fingerprint(self) -> str:
        jets = [j for *_, pool, _ in self.layouts for j in pool] + self.triples
        return _digest(*(j.base for j in jets), *(j.slots for j in jets))

    def run_op(self, i: int) -> bool:
        k = i % JET_POOL
        checked = None
        for n, (kind, order, pool, unit) in enumerate(self.layouts):
            if kind == "tangent":
                mul, inv = um.tn_multiply, um.tn_inverse
            else:
                mul, inv = um.iterated_multiply, um.iterated_inverse
            a, b = pool[k], pool[(k + 1) % JET_POOL]
            mul(order, a, b)
            a_inv = inv(order, a)
            if n == i % len(self.layouts):
                checked = (mul, order, a, a_inv, unit)
        um.t3_factorize(self.triples[k])  # raises FactorizationError on a missed round trip
        mul, order, a, a_inv, unit = checked
        return _jet_gap(mul(order, a, a_inv), unit) <= GROUP_LAW_TOL


class CliRuns:
    """One op is one in-process `unimech run` on a generated config.  The
    configs cycle over kepler at three eccentricities, tokamak on
    so3/sl2/heisenberg, two inline product documents and ep3 on two plain
    presets, with ep/lp/ep3 and identity, diagonal and full inertias."""

    nominal_rate = 55

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)

        def state(n):
            return (0.5 * rng.standard_normal(n)).tolist()

        def diag(n):
            return rng.uniform(0.5, 2.0, n).tolist()

        kepler_doc = um.product_to_doc(um.build_model("kepler", {"e": float(rng.uniform(0.1, 0.9))}))
        heis_doc = um.product_to_doc(um.build_model("tokamak", {"base": "heisenberg"}))
        specs = [
            ({"name": "kepler", "params": {"e": float(rng.uniform(0.05, 0.35))}}, "ep", diag(6), 6),
            ({"name": "kepler", "params": {"e": float(rng.uniform(0.35, 0.65))}}, "lp", diag(6), 6),
            ({"name": "kepler", "params": {"e": float(rng.uniform(0.65, 0.95))}}, "ep",
             _spd(rng, 6).tolist(), 6),
            ({"name": "tokamak", "params": {"base": "so3", "b_i": float(rng.uniform(0.5, 1.5))}},
             "lp", _spd(rng, 12).tolist(), 12),
            ({"name": "tokamak", "params": {"base": "sl2", "b_i": float(rng.uniform(0.5, 1.5))}},
             "ep", diag(12), 12),
            ({"name": "tokamak", "params": {"base": "heisenberg"}}, "lp", None, 12),
            (kepler_doc, "lp", _spd(rng, 6).tolist(), 6),
            (heis_doc, "ep", diag(12), 12),
            ("so3", "ep3", None, 9),
            ("sl2", "ep3", diag(9), 9),
        ]
        self.cycle = len(specs)
        self.runs = []  # (config path, csv path, report path)
        self._texts = []
        for j, (model, dynamics, inertia, dim) in enumerate(specs):
            paths = [workdir / f"{stem}_{j}{ext}" for stem, ext in
                     (("config", ".json"), ("trajectory", ".csv"), ("report", ".json"))]
            cfg = {
                "model": model,
                "dynamics": dynamics,
                "initial": state(dim),
                "integrator": {"h": CLI_H, "steps": CLI_STEPS},
                "conserve": ["hamiltonian", "norm_sq_block"],
                "outputs": {"trajectory": str(paths[1]), "report": str(paths[2])},
            }
            if inertia is not None:
                cfg["energy"] = {"inertia": inertia}
            text = json.dumps(cfg)
            paths[0].write_text(text)
            self._texts.append(json.dumps({k: v for k, v in cfg.items() if k != "outputs"}))
            self.runs.append(paths)

    def fingerprint(self) -> str:
        return _digest(*self._texts)

    def run_op(self, i: int) -> bool:
        config, csv_path, report_path = self.runs[i % self.cycle]
        csv_path.unlink(missing_ok=True)  # so the check cannot read an earlier cycle's files
        report_path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(config)])
        if code != 0:
            return False
        with csv_path.open() as fh:
            rows = sum(1 for _ in fh) - 1  # minus the header
        report = json.loads(report_path.read_text())
        finite = all(math.isfinite(v) for entry in report.values() for v in entry.values())
        return (rows == CLI_STEPS + 1 and finite
                and report["hamiltonian"]["max_rel_drift"] <= CLI_DRIFT_TOL)


WORKLOADS = {"flow_long": FlowLong, "jet_products": JetProducts, "cli_runs": CliRuns}
