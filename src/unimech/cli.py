"""Command-line entry points.

  unimech validate MODEL        check the structure axioms, exit 0/2
  unimech describe MODEL        print dimensions, labels, cocycle entries
  unimech run CONFIG.json       integrate a reduced flow, write csv/json

MODEL is a preset name ("kepler", "tokamak", "so3", ...) or a path to a
JSON document (product or algebra form); --params applies to preset names
only.  Exit codes: 0 success, 1 bad configuration or usage, 2 validation
failure, 3 numerical blow-up during integration.  The UM_TOL environment
variable overrides the default tolerance used by every constructor.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .algebra import algebra_from_doc, tangent_algebra
from .dynamics import (
    EnergySpec,
    conservation_report,
    ep_field,
    lp_field,
    rk4,
    write_report_json,
    write_trajectory_csv,
)
from .errors import ConfigError, NonFiniteState, floats, load_json, parse_json
from .models import build_model
from .products import MAP_AXES, UnifiedProductData, product_from_doc, validate_axioms
from .thirdorder import ep3_field

__all__ = ["main"]


def _resolve_model(node, params: dict | None = None) -> UnifiedProductData:
    """Model from a config node: preset name, {"name":..., "params":...},
    an inline document, or a path to one."""
    if isinstance(node, str):
        if node.endswith(".json") or Path(node).exists():
            if params is not None:
                raise ConfigError(f"--params applies to preset names, not to document {node}")
            return _model_from_doc(load_json(node))
        return build_model(node, params)
    if isinstance(node, dict):
        if "name" in node:
            return build_model(node["name"], node.get("params"))
        return _model_from_doc(node)
    raise ConfigError(f"cannot interpret model specification {node!r}")


def _model_from_doc(doc: dict) -> UnifiedProductData:
    if "dim_m" in doc:
        return product_from_doc(doc)
    if "dim" in doc:
        return UnifiedProductData(algebra_from_doc(doc), 0)
    raise ConfigError("model document needs either 'dim_m' (product) or 'dim' (algebra)")


def _print_validation(d: UnifiedProductData) -> bool:
    report = validate_axioms(d)
    rows = [(f"axiom {name}", value, report.threshold(name), report.witnesses[name])
            for name, value in report.residuals.items()]
    rows += [("h antisymmetry", report.h_antisymmetry, report.tol, ()),
             ("composed jacobi", report.jacobi, report.jacobi_tol, ())]
    for label, value, limit, witness in rows:
        flag = "ok" if value <= limit else "FAIL"
        print(f"{label:<28} residual {value:9.3e}  [{flag}]"
              + (f"  worst at ({','.join(witness)})" if flag == "FAIL" and witness else ""))
    return report.ok


def _cmd_validate(args) -> int:
    params = parse_json(args.params, "--params") if args.params else None
    d = _resolve_model(args.model, params)
    ok = _print_validation(d)
    print("result: ok" if ok else "result: FAIL")
    return 0 if ok else 2


def _cmd_describe(args) -> int:
    params = parse_json(args.params, "--params") if args.params else None
    d = _resolve_model(args.model, params)
    print(f"dim_m={d.dim_m} dim_h={d.dim_h} total={d.dim}")
    print("m labels:", " ".join(d.m_labels) if d.dim_m else "(empty)")
    print("h labels:", " ".join(d.h.labels))
    labels = {"m": d.m_labels, "h": d.h.labels}
    names = {"act": "action", "phi": "m-bracket", "theta": "cocycle", "psi": "twist"}
    for key, axes in MAP_AXES.items():
        name, tensor = names[key], getattr(d, key)
        nz = np.argwhere(tensor != 0.0)
        print(f"{name}: {len(nz)} nonzero entries")
        for row in nz[:20]:
            where = ", ".join(labels[a][int(x)] for a, x in zip(axes, row))
            print(f"  {name}[{where}] = {tensor[tuple(row)]:g}")
        if len(nz) > 20:
            print(f"  ... and {len(nz) - 20} more")
    return 0


def _resolve_energy(node, dim: int) -> EnergySpec:
    if node is None:
        return EnergySpec.identity(dim)
    if not isinstance(node, dict):
        raise ConfigError("energy must be an object")
    kind = node.get("kind", "quadratic")
    if kind != "quadratic":
        raise ConfigError(f"config files support quadratic energies only, got {kind!r}")
    inertia = node.get("inertia", "identity")
    if inertia == "identity":
        return EnergySpec.identity(dim)
    arr = floats(inertia, "energy.inertia")
    if arr.ndim == 1:
        if arr.size != dim:
            raise ConfigError(f"diagonal inertia needs {dim} entries, got {arr.size}")
        return EnergySpec.diagonal(arr)
    if arr.shape == (dim, dim):
        return EnergySpec.quadratic(arr)
    raise ConfigError(f"inertia must be 'identity', a diagonal or a {dim}x{dim} matrix")


def _norm_sq(lo: int, hi: int):
    """|y[lo:hi]|^2 of each row of an (m, n) state array, as one batched
    matmul; each row gets the dot product y[lo:hi] @ y[lo:hi] computes, so
    the values match one-row calls."""
    return lambda s: (s[:, None, lo:hi] @ s[:, lo:hi, None]).ravel()


def _cmd_run(args) -> int:
    cfg = load_json(args.config)
    for key in ("model", "dynamics", "initial", "integrator"):
        if key not in cfg:
            raise ConfigError(f"config is missing '{key}'")
    d = _resolve_model(cfg["model"])
    kind = cfg["dynamics"]
    if kind not in ("ep", "lp", "ep3"):
        raise ConfigError(f"dynamics must be 'ep', 'lp' or 'ep3', got {kind!r}")

    if not _print_validation(d):
        print("result: FAIL (structure axioms)", file=sys.stderr)
        return 2

    # the flow: its state algebra, the named blocks of the state, and the
    # field with the structure it reads.  The field is read from this module
    # on every run, so a wrapper patched over cli.ep_field sees its calls.
    if kind == "ep3":
        if d.dim_m != 0:
            raise ConfigError("ep3 dynamics needs a plain algebra model (empty m part)")
        state, field, structure = tangent_algebra(d.h, 2), ep3_field, d.h
        blocks = [(f"pi{k}", k * d.dim, (k + 1) * d.dim) for k in range(3)]
    else:
        state, field, structure = d.algebra, ep_field if kind == "ep" else lp_field, d
        blocks = ([("m", 0, d.dim_m)] if d.dim_m else []) + [("h", d.dim_m, d.dim)]
    dim = state.dim

    spec = _resolve_energy(cfg.get("energy"), dim)
    y0 = floats(cfg["initial"], "initial", (dim,))
    integ = cfg["integrator"]
    if not isinstance(integ, dict) or "h" not in integ or "steps" not in integ:
        raise ConfigError("integrator needs 'h' and 'steps'")

    tags = cfg.get("conserve", ["hamiltonian"])
    if not isinstance(tags, list):
        raise ConfigError(f"conserve must be a list of tags, got {tags!r}")
    functionals = {}
    for tag in tags:
        if tag in ("hamiltonian", "energy"):
            functionals[tag] = spec.hamiltonian
        elif tag == "norm_sq_block":
            functionals.update({f"norm_sq_{name}": _norm_sq(lo, hi) for name, lo, hi in blocks})
        else:
            raise ConfigError(f"unknown conserved-quantity tag {tag!r}")
    outputs = cfg.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ConfigError("outputs must be an object")
    for key in ("trajectory", "report"):
        if key not in outputs:
            continue
        if not isinstance(outputs[key], str):
            raise ConfigError(f"outputs.{key} must be a path")
        parent = Path(outputs[key]).parent
        if not parent.is_dir():
            raise ConfigError(f"outputs.{key}: directory {parent} does not exist")

    try:
        traj = rk4(lambda y: field(structure, spec, y), y0, integ["h"], integ["steps"],
                   labels=state.labels)
    except NonFiniteState as exc:
        print(
            f"error: state became non-finite at step {exc.step} in component {exc.component}",
            file=sys.stderr,
        )
        return 3

    report = conservation_report(traj, functionals)

    if "trajectory" in outputs:
        write_trajectory_csv(traj, outputs["trajectory"])
        print(f"trajectory: {outputs['trajectory']} ({len(traj)} rows)")
    if "report" in outputs:
        write_report_json(report, outputs["report"])
        print(f"report: {outputs['report']}")

    for name, entry in report.items():
        print(
            f"{name}: initial {entry['initial']:.12g}, max drift "
            f"{entry['max_abs_drift']:.3e} (rel {entry['max_rel_drift']:.3e})"
        )
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every main() call can reuse it."""
    parser = argparse.ArgumentParser(
        prog="unimech",
        description="Cocycle double cross sum algebras and their reduced flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a flow described by a JSON config")
    p_run.add_argument("config", help="path to the run configuration")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check the structure axioms of a model")
    p_val.add_argument("model", help="preset name or JSON document path")
    p_val.add_argument("--params", help="JSON object of preset parameters")
    p_val.set_defaults(func=_cmd_validate)

    p_desc = sub.add_parser("describe", help="print the structure of a model")
    p_desc.add_argument("model", help="preset name or JSON document path")
    p_desc.add_argument("--params", help="JSON object of preset parameters")
    p_desc.set_defaults(func=_cmd_describe)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
