"""Sweep the central-force family over eccentricities and report how well the
reduced flows conserve energy and the momentum-block norms.

Usage: python3 scripts/orbit_families.py [--steps N] [--h H]
"""

import argparse

import numpy as np

from unimech import (
    EnergySpec,
    build_model,
    conservation_report,
    ep_field,
    lp_field,
    rk4,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=5000)
    parser.add_argument("--h", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    y0 = 0.5 * rng.standard_normal(6)
    print(f"initial state: {np.array2string(y0, precision=4)}")
    print(f"{'e':>6} {'flow':>4} {'H drift (rel)':>14} {'|mu_v|^2 drift':>15} {'|mu_eta|^2 drift':>17}")
    for e in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
        d = build_model("kepler", {"e": e})
        spec = EnergySpec.identity(d.dim)
        for tag, field in (
            ("ep", lambda y: ep_field(d, spec, y)),
            ("lp", lambda y: lp_field(d, spec, y)),
        ):
            traj = rk4(field, y0, args.h, args.steps)
            report = conservation_report(
                traj,
                {
                    "H": spec.hamiltonian,
                    "v": lambda s: (s[:, None, :3] @ s[:, :3, None]).ravel(),
                    "eta": lambda s: (s[:, None, 3:] @ s[:, 3:, None]).ravel(),
                },
            )
            print(
                f"{e:6.2f} {tag:>4} {report['H']['max_rel_drift']:14.3e} "
                f"{report['v']['max_abs_drift']:15.3e} {report['eta']['max_abs_drift']:17.3e}"
            )


if __name__ == "__main__":
    main()
