"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line (visible with -s or -rA) and
asserts the stated tolerance, so the suite doubles as a checklist of what the
package promises: axiom validation across both model families, dual-map
consistency, hand-written versus generic reduced fields, long-run
conservation, jet-group arithmetic at every order, factorization round trips,
the transported-momentum identity, and finite-difference energy handling.
"""

import time

import numpy as np

from unimech import (
    EnergySpec,
    build_model,
    coad,
    complement_embed,
    ep3_field,
    ep_field,
    iterated_factorize,
    iterated_inverse,
    iterated_multiply,
    lp_field,
    partition_coefficient,
    preset,
    random_jet,
    rk4,
    t3_factorize,
    third_order_identity_residual,
    third_order_product,
    tn_inverse,
    tn_multiply,
    tn_to_iterated,
    unit_jet,
    validate_axioms,
)
from unimech.jets import ad
from model_equations import kepler_regression, tokamak_regression, with_maps


def _conclude(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _model_sweep():
    for e in (-0.5, 0.0, 1.0):
        for m in (1.0, 2.0):
            yield "kepler", {"e": e, "m": m, "k": 1.0}, kepler_regression
    for base in ("so3", "sl2", "heisenberg"):
        for b in (0.0, 0.5, 1.0):
            yield "tokamak", {"base": base, "b_i": b}, tokamak_regression


def _bumped_cocycle(d, scale=1e-3):
    """Dense antisymmetric defect on the cocycle, no entry pattern spared."""
    theta = np.array(d.theta)
    dh, m, _ = theta.shape
    for c in range(dh):
        for i in range(m):
            for j in range(i + 1, m):
                w = scale * (1.0 + 0.1 * (c + i + 2 * j))
                theta[c, i, j] += w
                theta[c, j, i] -= w
    return with_maps(d, theta=theta)


def _adinv(y, x):
    return np.linalg.solve(y, x @ y)


def test_criterion_1_axioms_hold_and_perturbations_fail():
    t0 = time.perf_counter()
    worst_clean = 0.0
    min_bad_axiom = np.inf
    min_bad_jacobi = np.inf
    for name, params, _ in _model_sweep():
        d = build_model(name, dict(params))
        report = validate_axioms(d)
        jac = d.algebra.validate().checks["jacobi"].residual
        residuals = [check.residual for check in report.checks.values()]
        worst_clean = max(worst_clean, *residuals, jac)
        assert report.ok, (name, params, report.checks)
        assert all(r <= 1e-12 for r in residuals), (name, params)
        assert jac <= 1e-12, (name, params, jac)

        bad = _bumped_cocycle(d)
        bad_report = validate_axioms(bad)
        bad_jac = bad.algebra.validate().checks["jacobi"].residual
        min_bad_axiom = min(min_bad_axiom, bad_report.worst_failure()[1].residual)
        min_bad_jacobi = min(min_bad_jacobi, bad_jac)
        assert not bad_report.ok, (name, params)
        assert bad_jac > bad_report.checks["h_antisymmetry"].threshold, (name, params)
    wall = time.perf_counter() - t0
    _conclude(
        1,
        "axioms <= 1e-12 on all 15 swept models, 1e-3 cocycle defect fails both checks",
        worst_clean <= 1e-12 and min_bad_axiom > 1e-12 and min_bad_jacobi > 1e-12 and wall < 1.0,
        f"clean worst {worst_clean:.1e}, perturbed min {min_bad_axiom:.1e}/"
        f"{min_bad_jacobi:.1e}, {wall:.2f}s",
    )


def test_criterion_2_blockwise_coadjoint_is_minus_ad_transpose():
    rng = np.random.default_rng(7)
    worst = 0.0
    for name, params, _ in _model_sweep():
        d = build_model(name, dict(params))
        composed = d.algebra
        for _ in range(1000):
            x = rng.standard_normal(d.dim)
            mu = rng.standard_normal(d.dim)
            gap = np.max(np.abs(coad(d, x, mu) + composed.ad_matrix(x).T @ mu))
            worst = max(worst, float(gap))
    _conclude(
        2,
        "six-map coadjoint equals -ad^T on 1000 random pairs per model",
        worst <= 1e-12,
        f"worst gap {worst:.1e}",
    )


def test_criterion_3_reduced_fields_match_hand_written_equations():
    rng = np.random.default_rng(8)
    worst = 0.0
    for name, params, regress in _model_sweep():
        d = build_model(name, dict(params))
        a = rng.standard_normal((d.dim, d.dim))
        specs = (
            EnergySpec.identity(d.dim),
            EnergySpec.quadratic(a @ a.T + d.dim * np.eye(d.dim)),
        )
        for spec in specs:
            for _ in range(50):
                gaps = regress(d, spec, rng.standard_normal(d.dim))
                worst = max(worst, gaps["ep"], gaps["lp"])
    _conclude(
        3,
        "ep/lp fields match the written-out equations on 100 states per model",
        worst <= 1e-12,
        f"worst gap {worst:.1e}",
    )


def test_criterion_4_long_runs_conserve_energy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    max_drift = 0.0
    max_dot = 0.0
    for name, params in (("kepler", {"e": 1.0}), ("tokamak", {"base": "so3", "b_i": 1.0})):
        d = build_model(name, dict(params))
        spec = EnergySpec.identity(d.dim)
        y0 = 0.5 * rng.standard_normal(d.dim)
        for field in (
            lambda y: ep_field(d, spec, y),
            lambda y: lp_field(d, spec, y),
        ):
            traj = rk4(field, y0, 1e-3, 10_000)
            # identity inertia: dH/dmu is the state itself
            ham = 0.5 * np.einsum("ij,ij->i", traj.states, traj.states)
            drift = np.max(np.abs(ham - ham[0])) / max(abs(ham[0]), 1e-30)
            max_drift = max(max_drift, float(drift))
            rhs = np.array([field(s) for s in traj.states])
            dots = np.abs(np.einsum("ij,ij->i", rhs, traj.states))
            max_dot = max(max_dot, float(np.max(dots)))
    wall = time.perf_counter() - t0
    _conclude(
        4,
        "1e4-step ep and lp runs: relative energy drift <= 1e-8, "
        "field orthogonal to the gradient at every step",
        max_drift <= 1e-8 and max_dot <= 1e-12 and wall < 10.0,
        f"drift {max_drift:.1e}, orthogonality {max_dot:.1e}, {wall:.2f}s",
    )


def test_criterion_5_jet_products_term_by_term_and_group_laws():
    rng = np.random.default_rng(21)

    # printed coefficients and the sign pattern of the order-4 slot
    assert partition_coefficient((1, 2)) == 2
    assert partition_coefficient((1, 1, 2)) == 3
    signed = {
        (4,): 1,
        (1, 3): -3,
        (2, 2): -3,
        (3, 1): -1,
        (1, 1, 2): 3,
        (1, 2, 1): 2,
        (2, 1, 1): 1,
        (1, 1, 1, 1): -1,
    }
    for comp, want in signed.items():
        got = (-1) ** (len(comp) - 1) * partition_coefficient(comp)
        assert got == want, (comp, got, want)

    # orders 2, 3 and 4 against longhand expansions
    worst_term = 0.0
    for _ in range(10):
        a = random_jet("SO", 3, 4, rng=rng)
        b = random_jet("SO", 3, 4, rng=rng)
        prod = tn_multiply(4, a, b)
        ze = b.slots
        w = [_adinv(b.base, s) for s in a.slots]
        hand = [
            ze[0] + w[0],
            ze[1] + w[1] - ad(ze[0], w[0]),
            ze[2] + w[2] - 2 * ad(ze[0], w[1]) - ad(ze[1], w[0])
            + ad(ze[0], ad(ze[0], w[0])),
            ze[3] + w[3]
            - 3 * ad(ze[0], w[2]) - 3 * ad(ze[1], w[1]) - ad(ze[2], w[0])
            + 3 * ad(ze[0], ad(ze[0], w[1]))
            + 2 * ad(ze[1], ad(ze[0], w[0]))
            + ad(ze[0], ad(ze[1], w[0]))
            - ad(ze[0], ad(ze[0], ad(ze[0], w[0]))),
        ]
        for got, want in zip(prod.slots, hand):
            worst_term = max(worst_term, float(np.max(np.abs(got - want))))
    assert worst_term <= 1e-12

    # group laws: associativity / unit / inverse across 100 tangent jets of
    # each order up to 4, plus the triple iterated bundle
    worst_law = 0.0

    def law_gap(x, y):
        return max(
            float(np.max(np.abs(x.base - y.base))),
            float(np.max(np.abs(x.slots - y.slots), initial=0.0)),
        )

    for order in (1, 2, 3, 4):
        e = unit_jet("SO", 3, order)
        for _ in range(9):
            a, b, c = (random_jet("SO", 3, order, rng=rng) for _ in range(3))
            worst_law = max(
                worst_law,
                law_gap(
                    tn_multiply(order, tn_multiply(order, a, b), c),
                    tn_multiply(order, a, tn_multiply(order, b, c)),
                ),
                law_gap(tn_multiply(order, a, e), a),
                law_gap(tn_multiply(order, e, a), a),
                law_gap(tn_multiply(order, a, tn_inverse(order, a)), e),
                law_gap(tn_multiply(order, tn_inverse(order, a), a), e),
            )
    e3 = unit_jet("SO", 3, 3, kind="iterated")
    for _ in range(34):
        a, b, c = (random_jet("SO", 3, 3, kind="iterated", rng=rng) for _ in range(3))
        worst_law = max(
            worst_law,
            law_gap(
                iterated_multiply(3, iterated_multiply(3, a, b), c),
                iterated_multiply(3, a, iterated_multiply(3, b, c)),
            ),
            law_gap(iterated_multiply(3, a, e3), a),
            law_gap(iterated_multiply(3, e3, a), a),
            law_gap(iterated_multiply(3, a, iterated_inverse(3, a)), e3),
        )
    _conclude(
        5,
        "jet products match longhand expansions; group laws hold to 1e-9",
        worst_term <= 1e-12 and worst_law <= 1e-9,
        f"terms {worst_term:.1e}, laws {worst_law:.1e}",
    )


def test_criterion_6_factorization_round_trips_and_cocycle_slots():
    rng = np.random.default_rng(22)
    worst_rt = 0.0
    for _ in range(100):
        j = random_jet("GL", 3, 3, kind="iterated", rng=rng)
        quad, t = t3_factorize(j)
        recon = iterated_multiply(3, complement_embed(3, quad), tn_to_iterated(t))
        worst_rt = max(
            worst_rt,
            float(np.max(np.abs(recon.base - j.base))),
            float(np.max(np.abs(recon.slots - j.slots))),
        )
    worst_gamma = 0.0
    for _ in range(20):
        qa = rng.standard_normal((4, 3, 3))
        qb = rng.standard_normal((4, 3, 3))
        _, gamma = iterated_factorize(
            3, iterated_multiply(3, complement_embed(3, qa), complement_embed(3, qb))
        )
        worst_gamma = max(
            worst_gamma,
            float(np.max(np.abs(gamma.slots[0]))),
            float(np.max(np.abs(gamma.slots[1]))),
            float(np.max(np.abs(gamma.slots[2] + ad(qb[1], qa[3])))),
        )
    _conclude(
        6,
        "100 factorization round trips <= 1e-10; quadruple-product cocycle "
        "lands in the last slot only",
        worst_rt <= 1e-10 and worst_gamma <= 1e-12,
        f"round trip {worst_rt:.1e}, cocycle slots {worst_gamma:.1e}",
    )


def test_criterion_7_transported_momentum_identity():
    g = preset("so3")
    spec = EnergySpec.identity(9)
    rng = np.random.default_rng(5)
    p0 = rng.standard_normal(3)
    p1 = rng.standard_normal(3)
    pi0 = np.concatenate([p0, p1, 0.7 * p1])
    traj = rk4(lambda y: ep3_field(g, spec, y), pi0, 1e-3, 2000)
    res = float(np.max(third_order_identity_residual(g, spec, traj)))
    _conclude(
        7,
        "third-order run: (d/dt + ad*)(pi0 - pi1' + pi2'') residual <= 1e-6",
        res <= 1e-6,
        f"max residual {res:.3e}",
    )


def test_criterion_8_third_order_field_matches_the_composed_route():
    rng = np.random.default_rng(32)
    worst = 0.0
    for name in ("so3", "sl2"):
        g = preset(name)
        d = third_order_product(g)
        a = rng.standard_normal((9, 9))
        specs = (EnergySpec.identity(9), EnergySpec.quadratic(a @ a.T + 9 * np.eye(9)))
        for spec in specs:
            for _ in range(25):
                pi = rng.standard_normal(9)
                gap = np.max(np.abs(ep3_field(g, spec, pi) - ep_field(d, spec, pi)))
                worst = max(worst, float(gap))
    _conclude(
        8,
        "binomial third-order field equals the psi/theta composed coadjoint on 100 states",
        worst <= 1e-12,
        f"worst gap {worst:.1e}",
    )


def test_criterion_9_blackbox_energy_tracks_the_quadratic_one():
    rng = np.random.default_rng(40)
    a = rng.standard_normal((6, 6))
    inertia = a @ a.T + 6.0 * np.eye(6)
    inv = np.linalg.inv(inertia)
    quad = EnergySpec.quadratic(inertia)
    black = EnergySpec.blackbox(lambda mu: 0.5 * float(mu @ inv @ mu))
    d = build_model("kepler", {"e": 0.5})
    worst = 0.0
    for _ in range(100):
        mu = rng.standard_normal(6)
        worst = max(
            worst,
            float(np.max(np.abs(black.dual_gradient(mu) - quad.dual_gradient(mu)))),
            float(np.max(np.abs(lp_field(d, black, mu) - lp_field(d, quad, mu)))),
        )
    _conclude(
        9,
        "finite-difference gradients of a blackbox energy match the exact "
        "quadratic ones to 1e-7",
        worst <= 1e-7,
        f"worst gap {worst:.1e}",
    )
