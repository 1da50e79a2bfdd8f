import numpy as np
import pytest
import scipy.linalg

from unimech import (
    DimensionError,
    EnergySpec,
    JetElement,
    LieAlgebra,
    MatrixBasis,
    NonUniformGrid,
    SingularFiberMap,
    TooFewPoints,
    Trajectory,
    abelian,
    compose_bracket,
    el_t_t2g_field,
    ep3_field,
    ep_field,
    preset,
    rk4,
    tangent_algebra,
    third_order_identity_residual,
    third_order_product,
    tn_inverse,
    tn_multiply,
    validate_axioms,
)

from jet_oracle import lift


def test_third_order_product_structure():
    g = preset("so3")
    d = third_order_product(g)
    assert d.dim_m == 6 and d.h.dim == 3 and d.dim == 9
    assert d.m_labels == ("e1", "e2", "e3", "de1", "de2", "de3")
    assert d.h.labels == ("dde1", "dde2", "dde3")
    np.testing.assert_allclose(d.h.c, 0.0)  # level 2 is abelian
    np.testing.assert_allclose(d.act, 0.0)  # and acts trivially
    np.testing.assert_allclose(d.phi, tangent_algebra(g).c)
    # twist hits only the level-0 part of m, cocycle only level 1 x level 1
    np.testing.assert_allclose(d.psi[:, :, :3], g.c)
    np.testing.assert_allclose(d.psi[:, :, 3:], 0.0)
    np.testing.assert_allclose(d.theta[:, 3:, 3:], 2.0 * g.c)
    np.testing.assert_allclose(d.theta[:, :3, :], 0.0)
    np.testing.assert_allclose(d.theta[:, :, :3], 0.0)


@pytest.mark.parametrize("name", ["so3", "sl2", "heisenberg"])
def test_third_order_product_satisfies_the_axioms(name):
    d = third_order_product(preset(name))
    report = validate_axioms(d)
    assert report.ok
    assert report.worst <= 1e-12
    check = d.algebra.validate()
    assert check.jacobi <= 1e-12 and check.h_antisymmetry <= 1e-12


def test_composed_bracket_is_the_graded_jet_bracket():
    # [(a0,a1,a2),(b0,b1,b2)] =
    #   ([a0,b0], [a0,b1]+[a1,b0], [a0,b2]+2[a1,b1]+[a2,b0])
    composed = third_order_product(preset("so3")).algebra
    rng = np.random.default_rng(30)
    for _ in range(20):
        a = rng.standard_normal(9)
        b = rng.standard_normal(9)
        a0, a1, a2 = a[:3], a[3:6], a[6:]
        b0, b1, b2 = b[:3], b[3:6], b[6:]
        want = np.concatenate(
            [
                np.cross(a0, b0),
                np.cross(a0, b1) + np.cross(a1, b0),
                np.cross(a0, b2) + 2.0 * np.cross(a1, b1) + np.cross(a2, b0),
            ]
        )
        np.testing.assert_allclose(composed.bracket(a, b), want, atol=1e-13)


@pytest.mark.parametrize("name", ["so3", "sl2", "heisenberg"])
def test_second_order_tangent_algebra_is_the_composed_product(name):
    # the binomial bracket and the psi/theta double cross sum are one tensor
    g = preset(name)
    tg = tangent_algebra(g, 2)
    d = third_order_product(g)
    composed = compose_bracket(d.dim_m, d.h, d.act, d.phi, d.theta, d.psi, d.m_labels)
    np.testing.assert_array_equal(tg.c, composed.algebra.c)
    assert tg.labels == composed.labels == d.labels


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jet_group_commutator_tends_to_the_tangent_bracket(n):
    # The Lie algebra of T^nG is tangent_algebra(g, n): for jets
    # a = (exp(s A_0), s A_1, ..., s A_n) and b alike, the group commutator
    # a b a^-1 b^-1 is s^2 [A, B] + O(s^3); averaging +s and -s cancels the
    # odd term, leaving O(s^2) relative error.
    basis = MatrixBasis(np.eye(9).reshape(9, 3, 3))  # all of gl(3)
    tg = tangent_algebra(basis.algebra, n)
    rng = np.random.default_rng(0)
    a_coeffs, b_coeffs = rng.standard_normal((2, n + 1, 9))

    def jet(s, coeffs):
        slots = [s * basis.matrix(c) for c in coeffs[1:]]
        return JetElement("GL", scipy.linalg.expm(s * basis.matrix(coeffs[0])), slots)

    def commutator_over_s2(s):
        a, b = jet(s, a_coeffs), jet(s, b_coeffs)
        c = tn_multiply(n, tn_multiply(n, a, b),
                        tn_multiply(n, tn_inverse(n, a), tn_inverse(n, b)))
        level0 = basis.coords(scipy.linalg.logm(c.base).real)
        return np.concatenate([level0, *map(basis.coords, c.slots)]) / s**2

    s = 1e-3
    got = 0.5 * (commutator_over_s2(s) + commutator_over_s2(-s))
    want = tg.bracket(a_coeffs.ravel(), b_coeffs.ravel())
    assert np.max(np.abs(got - want)) <= 1e-4 * np.max(np.abs(want))


@pytest.mark.parametrize("make_basis", [MatrixBasis.so3, MatrixBasis.sl2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tangent_bracket_is_the_commutator_of_lifted_jets(make_basis, n):
    # The same algebra with no limit: a in derivative coordinates is
    # sum_k a_k t^k / k!, and t = e_1 + ... + e_n in A_n has t^k = k! times
    # the sum of e_A over |A| = k.  So subset A carries a_|A|, and
    # L(a) L(b) - L(b) L(a) = L([a, b]) to the rounding of the block products
    # (the worst entry measured is 3.7e-16 of that scale).
    basis = make_basis()
    tg = tangent_algebra(basis.algebra, n)
    sizes = [bin(subset).count("1") for subset in range(2**n)]

    def lifted(v):
        levels = [basis.matrix(c) for c in v.reshape(n + 1, basis.dim)]
        return lift([levels[k] for k in sizes])

    rng = np.random.default_rng(n)
    for _ in range(5):
        a, b = rng.standard_normal((2, tg.dim))
        la, lb = lifted(a), lifted(b)
        err = np.abs(la @ lb - lb @ la - lifted(tg.bracket(a, b)))
        assert np.all(err <= 1e-13 * (np.abs(la) @ np.abs(lb) + np.abs(lb) @ np.abs(la)))


def _ep3_by_levels(g, spec, pi):
    """The third-order field with its levels written out in g.coad: the
    oracle for ep3_field.  With eta = I^-1 pi,

      dpi0/dt = -ad*_eta0 pi0 - ad*_eta1 pi1 - ad*_eta2 pi2
      dpi1/dt = -ad*_eta0 pi1 - 2 ad*_eta1 pi2
      dpi2/dt = -ad*_eta0 pi2
    """
    n = g.dim
    eta = spec.dual_gradient(pi)
    e0, e1, e2 = eta[:n], eta[n : 2 * n], eta[2 * n :]
    p0, p1, p2 = pi[:n], pi[n : 2 * n], pi[2 * n :]
    d0 = -(g.coad(e0, p0) + g.coad(e1, p1) + g.coad(e2, p2))
    d1 = -(g.coad(e0, p1) + 2.0 * g.coad(e1, p2))
    d2 = -g.coad(e0, p2)
    return np.concatenate([d0, d1, d2])


@pytest.mark.parametrize("name", ["so3", "sl2", "heisenberg"])
def test_ep3_field_matches_the_level_equations(name):
    g = preset(name)
    rng = np.random.default_rng(42)
    a = rng.standard_normal((9, 9))
    specs = (
        EnergySpec.identity(9),
        EnergySpec.diagonal(rng.uniform(0.5, 3.0, 9)),
        EnergySpec.quadratic(a @ a.T + 9 * np.eye(9)),
    )
    for spec in specs:
        for _ in range(25):
            pi = rng.standard_normal(9)
            np.testing.assert_allclose(
                ep3_field(g, spec, pi), _ep3_by_levels(g, spec, pi), rtol=0, atol=1e-13
            )


def test_ep3_field_contracts_the_cached_tangent_algebra(monkeypatch):
    g = preset("so3")
    assert tangent_algebra(g, 2) is tangent_algebra(g, 2)
    assert tangent_algebra(g, 2).field_tensor is tangent_algebra(g, 2).field_tensor

    def no_coad(self, x, mu):
        raise AssertionError("ep3_field called LieAlgebra.coad")

    monkeypatch.setattr(LieAlgebra, "coad", no_coad)
    pi = np.random.default_rng(43).standard_normal(9)
    np.testing.assert_array_equal(
        ep3_field(g, EnergySpec.identity(9), pi),
        ep_field(tangent_algebra(g, 2), EnergySpec.identity(9), pi),
    )


def test_ep3_field_written_out_with_cross_products():
    g = preset("so3")
    inertia = np.array([1.0, 2.0, 3.0, 1.5, 2.5, 3.5, 1.0, 1.0, 2.0])
    spec = EnergySpec.diagonal(inertia)
    rng = np.random.default_rng(31)
    for _ in range(25):
        pi = rng.standard_normal(9)
        eta = pi / inertia
        e0, e1, e2 = eta[:3], eta[3:6], eta[6:]
        p0, p1, p2 = pi[:3], pi[3:6], pi[6:]
        want = np.concatenate(
            [
                -(np.cross(e0, p0) + np.cross(e1, p1) + np.cross(e2, p2)),
                -(np.cross(e0, p1) + 2.0 * np.cross(e1, p2)),
                -np.cross(e0, p2),
            ]
        )
        np.testing.assert_allclose(ep3_field(g, spec, pi), want, atol=1e-13)


@pytest.mark.parametrize("name", ["so3", "sl2"])
def test_ep3_agrees_with_the_composed_coadjoint_route(name):
    g = preset(name)
    d = third_order_product(g)
    rng = np.random.default_rng(32)
    a = rng.standard_normal((9, 9))
    for spec in (EnergySpec.identity(9), EnergySpec.quadratic(a @ a.T + 9 * np.eye(9))):
        for _ in range(25):
            pi = rng.standard_normal(9)
            np.testing.assert_allclose(
                ep3_field(g, spec, pi), ep_field(d, spec, pi), atol=1e-12
            )


def test_ep3_zero_cases():
    g = preset("so3")
    spec = EnergySpec.identity(9)
    np.testing.assert_allclose(ep3_field(g, spec, np.zeros(9)), 0.0)
    flat = abelian(3)
    rng = np.random.default_rng(33)
    np.testing.assert_allclose(
        ep3_field(flat, EnergySpec.identity(9), rng.standard_normal(9)), 0.0
    )


def test_ep3_input_checks():
    g = preset("so3")
    with pytest.raises(ValueError, match="quadratic"):
        ep3_field(g, EnergySpec.blackbox(lambda mu: float(mu @ mu)), np.zeros(9))
    with pytest.raises(DimensionError, match=r"^state has shape \(6,\), expected \(9,\)$"):
        ep3_field(g, EnergySpec.identity(9), np.zeros(6))
    with pytest.raises(DimensionError, match=r"^state has shape \(6,\), expected \(9,\)$"):
        # the state is named before the spec
        ep3_field(g, EnergySpec.blackbox(lambda mu: float(mu @ mu)), np.zeros(6))
    with pytest.raises(DimensionError, match="^inertia is 6x6, the state has length 9$"):
        ep3_field(g, EnergySpec.identity(6), np.zeros(9))


# -- the transported-momentum identity ----------------------------------------


def test_identity_residual_on_a_proportional_momentum_run():
    # When pi2 stays proportional to pi1 the flow prolongs consistently and
    # the transported combination is conserved; the residual is then pure
    # integration + differencing error, well under 1e-6 at h = 1e-3.
    g = preset("so3")
    spec = EnergySpec.identity(9)
    rng = np.random.default_rng(5)
    p0 = rng.standard_normal(3)
    p1 = rng.standard_normal(3)
    pi0 = np.concatenate([p0, p1, 0.7 * p1])
    traj = rk4(lambda y: ep3_field(g, spec, y), pi0, 1e-3, 2000)
    # proportionality is preserved exactly by the field (and by RK4)
    assert np.max(np.abs(traj.states[:, 6:] - 0.7 * traj.states[:, 3:6])) < 1e-12
    res = third_order_identity_residual(g, spec, traj)
    assert res.shape == (len(traj) - 6,)
    assert np.max(res) < 1e-6


def test_identity_residual_generic_obstruction_is_the_cross_term():
    # Away from that family the reduced flow does not prolong eta0' = eta1,
    # and the leftover is exactly 2 d/dt (pi1 x pi2) for the identity
    # inertia on so3 -- reproduced here with an independent difference.
    g = preset("so3")
    spec = EnergySpec.identity(9)
    rng = np.random.default_rng(5)
    rng.standard_normal(6)  # skip the draws used above
    pi0 = rng.standard_normal(9)
    h = 1e-3
    traj = rk4(lambda y: ep3_field(g, spec, y), pi0, h, 400)
    res = third_order_identity_residual(g, spec, traj)
    c = np.cross(traj.states[:, 3:6], traj.states[:, 6:9])
    pred = np.empty(len(traj) - 6)
    for idx, i in enumerate(range(3, len(traj) - 3)):
        dc = (-c[i + 2] + 8 * c[i + 1] - 8 * c[i - 1] + c[i - 2]) / (12 * h)
        pred[idx] = np.max(np.abs(2.0 * dc))
    assert np.max(res) > 1.0  # genuinely obstructed, not noise
    np.testing.assert_allclose(res, pred, atol=1e-5)


def test_identity_residual_vanishes_at_equilibria():
    g = preset("so3")
    spec = EnergySpec.identity(9)
    v = np.array([0.3, -0.2, 0.5])
    pi0 = np.concatenate([v, v, v])  # all levels aligned: the field is zero
    np.testing.assert_allclose(ep3_field(g, spec, pi0), 0.0, atol=1e-15)
    # a large step keeps the 1/h^2 stencil denominators from amplifying
    # float cancellation noise on the constant trajectory
    traj = rk4(lambda y: ep3_field(g, spec, y), pi0, 0.5, 10)
    np.testing.assert_allclose(
        third_order_identity_residual(g, spec, traj), 0.0, atol=1e-13
    )


# The per-point loop the vectorized check replaced, kept as its oracle: one
# dict-driven stencil sum, one dual_gradient solve and one g.coad per point.
_D1 = {2: -1.0, 1: 8.0, -1: -8.0, -2: 1.0}  # / 12h
_D2 = {2: -1.0, 1: 16.0, 0: -30.0, -1: 16.0, -2: -1.0}  # / 12h^2
_D3 = {3: -1.0, 2: 8.0, 1: -13.0, -1: 13.0, -2: -8.0, -3: 1.0}  # / 8h^3


def _stencil(series, i, weights, denom):
    return sum(w * series[i + off] for off, w in weights.items()) / denom


def _residual_point_by_point(g, spec, traj):
    n = g.dim
    states, h = traj.states, traj.h
    p0, p1, p2 = states[:, :n], states[:, n : 2 * n], states[:, 2 * n :]
    out = np.empty(len(states) - 6)
    for idx, i in enumerate(range(3, len(states) - 3)):
        eta0 = spec.dual_gradient(states[i])[:n]
        inner = p0[i] - _stencil(p1, i, _D1, 12.0 * h) + _stencil(p2, i, _D2, 12.0 * h * h)
        d_inner = (
            _stencil(p0, i, _D1, 12.0 * h)
            - _stencil(p1, i, _D2, 12.0 * h * h)
            + _stencil(p2, i, _D3, 8.0 * h**3)
        )
        out[idx] = np.max(np.abs(d_inner + g.coad(eta0, inner)), initial=0.0)
    return out


def _identity_case(case):
    """(algebra, energy of the check, trajectory) for one oracle case."""
    rng = np.random.default_rng(5)
    so3, ident = preset("so3"), EnergySpec.identity(9)
    if case == "proportional":  # criterion 7's run
        p0, p1 = rng.standard_normal(3), rng.standard_normal(3)
        pi0 = np.concatenate([p0, p1, 0.7 * p1])
        return so3, ident, rk4(lambda y: ep3_field(so3, ident, y), pi0, 1e-3, 2000)
    if case == "full_spd_inertia":
        sl2 = preset("sl2")
        a = rng.standard_normal((9, 9))
        full = EnergySpec.quadratic(a @ a.T / 9 + np.eye(9))
        return sl2, full, rk4(lambda y: ep3_field(sl2, full, y), rng.standard_normal(9), 2e-3, 300)
    rng.standard_normal(6)  # the obstructed run of the test above
    obstructed = rk4(lambda y: ep3_field(so3, ident, y), rng.standard_normal(9), 1e-3, 400)
    if case == "obstructed":
        return so3, ident, obstructed
    # the identity energy as a blackbox: one fd_gradient per interior point
    black = EnergySpec.blackbox(lambda mu: 0.5 * float(mu @ mu))
    return so3, black, Trajectory(obstructed.times[:120], obstructed.states[:120])


@pytest.mark.parametrize("case", ["proportional", "obstructed", "full_spd_inertia", "blackbox"])
def test_identity_residual_matches_the_point_by_point_oracle(case):
    g, spec, traj = _identity_case(case)
    res = third_order_identity_residual(g, spec, traj)
    ref = _residual_point_by_point(g, spec, traj)
    assert res.shape == ref.shape == (len(traj) - 6,)
    assert np.max(np.abs(res - ref)) <= 1e-12 * np.max(np.abs(ref)) + 1e-15


def test_identity_residual_makes_one_stacked_solve(monkeypatch):
    # a structural guard, not a timing gate: the whole trajectory is one
    # dual_gradient call, whatever its length
    g = preset("so3")
    spec = EnergySpec.identity(9)
    traj = rk4(lambda y: ep3_field(g, spec, y), np.linspace(-1.0, 1.0, 9), 1e-3, 100)
    calls = []
    solve = EnergySpec.dual_gradient

    def counting(self, mu):
        calls.append(np.shape(mu))
        return solve(self, mu)

    monkeypatch.setattr(EnergySpec, "dual_gradient", counting)
    third_order_identity_residual(g, spec, traj)
    assert calls == [(len(traj) - 6, 9)]


def test_identity_residual_input_checks():
    g = preset("so3")
    spec = EnergySpec.identity(9)
    short = rk4(lambda y: ep3_field(g, spec, y), np.ones(9), 0.01, 5)
    assert len(short) == 6
    with pytest.raises(TooFewPoints):
        third_order_identity_residual(g, spec, short)
    uneven = Trajectory(
        times=np.array([0.0, 1.0, 2.0, 3.5, 4.0, 5.0, 6.0]),
        states=np.zeros((7, 9)),
    )
    with pytest.raises(ValueError, match="uniform") as info:
        third_order_identity_residual(g, spec, uneven)
    # times[3] moved by 0.5 puts steps 2 and 3 off the grid; the first is named
    assert isinstance(info.value, NonUniformGrid)
    assert (info.value.step, info.value.size) == (2, 1.5)
    assert str(info.value).startswith("time step 2 has size 1.5, expected 1:")
    for width in (6, 10, 12):  # not three levels of so3
        wrong = Trajectory(times=np.arange(7.0), states=np.zeros((7, width)))
        with pytest.raises(DimensionError,
                           match=rf"^states has shape \(7, {width}\), expected \(\*, 9\)$"):
            third_order_identity_residual(g, spec, wrong)


# -- matrix bases ---------------------------------------------------------------


def test_so3_basis_is_the_hat_map():
    basis = MatrixBasis.so3()
    assert basis.dim == 3
    assert basis.labels == ("e1", "e2", "e3")
    np.testing.assert_allclose(basis.algebra.c, preset("so3").c, atol=1e-13)
    rng = np.random.default_rng(34)
    for _ in range(10):
        v, u = rng.standard_normal((2, 3))
        np.testing.assert_allclose(basis.matrix(v) @ u, np.cross(v, u), atol=1e-13)
        np.testing.assert_allclose(basis.coords(basis.matrix(v)), v, atol=1e-13)


def test_sl2_basis_structure_constants():
    basis = MatrixBasis.sl2()
    assert basis.labels == ("H", "E", "F")
    np.testing.assert_allclose(basis.algebra.c, preset("sl2").c, atol=1e-13)


def _nonorthogonal_gl2() -> MatrixBasis:
    mats = np.array(
        [
            [[1.0, 0.0], [0.0, 0.0]],
            [[1.0, 1.0], [0.0, 0.0]],  # not orthogonal to the first
            [[0.0, 0.0], [1.0, 0.0]],
            [[0.0, 0.0], [0.0, 1.0]],
        ]
    )
    return MatrixBasis(mats)


def test_nonorthogonal_basis_round_trip():
    basis = _nonorthogonal_gl2()
    assert basis.labels == ("E1", "E2", "E3", "E4")
    rng = np.random.default_rng(35)
    for _ in range(10):
        v = rng.standard_normal(4)
        np.testing.assert_allclose(basis.coords(basis.matrix(v)), v, atol=1e-12)
        x = rng.standard_normal((2, 2))
        np.testing.assert_allclose(basis.matrix(basis.coords(x)), x, atol=1e-12)
    # the reported bracket really is the commutator, pushed through coords
    a, b = rng.standard_normal((2, 4))
    am, bm = basis.matrix(a), basis.matrix(b)
    np.testing.assert_allclose(
        basis.matrix(basis.algebra.bracket(a, b)), am @ bm - bm @ am, atol=1e-12
    )


def test_matrix_basis_keeps_its_own_copy():
    mats = np.array(MatrixBasis.so3().mats)
    basis = MatrixBasis(mats)
    kept, c = basis.mats.copy(), basis.algebra.c.copy()
    assert mats.flags.writeable and not basis.mats.flags.writeable
    mats[0] = 5.0
    np.testing.assert_array_equal(basis.mats, kept)
    np.testing.assert_array_equal(basis.matrix([1.0, 0.0, 0.0]), kept[0])
    np.testing.assert_array_equal(basis.coords(kept[1]), [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(basis.algebra.c, c)


def test_matrix_basis_rejects_bad_input():
    with pytest.raises(SingularFiberMap, match="linearly dependent"):
        MatrixBasis(np.array([np.eye(2), 2.0 * np.eye(2)]))
    with pytest.raises(ValueError, match="square"):
        MatrixBasis(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="one label"):
        MatrixBasis(np.array([np.eye(2)]), labels=("a", "b"))


# -- Euler-Lagrange on T(T^2 G) ---------------------------------------------------


def _fiber_energy(g, xi1, xi2, eta0, eta1, eta2):
    return 0.5 * float(
        np.sum(eta0 * eta0) + np.sum(eta1 * eta1) + np.sum(eta2 * eta2)
    )


def test_el_field_reduces_to_third_order_euler_poincare():
    # L = half the Frobenius norm of the fiber velocities.  On the so3 hat
    # basis <E_a, E_b> = 2 delta_ab, so the momenta are 2 * coords and the
    # field must match ep3 with inertia 2*I.
    basis = MatrixBasis.so3()
    g_alg = preset("so3")
    spec = EnergySpec.quadratic(2.0 * np.eye(9))
    rng = np.random.default_rng(36)
    for _ in range(5):
        c = rng.standard_normal((5, 3))
        gmat = np.eye(3)
        state = (
            gmat,
            basis.matrix(c[0]),
            basis.matrix(c[1]),
            basis.matrix(c[2]),
            basis.matrix(c[3]),
            basis.matrix(c[4]),
        )
        d0, d1, d2 = el_t_t2g_field(_fiber_energy, state, basis)
        pi = 2.0 * np.concatenate([c[2], c[3], c[4]])
        want = ep3_field(g_alg, spec, pi)
        np.testing.assert_allclose(d0, want[:3], atol=1e-6)
        np.testing.assert_allclose(d1, want[3:6], atol=1e-6)
        np.testing.assert_allclose(d2, want[6:], atol=1e-6)


def test_el_field_with_only_the_top_fiber_active():
    # L = half |eta2|_F^2.  At eta1 = 0 only the d2 row survives:
    # d2 = -ad*_{eta0} (2 c2); with eta1 nonzero d1 picks up -4 c1 x c2.
    basis = MatrixBasis.so3()
    L = lambda g, xi1, xi2, e0, e1, e2: 0.5 * float(np.sum(e2 * e2))
    rng = np.random.default_rng(37)
    c0, c1, c2 = rng.standard_normal((3, 3))
    state = (
        np.eye(3),
        basis.matrix(rng.standard_normal(3)),
        basis.matrix(rng.standard_normal(3)),
        basis.matrix(c0),
        np.zeros((3, 3)),
        basis.matrix(c2),
    )
    d0, d1, d2 = el_t_t2g_field(L, state, basis)
    np.testing.assert_allclose(d0, 0.0, atol=1e-7)
    np.testing.assert_allclose(d1, 0.0, atol=1e-7)
    np.testing.assert_allclose(d2, -2.0 * np.cross(c0, c2), atol=1e-7)

    with_e1 = state[:4] + (basis.matrix(c1), state[5])
    _, d1b, _ = el_t_t2g_field(L, with_e1, basis)
    np.testing.assert_allclose(d1b, -4.0 * np.cross(c1, c2), atol=1e-7)


def test_el_field_group_gradient_is_left_trivialized():
    # L = tr(A^T g) depends on the group slot alone, so the field reduces to
    # the left-trivialized gradient with components tr(A^T g E_a).
    basis = MatrixBasis.so3()
    rng = np.random.default_rng(38)
    a_mat = rng.standard_normal((3, 3))
    L = lambda g, xi1, xi2, e0, e1, e2: float(np.sum(a_mat * g))
    gmat = np.eye(3) + 0.0
    state = (gmat,) + tuple(basis.matrix(v) for v in rng.standard_normal((5, 3)))
    d0, d1, d2 = el_t_t2g_field(L, state, basis)
    want = np.array([float(np.sum(a_mat * (gmat @ e))) for e in basis.mats])
    np.testing.assert_allclose(d0, want, atol=1e-8)
    np.testing.assert_allclose(d1, 0.0, atol=1e-8)
    np.testing.assert_allclose(d2, 0.0, atol=1e-8)


@pytest.mark.parametrize(
    "make_basis", [MatrixBasis.so3, MatrixBasis.sl2, _nonorthogonal_gl2], ids=["so3", "sl2", "gl2"]
)
def test_el_field_full_display_with_analytic_gradients(make_basis):
    # Every term active at once: group potential, linear xi costs, quadratic
    # fiber costs, at a random group base.  The three displayed rows are
    # assembled by hand from the analytic gradients and the base coadjoint,
    # and compared against the finite-difference version.
    basis = make_basis()
    alg = basis.algebra
    n, d = basis.dim, basis.mats.shape[1]
    flat = basis.mats.reshape(n, -1)
    gram = flat @ flat.T  # Frobenius pairing of the basis: dL/dc of 1/2 |matrix(c)|^2
    rng = np.random.default_rng(39)
    a_mat = rng.standard_normal((d, d))
    m1 = basis.matrix(rng.standard_normal(n))
    m2 = basis.matrix(rng.standard_normal(n))

    def L(g, xi1, xi2, e0, e1, e2):
        return (
            float(np.sum(a_mat * g))
            + float(np.sum(m1 * xi1))
            + float(np.sum(m2 * xi2))
            + 0.5 * float(np.sum(e0 * e0) + np.sum(e1 * e1) + np.sum(e2 * e2))
        )

    coords = rng.standard_normal((5, n))
    cxi1, cxi2, c0, c1, c2 = coords
    gmat = scipy.linalg.expm(basis.matrix(rng.standard_normal(n)))
    state = (gmat,) + tuple(basis.matrix(v) for v in coords)
    d0, d1, d2 = el_t_t2g_field(L, state, basis)

    gg = np.array([float(np.sum(a_mat * (gmat @ e))) for e in basis.mats])
    gx1 = np.array([float(np.sum(m1 * e)) for e in basis.mats])
    gx2 = np.array([float(np.sum(m2 * e)) for e in basis.mats])
    ge = [gram @ c0, gram @ c1, gram @ c2]
    want0 = (
        gg
        - alg.coad(cxi1, gx1)
        - alg.coad(cxi2, gx2)
        - alg.coad(c0, ge[0])
        - alg.coad(c1, ge[1])
        - alg.coad(c2, ge[2])
    )
    want1 = gx1 - alg.coad(cxi1, gx2) - alg.coad(c0, ge[1]) - 2.0 * alg.coad(c1, ge[2])
    want2 = gx2 - alg.coad(c0, ge[2])
    np.testing.assert_allclose(d0, want0, atol=1e-6)
    np.testing.assert_allclose(d1, want1, atol=1e-6)
    np.testing.assert_allclose(d2, want2, atol=1e-6)
