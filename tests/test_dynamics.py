import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unimech import (
    DimensionError,
    EnergySpec,
    NonFiniteState,
    SingularInertia,
    Trajectory,
    TrajectoryTooLarge,
    build_model,
    coad,
    compose_bracket,
    conservation_report,
    ep3_field,
    ep_field,
    fd_gradient,
    lp_field,
    preset,
    rk4,
    tangent_algebra,
    third_order_product,
    write_report_json,
    write_trajectory_csv,
)
from unimech import dynamics


def _spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _inertia(kind, rng, n):
    if kind == "identity":
        return np.eye(n)
    if kind == "diagonal":
        return np.diag(rng.uniform(0.5, 2.0, n))
    return _spd(rng, n)


def test_fd_gradient_on_a_smooth_function():
    def f(x):
        return np.sin(x[0]) + x[1] ** 2 * x[2]

    x = np.array([0.3, -1.1, 0.7])
    grad = fd_gradient(f, x)
    exact = np.array([np.cos(0.3), 2 * (-1.1) * 0.7, (-1.1) ** 2])
    np.testing.assert_allclose(grad, exact, atol=1e-9)


def test_fd_gradient_rejects_a_bad_step_or_a_non_flat_point():
    f = lambda x: float(x @ x)
    for eps in (0.0, -1e-6, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            fd_gradient(f, np.ones(3), eps)
    with pytest.raises(DimensionError, match="flat vector"):
        fd_gradient(f, np.ones((2, 3)))


def test_quadratic_energy_spec_against_linear_solves():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    inertia = a @ a.T + 4.0 * np.eye(4)
    spec = EnergySpec.quadratic(inertia)
    for _ in range(20):
        x = rng.standard_normal(4)
        np.testing.assert_allclose(spec.gradient(x), inertia @ x, atol=1e-12)
        np.testing.assert_allclose(
            spec.dual_gradient(x), np.linalg.solve(inertia, x), atol=1e-12
        )
        expected_h = 0.5 * x @ np.linalg.solve(inertia, x)
        assert abs(spec.hamiltonian(x) - expected_h) < 1e-12


def test_identity_and_diagonal_shortcuts():
    mu = np.array([1.0, -2.0, 4.0])
    ident = EnergySpec.identity(3)
    np.testing.assert_allclose(ident.dual_gradient(mu), mu)
    assert ident.hamiltonian(mu) == pytest.approx(0.5 * 21.0)

    diag = EnergySpec.diagonal([1.0, 2.0, 4.0])
    np.testing.assert_allclose(diag.dual_gradient(mu), mu / np.array([1.0, 2.0, 4.0]))


def test_energy_spec_rejects_bad_input():
    with pytest.raises(ValueError, match="needs an inertia"):
        EnergySpec(kind="quadratic")
    with pytest.raises(ValueError, match="square"):
        EnergySpec.quadratic(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        EnergySpec.quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(SingularInertia):
        EnergySpec.quadratic(np.diag([1.0, -1.0]))
    with pytest.raises(SingularInertia):
        EnergySpec.quadratic(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="callable"):
        EnergySpec(kind="blackbox")
    for eps in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="fd_eps"):
            EnergySpec.blackbox(lambda mu: 0.0, fd_eps=eps)
    with pytest.raises(ValueError, match="unknown energy kind"):
        EnergySpec(kind="cubic")


def test_energy_spec_rejects_a_non_finite_inertia_before_any_arithmetic():
    for bad in (np.nan, np.inf, -np.inf):
        for inertia in (np.diag([1.0, bad]), np.array([[2.0, bad], [bad, 2.0]])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no RuntimeWarning from the symmetry test
                with pytest.raises(SingularInertia, match="non-finite"):
                    EnergySpec.quadratic(inertia)
        with pytest.raises(SingularInertia, match="non-finite"):
            EnergySpec.diagonal([1.0, bad, 2.0])


def test_inertia_symmetry_is_judged_against_its_scale():
    # SPD inertias with eigenvalues in [1e4, 1e5], formed as (Q * d) @ Q.T:
    # their rounding asymmetry is about 1e-16 of the entries, far above an
    # absolute 1e-12, and each is accepted
    for seed in range(100):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        inertia = (q * rng.uniform(1e4, 1e5, 12)) @ q.T
        spec = EnergySpec.quadratic(inertia)
        mu = rng.standard_normal(12)
        np.testing.assert_allclose(
            spec.dual_gradient(mu), np.linalg.solve(inertia, mu), rtol=1e-10, atol=0
        )
    # a real asymmetry is still rejected, at unit scale and at large scale
    with pytest.raises(ValueError, match="not symmetric"):
        EnergySpec.quadratic(np.array([[1.0, 1e-6], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        EnergySpec.quadratic(np.array([[1e5, 1.0], [0.0, 1e5]]))
    # a non-finite entry is named before any symmetry arithmetic
    for bad in (np.nan, np.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularInertia, match="non-finite"):
                EnergySpec.quadratic(np.array([[1e5, bad], [0.0, 1e5]]))


def test_blackbox_gradients_track_the_quadratic_ones():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3))
    inertia = a @ a.T + 3.0 * np.eye(3)
    quad = EnergySpec.quadratic(inertia)
    black = EnergySpec.blackbox(lambda mu: 0.5 * mu @ np.linalg.solve(inertia, mu))
    for _ in range(10):
        mu = rng.standard_normal(3)
        np.testing.assert_allclose(
            black.dual_gradient(mu), quad.dual_gradient(mu), atol=1e-8
        )
        assert abs(black.hamiltonian(mu) - quad.hamiltonian(mu)) < 1e-14


def test_variational_derivative_is_the_gradient():
    spec = EnergySpec.blackbox(lambda x: float(np.sum(x**3)))
    x = np.array([0.5, -0.25, 1.0])
    np.testing.assert_allclose(spec.gradient(x), 3 * x**2, atol=1e-7)


def test_quadratic_energy_rejects_a_wrong_length_momentum():
    spec = EnergySpec.identity(12)
    for bad in (np.ones(5), np.ones(13), np.ones((12, 1))):
        with pytest.raises(DimensionError, match="expected \\(12,\\)"):
            spec.dual_gradient(bad)
        with pytest.raises(DimensionError, match="expected \\(12,\\)"):
            spec.hamiltonian(bad)


def _energies(rng, n):
    a = rng.standard_normal((n, n))
    return {
        "diagonal": EnergySpec.diagonal(rng.uniform(0.5, 2.0, n)),
        "full": EnergySpec.quadratic(a @ a.T + n * np.eye(n)),
        "blackbox": EnergySpec.blackbox(lambda mu: float(np.sum(np.cos(mu)) + mu @ mu)),
    }


@pytest.mark.parametrize("kind", ["diagonal", "full", "blackbox"])
def test_dual_gradient_of_a_stack_is_the_row_by_row_solve(kind):
    rng = np.random.default_rng(17)
    spec = _energies(rng, 9)[kind]
    for m in (1, 2, 51):
        mu = rng.standard_normal((m, 9))
        stacked = spec.dual_gradient(mu)
        assert stacked.shape == (m, 9)
        rows = np.array([spec.dual_gradient(row) for row in mu])
        np.testing.assert_allclose(stacked, rows, rtol=1e-13, atol=1e-15)
    assert spec.dual_gradient(np.empty((0, 9))).shape == (0, 9)


@pytest.mark.parametrize("kind", ["diagonal", "full", "blackbox"])
def test_dual_gradient_rejects_other_shapes(kind):
    spec = _energies(np.random.default_rng(18), 9)[kind]
    bad = [np.array(1.0), np.ones((2, 3, 9))]
    if kind != "blackbox":  # a blackbox energy has no fixed length
        bad.append(np.ones((4, 10)))
    for mu in bad:
        with pytest.raises(DimensionError, match="expected \\(.*\\) or \\(m, "):
            spec.dual_gradient(mu)
        with pytest.raises(DimensionError, match="expected \\(.*\\) or \\(m, "):
            spec.hamiltonian(mu)
    # H of an (m, n) stack is H of each row
    stack = np.random.default_rng(19).standard_normal((9, 9))
    values = spec.hamiltonian(stack)
    assert values.shape == (9,)
    np.testing.assert_allclose(values, [spec.hamiltonian(row) for row in stack],
                               rtol=1e-13, atol=1e-15)


def test_ep_field_reproduces_the_euler_top():
    g = preset("so3")
    inertia = np.array([1.0, 2.0, 3.0])
    spec = EnergySpec.diagonal(inertia)
    rng = np.random.default_rng(5)
    for _ in range(50):
        pi = rng.standard_normal(3)
        omega = pi / inertia
        field = ep_field(g, spec, pi)
        np.testing.assert_allclose(field, np.cross(pi, omega), atol=1e-13)
        # the scalar component form, written out once
        assert field[0] == pytest.approx(pi[1] * pi[2] * (1 / 3 - 1 / 2), abs=1e-13)


def test_lp_field_reproduces_the_rigid_body_poisson_form():
    g = preset("so3")
    inertia = np.array([1.0, 2.0, 3.0])
    spec = EnergySpec.diagonal(inertia)
    rng = np.random.default_rng(6)
    for _ in range(50):
        mu = rng.standard_normal(3)
        np.testing.assert_allclose(
            lp_field(g, spec, mu), np.cross(mu / inertia, mu), atol=1e-13
        )
    # identity inertia makes dH/dmu = mu and the bracket kills the field
    mu = rng.standard_normal(3)
    np.testing.assert_allclose(lp_field(g, EnergySpec.identity(3), mu), 0.0, atol=1e-15)


def test_ep_field_requires_a_quadratic_energy():
    g = preset("so3")
    black = EnergySpec.blackbox(lambda mu: float(mu @ mu))
    with pytest.raises(ValueError, match="quadratic"):
        ep_field(g, black, np.zeros(3))
    # lp_field is fine with a blackbox energy
    lp_field(g, black, np.ones(3))


def test_fields_on_a_product_match_the_composed_algebra_route():
    """Fields (one contraction of the cached composed tensor) vs. the
    blockwise six-map coadjoint and vs. coad of the composed bracket."""
    d = build_model("kepler", {"e": 1.0, "m": 2.0, "k": 1.0})
    composed = compose_bracket(d)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((d.dim, d.dim))
    spec = EnergySpec.quadratic(a @ a.T + d.dim * np.eye(d.dim))
    for _ in range(25):
        mu = rng.standard_normal(d.dim)
        x = spec.dual_gradient(mu)
        for reference in (coad(d, x, mu), composed.coad(x, mu)):
            np.testing.assert_allclose(ep_field(d, spec, mu), -reference, atol=1e-12)
            np.testing.assert_allclose(lp_field(d, spec, mu), reference, atol=1e-12)


@pytest.mark.parametrize("inertia", ["identity", "diagonal", "full_spd"])
@pytest.mark.parametrize(
    "model", ["kepler", "tokamak/so3", "tokamak/sl2", "ep3/so3", "ep3/sl2"]
)
def test_folded_fields_match_the_blockwise_coadjoint(model, inertia):
    """The folded contraction against the paper's six-map coad, with the
    velocity I^-1 pi from an explicit solve."""
    rng = np.random.default_rng(11)
    family, _, base = model.partition("/")
    if family == "kepler":
        d = build_model("kepler", {"e": 0.7, "m": 1.3, "k": 0.8})
    elif family == "tokamak":
        d = build_model("tokamak", {"base": base, "b_i": 0.6})
    else:
        g = preset(base)
        d = third_order_product(g)
    spec = EnergySpec.quadratic(_inertia(inertia, rng, d.dim))
    for _ in range(20):
        pi = rng.standard_normal(d.dim)
        reference = coad(d, np.linalg.solve(spec.inertia, pi), pi)
        atol = 1e-12 * (pi @ pi)
        if family == "ep3":
            np.testing.assert_allclose(ep3_field(g, spec, pi), -reference, rtol=0, atol=atol)
            continue
        np.testing.assert_allclose(ep_field(d, spec, pi), -reference, rtol=0, atol=atol)
        np.testing.assert_allclose(lp_field(d, spec, pi), reference, rtol=0, atol=atol)


def _outer_product_oracle(tensor, x, y):
    """sum_ij tensor[k, i*n + j] x_i y_j as the (n, n*n) tensor times
    vec(x (x) y), and the entrywise scale of its terms."""
    terms = np.abs(tensor) @ np.outer(np.abs(x), np.abs(y)).ravel()
    return tensor @ np.outer(x, y).ravel(), terms


@pytest.mark.parametrize(
    "structure", ["kepler", "tokamak/so3", "tangent2/so3", "tangent5/sl2"]
)
def test_two_product_fields_match_the_outer_product_contraction(structure):
    """ep_field, lp_field (quadratic and blackbox) and ep3_field against
    K @ vec(y (x) y), K the field tensor with the spec's own I^-1 folded in,
    entry by entry within 1e-13 of the scale of the terms summed."""
    rng = np.random.default_rng(23)
    family, _, base = structure.partition("/")
    if family == "kepler":
        d = build_model("kepler", {"e": 0.7, "m": 1.3, "k": 0.8})
    elif family == "tokamak":
        d = build_model("tokamak", {"base": base, "b_i": 0.6})
    else:
        d = tangent_algebra(preset(base), int(family[len("tangent"):]))
    n = d.dim
    tensor = d.field_tensor
    spec = EnergySpec.quadratic(_spd(rng, n))
    inv = spec.dual_gradient(np.eye(n)).T  # the X = I^-1 the spec folds in
    folded = np.einsum("kaj,ai->kij", tensor.reshape(n, n, n), inv).reshape(n, n * n)
    blackbox = EnergySpec.blackbox(lambda mu: 0.5 * mu @ inv @ mu)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(5):
            y = scale * rng.standard_normal(n)
            expected, terms = _outer_product_oracle(folded, y, y)
            bound = 1e-13 * terms
            assert np.all(np.abs(ep_field(d, spec, y) - expected) <= bound)
            assert np.all(np.abs(lp_field(d, spec, y) + expected) <= bound)
            if family == "tangent2":
                assert np.all(np.abs(ep3_field(preset(base), spec, y) - expected) <= bound)
            v = blackbox.dual_gradient(y)
            expected, terms = _outer_product_oracle(tensor, v, y)
            assert np.all(np.abs(lp_field(d, blackbox, y) + expected) <= 1e-13 * terms)


def test_folded_tensor_follows_the_structure_it_is_asked_for():
    """One spec alternated between structures of the same dimension gives
    each its own field: the single cached entry never goes stale."""
    rng = np.random.default_rng(12)
    so3, sl2 = preset("so3"), preset("sl2")
    tok_so3, tok_sl2 = (build_model("tokamak", {"base": b}) for b in ("so3", "sl2"))
    for first, second in (
        ((so3, so3.coad), (sl2, sl2.coad)),
        (
            (tok_so3, lambda x, mu: coad(tok_so3, x, mu)),
            (tok_sl2, lambda x, mu: coad(tok_sl2, x, mu)),
        ),
    ):
        spec = EnergySpec.quadratic(_spd(rng, first[0].dim))
        for d, reference in (first, second, second, first, first, second):
            pi = rng.standard_normal(d.dim)
            xi = np.linalg.solve(spec.inertia, pi)
            np.testing.assert_allclose(ep_field(d, spec, pi), -reference(xi, pi), atol=1e-12)
            np.testing.assert_allclose(lp_field(d, spec, pi), reference(xi, pi), atol=1e-12)


def test_quadratic_fields_make_no_solve_once_folded(monkeypatch):
    """Structural: a quadratic field makes no dual_gradient call, not even
    the first one that builds the folded tensor from the inverse inertia
    formed at construction."""
    calls = []
    original = EnergySpec.dual_gradient

    def counting(self, mu):
        calls.append(np.shape(mu))
        return original(self, mu)

    monkeypatch.setattr(EnergySpec, "dual_gradient", counting)
    rng = np.random.default_rng(13)
    kepler = build_model("kepler", {"e": 0.5})
    tokamak = build_model("tokamak", {"base": "so3"})
    so3 = preset("so3")
    for field, n in (
        (lambda spec, y: ep_field(kepler, spec, y), 6),
        (lambda spec, y: lp_field(tokamak, spec, y), 12),
        (lambda spec, y: ep3_field(so3, spec, y), 9),
    ):
        spec = EnergySpec.quadratic(_spd(rng, n))
        for _ in range(6):
            field(spec, rng.standard_normal(n))
        assert calls == []


def test_folded_fields_reject_an_inertia_of_another_size():
    spec = EnergySpec.identity(4)
    for field in (ep_field, lp_field):
        with pytest.raises(DimensionError, match="inertia is 4x4, the state has length 3"):
            field(preset("so3"), spec, np.ones(3))


def test_energy_spec_keeps_a_private_copy_of_the_inertia():
    so3 = preset("so3")
    inertia = np.diag([1.0, 2.0, 3.0])
    for spec in (EnergySpec.quadratic(inertia), EnergySpec(kind="quadratic", inertia=inertia)):
        pi = np.array([0.3, -1.0, 0.5])
        before = ep_field(so3, spec, pi)
        inertia[0, 0] = 5.0  # the caller's array stays writeable
        assert spec.inertia[0, 0] == 1.0
        assert not spec.inertia.flags.writeable
        np.testing.assert_array_equal(ep_field(so3, spec, pi), before)
        inertia[0, 0] = 1.0


@settings(max_examples=80, deadline=None)
@given(
    structure=st.sampled_from(
        ["so3", "sl2", "heisenberg", "kepler", "tokamak", "tangent2"]
    ),
    seed=st.integers(0, 2**31 - 1),
)
def test_folded_fields_are_orthogonal_to_the_velocity(structure, seed):
    # <coad(xi) pi, xi> = 0 with xi = I^-1 pi, so both fields are tangent to
    # the energy level set, for any SPD inertia and any state
    rng = np.random.default_rng(seed)
    base = ("so3", "sl2", "heisenberg")[seed % 3]
    if structure == "kepler":
        d = build_model(
            "kepler",
            {"e": rng.uniform(-2, 2), "m": rng.uniform(0.5, 2), "k": rng.uniform(0.5, 2)},
        )
    elif structure == "tokamak":
        d = build_model("tokamak", {"base": base, "b_i": rng.uniform(-3, 3)})
    elif structure == "tangent2":
        d = tangent_algebra(preset(base), 2)
    else:
        d = preset(structure)
    a = rng.standard_normal((d.dim, d.dim))
    spec = EnergySpec.quadratic(a @ a.T + rng.uniform(0.1, 2.0) * np.eye(d.dim))
    pi = rng.standard_normal(d.dim)
    xi = np.linalg.solve(spec.inertia, pi)
    bound = 1e-12 * (pi @ pi) * np.linalg.norm(np.linalg.inv(spec.inertia), 2)
    for field in (ep_field, lp_field):
        assert abs(field(d, spec, pi) @ xi) <= bound


def test_fields_reject_a_wrong_length_state():
    for d in (build_model("kepler", {"e": 0.5}), preset("so3")):
        spec = EnergySpec.identity(d.dim)
        for field in (ep_field, lp_field):
            for bad in (np.ones(d.dim + 1), np.ones(d.dim - 1), np.ones((d.dim, 1))):
                with pytest.raises(DimensionError, match="state has shape"):
                    field(d, spec, bad)


def test_fields_are_orthogonal_to_the_energy_gradient():
    rng = np.random.default_rng(8)
    for name, params in (
        ("kepler", {"e": -0.5, "m": 1.0, "k": 1.0}),
        ("tokamak", {"base": "sl2", "b_i": 0.5}),
    ):
        d = build_model(name, params)
        spec = EnergySpec.diagonal(1.0 + rng.random(d.dim))
        for _ in range(40):
            mu = rng.standard_normal(d.dim)
            grad = spec.dual_gradient(mu)
            assert abs(ep_field(d, spec, mu) @ grad) < 1e-12
            assert abs(lp_field(d, spec, mu) @ grad) < 1e-12


# -- integrator --------------------------------------------------------------


def test_rk4_growth_error_matches_the_truncation_analysis():
    # dy/dt = y over one unit of time in ten steps.  The one-step amplifier
    # is the degree-4 Taylor polynomial of e^h, so the final error is known
    # in closed form and sits a hair above 2e-6.
    h = 0.1
    traj = rk4(lambda y: y, np.array([1.0]), h, 10)
    amplifier = 1 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
    predicted = abs(amplifier**10 - np.e)
    err = abs(traj.states[-1, 0] - np.e)
    assert err < 3e-6
    assert abs(err - predicted) < 1e-12


def test_rk4_harmonic_oscillator_accuracy():
    field = lambda y: np.array([y[1], -y[0]])
    traj = rk4(field, np.array([1.0, 0.0]), 0.01, 1000)
    np.testing.assert_allclose(traj.states[:, 0], np.cos(traj.times), atol=1e-8)
    energy = np.sum(traj.states**2, axis=1)
    assert np.max(np.abs(energy - energy[0])) < 1e-9


def test_rk4_time_grid_and_labels():
    traj = rk4(lambda y: np.zeros_like(y), np.array([1.0, 2.0]), 0.5, 4, labels=("a", "b"))
    np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert len(traj) == 5
    assert traj.h == pytest.approx(0.5)
    assert traj.labels == ("a", "b")
    np.testing.assert_allclose(traj.states, np.tile([1.0, 2.0], (5, 1)))


def test_rk4_argument_validation():
    field = lambda y: y
    with pytest.raises(ValueError, match="positive"):
        rk4(field, np.ones(1), 0.0, 5)
    with pytest.raises(ValueError, match="positive"):
        rk4(field, np.ones(1), -0.1, 5)
    for h in (np.inf, np.nan):  # blamed on the step, not on a state at step 1
        with pytest.raises(ValueError, match="step size must be positive and finite"):
            rk4(field, np.ones(1), h, 5)
    with pytest.raises(ValueError, match="at least one"):
        rk4(field, np.ones(1), 0.1, 0)


def test_rk4_reports_a_state_array_it_cannot_allocate():
    # 10**15 steps of a 3-vector ask for about 24 PB: refused before any write
    with pytest.raises(TrajectoryTooLarge) as excinfo:
        rk4(lambda y: y, np.ones(3), 0.1, 10**15)
    assert isinstance(excinfo.value, ValueError)
    assert str(excinfo.value) == (
        "cannot hold 1000000000000000 steps of a state of size 3: "
        "24000000000000024 bytes requested"
    )
    assert isinstance(excinfo.value.__cause__, MemoryError)


def test_rk4_flags_nonfinite_states_with_the_step_index():
    with pytest.raises(NonFiniteState) as excinfo:
        rk4(lambda y: y, np.array([np.inf]), 0.1, 3)
    assert excinfo.value.step == 0
    assert excinfo.value.component == "x1"
    assert excinfo.value.last_finite is None

    # quadratic blow-up: overflow on the very first update
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState) as excinfo:
        rk4(lambda y: y**2, np.array([1e200]), 1.0, 10)
    assert excinfo.value.step == 1
    assert "step 1" in str(excinfo.value)
    assert excinfo.value.component == "x1"
    np.testing.assert_array_equal(excinfo.value.last_finite, [1e200])

    # the first non-finite component is named by its label
    with pytest.raises(NonFiniteState) as excinfo:
        rk4(lambda y: y, np.array([1.0, np.nan, np.inf]), 0.1, 3, labels=("p", "q", "r"))
    assert (excinfo.value.step, excinfo.value.component) == (0, "q")
    assert str(excinfo.value) == "non-finite state after step 0 in component q"

    # only the second component blows up (y2 = 1/(1 - t) past t = 1), at step 5
    def growing(y):
        return np.array([0.0, y[1] ** 2])

    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteState) as excinfo:
        rk4(growing, np.array([1.0, 1.0]), 0.4, 10, labels=("a", "b"))
    assert (excinfo.value.step, excinfo.value.component) == (5, "b")
    assert excinfo.value.last_finite[0] == 1.0 and np.isfinite(excinfo.value.last_finite[1])

    # a finite state whose sum overflows is not flagged
    with np.errstate(over="ignore"):
        traj = rk4(lambda y: np.zeros_like(y), np.array([1e308, 1e308]), 0.1, 3)
    np.testing.assert_array_equal(traj.states, np.full((4, 2), 1e308))

    # and the finiteness test neither overflows nor warns where the squares would
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = rk4(lambda y: np.zeros_like(y), np.array([1e200, -1e200]), 0.1, 3)
    np.testing.assert_array_equal(traj.states, np.tile([1e200, -1e200], (4, 1)))


def test_rk4_reports_a_blow_up_inside_the_field_without_a_warning():
    """An overflow inside the field is rk4's to report: with every warning
    an error it still raises NonFiniteState, at the step and component a
    run with the warnings ignored gives."""
    d = build_model("kepler", {"e": 0.5})
    spec = EnergySpec.identity(6)
    y0 = 1e100 * np.array([1.0, 0.3, -0.7, 0.2, 0.9, -0.4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState) as excinfo:
            rk4(lambda y: ep_field(d, spec, y), y0, 0.01, 100, labels=d.labels)
    assert (excinfo.value.step, excinfo.value.component) == (2, "v1")
    assert np.isfinite(excinfo.value.last_finite).all()


def _textbook_rk4_step(field, y, h):
    k1 = field(y)
    k2 = field(y + h / 2 * k1)
    k3 = field(y + h / 2 * k2)
    k4 = field(y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4), (k1, k2, k3, k4)


@pytest.mark.parametrize("b0, named", [(2.0, "b"), (3.0, "a"), (1e160, "a")])
def test_rk4_blow_up_in_a_mixed_field_matches_the_textbook_tableau(b0, named, monkeypatch):
    """Only b grows like b' = b^2, but a reads it, so an infinite stage of b
    can carry into a within the same step (from b0 = 3 it does, from b0 = 2
    it does not; from b0 = 1e160 the first stage of step 1 is infinite).
    Step, named component and last finite state are those of the textbook
    RK4 run alongside, and no coefficient of the loop turns an infinite
    stage into NaN: the blown-up state rk4 reports on has the textbook
    step's inf and NaN entries (the field only overflows, so it has none).
    rk4 silences its own warnings, so that state is read where it is
    judged, in dynamics._non_finite."""
    reported = []

    def record(step, y, last_finite, labels):
        reported.append(y.copy())
        return non_finite(step, y, last_finite, labels)

    non_finite = dynamics._non_finite
    monkeypatch.setattr(dynamics, "_non_finite", record)
    def mixed(y):
        return np.array([0.5 * y[0] + 0.01 * y[1], y[1] ** 2 + y[2], 0.3 * y[0]])

    y0, h = np.array([1.0, b0, 0.5]), 0.05
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        y = y0
        for step in range(1, 101):
            last = y
            y, _ = _textbook_rk4_step(mixed, last, h)
            if not np.isfinite(y).all():
                break
        with pytest.raises(NonFiniteState) as excinfo:
            rk4(mixed, y0, h, 100, labels=("a", "b", "c"))
    assert excinfo.value.step == step
    assert excinfo.value.component == "abc"[int(np.isfinite(y).argmin())] == named
    np.testing.assert_allclose(excinfo.value.last_finite, last, rtol=1e-12, atol=0)
    (state,) = reported
    assert not np.isnan(y).any()
    np.testing.assert_array_equal(np.isnan(state), np.isnan(y))
    np.testing.assert_array_equal(np.isinf(state), np.isinf(y))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
    log_scale=st.floats(-3.0, 3.0),
    tau=st.floats(1e-3, 0.025),
    steps=st.integers(1, 20),
)
def test_rk4_steps_are_the_textbook_tableau_on_random_quadratic_fields(
    n, seed, log_scale, tau, steps
):
    """Each step of rk4, from the state before it, is the textbook step
    y + h/6 (k1 + 2 k2 + 2 k3 + k4), entry by entry within 1e-13 of the
    scale of its terms.  |k| <= 1 bounds the field by n^2 max|y|^2, so
    h = tau / (n^2 max|y0|) with steps * tau <= 1/2 keeps every state within
    twice max|y0|, far from a blow-up."""
    rng = np.random.default_rng(seed)
    k = rng.uniform(-1.0, 1.0, (n * n, n))

    def quadratic(y):
        return k.dot(y).reshape(n, n).dot(y)

    y0 = 10.0**log_scale * rng.uniform(-1.0, 1.0, n)
    h = tau / (n * n * max(np.max(np.abs(y0)), 1e-300))
    traj = rk4(quadratic, y0, h, steps)
    for prev, state in zip(traj.states[:-1], traj.states[1:]):
        expected, stages = _textbook_rk4_step(quadratic, prev, h)
        k1, k2, k3, k4 = (np.abs(s) for s in stages)
        terms = np.abs(prev) + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.all(np.abs(state - expected) <= 1e-13 * terms)


def test_rk4_makes_four_field_calls_per_step():
    calls = 0

    def field(y):
        nonlocal calls
        calls += 1
        return -y

    rk4(field, np.ones(3), 0.1, 7)
    assert calls == 28


def test_trajectory_checks_and_defaults():
    traj = Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((2, 3)))
    assert traj.labels == ("x1", "x2", "x3")
    assert not traj.states.flags.writeable
    with pytest.raises(ValueError, match="line up"):
        Trajectory(times=np.array([0.0]), states=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="one label per"):
        Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((2, 3)), labels=("a",))
    single = Trajectory(times=np.array([2.0]), states=np.ones((1, 2)))
    assert single.h == 0.0


def test_trajectory_keeps_private_copies():
    times, states = np.array([0.0, 1.0]), np.zeros((2, 3))
    traj = Trajectory(times=times, states=states)
    times[1] = 5.0  # the caller's arrays stay writeable
    states[0, 0] = 7.0
    assert traj.times[1] == 1.0 and traj.states[0, 0] == 0.0
    assert not traj.times.flags.writeable and not traj.states.flags.writeable


def test_rigid_body_long_run_conserves_casimir_and_energy():
    g = preset("so3")
    spec = EnergySpec.diagonal([1.0, 2.0, 3.0])
    traj = rk4(lambda y: lp_field(g, spec, y), np.array([1.0, 0.2, -0.5]), 1e-3, 10_000)
    report = conservation_report(
        traj, {"casimir": lambda m: np.sum(m * m, axis=1), "energy": spec.hamiltonian}
    )
    assert report["casimir"]["max_rel_drift"] < 1e-10
    assert report["energy"]["max_rel_drift"] < 1e-10
    assert report["casimir"]["initial"] == pytest.approx(1.29)


def test_conservation_report_values_and_scaling():
    times = np.arange(4.0)
    states = np.column_stack([np.arange(4.0), np.zeros(4)])
    traj = Trajectory(times=times, states=states)
    report = conservation_report(
        traj, {"first": lambda s: s[:, 0], "second": lambda s: s[:, 1]}
    )
    assert report["first"] == {
        "initial": 0.0,
        "max_abs_drift": 3.0,
        "max_rel_drift": 3.0e30,  # zero initial value falls back to the 1e-30 floor
    }
    assert report["second"]["max_abs_drift"] == 0.0
    assert report["second"]["max_rel_drift"] == 0.0

    empty = Trajectory(times=np.zeros(0), states=np.zeros((0, 2)))
    with pytest.raises(ValueError, match="nonempty"):
        conservation_report(empty, {"any": lambda row: 0.0})


def _conservation_report_row_by_row(traj, functionals):
    """The per-row report: each functional called on one state at a time.
    The oracle for the stacked conservation_report."""
    report = {}
    for name, func in functionals.items():
        values = np.array([func(row) for row in traj.states], dtype=float)
        drift = np.max(np.abs(values - values[0]), initial=0.0)
        report[name] = {
            "initial": float(values[0]),
            "max_abs_drift": float(drift),
            "max_rel_drift": float(drift / max(abs(values[0]), 1e-30)),
        }
    return report


@pytest.mark.parametrize("kind", ["diagonal", "full", "blackbox"])
def test_stacked_conservation_report_matches_the_row_by_row_one(kind):
    rng = np.random.default_rng(23)
    spec = _energies(rng, 9)[kind]
    states = rng.standard_normal((60, 9))
    traj = Trajectory(times=0.01 * np.arange(60), states=states)
    stacked = conservation_report(traj, {"H": spec.hamiltonian})
    oracle = _conservation_report_row_by_row(traj, {"H": spec.hamiltonian})
    bound = 4 * np.finfo(float).eps * abs(oracle["H"]["initial"])
    assert abs(stacked["H"]["initial"] - oracle["H"]["initial"]) <= bound
    assert abs(stacked["H"]["max_abs_drift"] - oracle["H"]["max_abs_drift"]) <= bound


def test_conservation_report_rejects_a_functional_of_the_wrong_shape():
    traj = Trajectory(times=np.arange(4.0), states=np.ones((4, 2)))
    for bad, shape in ((lambda s: s[0], "(2,)"), (lambda s: s, "(4, 2)"),
                       (lambda s: 1.0, "()")):
        with pytest.raises(DimensionError) as exc:
            conservation_report(traj, {"ok": lambda s: s[:, 0], "bad": bad})
        assert f"functional 'bad' returned shape {shape} for 4 states" in str(exc.value)


def _write_csv_with_csv_writer(traj, path):
    """The csv.writer loop, one formatted row at a time: the oracle for
    write_trajectory_csv."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t",) + traj.labels)
        for t, row in zip(traj.times, traj.states):
            writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])


def test_trajectory_csv_is_byte_identical_to_the_csv_writer_loop(tmp_path):
    rng = np.random.default_rng(24)
    edge = np.array([[-0.0, 5e-324, 1e300], [-1e300, -5e-324, 0.0],
                     [np.inf, -np.inf, np.nan], [0.1, 1.0 / 3.0, -2.5e-8]])
    trajs = [
        Trajectory(times=np.arange(4.0) - 1.5, states=edge,
                   labels=("a,b", 'say "hi"', 'both, "x"')),
        Trajectory(times=np.zeros(1), states=np.zeros((1, 1))),
    ]
    for m, n in ((2, 3), (41, 12), (2**16 + 3, 1), (300, 9)):  # 2**16 + 3: more than one block
        scales = 10.0 ** rng.integers(-300, 300, (m, n))
        trajs.append(Trajectory(times=rng.uniform(0, 10, m),
                                states=rng.standard_normal((m, n)) * scales))
    for traj in trajs:
        fast, oracle = tmp_path / "fast.csv", tmp_path / "oracle.csv"
        write_trajectory_csv(traj, fast)
        _write_csv_with_csv_writer(traj, oracle)
        assert fast.read_bytes() == oracle.read_bytes()
    assert fast.read_bytes().count(b"\r\n") == 301


def test_trajectory_csv_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(9)
    traj = rk4(lambda y: -y, rng.standard_normal(3), 0.1, 20, labels=("u", "v", "w"))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,u,v,w"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    # %.17g is lossless for doubles, so equality is exact
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1:], traj.states)


def test_report_json_output(tmp_path):
    report = {"b": {"x": 1.0}, "a": {"y": 2.0}}
    path = tmp_path / "report.json"
    write_report_json(report, path)
    text = path.read_text()
    assert json.loads(text) == report
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
