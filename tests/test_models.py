import numpy as np
import pytest

from unimech import (
    ConfigError,
    EnergySpec,
    KeplerParams,
    TokamakParams,
    UnknownPreset,
    abelian,
    build_model,
    ep_field,
    kepler_algebra,
    lp_field,
    preset,
    tokamak_algebra,
    validate_axioms,
)
from model_equations import (
    kepler_ep_rhs,
    kepler_lp_rhs,
    kepler_regression,
    tokamak_ep_rhs,
    tokamak_lp_rhs,
    tokamak_regression,
)


def _spd_spec(dim, rng):
    a = rng.standard_normal((dim, dim))
    return EnergySpec.quadratic(a @ a.T + dim * np.eye(dim))


# -- central-force family --------------------------------------------------------


def test_kepler_structure_tensors():
    d = kepler_algebra(KeplerParams(e=1.0, m=2.0, k=3.0))
    coupling = 2.0 * 1.0 / (2.0**3 * 3.0**2)
    assert d.dim_m == 3 and d.dim_h == 3
    assert d.m_labels == ("v1", "v2", "v3")
    assert d.h.labels == ("eta1", "eta2", "eta3")
    np.testing.assert_allclose(d.phi, 0.0)
    np.testing.assert_allclose(d.psi, 0.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        eta, v, w = rng.standard_normal((3, 3))
        # h brackets and acts by the cross product
        np.testing.assert_allclose(d.h.bracket(eta, v), np.cross(eta, v), atol=1e-14)
        acted = np.einsum("kaj,a,j->k", d.act, eta, v)
        np.testing.assert_allclose(acted, np.cross(eta, v), atol=1e-14)
        # the cocycle is the scaled cross product
        np.testing.assert_allclose(
            np.einsum("cij,i,j->c", d.theta, v, w), coupling * np.cross(v, w), atol=1e-14
        )


@pytest.mark.parametrize("e", [-0.5, 0.0, 1.0])
@pytest.mark.parametrize("m", [1.0, 2.0])
def test_kepler_axioms_hold_across_the_family(e, m):
    d = kepler_algebra(KeplerParams(e=e, m=m, k=1.0))
    report = validate_axioms(d)
    assert report.ok, report.checks
    assert max(check.residual for check in report.checks.values()) <= 1e-12
    assert d.algebra.validate().checks["jacobi"].residual <= 1e-12


def test_kepler_zero_eccentricity_drops_the_cocycle():
    d = kepler_algebra(KeplerParams(e=0.0))
    np.testing.assert_allclose(d.theta, 0.0)


def test_kepler_fields_match_the_hand_written_equations():
    rng = np.random.default_rng(1)
    d = kepler_algebra(KeplerParams(e=1.0, m=1.5, k=0.5))
    for spec in (EnergySpec.identity(6), _spd_spec(6, rng)):
        for _ in range(50):
            state = rng.standard_normal(6)
            gaps = kepler_regression(d, spec, state)
            assert gaps["ep"] <= 1e-12
            assert gaps["lp"] <= 1e-12


def test_kepler_rhs_helpers_are_what_they_say():
    # spot-check the literal formulas, independent of the library coadjoint
    coupling = 0.25
    xi = np.arange(1.0, 7.0)
    pi = np.arange(2.0, 8.0)
    u, eta = xi[:3], xi[3:]
    pv, pe = pi[:3], pi[3:]
    want = np.concatenate(
        [
            np.cross(pv, eta) + coupling * np.cross(pe, u),
            np.cross(pe, eta) - np.cross(u, pv),
        ]
    )
    np.testing.assert_allclose(kepler_ep_rhs(coupling, xi, pi), want)
    want_lp = np.concatenate(
        [
            np.cross(eta, pv) + coupling * np.cross(u, pe),
            np.cross(eta, pe) + np.cross(u, pv),
        ]
    )
    np.testing.assert_allclose(kepler_lp_rhs(coupling, xi, pi), want_lp)


def test_kepler_parameter_checks():
    with pytest.raises(ConfigError, match=r"^m must be finite and > 0, got 0\.0$"):
        KeplerParams(e=0.5, m=0.0)
    with pytest.raises(ConfigError, match=r"^k must be finite and > 0, got -1\.0$"):
        KeplerParams(e=0.5, k=-1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match=rf"^e must be a finite real number, got {bad}$"):
            KeplerParams(e=bad)
        for name in ("m", "k"):
            with pytest.raises(ConfigError, match=rf"^{name} must be finite and > 0, got {bad}$"):
                KeplerParams(**{"e": 0.5, name: bad})
    assert KeplerParams(e=-2.0).coupling == pytest.approx(-4.0)


# -- magnetized family -------------------------------------------------------------


@pytest.mark.parametrize("base_name", ["so3", "sl2", "heisenberg"])
@pytest.mark.parametrize("b", [0.0, 0.5, 1.0])
def test_tokamak_axioms_hold_across_the_family(base_name, b):
    d = tokamak_algebra(TokamakParams(base=preset(base_name), b_i=b))
    report = validate_axioms(d)
    assert report.ok, report.checks
    assert max(check.residual for check in report.checks.values()) <= 1e-12
    assert d.algebra.validate().checks["jacobi"].residual <= 1e-12


def test_tokamak_block_structure():
    g = preset("so3")
    d = tokamak_algebra(TokamakParams(base=g, b_i=0.75))
    n = 3
    assert d.dim_m == 6 and d.dim_h == 6
    assert d.m_labels == ("v1", "v2", "v3", "b1", "b2", "b3")
    assert d.h.labels == ("w1", "w2", "w3", "a1", "a2", "a3")
    rng = np.random.default_rng(2)
    for _ in range(10):
        w1, a1, w2, a2 = rng.standard_normal((4, n))
        # [(w, a), (w', a')] = ([a, w'] + [w, a'], [a, a'])
        got = d.h.bracket(np.concatenate([w1, a1]), np.concatenate([w2, a2]))
        np.testing.assert_allclose(
            got[:n], np.cross(a1, w2) + np.cross(w1, a2), atol=1e-14
        )
        np.testing.assert_allclose(got[n:], np.cross(a1, a2), atol=1e-14)
        # (w, a) |> (v, b) = ([a, v], [a, b])
        v, bvec = rng.standard_normal((2, n))
        acted = np.einsum(
            "kaj,a,j->k", d.act, np.concatenate([w1, a1]), np.concatenate([v, bvec])
        )
        np.testing.assert_allclose(acted[:n], np.cross(a1, v), atol=1e-14)
        np.testing.assert_allclose(acted[n:], np.cross(a1, bvec), atol=1e-14)
        # theta((v, b), (v', b')) = (-B([b, v'] + [v, b']), 0)
        v2, b2 = rng.standard_normal((2, n))
        twist = np.einsum(
            "cij,i,j->c", d.theta, np.concatenate([v, bvec]), np.concatenate([v2, b2])
        )
        np.testing.assert_allclose(
            twist[:n], -0.75 * (np.cross(bvec, v2) + np.cross(v, b2)), atol=1e-14
        )
        np.testing.assert_allclose(twist[n:], 0.0, atol=1e-14)
    # the m part carries no bracket of its own
    np.testing.assert_allclose(d.phi, 0.0)
    np.testing.assert_allclose(d.psi, 0.0)


@pytest.mark.parametrize("base_name", ["so3", "sl2", "heisenberg"])
@pytest.mark.parametrize("b", [0.0, 0.5, 1.0])
def test_tokamak_fields_match_the_hand_written_equations(base_name, b):
    rng = np.random.default_rng(3)
    d = tokamak_algebra(TokamakParams(base=preset(base_name), b_i=b))
    for spec in (EnergySpec.identity(d.dim), _spd_spec(d.dim, rng)):
        for _ in range(25):
            state = rng.standard_normal(d.dim)
            gaps = tokamak_regression(d, spec, state)
            assert gaps["ep"] <= 1e-12
            assert gaps["lp"] <= 1e-12


def test_tokamak_rhs_lp_is_the_sign_mirror_of_ep():
    g = preset("sl2")
    rng = np.random.default_rng(4)
    x, mu = rng.standard_normal((2, 4 * g.dim))
    np.testing.assert_allclose(
        tokamak_lp_rhs(g, 0.5, x, mu), -tokamak_ep_rhs(g, 0.5, x, mu), atol=1e-14
    )


def test_tokamak_abelian_base_still_regresses():
    d = tokamak_algebra(TokamakParams(base=abelian(2), b_i=0.0))
    rng = np.random.default_rng(5)
    state = rng.standard_normal(d.dim)
    gaps = tokamak_regression(d, EnergySpec.identity(d.dim), state)
    assert gaps["ep"] == 0.0 and gaps["lp"] == 0.0
    # everything commutes, so both reduced fields vanish identically
    np.testing.assert_allclose(ep_field(d, EnergySpec.identity(d.dim), state), 0.0)
    np.testing.assert_allclose(lp_field(d, EnergySpec.identity(d.dim), state), 0.0)


def test_tokamak_parameter_checks():
    with pytest.raises(ConfigError, match=r"^base must be a LieAlgebra, got 'so3'$"):
        TokamakParams(base="so3")
    broken = preset("so3")
    bad_c = np.array(broken.c)
    bad_c[0, 0, 1] += 0.5
    bad_c[0, 1, 0] -= 0.5
    from unimech import LieAlgebra

    with pytest.raises(ValueError, match="fails the Lie algebra checks") as info:
        TokamakParams(base=LieAlgebra(dim=3, c=bad_c))
    # the worst axiom of the base, its residual, its threshold and where
    assert str(info.value).endswith(": h_jacobi residual 0.5 (threshold 1e-10) at (e2,e1,e2,e3)")
    skew = np.zeros((2, 2, 2))
    skew[0, 0, 1] = 1.0  # no mirror entry
    with pytest.raises(ValueError, match="fails the Lie algebra checks: h_antisymmetry "
                                         r"residual 1 \(threshold 1e-10\) at \(e1,e1,e2\)$"):
        TokamakParams(base=LieAlgebra(dim=2, c=skew, strict=False))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match=rf"^b_i must be a finite real number, got {bad}$"):
            TokamakParams(base=preset("so3"), b_i=bad)


# -- name dispatch ------------------------------------------------------------------


def test_build_model_dispatch():
    d = build_model("kepler", {"e": 0.5, "m": 2.0})
    assert d.theta[2, 0, 1] == pytest.approx(2.0 * 0.5 / 8.0)

    d = build_model("tokamak", {"base": "sl2", "b_i": 0.25})
    assert d.dim == 4 * 3
    d_default = build_model("tokamak")
    assert d_default.dim == 12  # so3 base by default

    plain = build_model("so3")
    assert plain.dim_m == 0 and plain.h.labels == preset("so3").labels

    sized = build_model("abelian", {"dim": 4})
    assert sized.dim == 4


def test_build_model_error_paths():
    with pytest.raises(ConfigError, match="kepler"):
        build_model("kepler", {"e": 0.5, "typo": 1.0})
    with pytest.raises(ConfigError, match="kepler"):
        build_model("kepler")  # eccentricity is required
    with pytest.raises(ConfigError, match="tokamak"):
        build_model("tokamak", {"b_i": 1.0, "typo": 2.0})
    with pytest.raises(ConfigError, match="preset name or a LieAlgebra"):
        build_model("tokamak", {"base": 17})
    for params in ([1], "e", 0.5):
        with pytest.raises(ConfigError, match="params must be an object"):
            build_model("kepler", params)
    with pytest.raises(UnknownPreset):
        build_model("su5")
    with pytest.raises(UnknownPreset):
        build_model("tokamak", {"base": "su5"})
