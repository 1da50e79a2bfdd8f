import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unimech import (
    ConfigError,
    DimensionError,
    LieAlgebra,
    NotASubalgebra,
    UnifiedProductData,
    abelian,
    build_model,
    coad,
    compose_bracket,
    load_product,
    preset,
    product_from_doc,
    product_to_doc,
    save_product,
    tangent_algebra,
    third_order_product,
    validate_axioms,
)
from unimech.cli import main
from unimech.models import KeplerParams, kepler_algebra
from unimech.products import (
    act_star_h,
    act_star_m,
    phi_coad,
    psi_star_h,
    psi_star_m,
    theta_star,
)
from model_equations import with_maps


def _random_product(seed, dim_m, dim_h):
    """Arbitrary structure data: antisymmetric where required, otherwise
    free.  No axiom is imposed -- not even Jacobi on h -- because the
    coadjoint/-ad^T identity is a statement about the tensors alone."""
    rng = np.random.default_rng(seed)
    ch = rng.standard_normal((dim_h, dim_h, dim_h))
    ch = ch - ch.swapaxes(1, 2)
    h = LieAlgebra(dim=dim_h, c=ch)
    phi = rng.standard_normal((dim_m, dim_m, dim_m))
    theta = rng.standard_normal((dim_h, dim_m, dim_m))
    return compose_bracket(
        dim_m,
        h,
        act=rng.standard_normal((dim_m, dim_h, dim_m)),
        phi=phi - phi.swapaxes(1, 2),
        theta=theta - theta.swapaxes(1, 2),
        psi=rng.standard_normal((dim_h, dim_h, dim_m)),
    )


def _bracket_by_hand(d, x, y):
    """The composed bracket evaluated straight from its definition,
    independent of the tensor assembly in compose_bracket."""
    m = d.dim_m
    v1, n1 = x[:m], x[m:]
    v2, n2 = y[:m], y[m:]
    out_m = (
        np.einsum("kij,i,j->k", d.phi, v1, v2)
        + np.einsum("kaj,a,j->k", d.act, n1, v2)
        - np.einsum("kaj,a,j->k", d.act, n2, v1)
    )
    out_h = (
        d.h.bracket(n1, n2)
        + np.einsum("caj,a,j->c", d.psi, n1, v2)
        - np.einsum("caj,a,j->c", d.psi, n2, v1)
        + np.einsum("cij,i,j->c", d.theta, v1, v2)
    )
    return np.concatenate([out_m, out_h])


def test_composed_bracket_matches_definition():
    d = _random_product(0, 3, 2)
    composed = d.algebra
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = rng.standard_normal((2, 5))
        np.testing.assert_allclose(
            composed.bracket(x, y), _bracket_by_hand(d, x, y), atol=1e-12
        )


def test_composed_bracket_labels_and_blocks():
    d = kepler_algebra(KeplerParams(e=1.0))
    composed = d.algebra
    assert composed.labels == ("v1", "v2", "v3", "eta1", "eta2", "eta3")
    np.testing.assert_allclose(composed.c[3:, 3:, 3:], d.h.c, atol=0)
    np.testing.assert_allclose(composed.c[:3, :3, :3], d.phi, atol=0)
    np.testing.assert_allclose(composed.c[3:, :3, :3], d.theta, atol=0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim_m=st.integers(0, 3),
    dim_h=st.integers(0, 3),
)
def test_coad_equals_minus_ad_transpose_for_arbitrary_tensors(seed, dim_m, dim_h):
    d = _random_product(seed, dim_m, dim_h)
    composed = d.algebra
    rng = np.random.default_rng(seed + 17)
    x, mu = rng.standard_normal((2, d.dim))
    np.testing.assert_allclose(
        coad(d, x, mu), -composed.ad_matrix(x).T @ mu, atol=1e-12
    )


def test_dual_maps_satisfy_their_pairings():
    """Each of the six dual maps against its defining pairing, with the
    primal side evaluated straight from the tensors."""
    d = _random_product(5, 3, 2)
    rng = np.random.default_rng(6)

    def act_on(eta, w):  # eta |> w
        return np.einsum("kaj,a,j->k", d.act, eta, w)

    def psi_of(eta, w):  # psi(eta, w)
        return np.einsum("caj,a,j->c", d.psi, eta, w)

    def theta_of(v, w):
        return np.einsum("cij,i,j->c", d.theta, v, w)

    def phi_of(v, w):
        return np.einsum("kij,i,j->k", d.phi, v, w)

    for _ in range(10):
        v, w = rng.standard_normal((2, 3))
        alpha = rng.standard_normal(3)
        eta, z = rng.standard_normal((2, 2))
        beta = rng.standard_normal(2)
        # <phi_coad(v) alpha, w> = -<alpha, phi(v, w)>
        assert abs(float(phi_coad(d, v, alpha) @ w) + float(alpha @ phi_of(v, w))) < 1e-12
        # <act_star_m(alpha, eta), w> = <alpha, eta |> w>
        assert abs(float(act_star_m(d, alpha, eta) @ w) - float(alpha @ act_on(eta, w))) < 1e-12
        # <psi_star_m(eta, beta), w> = <beta, psi(eta, w)>
        assert abs(float(psi_star_m(d, eta, beta) @ w) - float(beta @ psi_of(eta, w))) < 1e-12
        # <theta_star(v, beta), w> = <beta, theta(v, w)>
        assert abs(float(theta_star(d, v, beta) @ w) - float(beta @ theta_of(v, w))) < 1e-12
        # <act_star_h(v, alpha), z> = <alpha, z |> v>
        assert abs(float(act_star_h(d, v, alpha) @ z) - float(alpha @ act_on(z, v))) < 1e-12
        # <psi_star_h(v, beta), z> = <beta, psi(z, v)>
        assert abs(float(psi_star_h(d, v, beta) @ z) - float(beta @ psi_of(z, v))) < 1e-12


def test_axioms_pass_on_kepler():
    report = validate_axioms(kepler_algebra(KeplerParams(e=-0.5, m=2.0)))
    assert report.ok
    assert report.worst == 0.0
    assert set(report.residuals) == {
        "m_antisymmetry",
        "action_derivation",
        "cocycle_action_compat",
        "twist_derivation",
        "m_jacobi",
        "cocycle_jacobi",
        "action_representation",
        "h_jacobi",
    }


def test_axioms_flag_a_perturbed_cocycle():
    d = kepler_algebra(KeplerParams(e=1.0))
    theta = np.array(d.theta)
    theta[0, 1, 2] += 1e-3
    theta[0, 2, 1] -= 1e-3
    broken = with_maps(d, theta=theta)
    report = validate_axioms(broken)
    assert not report.ok
    assert report.worst > 1e-4
    assert broken.algebra.validate().jacobi > 1e-4


def test_strict_compose_bracket_refuses_nan_and_inf_maps():
    # the one strict check reads the composed tensor: a skew pair of phi or
    # theta and h directly, an entry of act or psi through its mirrored block
    shapes = {"act": (2, 1, 2), "phi": (2, 2, 2), "theta": (1, 2, 2), "psi": (1, 1, 2)}
    worst = {"act": "(m1; m2, e1)", "phi": "(m1; m1, m2)",
             "theta": "(e1; m1, m2)", "psi": "(e1; m2, e1)"}
    cases = []
    for name, witness in worst.items():
        for value in (np.nan, np.inf):
            maps = {key: np.zeros(shape) for key, shape in shapes.items()}
            maps[name][0, 0, 1] = value
            if name in ("phi", "theta"):
                maps[name][0, 1, 0] = -value
            cases.append((abelian(1), maps, "nan", witness))
    skew_h = LieAlgebra(1, np.ones((1, 1, 1)), labels=("z",), strict=False)
    cases.append((skew_h, {key: np.zeros(shape) for key, shape in shapes.items()},
                  "2.000e+00", "(z; z, z)"))
    for h, maps, residual, witness in cases:
        with pytest.raises(ValueError, match=r"^structure tensor is not antisymmetric "
                           rf"\(residual {re.escape(residual)}\) worst at {re.escape(witness)};"):
            compose_bracket(2, h, **maps)
        assert not validate_axioms(compose_bracket(2, h, **maps, strict=False)).ok


def test_witness_points_at_the_worst_entry():
    # seed a known antisymmetry violation and check the reported labels
    h = abelian(1, labels=("z",))
    phi = np.zeros((3, 3, 3))
    phi[1, 0, 2] = 1.0
    phi[1, 2, 0] = 1.0  # same sign: antisymmetry fails at (m2, m1, m3)
    d = compose_bracket(
        3,
        h,
        act=np.zeros((3, 1, 3)),
        phi=phi,
        theta=np.zeros((1, 3, 3)),
        psi=np.zeros((1, 1, 3)),
        strict=False,
    )
    report = validate_axioms(d)
    assert report.residuals["m_antisymmetry"] == 2.0
    assert report.witnesses["m_antisymmetry"] == ("m2", "m1", "m3")


def test_witness_matches_independent_argmax():
    """The m_jacobi witness must name the labels at the argmax of the
    residual tensor computed by a literal loop."""
    rng = np.random.default_rng(9)
    phi = rng.standard_normal((3, 3, 3))
    phi = phi - phi.swapaxes(1, 2)
    d = compose_bracket(
        3,
        abelian(0),
        act=np.zeros((3, 0, 3)),
        phi=phi,
        theta=np.zeros((0, 3, 3)),
        psi=np.zeros((0, 0, 3)),
        m_labels=("u1", "u2", "u3"),
    )

    def bra(u, w):
        return np.einsum("kij,i,j->k", phi, u, w)

    basis = np.eye(3)
    by_hand = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for l in range(3):
                ei, ej, el = basis[i], basis[j], basis[l]
                by_hand[:, i, j, l] = (
                    bra(bra(ei, ej), el) + bra(bra(ej, el), ei) + bra(bra(el, ei), ej)
                )
    report = validate_axioms(d)
    idx = np.unravel_index(np.argmax(np.abs(by_hand)), by_hand.shape)
    labels = ("u1", "u2", "u3")
    assert report.witnesses["m_jacobi"] == tuple(labels[q] for q in idx)
    assert abs(report.residuals["m_jacobi"] - np.max(np.abs(by_hand))) < 1e-12


def _axiom_residuals_by_einsum(d):
    """Five axioms as hand-derived einsum identities in the structure maps:
    the oracle for the Jacobiator blocks validate_axioms reads.  Each value
    is (residual tensor, its "m"/"h" axes)."""
    a, p, t, s, H = d.act, d.phi, d.theta, d.psi, d.h.c
    # n|>phi(v1,v2) = phi(n|>v1, v2) + phi(v1, n|>v2) + psi(n,v1)|>v2 - psi(n,v2)|>v1
    r2 = (
        np.einsum("kam,mij->kaij", a, p)
        - np.einsum("kmj,mai->kaij", p, a)
        - np.einsum("kim,maj->kaij", p, a)
        - np.einsum("kcj,cai->kaij", a, s)
        + np.einsum("kci,caj->kaij", a, s)
    )
    # [n, theta(v1,v2)]_h = theta(n|>v1, v2) + theta(v1, n|>v2)
    #   + psi(psi(n,v1), v2) - psi(psi(n,v2), v1) - psi(n, phi(v1,v2))
    r3 = (
        np.einsum("cad,dij->caij", H, t)
        - np.einsum("cmj,mai->caij", t, a)
        - np.einsum("cim,maj->caij", t, a)
        - np.einsum("cdj,dai->caij", s, s)
        + np.einsum("cdi,daj->caij", s, s)
        + np.einsum("cam,mij->caij", s, p)
    )
    # psi([n1,n2], v) = [n1, psi(n2,v)] + [psi(n1,v), n2] + psi(n1, n2|>v) - psi(n2, n1|>v)
    r4 = (
        np.einsum("cdj,dab->cabj", s, H)
        - np.einsum("cad,dbj->cabj", H, s)
        - np.einsum("cdb,daj->cabj", H, s)
        - np.einsum("cam,mbj->cabj", s, a)
        + np.einsum("cbm,maj->cabj", s, a)
    )
    # cyclic sum of phi(phi(v1,v2), v3) + theta(v1,v2)|>v3 = 0
    j5 = np.einsum("kml,mij->kijl", p, p) + np.einsum("kcl,cij->kijl", a, t)
    r5 = j5 + j5.transpose(0, 2, 3, 1) + j5.transpose(0, 3, 1, 2)
    # cyclic sum of psi(theta(v1,v2), v3) + theta(phi(v1,v2), v3) = 0
    j6 = np.einsum("cdl,dij->cijl", s, t) + np.einsum("cml,mij->cijl", t, p)
    r6 = j6 + j6.transpose(0, 2, 3, 1) + j6.transpose(0, 3, 1, 2)
    return {
        "action_derivation": (r2, "mhmm"),
        "cocycle_action_compat": (r3, "hhmm"),
        "twist_derivation": (r4, "hhhm"),
        "m_jacobi": (r5, "mmmm"),
        "cocycle_jacobi": (r6, "hmmm"),
    }


def _perturbed(d, seed, scale):
    """d with dense random noise of the given scale on phi, theta, act and
    psi, phi and theta kept antisymmetric."""
    rng = np.random.default_rng(seed)
    noise = {name: scale * rng.standard_normal(getattr(d, name).shape)
             for name in ("phi", "theta", "act", "psi")}
    for name in ("phi", "theta"):
        noise[name] = noise[name] - noise[name].swapaxes(1, 2)
    return with_maps(d, **{k: getattr(d, k) + v for k, v in noise.items()})


_ORACLE_MODELS = {
    "kepler": lambda: kepler_algebra(KeplerParams(e=1.0, m=1.5)),
    "tokamak/so3": lambda: build_model("tokamak", {"base": "so3", "b_i": 0.5}),
    "tokamak/sl2": lambda: build_model("tokamak", {"base": "sl2", "b_i": 1.0}),
    "third_order/so3": lambda: third_order_product(preset("so3")),
}


@pytest.mark.parametrize("model", sorted(_ORACLE_MODELS))
@pytest.mark.parametrize("scale", [0.0, 1e-6, 0.3])
def test_jacobiator_blocks_match_the_einsum_oracle(model, scale):
    """Each hand-derived axiom is one block of the composed Jacobiator: same
    maximum, and the witness sits on a maximal oracle entry."""
    for seed in range(3):
        d = _perturbed(_ORACLE_MODELS[model](), seed, scale)
        report = validate_axioms(d)
        offset = {"m": 0, "h": d.dim_m}
        for name, (want, axes) in _axiom_residuals_by_einsum(d).items():
            peak = float(np.max(np.abs(want)))
            np.testing.assert_allclose(report.residuals[name], peak, rtol=1e-12, atol=1e-14)
            idx = tuple(d.labels.index(label) - offset[a]
                        for label, a in zip(report.witnesses[name], axes))
            assert abs(want[idx]) >= peak * (1 - 1e-12) - 1e-14, (name, idx)


def _twice_adjoint():
    """so3 acting on R^3 by twice its adjoint action: every hand-derived
    axiom holds, but 2 ad is no representation, so the bracket is not Lie."""
    h = preset("so3")
    return compose_bracket(
        3, h, act=2.0 * h.c, phi=np.zeros((3, 3, 3)),
        theta=np.zeros((3, 3, 3)), psi=np.zeros((3, 3, 3)),
    )


def test_twice_the_adjoint_action_is_rejected():
    d = _twice_adjoint()
    assert all(np.max(np.abs(r)) == 0.0 for r, _ in _axiom_residuals_by_einsum(d).values())
    report = validate_axioms(d)
    assert not report.ok
    assert report.residuals["action_representation"] == 2.0
    assert len(report.witnesses["action_representation"]) == 4
    assert report.jacobi == d.algebra.validate().jacobi == 2.0


def test_cli_names_the_failed_representation_axiom(tmp_path, capsys):
    path = tmp_path / "twice_adjoint.json"
    save_product(_twice_adjoint(), path)
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert re.search(
        r"^axiom action_representation +residual 2\.000e\+00  \[FAIL\]"
        r"  worst at \((\w+,){3}\w+\)$", out, re.MULTILINE
    ), out
    assert "result: FAIL" in out


_PROPERTY_MODELS = (
    lambda: kepler_algebra(KeplerParams(e=0.7)),
    lambda: build_model("tokamak", {"base": "sl2", "b_i": 0.5}),
    lambda: build_model("tokamak", {"base": "heisenberg", "b_i": 1.0}),
    lambda: third_order_product(preset("sl2")),
    lambda: UnifiedProductData(preset("so3"), 0),
    _twice_adjoint,
    lambda: _random_product(3, 2, 2),
)


@settings(max_examples=80, deadline=None)
@example(model=1, target="theta", scale=1e-13, seed=3628801)
@given(
    model=st.integers(0, len(_PROPERTY_MODELS) - 1),
    target=st.sampled_from(["phi", "theta", "act", "psi", "h"]),
    scale=st.sampled_from([0.0, 1e-13, 1e-11, 1e-8, 1e-2]),
    seed=st.integers(0, 2**31 - 1),
)
def test_axioms_hold_iff_the_composed_bracket_is_lie(model, target, scale, seed):
    d = _PROPERTY_MODELS[model]()
    noise = scale * np.random.default_rng(seed).standard_normal(
        (d.h.c if target == "h" else getattr(d, target)).shape
    )
    if target in ("phi", "theta", "h"):
        noise = noise - noise.swapaxes(1, 2)
    if target == "h":
        d = with_maps(d, h=LieAlgebra(d.dim_h, d.h.c + noise, labels=d.h.labels))
    else:
        d = with_maps(d, **{target: getattr(d, target) + noise})
    report = validate_axioms(d)
    composed = d.algebra.validate()
    assert report.ok == composed.ok
    np.testing.assert_allclose(report.jacobi, composed.jacobi, rtol=1e-12, atol=0.0)


def _random_valid_structure(kind, base, rng):
    if kind == "kepler":
        params = {"e": rng.uniform(-2, 2), "m": rng.uniform(0.5, 2), "k": rng.uniform(0.5, 2)}
        return build_model("kepler", params)
    if kind == "tokamak":
        return build_model("tokamak", {"base": base, "b_i": rng.uniform(-3, 3)})
    if kind == "third_order":
        return third_order_product(preset(base))
    return UnifiedProductData(preset(base), 0)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["kepler", "tokamak", "preset", "third_order"]),
    base=st.sampled_from(["so3", "sl2", "heisenberg"]),
    x_scale=st.sampled_from([1e-3, 1.0, 1e3]),
    mu_scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**31 - 1),
)
def test_field_tensor_is_the_blockwise_coadjoint_on_valid_structures(
    kind, base, x_scale, mu_scale, seed
):
    # field_tensor @ vec(x (x) mu) == -coad(x, mu) and <coad(x, mu), x> = 0,
    # each judged against the summed magnitude of the terms it adds up
    rng = np.random.default_rng(seed)
    d = _random_valid_structure(kind, base, rng)
    assert validate_axioms(d).ok
    x = x_scale * rng.standard_normal(d.dim)
    mu = mu_scale * rng.standard_normal(d.dim)
    blockwise = coad(d, x, mu)
    terms = np.abs(d.field_tensor) @ np.abs(np.outer(x, mu)).ravel()
    assert np.all(np.abs(d.field_tensor @ np.outer(x, mu).ravel() + blockwise) <= 1e-13 * terms)
    assert abs(blockwise @ x) <= 1e-13 * (terms @ np.abs(x))


def test_a_plain_algebra_is_the_degenerate_product():
    g = preset("sl2")
    d = UnifiedProductData(g, 0)
    assert d.dim_m == 0
    assert d.dim == 3
    assert d.h is d.algebra is g
    assert validate_axioms(d).ok
    rng = np.random.default_rng(10)
    x, mu = rng.standard_normal((2, 3))
    np.testing.assert_allclose(coad(d, x, mu), g.coad(x, mu), atol=0)


def test_a_diagnostic_algebra_still_splits_for_validate_axioms():
    c = np.array(preset("heisenberg").c)
    c[2, 0, 1] += 1e-3  # [q, p] and [p, q] no longer cancel
    broken = LieAlgebra(3, c, labels=("q", "p", "z"), strict=False)
    d = UnifiedProductData(broken, 0)
    assert d.h is broken
    report = validate_axioms(d)
    assert not report.ok and report.h_antisymmetry == pytest.approx(1e-3)
    # nonzero cuts split it too; the defect lands in theta, then in phi
    for dim_m, name in ((2, "theta"), (3, "phi")):
        tensor = getattr(UnifiedProductData(broken, dim_m), name)
        assert np.abs(tensor + tensor.swapaxes(1, 2)).max() == pytest.approx(1e-3)
    with pytest.raises(ValueError, match="not antisymmetric"):
        LieAlgebra(3, c)


def test_a_defect_in_the_mixed_blocks_is_reported_not_repaired():
    # cut at 1, [q, p] and [p, q] sit in the (h; m, h) and (h; h, m) blocks:
    # m_antisymmetry reads them off the stored tensor as it is
    c = np.array(preset("heisenberg").c)
    c[2, 0, 1] += 1e-3
    d = UnifiedProductData(LieAlgebra(3, c, labels=("q", "p", "z"), strict=False), 1)
    report = validate_axioms(d)
    assert report.residuals["m_antisymmetry"] == pytest.approx(1e-3)
    assert report.witnesses["m_antisymmetry"] == ("z", "p", "q")
    assert not report.ok and not d.algebra.validate().ok


def test_a_jacobiator_past_the_float_range_fails_and_shows_as_worst():
    # (1e200)**2 overflows: the Jacobiator reads nan, and so does worst
    report = validate_axioms(UnifiedProductData(LieAlgebra(3, 1e200 * preset("so3").c), 0))
    assert not report.ok
    assert np.isnan(report.worst) and np.isnan(report.jacobi) and np.isnan(report.jacobi_tol)


@pytest.mark.parametrize("model", ["kepler", "tokamak", "third_order"])
def test_structure_maps_are_read_only_views_of_the_algebra(model):
    d = {"kepler": lambda: build_model("kepler", {"e": 0.5}),
         "tokamak": lambda: build_model("tokamak", {"base": "sl2"}),
         "third_order": lambda: third_order_product(preset("so3"))}[model]()
    for name in ("act", "phi", "theta", "psi"):
        block = getattr(d, name)
        assert np.shares_memory(block, d.algebra.c)
        assert not block.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block[...] = 1.0
    assert d.h is d.h  # built once


@pytest.mark.parametrize("base", ["so3", "sl2", "heisenberg"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_split_of_a_tangent_algebra_composes_back_at_every_level_cut(base, n):
    # levels k..n form an ideal, so h closes at each cut dim_m = k * g.dim
    g = preset(base)
    tg = tangent_algebra(g, n)
    for k in range(n + 2):
        d = UnifiedProductData(tg, k * g.dim)
        assert d.dim_m == k * g.dim and d.m_labels + d.h.labels == tg.labels
        assert d.tol == d.h.tol == tg.tol
        composed = with_maps(d).algebra
        np.testing.assert_array_equal(composed.c, tg.c)
        assert composed.labels == tg.labels


_SPLIT_MODELS = {
    "kepler": lambda: kepler_algebra(KeplerParams(e=0.7, m=1.5, k=0.8)),
    **{f"tokamak/{b}": (lambda b=b: build_model("tokamak", {"base": b, "b_i": -1.3}))
       for b in ("so3", "sl2", "heisenberg")},
    **{f"third_order/{b}": (lambda b=b: third_order_product(preset(b)))
       for b in ("so3", "sl2", "heisenberg")},
    "random": lambda: with_maps(_random_product(5, 3, 2), tol=1e-9),
}


@pytest.mark.parametrize("model", sorted(_SPLIT_MODELS))
def test_split_product_inverts_compose_bracket(model):
    # the maps composed again and cut at dim_m are the maps; the algebra
    # differs at most in the sign of zero in the mixed blocks
    d = _SPLIT_MODELS[model]()
    back = with_maps(d)
    np.testing.assert_array_equal(back.algebra.c, d.algebra.c)
    for name in ("act", "phi", "theta", "psi"):
        np.testing.assert_array_equal(getattr(back, name), getattr(d, name))
    np.testing.assert_array_equal(back.h.c, d.h.c)
    assert (back.dim_m, back.m_labels, back.h.labels) == (d.dim_m, d.m_labels, d.h.labels)
    assert back.tol == back.h.tol == d.tol


def test_split_product_refuses_an_open_h_and_a_bad_dim_m():
    g = preset("so3")
    with pytest.raises(NotASubalgebra) as info:
        UnifiedProductData(g, 1)  # [e2, e3] = e1 leaves span(e2, e3)
    assert info.value.witness == ("e1", "e2", "e3")
    assert info.value.residual == 1.0
    assert "[e2, e3] has e1-component 1" in str(info.value)
    assert isinstance(info.value, ValueError)
    # entries within tol * max(1, max|c|) of closing still split
    c = np.array(tangent_algebra(g, 1).c)
    c[0, 4, 5], c[0, 5, 4] = 1e-11, -1e-11
    assert UnifiedProductData(LieAlgebra(6, c), 3).dim_m == 3
    c[0, 4, 5], c[0, 5, 4] = 1e-9, -1e-9
    with pytest.raises(NotASubalgebra, match=r"\[e5, e6\] has e1-component"):
        UnifiedProductData(LieAlgebra(6, c), 3)
    with pytest.raises(DimensionError, match="dim_m"):
        UnifiedProductData(g, 4)
    with pytest.raises(ConfigError, match=r"^dim_m must be an integer >= 0, got -1$"):
        UnifiedProductData(g, -1)


def test_constructor_checks():
    h = abelian(2)
    with pytest.raises(DimensionError):
        compose_bracket(
            2, h, act=np.zeros((2, 2, 3)), phi=np.zeros((2, 2, 2)),
            theta=np.zeros((2, 2, 2)), psi=np.zeros((2, 2, 2)),
        )
    bad_phi = np.zeros((2, 2, 2))
    bad_phi[0, 0, 1] = 1.0
    with pytest.raises(ValueError, match="antisymmetric"):
        compose_bracket(
            2, h, act=np.zeros((2, 2, 2)), phi=bad_phi,
            theta=np.zeros((2, 2, 2)), psi=np.zeros((2, 2, 2)),
        )
    with pytest.raises(DimensionError, match="m-labels"):
        compose_bracket(
            2, h, act=np.zeros((2, 2, 2)), phi=np.zeros((2, 2, 2)),
            theta=np.zeros((2, 2, 2)), psi=np.zeros((2, 2, 2)), m_labels=("a",),
        )


def test_doc_round_trip(tmp_path):
    d = kepler_algebra(KeplerParams(e=-0.5, m=2.0, k=1.0))
    doc = product_to_doc(d)
    back = product_from_doc(doc)
    for name in ("act", "phi", "theta", "psi"):
        np.testing.assert_allclose(getattr(back, name), getattr(d, name), atol=0)
    assert back.labels == d.labels
    np.testing.assert_allclose(back.h.c, d.h.c, atol=0)

    path = tmp_path / "kepler.json"
    save_product(d, path)
    again = load_product(path)
    np.testing.assert_allclose(again.theta, d.theta, atol=0)


@pytest.mark.parametrize("model", sorted(_SPLIT_MODELS) + ["preset/so3", "preset/abelian"])
def test_doc_round_trip_keeps_the_algebra(model):
    d = {"preset/so3": lambda: build_model("so3"),
         "preset/abelian": lambda: build_model("abelian", {"dim": 2}),
         **_SPLIT_MODELS}[model]()
    back = product_from_doc(product_to_doc(d))
    np.testing.assert_array_equal(back.algebra.c, d.algebra.c)
    assert (back.dim_m, back.labels) == (d.dim_m, d.labels)


def test_doc_round_trip_dense_maps():
    d = _random_product(11, 2, 2)
    back = product_from_doc(product_to_doc(d))
    for name in ("act", "phi", "theta", "psi"):
        np.testing.assert_allclose(getattr(back, name), getattr(d, name), atol=1e-15)


def test_load_reports_file_problems(tmp_path):
    with pytest.raises(ConfigError, match="no such file"):
        load_product(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON at line 1, column 2"):
        load_product(bad)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="expected a JSON object, got list"):
        load_product(listy)


def test_doc_errors():
    with pytest.raises(ConfigError):
        product_from_doc({"h": {"dim": 2}})  # missing dim_m
    with pytest.raises(ConfigError):
        product_from_doc({"dim_m": -1, "h": {"dim": 2}})
    with pytest.raises(ConfigError):
        product_from_doc({"dim_m": 1, "h": {"dim": 1}, "dim": 5})
    with pytest.raises(ConfigError, match="i < j"):
        product_from_doc(
            {"dim_m": 2, "h": {"dim": 1}, "phi": [[0, 1, 0, 1.0]]}
        )
    with pytest.raises(ConfigError):
        product_from_doc(
            {"dim_m": 2, "h": {"dim": 1}, "act": [[0, 5, 0, 1.0]]}
        )
    # negative indices must not wrap around to the far end of an axis
    for key, entry in (
        ("act", [0, 0, -1, 1.0]),
        ("act", [-1, 0, 0, 1.0]),
        ("psi", [0, -1, 0, 1.0]),
        ("phi", [-1, 0, 1, 1.0]),
        ("phi", [0, -1, 1, 1.0]),
        ("theta", [-1, 0, 1, 1.0]),
        ("theta", [0, -2, -1, 1.0]),
    ):
        with pytest.raises(ConfigError, match="out of range"):
            product_from_doc({"dim_m": 2, "h": {"dim": 1}, key: [entry]})
    for key, entry, bad in (("act", [0, 0, 0, "one"], "'one'"), ("phi", [0, 0, "1", 1.0], "'1'")):
        with pytest.raises(ConfigError) as excinfo:
            product_from_doc({"dim_m": 2, "h": {"dim": 1}, key: [entry]})
        assert str(excinfo.value) == f"{key} entry {entry} must be a real number, got {bad}"
    with pytest.raises(ConfigError, match="not \\[k, i, j, value\\]"):
        product_from_doc({"dim_m": 2, "h": {"dim": 1}, "psi": [[0, 0, 1.0]]})
    with pytest.raises(ConfigError, match="must be a list"):
        product_from_doc({"dim_m": 2, "h": {"dim": 1}, "theta": 3})
    with pytest.raises(ConfigError):
        product_from_doc("not a dict")
    with pytest.raises(ConfigError, match=r"^'dim_m' must be an integer >= 0, got True$"):
        product_from_doc({"dim_m": True, "h": {"dim": 3, "c": []}})
    for dim in (True, 1.0):
        with pytest.raises(ConfigError, match=rf"^'dim' must be an integer >= 0, got {dim}$"):
            product_from_doc({"dim": dim, "dim_m": 0, "h": {"dim": 1, "c": []}})
    with pytest.raises(ConfigError, match=r"^'dim' is 2 but dim_m \+ dim_h = 1$"):
        product_from_doc({"dim": 2, "dim_m": 0, "h": {"dim": 1, "c": []}})
    for labels in ([1, 2, 3], "xyz"):
        with pytest.raises(ConfigError, match="'labels' must be a list of strings"):
            product_from_doc({"dim_m": 2, "h": {"dim": 1}, "labels": labels})


def test_doc_keys_follow_the_map_table():
    doc = product_to_doc(build_model("kepler", {"e": 0.5}))
    assert list(doc) == ["dim", "dim_m", "labels", "h", "act", "phi", "theta", "psi"]
