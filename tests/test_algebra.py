import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from unimech import (
    ConfigError,
    DimensionError,
    EnergySpec,
    LieAlgebra,
    MatrixBasis,
    Trajectory,
    UnknownPreset,
    abelian,
    algebra_from_doc,
    algebra_to_doc,
    build_model,
    from_sparse_entries,
    load_algebra,
    preset,
    random_jet,
    save_algebra,
    tangent_algebra,
)
from unimech import algebra
from unimech.algebra import _expm


def test_so3_bracket_is_the_cross_product():
    g = preset("so3")
    rng = np.random.default_rng(0)
    for _ in range(25):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(g.bracket(x, y), np.cross(x, y), atol=1e-14)


def test_ad_matrix_agrees_with_bracket():
    g = preset("sl2")
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    np.testing.assert_allclose(g.ad_matrix(x) @ y, g.bracket(x, y), atol=1e-14)


def test_coad_is_minus_ad_transpose():
    g = preset("sl2")
    rng = np.random.default_rng(2)
    for _ in range(10):
        x, mu = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(g.coad_matrix(x), -g.ad_matrix(x).T, atol=0)
        np.testing.assert_allclose(g.coad(x, mu), g.coad_matrix(x) @ mu, atol=1e-14)


def test_coad_pairing_identity():
    # <coad(x) mu, y> = -<mu, [x, y]>
    g = preset("so3")
    rng = np.random.default_rng(3)
    for _ in range(25):
        x, y, mu = rng.standard_normal((3, 3))
        lhs = float(g.coad(x, mu) @ y)
        rhs = -float(mu @ g.bracket(x, y))
        assert abs(lhs - rhs) < 1e-13


def test_sl2_relations():
    g = preset("sl2")
    H, E, F = np.eye(3)
    np.testing.assert_allclose(g.bracket(H, E), 2 * E, atol=0)
    np.testing.assert_allclose(g.bracket(H, F), -2 * F, atol=0)
    np.testing.assert_allclose(g.bracket(E, F), H, atol=0)
    assert g.labels == ("H", "E", "F")


def test_heisenberg_relations():
    g = preset("heisenberg")
    q, p, z = np.eye(3)
    np.testing.assert_allclose(g.bracket(q, p), z, atol=0)
    np.testing.assert_allclose(g.bracket(q, z), 0 * z, atol=0)
    np.testing.assert_allclose(g.bracket(p, z), 0 * z, atol=0)


@pytest.mark.parametrize("name", ["so3", "sl2", "heisenberg"])
def test_presets_satisfy_jacobi(name):
    report = preset(name).validate()
    assert report.ok
    assert report.checks["h_antisymmetry"].residual == 0.0
    assert report.checks["jacobi"].residual == 0.0


def test_abelian_preset():
    g = preset("abelian", dim=4)
    assert g.dim == 4
    assert np.all(g.c == 0.0)
    assert g.validate().ok
    with pytest.raises(ConfigError):
        preset("abelian")  # dim is required
    with pytest.raises(ConfigError):
        abelian(-1)


def test_tangent_algebra_bracket():
    """[(x1,x2),(y1,y2)] = ([x1,y1], [x1,y2] + [x2,y1]) on the double."""
    g = preset("so3")
    tg = tangent_algebra(g)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x, y = rng.standard_normal((2, 6))
        got = tg.bracket(x, y)
        np.testing.assert_allclose(got[:3], np.cross(x[:3], y[:3]), atol=1e-14)
        np.testing.assert_allclose(
            got[3:], np.cross(x[:3], y[3:]) + np.cross(x[3:], y[:3]), atol=1e-14
        )
    assert tg.labels == ("e1", "e2", "e3", "de1", "de2", "de3")
    assert tg.validate().ok


def _former_double(g):
    """The g |x g tensor as tangent_algebra(g) first wrote it, block by block."""
    n = g.dim
    c = np.zeros((2 * n, 2 * n, 2 * n))
    c[:n, :n, :n] = g.c
    c[n:, :n, n:] = g.c
    c[n:, n:, :n] = g.c
    return c


@pytest.mark.parametrize("name", ["so3", "sl2", "heisenberg"])
def test_first_order_tangent_algebra_is_the_former_double(name):
    g = preset(name)
    tg = tangent_algebra(g)
    np.testing.assert_array_equal(tg.c, _former_double(g))
    assert tg.labels == g.labels + tuple(f"d{lbl}" for lbl in g.labels)
    assert tangent_algebra(g, 1) is tg


@pytest.mark.parametrize("name", ["so3", "sl2", "heisenberg"])
def test_tangent_algebra_levels_validate_up_to_order_4(name):
    g = preset(name)
    for n in range(5):
        tg = tangent_algebra(g, n)
        assert tg.dim == (n + 1) * g.dim
        assert tg.labels[-g.dim :] == tuple("d" * n + lbl for lbl in g.labels)
        assert tg.validate().ok
    np.testing.assert_array_equal(tangent_algebra(g, 0).c, g.c)


def test_tangent_algebra_bracket_is_binomial_in_the_levels():
    # level k of [a, b] is sum_i C(k, i) [a_i, b_(k-i)]; for n = 3 on so3
    # the coefficients are 1; 1 1; 1 2 1; 1 3 3 1.
    tg = tangent_algebra(preset("so3"), 3)
    rng = np.random.default_rng(6)
    for _ in range(10):
        a, b = rng.standard_normal((2, 4, 3))
        got = tg.bracket(a.ravel(), b.ravel()).reshape(4, 3)
        x = lambda i, j: np.cross(a[i], b[j])  # noqa: E731
        want = [
            x(0, 0),
            x(0, 1) + x(1, 0),
            x(0, 2) + 2 * x(1, 1) + x(2, 0),
            x(0, 3) + 3 * x(1, 2) + 3 * x(2, 1) + x(3, 0),
        ]
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_tangent_algebra_order_must_be_a_natural_number():
    for n in (-1, 1.5, "2", True):
        with pytest.raises(ConfigError) as excinfo:
            tangent_algebra(preset("so3"), n)
        assert str(excinfo.value) == f"n must be an integer >= 0, got {n!r}"


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["so3", "sl2", "heisenberg"]),
    n=st.integers(0, 4),
    seed=st.integers(0, 2**31 - 1),
    scale=st.floats(1e-3, 1e3),
)
def test_tangent_coadjoint_annihilates_its_argument(name, n, seed, scale):
    # <coad(x) mu, x> = -<mu, [x, x]> = 0
    tg = tangent_algebra(preset(name), n)
    rng = np.random.default_rng(seed)
    x, mu = scale * rng.standard_normal((2, tg.dim))
    bound = 1e-13 * np.sum(np.abs(x)) ** 2 * np.sum(np.abs(mu)) * 2**n
    assert abs(float(tg.coad(x, mu) @ x)) <= bound


def test_tangent_preset_accepts_name_or_algebra():
    a = preset("tangent", base="sl2")
    b = preset("tangent", base=preset("sl2"))
    np.testing.assert_allclose(a.c, b.c, atol=0)
    with pytest.raises(ConfigError):
        preset("tangent")
    with pytest.raises(ConfigError):
        preset("tangent", base=3)


def test_fixed_presets_are_built_once(monkeypatch):
    g = preset("so3")
    assert preset("so3") is g and not g.c.flags.writeable
    assert tangent_algebra(preset("so3"), 2) is tangent_algebra(g, 2)
    # one object under any UM_TOL: its checks read the tolerance when they judge
    monkeypatch.setenv("UM_TOL", "1e-3")
    assert preset("so3") is g and tangent_algebra(preset("so3"), 2) is tangent_algebra(g, 2)
    assert g.validate().checks["h_antisymmetry"].threshold == 1e-3
    monkeypatch.delenv("UM_TOL")
    assert preset("so3") is g and g.validate().checks["h_antisymmetry"].threshold == 1e-10


def test_a_second_kepler_build_parses_no_preset(monkeypatch):
    fills = []
    fill = algebra.fill_entries
    monkeypatch.setattr(algebra, "fill_entries", lambda *a, **k: fills.append(a) or fill(*a, **k))
    algebra._fixed_preset.cache_clear()
    build_model("kepler", {"e": 0.5})
    assert len(fills) == 1  # so3, parsed once
    build_model("kepler", {"e": 0.7})
    assert len(fills) == 1


@pytest.mark.parametrize("make", [
    lambda: from_sparse_entries(3, [(2, 0, 1, 1.0)]),
    lambda: build_model("kepler", {"e": 0.5}),
    lambda: random_jet("SO", 3, 2, rng=np.random.default_rng(0)),
    lambda: EnergySpec.identity(3),
    lambda: Trajectory([0.0, 1.0], [[1.0], [2.0]]),
    MatrixBasis.so3,
], ids=["LieAlgebra", "UnifiedProductData", "JetElement", "EnergySpec", "Trajectory",
        "MatrixBasis"])
def test_structures_compare_and_hash_by_identity(make):
    a, twin = make(), make()  # equal contents, two objects
    assert a == a and a != twin and not a == twin
    assert hash(a) == hash(a) and len({a, twin, a}) == 2
    assert {a: 1}.get(twin) is None


def test_unknown_preset_and_extra_params():
    with pytest.raises(UnknownPreset):
        preset("su5")
    assert issubclass(UnknownPreset, ConfigError) and not issubclass(UnknownPreset, KeyError)
    with pytest.raises(ConfigError):
        preset("so3", dim=3)


def test_from_sparse_entries_antisymmetrizes():
    g = from_sparse_entries(2, [(0, 0, 1, 2.5)])
    assert g.c[0, 0, 1] == 2.5
    assert g.c[0, 1, 0] == -2.5
    assert g.validate().checks["h_antisymmetry"].residual == 0.0


def test_from_sparse_entries_rejects_bad_rows():
    with pytest.raises(ConfigError):
        from_sparse_entries(2, [(0, 1, 0, 1.0)])  # needs i < j
    with pytest.raises(ConfigError):
        from_sparse_entries(2, [(0, 0, 0, 1.0)])
    with pytest.raises(ConfigError):
        from_sparse_entries(2, [(0, 0, 5, 1.0)])
    with pytest.raises(ConfigError):
        from_sparse_entries(2, [(0, 0, 1)])
    with pytest.raises(ConfigError):
        from_sparse_entries(2, [(-1, 0, 1, 1.0)])
    with pytest.raises(ConfigError):
        from_sparse_entries(2, [(0, 0, 1, "x")])
    with pytest.raises(ConfigError):
        from_sparse_entries(2, [(0, 0.5, 1, 1.0)])


def test_constructor_enforces_antisymmetry():
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0  # missing the mirror entry
    with pytest.raises(ValueError, match=r"antisymmetric \(residual 1.000e\+00\) "
                       r"worst at \(a; a, b\);"):
        LieAlgebra(dim=2, c=c, labels=("a", "b"))
    # escape hatch for diagnostics: construct anyway, validate flags it
    g = LieAlgebra(dim=2, c=c, strict=False)
    report = g.validate()
    assert not report.ok
    assert report.checks["h_antisymmetry"] == (1.0, 1e-10, ("e1", "e1", "e2"))


def test_strict_antisymmetry_refuses_nan_and_inf():
    # nan fails the residual check, and an inf -inf pair (residual nan) no
    # longer warns; strict=False still constructs
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="not antisymmetric"):
            from_sparse_entries(3, [(0, 1, 2, value)])
        c = np.zeros((3, 3, 3))
        c[0, 1, 2], c[0, 2, 1] = value, -value
        with pytest.raises(ValueError, match=r"not antisymmetric \(residual nan\) "
                           r"worst at \(e1; e2, e3\);"):
            LieAlgebra(3, c)
        loose = LieAlgebra(3, c, strict=False)
        assert np.isnan(loose.validate().checks["h_antisymmetry"].residual)
        assert not loose.validate().ok


def test_constructor_shape_and_label_checks():
    with pytest.raises(DimensionError):
        LieAlgebra(dim=2, c=np.zeros((3, 3, 3)))
    with pytest.raises(DimensionError):
        LieAlgebra(dim=2, c=np.zeros((2, 2, 2)), labels=("a",))
    with pytest.raises(DimensionError):
        preset("so3").bracket(np.zeros(4), np.zeros(3))


def test_structure_tensor_is_read_only():
    g = preset("so3")
    with pytest.raises(ValueError):
        g.c[0, 1, 2] = 7.0


def test_jacobi_residual_flags_broken_tensor():
    # scaling an epsilon entry keeps Jacobi in 3d, so break it off-pattern:
    # [e1, e2] = e3 + 0.5 e1 gives J(e1,e2,e3) = 0.5 [e1, e3] = -0.5 e2
    c = np.array(preset("so3").c)
    c[0, 0, 1] += 0.5
    c[0, 1, 0] -= 0.5
    g = LieAlgebra(dim=3, c=c)
    assert g.validate().checks["h_antisymmetry"].residual == 0.0
    np.testing.assert_allclose(g.validate().checks["jacobi"].residual, 0.5, atol=1e-15)
    assert not g.validate().ok


def _jacobi_residual_by_einsum(c):
    """The Jacobiator as a naive einsum, then its cyclic sum: the oracle."""
    if c.shape[0] == 0:
        return 0.0
    t = np.einsum("kml,mij->kijl", c, c)
    cyc = t + t.transpose(0, 2, 3, 1) + t.transpose(0, 3, 1, 2)
    return float(np.max(np.abs(cyc)))


@pytest.mark.parametrize("dim", range(13))
def test_jacobi_residual_matches_the_einsum_oracle(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(3):
        a = rng.standard_normal((dim,) * 3)
        # antisymmetric and almost never Lie, then not even antisymmetric
        for g in (LieAlgebra(dim=dim, c=a - a.swapaxes(1, 2)),
                  LieAlgebra(dim=dim, c=a, strict=False)):
            want = _jacobi_residual_by_einsum(g.c)
            if dim >= 3:
                assert want > 1e-3
            np.testing.assert_allclose(g.validate().checks["jacobi"].residual, want,
                                       rtol=1e-12, atol=0.0)


def test_zero_dimensional_algebra():
    g = abelian(0)
    assert g.dim == 0
    assert g.validate().ok
    assert g.labels == ()


def test_default_labels():
    g = abelian(3)
    assert g.labels == ("e1", "e2", "e3")


@pytest.mark.parametrize("name", ["so3", "sl2", "heisenberg"])
def test_doc_round_trip(name):
    g = preset(name)
    back = algebra_from_doc(algebra_to_doc(g))
    np.testing.assert_allclose(back.c, g.c, atol=0)
    assert back.labels == g.labels
    assert back.dim == g.dim


def test_save_and_load(tmp_path):
    g = preset("sl2")
    path = tmp_path / "sl2.json"
    save_algebra(g, path)
    back = load_algebra(path)
    np.testing.assert_allclose(back.c, g.c, atol=0)
    assert back.labels == g.labels


def test_load_rejects_malformed_documents(tmp_path):
    with pytest.raises(ConfigError):
        algebra_from_doc({"labels": ["a"]})  # no dim
    with pytest.raises(ConfigError):
        algebra_from_doc({"dim": -2})
    with pytest.raises(DimensionError, match=r"^'labels' has 1 labels, expected 2$"):
        algebra_from_doc({"dim": 2, "labels": ["a"]})
    with pytest.raises(ConfigError):
        algebra_from_doc({"dim": 2, "c": "nope"})
    with pytest.raises(ConfigError):
        algebra_from_doc([1, 2, 3])
    # JSON bools are not numbers, and labels are a list of strings
    with pytest.raises(ConfigError, match=r"^'dim' must be an integer >= 0, got True$"):
        algebra_from_doc({"dim": True, "c": []})
    for entry in ([2, 0, 1, True], [2, 0, True, 1.0]):
        with pytest.raises(ConfigError) as excinfo:
            algebra_from_doc({"dim": 3, "c": [entry]})
        assert str(excinfo.value) == f"structure entry {entry} must be a real number, got True"
    with pytest.raises(ConfigError, match=r"^structure entry \[2, 0\.5, 1, 1\.0\] needs integer "
                                          r"indices$"):
        algebra_from_doc({"dim": 3, "c": [[2, 0.5, 1, 1.0]]})
    for labels in ([1, 2, 3], "xyz", ["x", "y", None]):
        with pytest.raises(ConfigError, match="'labels' must be a list of strings"):
            algebra_from_doc({"dim": 3, "labels": labels, "c": []})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="line"):
        load_algebra(bad)
    with pytest.raises(ConfigError, match="no such file"):
        load_algebra(tmp_path / "nope.json")
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="expected a JSON object"):
        load_algebra(listy)


def _rebased(c, s, seed=0):
    """c in the basis e'_i = sum_b P[b, i] e_b with P = s (I + 0.3 N)."""
    n = c.shape[0]
    p = s * (np.eye(n) + 0.3 * np.random.default_rng(seed).standard_normal((n, n)))
    return np.einsum("ka,abd,bi,dj->kij", np.linalg.inv(p), c, p, p)


def test_jacobi_is_judged_against_the_scale_of_the_structure():
    # a large-scale basis of a Lie algebra leaves a Jacobi rounding residual
    # far above the absolute tol, but tiny against max|c|**2
    composed = build_model("tokamak", {"base": "so3"}).algebra
    c = _rebased(composed.c, 1e3)
    c = 0.5 * (c - c.swapaxes(1, 2))
    report = LieAlgebra(composed.dim, c).validate()
    jacobi = report.checks["jacobi"]
    assert jacobi.residual > 1e-10
    assert jacobi.threshold == report.checks["h_antisymmetry"].threshold * np.max(np.abs(c)) ** 2
    assert report.ok
    # a relative defect of 1e-6 in one bracket at the same scale still fails
    bent = c.copy()
    bent[0, 1, 2] += 1e-6 * np.max(np.abs(c))
    bent[0, 2, 1] -= 1e-6 * np.max(np.abs(c))
    assert not LieAlgebra(composed.dim, bent).validate().ok


def test_a_jacobi_scale_past_the_float_range_fails_without_a_warning():
    # max|c|**2 overflows: no threshold exists, so nothing passes, and the
    # overflowing Jacobiator raises no RuntimeWarning (errors under pytest)
    for c in (1e200 * preset("so3").c, 1e160 * tangent_algebra(preset("sl2"), 1).c):
        report = LieAlgebra(c.shape[0], c).validate()
        assert not report.ok and np.isnan(report.checks["jacobi"].threshold)
    big = LieAlgebra(3, 1e150 * preset("so3").c).validate().checks
    assert all(check.ok for check in big.values())
    assert big["jacobi"].threshold == pytest.approx(big["h_antisymmetry"].threshold * 1e300)


# -- the matrix exponential (scipy is the test-only oracle) --------------------


def _one_norm(m):
    return np.abs(m).sum(axis=0).max()


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1e-2, 0.5, 1.0, 2.0, 5.0, 20.0])
def test_expm_matches_scipy(d, scale):
    # entries within [-scale, scale]: general, skew and traceless matrices
    rng = np.random.default_rng(d)
    tol = 1e-13 if scale <= 1 else 1e-11
    for k in range(30):
        a = scale * rng.uniform(-1.0, 1.0, (d, d))
        a = (a, a - a.T, a - np.trace(a) / d * np.eye(d))[k % 3]
        ref = scipy.linalg.expm(a)
        assert np.max(np.abs(_expm(a) - ref)) <= tol * max(1.0, np.max(np.abs(ref)))


def test_expm_of_zero_and_of_a_rotation_generator():
    for d in (1, 2, 4):
        np.testing.assert_array_equal(_expm(np.zeros((d, d))), np.eye(d))
    for t in np.linspace(-20.0, 20.0, 81):
        closed = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        np.testing.assert_allclose(_expm([[0.0, -t], [t, 0.0]]), closed, rtol=0, atol=1e-13)


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
    scale=st.floats(1e-8, 3.0),
)
def test_expm_group_laws(d, seed, scale):
    a = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, (d, d))
    e, f = _expm(a), _expm(-a)
    cond = _one_norm(e) * _one_norm(f)  # rounding in e @ f and det scales with it
    assert np.max(np.abs(e @ f - np.eye(d))) <= 1e-13 * cond
    assert abs(np.linalg.det(e) / np.exp(np.trace(a)) - 1.0) <= 1e-13 * cond
    q = _expm(a - a.T)
    assert np.max(np.abs(q.T @ q - np.eye(d))) <= 1e-13


def test_expm_rejects_a_non_finite_matrix():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            _expm(np.array([[0.0, 1.0], [bad, 0.0]]))
