"""The one scalar rule of errors.py at every argument it judges: a bool is
refused, numpy scalars are accepted, and a bad value raises ConfigError
naming the argument.  The same rule for every array argument: a bool, None,
string or complex entry and ragged nesting raise ConfigError naming the
argument, a wrong shape DimensionError, and integer, float32, big-endian,
strided and list inputs give the values a float64 array gives."""

import io
import os
import pickle
import re
from argparse import Namespace
from contextlib import redirect_stdout
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from unimech import (
    ConfigError,
    DimensionError,
    EnergySpec,
    JetElement,
    KeplerParams,
    LieAlgebra,
    MatrixBasis,
    TokamakParams,
    Trajectory,
    UnifiedProductData,
    abelian,
    algebra_from_doc,
    build_model,
    coad,
    complement_embed,
    compose_bracket,
    conservation_report,
    default_tol,
    el_t_t2g_field,
    ep_field,
    fd_gradient,
    from_sparse_entries,
    iterated_factorize,
    iterated_inverse,
    iterated_multiply,
    jet_from_doc,
    lp_field,
    partition_coefficient,
    preset,
    product_from_doc,
    random_jet,
    rk4,
    tangent_algebra,
    third_order_identity_residual,
    tn_inverse,
    tn_multiply,
    unit_jet,
)
from unimech import cli
from unimech.errors import floats, integer, positive, real
from unimech.jets import algebra_residual, group_residual

NAN, INF = float("nan"), float("inf")
NOT_REAL = (True, "0.1", None)
NOT_FINITE = NOT_REAL + (NAN, INF)
NOT_TOL = NOT_FINITE + (-1,)  # a tolerance may be 0
NOT_COUNT = NOT_TOL + (2.0,)  # a count, dimension or order may be 0, not a float
NOT_POSITIVE = NOT_FINITE + (0, -1)


def _um_tol(value):
    with mock.patch.dict(os.environ, {"UM_TOL": str(value)}):
        return default_tol()


TANGENT, ITERATED = unit_jet("SO", 3, 1), unit_jet("SO", 3, 1, kind="iterated")  # order 1

# argument -> (the name its message gives, a call that passes the value, bad values)
ARGUMENTS = {
    "UM_TOL": ("UM_TOL", _um_tol, (NAN, INF, 0.0, -1.0)),
    "LieAlgebra.dim": ("dim", lambda v: LieAlgebra(v, np.zeros((1, 1, 1))), NOT_COUNT),
    "LieAlgebra.tol": ("tol", lambda v: LieAlgebra(3, np.zeros((3, 3, 3)), tol=v), NOT_TOL),
    "from_sparse_entries.dim": ("dim", lambda v: from_sparse_entries(v, []), NOT_COUNT),
    "UnifiedProductData.dim_m": ("dim_m", lambda v: UnifiedProductData(abelian(2), v), NOT_COUNT),
    "compose_bracket.dim_m": (  # maps that fit dim_m = 1
        "dim_m", lambda v: compose_bracket(v, abelian(1), *[np.zeros((1, 1, 1))] * 4), NOT_COUNT),
    "JetElement.tol": ("tol", lambda v: JetElement("SO", np.eye(3), tol=v), NOT_TOL),
    "abelian.dim": ("dim", abelian, NOT_COUNT),
    "tangent_algebra.n": ("n", lambda v: tangent_algebra(preset("so3"), v), NOT_COUNT),
    "algebra_from_doc.dim": ("'dim'", lambda v: algebra_from_doc({"dim": v}), NOT_COUNT),
    "product_from_doc.dim_m": (
        "'dim_m'", lambda v: product_from_doc({"dim_m": v, "h": {"dim": 1}}), NOT_COUNT),
    "product_from_doc.dim": (  # 1.0 equals dim_m + dim_h but is not an integer
        "'dim'", lambda v: product_from_doc({"dim": v, "dim_m": 0, "h": {"dim": 1}}),
        NOT_TOL + (1.0,)),
    "fill_entries.value": (
        "structure entry", lambda v: algebra_from_doc({"dim": 3, "c": [[2, 0, 1, v]]}),
        NOT_REAL),
    "floats.entry": ("initial", lambda v: floats([1.0, v], "initial"), NOT_REAL),
    "KeplerParams.e": ("e", lambda v: KeplerParams(e=v), NOT_FINITE),
    "KeplerParams.m": ("m", lambda v: KeplerParams(e=0.5, m=v), NOT_POSITIVE),
    "KeplerParams.k": ("k", lambda v: KeplerParams(e=0.5, k=v), NOT_POSITIVE),
    "TokamakParams.b_i": ("b_i", lambda v: TokamakParams(base=preset("so3"), b_i=v), NOT_FINITE),
    "fd_gradient.eps": ("eps", lambda v: fd_gradient(lambda x: 0.0, np.ones(2), v), NOT_POSITIVE),
    "EnergySpec.fd_eps": (
        "fd_eps", lambda v: EnergySpec.blackbox(lambda mu: 0.0, fd_eps=v), NOT_POSITIVE),
    "rk4.h": ("h", lambda v: rk4(lambda y: -y, np.ones(2), v, 2), NOT_POSITIVE),
    "rk4.steps": ("steps", lambda v: rk4(lambda y: -y, np.ones(2), 0.1, v), NOT_COUNT + (0,)),
    "unit_jet.dim": ("dim", lambda v: unit_jet("SO", v, 1), NOT_COUNT),
    "unit_jet.order": ("order", lambda v: unit_jet("SO", 3, v), NOT_COUNT),
    "random_jet.dim": ("dim", lambda v: random_jet("SO", v, 1), NOT_COUNT),
    "random_jet.order": ("order", lambda v: random_jet("SO", 3, v), NOT_COUNT),
    "tn_multiply.n": ("n", lambda v: tn_multiply(v, TANGENT, TANGENT), NOT_COUNT),
    "tn_inverse.n": ("n", lambda v: tn_inverse(v, TANGENT), NOT_COUNT),
    "iterated_multiply.n": ("n", lambda v: iterated_multiply(v, ITERATED, ITERATED), NOT_COUNT),
    "iterated_inverse.n": ("n", lambda v: iterated_inverse(v, ITERATED), NOT_COUNT),
    "iterated_factorize.n": ("n", lambda v: iterated_factorize(v, ITERATED), NOT_COUNT),
    "complement_embed.n": ("n", lambda v: complement_embed(v, np.zeros((1, 3, 3))), NOT_COUNT),
    "partition_coefficient.block": (
        "block size", lambda v: partition_coefficient((1, v)), NOT_COUNT + (0,)),
}


@pytest.mark.parametrize("argument,value", [
    pytest.param(argument, value, id=f"{argument}-{value!r}")
    for argument, (_, _, bad) in ARGUMENTS.items() for value in bad
])
def test_a_bad_scalar_is_a_config_error_naming_its_argument(argument, value):
    name, call, _ = ARGUMENTS[argument]
    with pytest.raises(ConfigError) as excinfo:
        call(value)
    message = str(excinfo.value)
    assert message.startswith(f"{name} ") and " must be " in message, message
    assert message.endswith(f", got {value!r}"), message


def test_numpy_scalars_are_accepted():
    assert type(integer(np.int64(3), "n")) is int and integer(np.int64(3), "n") == 3
    assert type(real(np.float64(0.5), "e")) is np.float64 and positive(np.int64(2), "h") == 2
    so3 = preset("so3")
    assert type(abelian(np.int64(2)).dim) is int
    assert tangent_algebra(so3, np.int64(2)) is tangent_algebra(so3, 2)
    both = [rk4(lambda y: -y, np.ones(2), h, steps) for h, steps in
            ((0.1, 3), (np.float64(0.1), np.int64(3)))]
    np.testing.assert_array_equal(both[0].states, both[1].states)
    np.testing.assert_array_equal(both[0].times, both[1].times)
    assert KeplerParams(np.float64(0.5), np.int64(2)).coupling == KeplerParams(0.5, 2).coupling
    assert unit_jet("SO", np.int64(3), np.int64(2)).order == 2
    assert JetElement("SO", np.eye(3), tol=np.float64(0.0)).tol == 0.0
    assert LieAlgebra(1, np.zeros((1, 1, 1)), tol=np.int64(1)).tol == 1
    assert type(LieAlgebra(np.int64(1), np.zeros((1, 1, 1))).dim) is int
    assert type(UnifiedProductData(abelian(2), np.int64(1)).dim_m) is int
    assert tn_multiply(np.int64(1), TANGENT, TANGENT).order == 1


def test_the_holes_the_scalar_judges_close():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # no mirror entry: antisymmetric only to a tol of True == 1
    holes = [
        (lambda: JetElement("SO", 5 * np.eye(3), tol=INF), "tol must be finite and >= 0, got inf"),
        (lambda: LieAlgebra(3, c, tol=True), "tol must be a real number, got True"),
        (lambda: fd_gradient(lambda x: 0.0, np.ones(2), eps=True),
         "eps must be a real number, got True"),
        (lambda: rk4(lambda y: -y, np.ones(2), True, 2), "h must be a real number, got True"),
        (lambda: rk4(lambda y: -y, np.ones(2), "0.1", 2), "h must be a real number, got '0.1'"),
        (lambda: random_jet("SO", 3, -1), "order must be an integer >= 0, got -1"),
        (lambda: unit_jet("SO", 3, 2.0), "order must be an integer >= 0, got 2.0"),
        (lambda: product_from_doc({"dim": 6.0, "dim_m": 3, "h": {"dim": 3}}),
         "'dim' must be an integer >= 0, got 6.0"),
    ]
    for call, message in holes:
        with pytest.raises(ConfigError) as excinfo:
            call()
        assert str(excinfo.value) == message


# -- arrays ----------------------------------------------------------------------

SO3, BASIS, ZERO = preset("so3"), MatrixBasis.so3(), [[[0.0]]]
KEPLER = build_model("kepler", {"e": 0.5})
E1, E2, E6 = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 2.0, 0.0, 3.0]
C2 = np.zeros((2, 2, 2))
C2[0, 0, 1], C2[0, 1, 0] = 1.0, -1.0  # [e1, e2] = e1
TWO_STATES = Trajectory(np.arange(2.0), np.ones((2, 1)))
T2G = np.stack([np.eye(3)] + [np.diag([1.0, 2.0, 0.0])] * 5)


def _residual_of(states=np.zeros((7, 9)), times=np.arange(7.0)):
    traj = SimpleNamespace(states=states, times=times)
    return third_order_identity_residual(SO3, EnergySpec.identity(9), traj)


def _run_from(initial):
    """What unimech run prints for a config document with this `initial`."""
    config = {"model": "so3", "dynamics": "ep", "initial": initial,
              "integrator": {"h": 0.1, "steps": 1}}
    out = io.StringIO()
    with mock.patch.object(cli, "load_json", return_value=config), redirect_stdout(out):
        assert cli._cmd_run(Namespace(config="run.json")) == 0
    return out.getvalue()


# argument -> (the name its messages give, a call that passes the array, a good
# array, a wrongly shaped one or None where any shape is judged elsewhere)
ARRAYS = {
    "ep_field.state": ("state", lambda v: ep_field(SO3, EnergySpec.identity(3), v), E1, E1[:2]),
    "lp_field.state": ("state", lambda v: lp_field(SO3, EnergySpec.identity(3), v), E1, E1[:2]),
    "rk4.y0": ("y0", lambda v: rk4(lambda y: -y, v, 0.1, 2), [1.0, 2.0], [[1.0, 2.0]]),
    "Trajectory.times": ("times", lambda v: Trajectory(v, np.ones((2, 1))), [0.0, 1.0],
                         [[0.0, 1.0]]),
    "Trajectory.states": ("states", lambda v: Trajectory([0.0, 1.0], v), [[1.0], [2.0]],
                          [1.0, 2.0]),
    "EnergySpec.inertia": ("inertia", EnergySpec.quadratic, [[2.0, 1.0], [1.0, 2.0]],
                           [2.0, 1.0]),
    "EnergySpec.diagonal": ("entries", EnergySpec.diagonal, [1.0, 2.0], np.eye(2)),
    "EnergySpec.gradient": ("x", EnergySpec.identity(2).gradient, [1.0, 2.0], [1.0]),
    "EnergySpec.dual_gradient": ("mu", EnergySpec.identity(2).dual_gradient, [1.0, 2.0],
                                 [[[1.0, 2.0]]]),
    "EnergySpec.hamiltonian": ("mu", EnergySpec.identity(2).hamiltonian, [1.0, 2.0],
                               [[[1.0, 2.0]]]),
    "fd_gradient.x": ("x", lambda v: fd_gradient(lambda x: float(x @ x), v), [1.0, 2.0],
                      [[1.0, 2.0]]),
    "conservation_report.values": (
        "functional 'f'", lambda v: conservation_report(TWO_STATES, {"f": lambda s: v}),
        [1.0, 2.0], [1.0]),
    "LieAlgebra.c": ("c", lambda v: LieAlgebra(2, v), C2, C2[0]),
    "LieAlgebra.bracket.x": ("x", lambda v: SO3.bracket(v, E2), E1, E1[:2]),
    "LieAlgebra.bracket.y": ("y", lambda v: SO3.bracket(E1, v), E2, E2[:2]),
    "LieAlgebra.ad_matrix.x": ("x", SO3.ad_matrix, E1, E1[:2]),
    "LieAlgebra.coad.x": ("x", lambda v: SO3.coad(v, E2), E1, E1[:2]),
    "LieAlgebra.coad.mu": ("mu", lambda v: SO3.coad(E1, v), E2, E2[:2]),
    "coad.x": ("x", lambda v: coad(KEPLER, v, E6), E6[::-1], E6[:5]),
    "coad.mu": ("mu", lambda v: coad(KEPLER, E6[::-1], v), E6, E6[:5]),
    **{f"compose_bracket.{name}": (  # m and h of dimension 1: every map is (1, 1, 1)
        name, lambda v, name=name: compose_bracket(1, abelian(1), **{
            "act": ZERO, "phi": ZERO, "theta": ZERO, "psi": ZERO, name: v}),
        [[[2.0]]] if name in ("act", "psi") else ZERO, [[0.0]])
       for name in ("act", "phi", "theta", "psi")},
    "JetElement.base": ("base", lambda v: JetElement("GL", v), [[2.0, 1.0], [1.0, 1.0]],
                        [[1.0, 0.0]]),
    "JetElement.slots": ("slots", lambda v: JetElement("SL", np.eye(2), v),
                         [[[1.0, 2.0], [3.0, -1.0]]], np.zeros((1, 3, 3))),
    "complement_embed.q": ("q", lambda v: complement_embed(2, v), [[[1.0, 2.0], [3.0, 4.0]]],
                           np.zeros((2, 2, 2))),
    "group_residual.g": ("g", lambda v: group_residual("SO", v), [[0.0, 1.0], [1.0, 0.0]],
                         None),
    "algebra_residual.x": ("x", lambda v: algebra_residual("SO", v), [[1.0, 2.0], [2.0, 0.0]],
                           None),
    "jet_from_doc.base": ("base", lambda v: jet_from_doc({"group": "GL2", "base": v,
                                                          "slots": []}),
                          [[2.0, 1.0], [1.0, 1.0]], [[1.0, 0.0]]),
    "jet_from_doc.slots": ("slots", lambda v: jet_from_doc({"group": "GL1", "base": [[1.0]],
                                                            "slots": v}), [[[2.0]]], [[2.0]]),
    "MatrixBasis.mats": ("mats", MatrixBasis, [[[1.0, 0.0], [0.0, -1.0]]], np.zeros((1, 2, 3))),
    "MatrixBasis.coords.x": ("x", BASIS.coords, np.diag([1.0, 2.0, 3.0]), np.ones(9)),
    "MatrixBasis.matrix.v": ("v", BASIS.matrix, E1, E1[:2]),
    "el_t_t2g_field.state": (
        "state", lambda v: el_t_t2g_field(lambda *m: float(np.sum(m[3] * m[4])), v, BASIS),
        T2G, T2G[:5]),
    "third_order_identity_residual.states": ("states", _residual_of, np.zeros((7, 9)),
                                             np.zeros((7, 6))),
    "third_order_identity_residual.times": ("times", lambda v: _residual_of(times=v),
                                            np.arange(7.0), np.arange(6.0)),
    "unimech run initial": ("initial", _run_from, E1, E1[:2]),
    "unimech run energy.inertia": (
        "energy.inertia",  # a document holds lists, not arrays
        lambda v: cli._resolve_energy({"inertia": np.array(v, dtype=object).tolist()}, 2),
        [1.0, 2.0], None),
}

# a non-real entry put first, into the array as a list or as its whole dtype
_ENTRIES = {"bool": True, "None": None, "string": "1", "complex": 1j}
_DTYPES = {"bool array": bool, "complex array": complex, "string array": str}


def _with_first(good, entry):
    bad = np.array(good, dtype=object)
    bad.flat[0] = entry
    return bad.tolist()


@pytest.mark.parametrize("argument,bad", [
    pytest.param(argument, bad, id=f"{argument}-{bad}")
    for argument in ARRAYS for bad in (*_ENTRIES, *_DTYPES, "ragged")
])
def test_a_bad_array_entry_is_a_config_error_naming_its_argument(argument, bad):
    name, call, good, _ = ARRAYS[argument]
    if bad in _ENTRIES:
        value = _with_first(good, _ENTRIES[bad])
    elif bad in _DTYPES:
        value = np.array(good).astype(_DTYPES[bad])
    else:  # a list nested one level deeper than its neighbours
        value = np.array(good).tolist() + [[]]
    with pytest.raises(ConfigError, match=f"{name} must be "):
        call(value)


@pytest.mark.parametrize("argument", [a for a, row in ARRAYS.items() if row[3] is not None])
def test_a_wrongly_shaped_array_names_its_argument(argument):
    name, call, _, wrong = ARRAYS[argument]
    error = ConfigError if argument.startswith("jet_from_doc") else DimensionError
    with pytest.raises(error, match=rf"{name} has shape {re.escape(str(np.shape(wrong)))}, "):
        call(wrong)


def _views(good):
    """The good array as a list, a strided view and in four other dtypes."""
    wide = np.repeat(np.asarray(good, dtype=float), 2, axis=-1)
    yield np.asarray(good, dtype=float).tolist()
    yield wide[..., ::2]
    for dtype in (np.int64, np.int32, np.float32, ">f8"):
        yield np.asarray(good, dtype=float).astype(dtype)


@pytest.mark.parametrize("argument", list(ARRAYS))
def test_real_arrays_of_any_layout_give_the_float64_values(argument):
    _, call, good, _ = ARRAYS[argument]
    expected = pickle.dumps(call(np.array(good, dtype=float)))
    for value in _views(good):
        assert pickle.dumps(call(value)) == expected, (argument, value)


def test_the_array_holes_the_judge_closes():
    so3 = preset("so3")
    ones = np.ones((2, 1))
    holes = [
        (lambda: ep_field(so3, EnergySpec.identity(3), [1, 2, None]),
         "state must be a real number, got None"),
        (lambda: rk4(lambda y: -y, [True, False], 0.1, 2), "y0 must be a real number, got True"),
        (lambda: JetElement("SO", [[True, False], [False, True]]),
         "base must be a real number, got True"),
        (lambda: ep_field(so3, EnergySpec.identity(3), np.array([1j, 2, 3])),
         "state must be a real number, got 1j"),
        (lambda: so3.bracket("abc", [1.0, 0.0, 0.0]), "x must be a real number, got 'abc'"),
        (lambda: Trajectory(times=[0, None], states=ones), "times must be a real number, got None"),
        (lambda: rk4(lambda y: -y, np.ones(3), 0.1, 2, labels="xyz"),
         "labels must be a list of strings, got 'xyz'"),
        (lambda: Trajectory([0.0, 1.0], ones, labels=(1,)),
         "labels must be a list of strings, got (1,)"),
    ]
    for call, message in holes:
        with pytest.raises(ConfigError) as excinfo:
            call()
        assert str(excinfo.value) == message


def test_a_float64_array_passes_the_judge_as_it_is():
    state = np.arange(6.0)[::2]  # a strided, read-only view is no reason to copy
    state.setflags(write=False)
    assert floats(state, "state", (3,)) is state
    assert floats(state, "state", (None,)) is state
    assert floats([1, 2], "x").dtype == np.float64
    with pytest.raises(DimensionError, match=r"^x has shape \(3,\), expected \(\*, 3\)$"):
        floats(state, "x", (None, 3))
    for nan_or_inf in ([np.nan, 1.0], [np.inf, -np.inf]):  # finiteness is each caller's check
        assert floats(nan_or_inf, "x").shape == (2,)
