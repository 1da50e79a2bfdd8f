"""The one scalar rule of errors.py at every argument it judges: a bool is
refused, numpy scalars are accepted, and a bad value raises ConfigError
naming the argument."""

import os
from unittest import mock

import numpy as np
import pytest

from unimech import (
    ConfigError,
    EnergySpec,
    JetElement,
    KeplerParams,
    LieAlgebra,
    TokamakParams,
    UnifiedProductData,
    abelian,
    algebra_from_doc,
    complement_embed,
    compose_bracket,
    default_tol,
    fd_gradient,
    from_sparse_entries,
    iterated_factorize,
    iterated_inverse,
    iterated_multiply,
    partition_coefficient,
    preset,
    product_from_doc,
    random_jet,
    rk4,
    tangent_algebra,
    tn_inverse,
    tn_multiply,
    unit_jet,
)
from unimech.algebra import real_array
from unimech.errors import integer, positive, real

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
    "real_array.entry": ("initial", lambda v: real_array([1.0, v], "initial"), NOT_REAL),
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
