import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unimech import (ConfigError, JetElement, LieAlgebra, build_model, save_algebra, save_product,
                     preset, tangent_algebra)
from unimech import cli, products
from unimech.cli import main
from unimech.errors import default_tol
from model_equations import with_maps


def _write_config(tmp_path, name="run.json", **overrides):
    cfg = {
        "model": "so3",
        "dynamics": "lp",
        "energy": {"inertia": [1.0, 2.0, 3.0]},
        "initial": [1.0, 0.2, -0.5],
        "integrator": {"h": 1e-3, "steps": 200},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _perturbed_kepler(scale):
    d = build_model("kepler", {"e": 0.5})
    theta = np.array(d.theta)
    theta[0, 1, 2] += scale
    theta[0, 2, 1] -= scale  # keep the stored tensor antisymmetric
    return with_maps(d, theta=theta)


# -- validate -------------------------------------------------------------------


def test_validate_kepler(capsys):
    assert main(["validate", "kepler", "--params", '{"e": 0.5}']) == 0
    out = capsys.readouterr().out
    assert "result: ok" in out
    assert out.count("[ok]") == 10  # eight axioms + h antisymmetry + composed jacobi
    assert "axiom cocycle_jacobi" in out


def test_validate_without_required_params(capsys):
    assert main(["validate", "kepler"]) == 1
    assert "error:" in capsys.readouterr().err


# A case whose pinned message differs from the rule it breaks keeps that
# rule as its test id.
@pytest.mark.parametrize("model,params,message", [
    pytest.param("kepler", '{"e": NaN}', "e must be a finite real number, got nan",
                 id='kepler-{"e": NaN}-e must be finite, got nan'),
    pytest.param("kepler", '{"e": 0.5, "k": Infinity}', "k must be finite and > 0, got inf",
                 id='kepler-{"e": 0.5, "k": Infinity}-k must be finite, got inf'),
    pytest.param("tokamak", '{"b_i": Infinity}', "b_i must be a finite real number, got inf",
                 id='tokamak-{"b_i": Infinity}-b_i must be finite, got inf'),
    # JSON gives bools, nulls, strings and lists as easily as numbers
    pytest.param("abelian", '{"dim": 2.5}', "dim must be an integer >= 0, got 2.5",
                 id='abelian-{"dim": 2.5}-abelian dimension must be an integer, got 2.5'),
    pytest.param("abelian", '{"dim": null}', "dim must be an integer >= 0, got None",
                 id='abelian-{"dim": null}-abelian dimension must be an integer, got None'),
    pytest.param("abelian", '{"dim": [3]}', "dim must be an integer >= 0, got [3]",
                 id='abelian-{"dim": [3]}-abelian dimension must be an integer, got [3]'),
    pytest.param("abelian", '{"dim": true}', "dim must be an integer >= 0, got True",
                 id='abelian-{"dim": true}-abelian dimension must be an integer, got True'),
    pytest.param("kepler", '{"e": true}', "e must be a finite real number, got True",
                 id='kepler-{"e": true}-bad kepler parameters: e must be a real number, '
                    'got True'),
    pytest.param("kepler", '{"e": 0.5, "m": false}', "m must be a real number, got False",
                 id='kepler-{"e": 0.5, "m": false}-bad kepler parameters: m must be a real '
                    'number, got False'),
    pytest.param("kepler", '{"e": "0.5"}', "e must be a finite real number, got '0.5'",
                 id='kepler-{"e": "0.5"}-bad kepler parameters: e must be a real number, '
                    "got '0.5'"),
    pytest.param("tokamak", '{"b_i": true}', "b_i must be a finite real number, got True",
                 id='tokamak-{"b_i": true}-bad tokamak parameters: b_i must be a real '
                    'number, got True'),
    pytest.param("tokamak", '{"b_i": [1]}', "b_i must be a finite real number, got [1]",
                 id='tokamak-{"b_i": [1]}-bad tokamak parameters: b_i must be a real '
                    'number, got [1]'),
])
def test_non_finite_model_parameters_are_refused(model, params, message, capsys):
    assert main(["validate", model, "--params", params]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_coupling_past_the_float_range_fails_validation(capsys):
    # the cocycle's Jacobi scale (2e300)**2 overflows: a FAIL, not a traceback
    assert main(["validate", "kepler", "--params", '{"e": 1e300}']) == 2
    out = capsys.readouterr().out
    assert out.endswith("result: FAIL\n") and "[FAIL]" in out


def test_validate_broken_document(tmp_path, capsys):
    path = tmp_path / "broken.json"
    save_product(_perturbed_kepler(1e-3), path)
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert "result: FAIL" in out
    assert "[FAIL]" in out
    assert "worst at (" in out


def test_validate_plain_algebra_document(tmp_path):
    path = tmp_path / "sl2.json"
    save_algebra(preset("sl2"), path)
    assert main(["validate", str(path)]) == 0


@pytest.mark.parametrize("command", ["validate", "describe"])
@pytest.mark.parametrize("params", ["[1]", '"e"', "0.5"])
def test_params_must_be_an_object(command, params, capsys):
    # a non-object --params is a configuration error, for presets and families alike
    assert main([command, "kepler", "--params", params]) == 1
    assert "params must be an object" in capsys.readouterr().err
    assert main([command, "so3", "--params", params]) == 1
    assert "params must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "describe"])
@pytest.mark.parametrize("params,where,problem", [
    ("{bad", "line 1, column 2", "Expecting property name enclosed in double quotes"),
    ('{"e": 0.5}\n]', "line 2, column 1", "Extra data"),
])
def test_params_must_be_valid_json(command, params, where, problem, capsys):
    assert main([command, "kepler", "--params", params]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --params: invalid JSON at {where} ({problem})\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["validate", "describe"])
def test_params_are_refused_on_a_document_path(tmp_path, capsys, command):
    # a document carries its own structure; parameters for it would be ignored
    path = tmp_path / "kepler.json"
    save_product(build_model("kepler", {"e": 0.5}), path)
    assert main([command, str(path), "--params", '{"e": 0.9}']) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --params applies to preset names, not to document {path}\n"
    assert captured.out == ""


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    # a 1e-6 defect fails at the default 1e-10 but passes once UM_TOL loosens
    path = tmp_path / "rough.json"
    save_product(_perturbed_kepler(1e-6), path)
    assert main(["validate", str(path)]) == 2
    capsys.readouterr()
    monkeypatch.setenv("UM_TOL", "1e-3")
    assert main(["validate", str(path)]) == 0
    assert "result: ok" in capsys.readouterr().out


def test_validate_refuses_a_non_finite_structure_constant(tmp_path, capsys):
    # JSON's NaN and Infinity reach the strict antisymmetry check of the
    # composed tensor, which refuses them in any map: exit 1 with an error
    # line naming the worst entry, not a table of nan
    for token in ("NaN", "Infinity"):
        docs = {"alg.json": f'{{"dim": 3, "c": [[0, 1, 2, {token}]]}}',
                "prod.json": f'{{"dim_m": 2, "h": {{"dim": 1}}, "phi": [[0, 0, 1, {token}]]}}',
                "act.json": f'{{"dim_m": 2, "h": {{"dim": 1}}, "act": [[0, 0, 1, {token}]]}}',
                "psi.json": f'{{"dim_m": 2, "h": {{"dim": 1}}, "psi": [[0, 0, 1, {token}]]}}'}
        for name, text in docs.items():
            (tmp_path / name).write_text(text)
            # every model has dimension 3, so the default run config fits it
            cfg = _write_config(tmp_path, model=json.loads(text),
                                outputs={"trajectory": str(tmp_path / "traj.csv")})
            for argv in (["validate", str(tmp_path / name)], ["run", str(cfg)]):
                assert main(argv) == 1
                out, err = capsys.readouterr()
                assert out == "" and re.fullmatch(
                    r"error: structure tensor is not antisymmetric \(residual nan\) worst at "
                    r"\(\w+; \w+, \w+\); pass strict=False to construct anyway\n", err), err
            assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("command", ["validate", "describe"])
def test_an_unknown_preset_is_one_error_line(command, capsys):
    assert main([command, "nosuch"]) == 1
    assert capsys.readouterr() == ("", "error: unknown algebra preset 'nosuch'\n")


@pytest.mark.parametrize("raw", ["inf", "nan", "-inf", "0", "-1e-3"])
def test_a_tolerance_that_is_not_positive_and_finite_is_refused(raw, monkeypatch, capsys):
    # under UM_TOL=inf every tol check would pass: 5 I would read as SO(3)
    monkeypatch.setenv("UM_TOL", raw)
    message = f"UM_TOL must be finite and > 0, got {float(raw)!r}"
    with pytest.raises(ConfigError) as excinfo:
        JetElement("SO", 5.0 * np.eye(3))
    assert str(excinfo.value) == message
    assert main(["validate", "so3"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    monkeypatch.setenv("UM_TOL", "1e-3")
    assert default_tol() == 1e-3 and JetElement("SO", np.eye(3)).tol == 1e-3


# -- describe -------------------------------------------------------------------


def test_describe_kepler(capsys):
    assert main(["describe", "kepler", "--params", '{"e": 1.0}']) == 0
    out = capsys.readouterr().out
    assert "dim_m=3 dim_h=3 total=6" in out
    assert "m labels: v1 v2 v3" in out
    assert "h labels: eta1 eta2 eta3" in out
    assert "action: 6 nonzero entries" in out
    assert "cocycle: 6 nonzero entries" in out
    assert "cocycle[eta3, v1, v2] = 2" in out


def test_describe_plain_algebra(capsys):
    assert main(["describe", "so3"]) == 0
    out = capsys.readouterr().out
    assert "dim_m=0 dim_h=3 total=3" in out
    assert "m labels: (empty)" in out


def test_describe_truncates_long_tensors(tmp_path, capsys):
    # a 6-dim base gives the action tensor 36 nonzero entries, past the cap
    from unimech import TokamakParams, tangent_algebra, tokamak_algebra

    d = tokamak_algebra(TokamakParams(base=tangent_algebra(preset("so3"))))
    path = tmp_path / "big.json"
    save_product(d, path)
    assert main(["describe", str(path)]) == 0
    out = capsys.readouterr().out
    assert "action: 36 nonzero entries" in out
    assert "... and 16 more" in out


# -- run ------------------------------------------------------------------------


def test_run_rigid_body_with_outputs(tmp_path, capsys):
    csv_path = tmp_path / "traj.csv"
    json_path = tmp_path / "report.json"
    cfg = _write_config(
        tmp_path,
        conserve=["hamiltonian", "norm_sq_block"],
        outputs={"trajectory": str(csv_path), "report": str(json_path)},
    )
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert f"trajectory: {csv_path} (201 rows)" in out
    assert f"report: {json_path}" in out
    assert "hamiltonian: initial" in out

    header = csv_path.read_text().splitlines()[0]
    assert header == "t,e1,e2,e3"
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert data.shape == (201, 4)
    np.testing.assert_allclose(data[0, 1:], [1.0, 0.2, -0.5])

    report = json.loads(json_path.read_text())
    assert set(report) == {"hamiltonian", "norm_sq_h"}
    assert report["hamiltonian"]["max_rel_drift"] < 1e-10
    assert report["norm_sq_h"]["max_rel_drift"] < 1e-10


def test_run_third_order_dynamics(tmp_path, capsys):
    csv_path = tmp_path / "traj3.csv"
    cfg = _write_config(
        tmp_path,
        dynamics="ep3",
        energy=None,
        initial=[0.3, -0.2, 0.5, 0.1, 0.4, -0.3, 0.07, 0.28, -0.21],
        integrator={"h": 1e-3, "steps": 50},
        conserve=["energy", "norm_sq_block"],
        outputs={"trajectory": str(csv_path)},
    )
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "norm_sq_pi0: initial" in out
    assert "norm_sq_pi2: initial" in out
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,e1,e2,e3,de1,de2,de3,dde1,dde2,dde3"


def test_run_inline_model_node(tmp_path):
    cfg = _write_config(
        tmp_path,
        model={"name": "tokamak", "params": {"base": "heisenberg", "b_i": 0.5}},
        dynamics="ep",
        energy=None,
        initial=[0.1] * 12,
        integrator={"h": 0.01, "steps": 20},
    )
    assert main(["run", str(cfg)]) == 0


def test_run_is_deterministic(tmp_path, capsys):
    outputs = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"{tag}.csv"
        json_path = tmp_path / f"{tag}.json"
        cfg = _write_config(
            tmp_path,
            name=f"cfg_{tag}.json",
            outputs={"trajectory": str(csv_path), "report": str(json_path)},
        )
        assert main(["run", str(cfg)]) == 0
        outputs.append((csv_path.read_bytes(), json_path.read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("model,dynamics,dim,composes", [
    ("so3", "lp", 3, 0), ({"name": "kepler", "params": {"e": 0.5}}, "ep", 6, 0),
    (products.product_to_doc(build_model("kepler", {"e": 0.5})), "ep", 6, 1),
    ("so3", "ep3", 9, 0),
], ids=["so3", "kepler", "document", "ep3"])
def test_run_composes_the_structure_once(tmp_path, capsys, monkeypatch, model, dynamics,
                                         dim, composes):
    # a preset is built as its algebra and a document composed from its maps
    # once; validation makes one Jacobiator of that algebra and the flow
    # reads its cached field tensor.  A fixed preset is shared, so its runs
    # integrate on one state algebra; the ep3 state is tangent_algebra(g, 2).
    counts = {"compose": 0, "jacobiator": 0}
    flows, states = [], []  # states kept alive, so their ids stay distinct
    compose, jacobiator = products.compose_bracket, LieAlgebra.jacobiator
    field = getattr(cli, f"{dynamics}_field")

    def counted_compose(*args, **kwargs):
        counts["compose"] += 1
        return compose(*args, **kwargs)

    def counted_jacobiator(self):
        counts["jacobiator"] += 1
        return jacobiator(self)

    def spied_field(d, spec, y):
        flows.append(d)
        return field(d, spec, y)

    monkeypatch.setattr(products, "compose_bracket", counted_compose)
    monkeypatch.setattr(LieAlgebra, "jacobiator", counted_jacobiator)
    monkeypatch.setattr(cli, f"{dynamics}_field", spied_field)
    cfg = _write_config(tmp_path, model=model, dynamics=dynamics, energy=None,
                        initial=[0.1] * dim, integrator={"h": 1e-3, "steps": 20})
    for runs in (1, 2):
        flows.clear()
        assert main(["run", str(cfg)]) == 0
        assert counts == {"compose": composes * runs, "jacobiator": runs}
        assert len({id(d) for d in flows}) == 1
        state = tangent_algebra(flows[0], 2) if dynamics == "ep3" else flows[0].algebra
        assert "field_tensor" in vars(state)
        states.append(state)
    assert len({id(s) for s in states}) == (1 if model == "so3" else 2)
    capsys.readouterr()


def test_run_validates_before_integrating(tmp_path, capsys):
    model_path = tmp_path / "bad_model.json"
    save_product(_perturbed_kepler(1e-3), model_path)
    cfg = _write_config(
        tmp_path,
        model=str(model_path),
        energy=None,
        initial=[0.0] * 6,
    )
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "structure axioms" in captured.err
    assert "[FAIL]" in captured.out


def test_run_blow_up_exits_3(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        initial=[1e5, 2e5, -1e5],
        integrator={"h": 1e3, "steps": 10},
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "state became non-finite at step" in err
    assert err.endswith("state became non-finite at step 2 in component e1\n")


@pytest.mark.parametrize("warning_flags", [[], ["-W", "error::RuntimeWarning"]])
def test_run_blow_up_prints_only_its_error_line(tmp_path, warning_flags):
    # a fresh interpreter, so numpy's warnings would reach stderr as a user sees it
    cfg = _write_config(tmp_path, initial=[1e5, 2e5, -1e5], integrator={"h": 1e3, "steps": 10})
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys; from unimech.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, *warning_flags, "-c", code, "run", str(cfg)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr == "error: state became non-finite at step 2 in component e1\n"


# A case whose pinned message differs from the rule it breaks keeps that
# rule as its test id.
@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"dynamics": None}, "missing"),
        ({"dynamics": "rk"}, "dynamics must be"),
        pytest.param({"initial": [1.0, 2.0]}, "initial has shape (2,), expected (3,)",
                     id="overrides2-initial state needs 3"),
        ({"conserve": ["wobble"]}, "unknown conserved-quantity"),
        pytest.param({"integrator": {"h": -1.0, "steps": 5}}, "h must be finite and > 0, got -1.0",
                     id="overrides4-h > 0"),
        ({"integrator": {"steps": 5}}, "'h' and 'steps'"),
        ({"energy": 5}, "energy must be an object"),
        ({"energy": {"kind": "blackbox"}}, "quadratic energies only"),
        ({"energy": {"inertia": [1.0, 2.0]}}, "needs 3 entries"),
        ({"model": "kepler", "dynamics": "ep3"}, "bad kepler"),
        ({"outputs": ["traj.csv"]}, "outputs must be an object"),
        ({"outputs": {"report": 5}}, "outputs.report must be a path"),
        pytest.param({"integrator": {"h": None, "steps": 5}}, "h must be a real number, got None",
                     id="overrides12-number h > 0, got None"),
        pytest.param({"integrator": {"h": True, "steps": 5}}, "h must be a real number, got True",
                     id="overrides13-number h > 0, got True"),
        pytest.param({"integrator": {"h": 1e-3, "steps": 2.7}},
                     "steps must be an integer >= 1, got 2.7",
                     id="overrides14-integer steps >= 1, got 2.7"),
        pytest.param({"integrator": {"h": 1e-3, "steps": True}},
                     "steps must be an integer >= 1, got True",
                     id="overrides15-integer steps >= 1, got True"),
        pytest.param({"integrator": {"h": 1e-3, "steps": 1e12}},
                     "steps must be an integer >= 1, got 1000000000000.0",
                     id="overrides16-integer steps >= 1, got 1000000000000.0"),
        pytest.param({"integrator": {"h": 1e-3, "steps": 0}},
                     "steps must be an integer >= 1, got 0",
                     id="overrides17-integer steps >= 1, got 0"),
        pytest.param({"integrator": {"h": 1e-3, "steps": "10"}},
                     "steps must be an integer >= 1, got '10'",
                     id="overrides18-integer steps >= 1, got '10'"),
        ({"model": {"name": "kepler", "params": [1]}}, "params must be an object, got list"),
        ({"model": {"name": "so3", "params": "e"}}, "params must be an object, got str"),
        pytest.param({"integrator": {"h": float("inf"), "steps": 5}},
                     "h must be finite and > 0, got inf",
                     id="overrides21-step size must be positive and finite"),
        pytest.param({"energy": {"inertia": [True, True, True]}},
                     "energy.inertia must be a real number, got True",
                     id="overrides22-energy.inertia: True is not a number"),
        pytest.param({"energy": {"inertia": ["1", "2", "3"]}},
                     "energy.inertia must be a real number, got '1'",
                     id="overrides23-energy.inertia: '1' is not a number"),
        pytest.param({"energy": {"inertia": [1.0, True, 3.0]}},
                     "energy.inertia must be a real number, got True",
                     id="overrides24-energy.inertia: True is not a number"),
        pytest.param({"energy": {"inertia": [[1, 0, 0], [0, "1", 0], [0, 0, 1]]}},
                     "energy.inertia must be a real number, got '1'",
                     id="overrides25-energy.inertia: '1' is not a number"),
        pytest.param({"initial": [True, False, True]}, "initial must be a real number, got True",
                     id="overrides26-initial: True is not a number"),
        pytest.param({"initial": ["1", "2", "3"]}, "initial must be a real number, got '1'",
                     id="overrides27-initial: '1' is not a number"),
        pytest.param({"initial": [[1.0, 2.0], [3.0]]},
                     "initial must be a real number, got [1.0, 2.0]",
                     id="overrides28-initial: [1.0, 2.0] is not a number"),
        ({"conserve": 5}, "conserve must be a list of tags, got 5"),
        ({"conserve": None}, "conserve must be a list of tags, got None"),
        ({"conserve": "hamiltonian"}, "conserve must be a list of tags, got 'hamiltonian'"),
    ],
)
def test_run_config_errors(tmp_path, capsys, overrides, fragment):
    if overrides.get("dynamics", "") is None:
        cfg_dict = json.loads(_write_config(tmp_path).read_text())
        del cfg_dict["dynamics"]
        cfg = tmp_path / "missing.json"
        cfg.write_text(json.dumps(cfg_dict))
    else:
        cfg = _write_config(tmp_path, **overrides)
    assert main(["run", str(cfg)]) == 1
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize(
    "inertia",
    [[1.0, float("nan"), 3.0], [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]]],
)
def test_run_rejects_a_non_finite_inertia(tmp_path, capsys, inertia):
    cfg = _write_config(tmp_path, energy={"inertia": inertia})
    assert "NaN" in cfg.read_text()  # Python's json writes and reads the literal
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite" in err


def test_run_reports_a_trajectory_too_large_to_hold(tmp_path, capsys):
    cfg = _write_config(tmp_path, integrator={"h": 1e-3, "steps": 10**15})
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "cannot hold 1000000000000000 steps of a state of size 3" in err
    assert "bytes requested" in err


@pytest.mark.parametrize("key", ["trajectory", "report"])
def test_run_checks_output_directories_before_integrating(tmp_path, capsys, monkeypatch, key):
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated despite a missing output directory")

    monkeypatch.setattr(cli, "rk4", no_integration)
    missing = tmp_path / "nowhere" / f"{key}.out"
    cfg = _write_config(tmp_path, outputs={key: str(missing)})
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"outputs.{key}: directory {missing.parent} does not exist" in err


def test_run_ep3_needs_a_plain_algebra(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        model={"name": "kepler", "params": {"e": 0.5}},
        dynamics="ep3",
        energy=None,
        initial=[0.0] * 18,
    )
    assert main(["run", str(cfg)]) == 1
    assert "plain algebra" in capsys.readouterr().err


def test_missing_and_malformed_files(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    assert "no such file" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err

    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert main(["run", str(listy)]) == 1
    assert "expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "describe"])
@pytest.mark.parametrize("doc,message", [
    # ids as in test_non_finite_model_parameters_are_refused
    pytest.param({"dim": True, "c": []}, "'dim' must be an integer >= 0, got True",
                 id="doc0-'dim' must be a non-negative integer, got True"),
    pytest.param({"dim_m": True, "h": {"dim": 3, "c": []}},
                 "'dim_m' must be an integer >= 0, got True",
                 id="doc1-'dim_m' must be a non-negative integer, got True"),
    pytest.param({"dim": 3, "c": [[2, 0, 1, True]]},
                 "structure entry [2, 0, 1, True] must be a real number, got True",
                 id="doc2-structure entry [2, 0, 1, True] needs integer indices and a number"),
    ({"dim": 3, "labels": [1, 2, 3], "c": []}, "'labels' must be a list of strings, got [1, 2, 3]"),
    ({"dim": 3, "labels": "xyz", "c": []}, "'labels' must be a list of strings, got 'xyz'"),
    ({"dim_m": 1, "h": {"dim": 1}, "labels": ["v", 2]},
     "'labels' must be a list of strings, got ['v', 2]"),
])
def test_model_documents_refuse_bools_and_non_string_labels(tmp_path, capsys, command, doc,
                                                            message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_model_document_needs_a_recognized_shape(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"foo": 1}))
    assert main(["validate", str(path)]) == 1
    assert "either 'dim_m'" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
