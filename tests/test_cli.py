import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unimech import build_model, save_algebra, save_product, preset
from unimech import cli, products
from unimech.cli import main


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
    return dataclasses.replace(d, theta=theta)


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


@pytest.mark.parametrize("model,dynamics,dim", [
    ("so3", "lp", 3), ({"name": "kepler", "params": {"e": 0.5}}, "ep", 6)], ids=["so3", "kepler"])
def test_run_composes_the_structure_once(tmp_path, capsys, monkeypatch, model, dynamics, dim):
    # validation and the flow share one composed tensor per run
    calls = []
    compose = products.compose_bracket

    def counted(d):
        calls.append(d)
        return compose(d)

    monkeypatch.setattr(products, "compose_bracket", counted)
    cfg = _write_config(tmp_path, model=model, dynamics=dynamics, energy=None,
                        initial=[0.1] * dim, integrator={"h": 1e-3, "steps": 20})
    for runs in (1, 2):
        assert main(["run", str(cfg)]) == 0
        assert len(calls) == runs
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


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"dynamics": None}, "missing"),
        ({"dynamics": "rk"}, "dynamics must be"),
        ({"initial": [1.0, 2.0]}, "initial state needs 3"),
        ({"conserve": ["wobble"]}, "unknown conserved-quantity"),
        ({"integrator": {"h": -1.0, "steps": 5}}, "h > 0"),
        ({"integrator": {"steps": 5}}, "'h' and 'steps'"),
        ({"energy": 5}, "energy must be an object"),
        ({"energy": {"kind": "blackbox"}}, "quadratic energies only"),
        ({"energy": {"inertia": [1.0, 2.0]}}, "needs 3 entries"),
        ({"model": "kepler", "dynamics": "ep3"}, "bad kepler"),
        ({"outputs": ["traj.csv"]}, "outputs must be an object"),
        ({"outputs": {"report": 5}}, "outputs.report must be a path"),
        ({"integrator": {"h": None, "steps": 5}}, "number h > 0, got None"),
        ({"integrator": {"h": True, "steps": 5}}, "number h > 0, got True"),
        ({"integrator": {"h": 1e-3, "steps": 2.7}}, "integer steps >= 1, got 2.7"),
        ({"integrator": {"h": 1e-3, "steps": True}}, "integer steps >= 1, got True"),
        ({"integrator": {"h": 1e-3, "steps": 1e12}}, "integer steps >= 1, got 1000000000000.0"),
        ({"integrator": {"h": 1e-3, "steps": 0}}, "integer steps >= 1, got 0"),
        ({"integrator": {"h": 1e-3, "steps": "10"}}, "integer steps >= 1, got '10'"),
        ({"model": {"name": "kepler", "params": [1]}}, "params must be an object, got list"),
        ({"model": {"name": "so3", "params": "e"}}, "params must be an object, got str"),
        ({"integrator": {"h": float("inf"), "steps": 5}}, "step size must be positive and finite"),
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


def test_model_document_needs_a_recognized_shape(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"foo": 1}))
    assert main(["validate", str(path)]) == 1
    assert "either 'dim_m'" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
