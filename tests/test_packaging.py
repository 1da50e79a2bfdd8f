"""unimech runs on numpy and the standard library alone, every library
name the benchmark looks up exists, and the one tolerance is UM_TOL, read
in errors.py alone."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "unimech"
PERFBENCH = PACKAGE.parents[1] / "perfbench"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _fresh_import(code: str):
    """Run `code` in a new interpreter that imports this checkout's unimech;
    return the JSON it prints."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_scipy():
    origin, scipy_modules = _fresh_import(
        "import json, sys, unimech, unimech.cli;"
        "print(json.dumps([unimech.__file__,"
        " sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')]))"
    )
    assert Path(origin).resolve().parent == PACKAGE
    assert scipy_modules == []


def test_import_builds_no_jet_cache():
    # the tries, identities and layouts are built by their first caller, and
    # no jet exists to hold a base inverse, so import adds nothing to set-up
    sizes, jets = _fresh_import(
        "import gc, json, unimech, unimech.cli; from unimech import jets;"
        "print(json.dumps([[f.cache_info().currsize for f in"
        " (jets._trie, jets._identity, jets._layout, jets.subsets_by_slot)],"
        " sum(isinstance(o, jets.JetElement) for o in gc.get_objects())]))"
    )
    assert sizes == [0, 0, 0, 0]
    assert jets == 0


def _imports(source: Path):
    """(line, relative level, module) of every import statement in `source`."""
    for node in ast.walk(ast.parse(source.read_text(), str(source))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, 0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, node.level, node.module or ""


def test_package_imports_only_stdlib_numpy_and_itself():
    for source in sorted(PACKAGE.glob("*.py")):
        for line, level, name in _imports(source):
            if not level:  # a relative import is the package itself
                assert name.partition(".")[0] in ALLOWED, f"{source.name}:{line} imports {name}"


def test_the_jet_oracle_imports_only_stdlib_and_numpy():
    # the block-matrix oracle checks the jet products of unimech, so it may
    # not be routed back through them
    source = PACKAGE.parents[1] / "tests" / "jet_oracle.py"
    imports = list(_imports(source))
    assert "numpy" in {name for _, _, name in imports}
    for line, level, name in imports:
        where = f"jet_oracle.py:{line} imports {name}"
        assert not level and name.partition(".")[0] in ALLOWED, where


def test_only_errors_decides_which_scalars_pass():
    # every count, tolerance, step and parameter is judged by the helpers of
    # errors.py, so a bool test or a numbers ABC anywhere else is a second rule
    for source in sorted(PACKAGE.glob("*.py")):
        if source.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            where = f"{source.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else node.args[1:]
                assert not any(getattr(k, "id", None) == "bool" for k in kinds), where
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "numbers":
                assert node.attr not in ("Real", "Integral"), where
            if isinstance(node, ast.ImportFrom) and node.module == "numbers":
                assert not {a.name for a in node.names} & {"Real", "Integral"}, where


# (module, function) -> why a float conversion there judges no caller's array
FLOAT_CASTS = {
    ("algebra.py", "_expm"): "its callers pass matrices the library made",
}
_FLOAT_DTYPES = {"float", "np.float64", "np.double", "'float'", "'float64'", "'f8'", "'d'"}


def _calls(node: ast.AST, function: str | None = None):
    """(call, innermost enclosing function) of each call under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield from _calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield child, function
        yield from _calls(child, function)


def _float_casts(node: ast.AST):
    """(line, innermost enclosing function) of each np.asarray, np.array or
    .astype call under `node` whose dtype is a float."""
    for call, function in _calls(node):
        if not isinstance(call.func, ast.Attribute):
            continue
        name, owner = call.func.attr, ast.unparse(call.func.value)
        if name == "astype":
            dtypes = call.args[:1]
        elif name in ("asarray", "array") and owner in ("np", "numpy"):
            dtypes = call.args[1:2]
        else:
            continue
        if any(ast.unparse(d) in _FLOAT_DTYPES
               for d in dtypes + [k.value for k in call.keywords if k.arg == "dtype"]):
            yield call.lineno, function


def test_only_errors_decides_which_arrays_pass():
    # every array a caller hands the library is judged by errors.floats, so
    # a float conversion anywhere else is a second, laxer rule
    found = set()
    for source in sorted(PACKAGE.glob("*.py")):
        if source.name == "errors.py":
            continue
        for line, function in _float_casts(ast.parse(source.read_text(), str(source))):
            if (source.name, function) not in FLOAT_CASTS:
                raise AssertionError(f"{source.name}:{line} converts to float in {function}")
            found.add((source.name, function))
    assert found == set(FLOAT_CASTS), "an allowlisted conversion is gone"


# (module, function) -> why a string test there judges no caller's labels
STR_CHECKS = {
    ("algebra.py", "preset"): "a preset is looked up by its name",
    ("algebra.py", "_base_algebra"): "a tangent base is a preset name or an algebra",
    ("cli.py", "_resolve_model"): "a model node is a preset name, a path or a document",
    ("cli.py", "_cmd_run"): "an output is a path",
}


def _label_checks(node: ast.AST):
    """(line, innermost enclosing function) of each isinstance(..., str) call
    and each tuple() of a name ending in "labels" under `node`."""
    for call, function in _calls(node):
        name = getattr(call.func, "id", None)
        if name == "isinstance" and len(call.args) == 2:
            kinds = call.args[1].elts if isinstance(call.args[1], ast.Tuple) else call.args[1:]
            if any(getattr(k, "id", None) == "str" for k in kinds):
                yield call.lineno, function
        elif name == "tuple" and len(call.args) == 1 and isinstance(
                call.args[0], (ast.Name, ast.Attribute)) and ast.unparse(
                call.args[0]).endswith("labels"):
            yield call.lineno, function


def test_only_errors_decides_which_labels_pass():
    # every list of labels a caller hands the library is judged by
    # errors.labels, so a string test or a tuple() of labels anywhere else
    # is a second rule
    found = set()
    for source in sorted(PACKAGE.glob("*.py")):
        if source.name == "errors.py":
            continue
        for line, function in _label_checks(ast.parse(source.read_text(), str(source))):
            if (source.name, function) not in STR_CHECKS:
                raise AssertionError(f"{source.name}:{line} judges labels in {function}")
            found.add((source.name, function))
    assert found == set(STR_CHECKS), "an allowlisted string test is gone"


def _public_callables():
    """(name, object) of every public function and class that a unimech
    module defines, and of each public method of those classes."""
    for source in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"unimech.{source.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield name, obj
                for method, member in inspect.getmembers(obj, callable):
                    if not method.startswith("_") and not inspect.isclass(member):
                        yield f"{name}.{method}", member


def test_no_public_callable_takes_a_tolerance():
    # the one tolerance is UM_TOL, read by errors.default_tol when a check judges
    for name, obj in _public_callables():
        try:
            parameters = inspect.signature(obj).parameters
        except ValueError:  # an exception class that keeps BaseException's (*args)
            continue
        assert "tol" not in parameters, f"{name} takes a tol"


def _environment_reads(tree: ast.AST):
    """Line of each read of the environment or of the string "UM_TOL" in
    `tree`, docstrings aside."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            yield node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "UM_TOL" in node.value and id(node) not in docstrings):
            yield node.lineno


def test_only_errors_reads_um_tol():
    for source in sorted(PACKAGE.glob("*.py")):
        reads = list(_environment_reads(ast.parse(source.read_text(), str(source))))
        if source.name == "errors.py":
            assert reads, "errors.default_tol no longer reads UM_TOL"
        else:
            assert not reads, f"{source.name}:{reads[0]} reads the environment"


def _benchmark_names() -> set[tuple[str, str]]:
    """(module, dotted name) of every library name perfbench's workloads
    call and its tracer reads spans of, found in the source text."""
    work = (PERFBENCH / "workloads.py").read_text()
    trace = (PERFBENCH / "tracing.py").read_text()
    counters = trace[trace.index("COUNTERS = {"):].split("\n}", 1)[0]
    methods = trace[trace.index("METHODS = ("):].split("\n)", 1)[0]
    names = {("unimech", n) for n in re.findall(r"\bum\.([\w.]+)", work)}
    names |= {("unimech.cli", n) for n in re.findall(r"\bcli\.([\w.]+)", work)}
    spans = re.findall(r'\b(?:calls|incl|stat)\("(\w+)\.([\w.]+)"\)', trace)
    spans += re.findall(r'^\s+"(\w+)\.([\w.]+)": \(', counters, re.MULTILINE)
    spans += [(layer, f"{cls}.{method}")
              for layer, cls, method in re.findall(r'\("(\w+)", "(\w+)", "(\w+)"\)', methods)]
    return names | {(f"unimech.{layer}", rest) for layer, rest in spans}


def test_benchmark_names_resolve_to_library_functions():
    # the workloads look names up at call time, so a removed or renamed one
    # would show only as failed benchmark ops or a span metric stuck at 0
    names = _benchmark_names()
    assert ("unimech.products", "compose_bracket") in names and len(names) > 30
    for module, dotted in sorted(names):
        owner = obj = importlib.import_module(module)
        for part in dotted.split("."):
            owner, obj = obj, getattr(obj, part, None)
            assert obj is not None, f"{module}.{dotted} does not resolve"
        if inspect.isclass(owner):
            assert part in vars(owner), f"{module}.{dotted} is not defined on its class"
        else:
            assert inspect.isfunction(obj) and not part.startswith("_"), f"{module}.{dotted}"
            # the tracer wraps a layer's functions only where they are defined
            assert obj.__module__ == module or module == "unimech", f"{module}.{dotted}"
            assert obj.__module__.startswith("unimech."), f"{module}.{dotted}"


def test_every_exported_name_resolves():
    # `from M import *` raises on a name in M.__all__ that M no longer
    # defines; the package re-exports only names its modules export
    for source in sorted(PACKAGE.glob("*.py")):
        module = "unimech" if source.stem == "__init__" else f"unimech.{source.stem}"
        namespace = {}
        exec(f"from {module} import *", namespace)
        mod = importlib.import_module(module)
        names = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
        assert names and all(namespace.get(n) is not None for n in names), module
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            exported = getattr(importlib.import_module(f"unimech.{node.module}"), "__all__", None)
            for alias in node.names:
                assert exported is None or alias.name in exported, f"{node.module}.{alias.name}"
