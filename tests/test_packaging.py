"""unimech runs on numpy and the standard library alone."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "unimech"
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


def test_package_imports_only_stdlib_numpy_and_itself():
    for source in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one
            for name in names:
                assert name.partition(".")[0] in ALLOWED, f"{source.name}:{node.lineno} imports {name}"
