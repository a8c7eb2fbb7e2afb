"""numpy is the package's only runtime dependency: importing dismd and its
command line brings in no other installed module. The math modules do no
I/O: files are read and written by ``harness`` alone."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import dismd, dismd.cli
new = {name.partition(".")[0] for name in set(sys.modules) - before}
# a module without __file__ is built in or made at run time, as numpy's
# Cython shims are, so no installed package provides it
print(json.dumps(sorted(
    name for name in new
    if name not in sys.stdlib_module_names and name not in ("numpy", "dismd")
    and getattr(sys.modules.get(name), "__file__", None) is not None
)))
"""


def test_importing_the_package_loads_only_the_stdlib_and_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=env, check=True)
    assert json.loads(proc.stdout) == []


MATH_MODULES = ("graphs", "objectives", "mirror_maps", "dynamics", "diagnostics", "oracle")
IO_MODULES = {"json", "pathlib", "os", "io", "shutil", "tempfile"}


def test_the_math_modules_import_no_io_module_and_open_no_file():
    found = []
    for name in MATH_MODULES:
        path = SRC / "dismd" / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            found += [(name, m) for m in modules if m.partition(".")[0] in IO_MODULES]
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == "open" or getattr(func, "attr", None) == "open":
                    found.append((name, f"open() at line {node.lineno}"))
    assert found == []
