"""numpy is the package's only runtime dependency: importing dismd and its
command line brings in no other installed module. The math modules do no
I/O: files are read and written by ``harness`` alone, where only
``_write_atomic`` publishes a file and only ``OutputFile`` renames one or
makes a directory. A rule has one owner: only ``dynamics`` compares a value
with the divergence limit, and only ``config`` rejects a barbell of the
wrong size or a mirror map on the wrong domain. Each input format has one
reader, which owns its rules: ``config.load_config`` parses the INI
configs, ``harness.load_matrix`` the CSV matrices and
``harness.load_problem_bundle`` the bundle manifests."""

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


def _calls(node, scope=()):
    """(names of the enclosing classes and functions, call) for every call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield scope, child
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _calls(child, scope + (child.name,) if named else scope)


# the one owner of each call that publishes, renames or makes a directory
OWNERS = {"publish": "_write_atomic", "replace": "OutputFile", "rename": "OutputFile",
          "mkdir": "OutputFile", "makedirs": "OutputFile"}


def test_only_write_atomic_publishes_and_only_output_file_renames_or_makes_directories():
    found = []
    for path in sorted((SRC / "dismd").glob("*.py")):
        for scope, call in _calls(ast.parse(path.read_text(), str(path))):
            name = getattr(call.func, "attr", None)
            if name == "replace" and getattr(call.func.value, "id", None) != "os" and (
                    len(call.args) != 1 or call.keywords):
                continue  # str.replace or dataclasses.replace, not Path.replace
            if name in OWNERS and OWNERS[name] not in scope:
                found.append(f"{path.name}:{call.lineno} {name} outside {OWNERS[name]}")
    assert found == []


# the call that parses each input format -> (module, function) of its one reader
READERS = {"ConfigParser": ("config", "load_config"), "loadtxt": ("harness", "load_matrix"),
           "loads": ("harness", "load_problem_bundle")}


def test_each_input_format_has_one_reader():
    found = []
    for path in sorted((SRC / "dismd").glob("*.py")):
        for scope, call in _calls(ast.parse(path.read_text(), str(path))):
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            if name in READERS and (path.stem, *scope) != READERS[name]:
                found.append(f"{path.name}:{call.lineno} {name} outside {'.'.join(READERS[name])}")
    assert found == []


def _strings(node) -> str:
    """The string constants under ``node``, an f-string's literal parts included."""
    return " ".join(n.value for n in ast.walk(node)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str))


def test_only_dynamics_checks_the_divergence_limit_and_only_config_the_rules_across_sections():
    found = []
    for path in sorted((SRC / "dismd").glob("*.py")):
        module = path.stem
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare) and module != "dynamics" and any(
                    getattr(n, "id", getattr(n, "attr", None)) == "_STATE_LIMIT"
                    for n in ast.walk(node)):
                found.append(f"{path.name}:{node.lineno} compares with _STATE_LIMIT")
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ConfigError"
                    and module != "config"):
                text = _strings(node)
                for rule, word in (("barbell size", "cluster"), ("map-domain pairing", "entropy")):
                    if word in text:
                        found.append(f"{path.name}:{node.lineno} raises the {rule} rule")
    assert found == []
