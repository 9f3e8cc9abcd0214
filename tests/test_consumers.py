"""Every public function, class and method in the package has a consumer outside tests/,
every defaulted parameter of a package function a caller outside tests/ that passes it,
every field a package class stores a reader outside tests/, and every name a module of the
package or of tests/ imports a use in that module."""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dqdcap"

# public names with no consumer in src/ or bench/, each kept for the reason given
ALLOWED = {
    "build_reference_device": "the reference device's documented entry point (README)",
    "dumps_device": "loads_device's inverse; their round trip is tested",
    "set_transfer_points": "rejects caps with no i1 island, which the bare routine cannot read",
}

# (function, parameter) of defaulted parameters no caller in src/ or bench/ passes, each
# kept for the reason given
ALLOWED_PARAMETERS = {
    ("random_model_caps", "island"): "only tests draw caps without an island",
    ("brute_force_stable_config", "half"): "only tests start the scan at another width",
    ("pattern_shift_delta_q", "sweep_gate"): "only tests sweep SL or SR: delta q's sweep-gate "
                                             "invariance, acceptance criterion 9",
}


def public_definitions():
    """(module, name) of each public module-level function and class, and each public
    method ("Class.method"), in the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield module, node.name
                if isinstance(node, ast.ClassDef):
                    yield from ((module, f"{node.name}.{item.name}") for item in node.body
                                if isinstance(item, ast.FunctionDef)
                                and not item.name.startswith("_"))


def referenced_identifiers():
    """Every identifier src/ and bench/ use: names, attributes, imported names, and string
    constants that are one bare identifier (bench/spans.py names its targets so).  Package
    __init__ modules only re-export, so they are no consumer."""
    paths = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    seen = set()
    for path in paths + sorted((ROOT / "bench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.alias):
                seen.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                seen.add(node.value)
    return seen


def test_every_public_name_has_a_consumer():
    """A definition is no reference to itself, so a name that only tests/ call is flagged:
    delete it, or give it a consumer.  An allowed name that gains one leaves ALLOWED."""
    seen = referenced_identifiers()
    unused = {(module, name) for module, name in public_definitions()
              if name.rsplit(".", 1)[-1] not in seen}
    assert {name for _, name in unused} == set(ALLOWED), sorted(unused)


def defaulted_parameters():
    """(module, callee name, parameter, positional index or None) of each defaulted
    parameter of a package function or method; a method's index does not count self, and
    __init__ is called by its class's name."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        tree = ast.parse(path.read_text())
        methods = {item: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for item in cls.body if isinstance(item, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            skip = int(node in methods and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list))
            name = methods[node] if node.name == "__init__" else node.name
            first = len(positional) - len(a.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield module, name, arg.arg, i - skip
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield module, name, arg.arg, None


def passed_parameters():
    """{callee name: (most positional arguments, keyword names)} over the calls in src/ and
    bench/.  A starred argument passes every position; **name passes the keys of a
    `name = dict(...)` in the same module, and any other ** passes every keyword (None)."""
    passed = {}
    for path in sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py")):
        tree = ast.parse(path.read_text())
        dicts = {t.id: {kw.arg for kw in node.value.keywords}
                 for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Call)
                 and isinstance(node.value.func, ast.Name) and node.value.func.id == "dict"
                 for t in node.targets if isinstance(t, ast.Name)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            seen = passed.setdefault(
                func.id if isinstance(func, ast.Name) else getattr(func, "attr", None),
                [0, set()])
            starred = any(isinstance(x, ast.Starred) for x in call.args)
            seen[0] = max(seen[0], math.inf if starred else len(call.args))
            for kw in call.keywords:
                if kw.arg is None:
                    seen[1] |= dicts.get(getattr(kw.value, "id", None), {None})
                else:
                    seen[1].add(kw.arg)
    return passed


def test_every_defaulted_parameter_is_passed():
    """A default no caller overrides is a constant: make it one, or give it a caller.  An
    allowed parameter that gains a caller leaves ALLOWED_PARAMETERS."""
    passed = passed_parameters()
    unused = set()
    for module, name, param, index in defaulted_parameters():
        most, names = passed.get(name, (0, set()))
        if not (param in names or None in names or (index is not None and index < most)):
            unused.add((module, name, param))
    assert {(name, param) for _, name, param in unused} == set(ALLOWED_PARAMETERS), \
        sorted(unused)


def stored_fields():
    """(module, class, field) of each dataclass field and each self.<name> store in a
    package class.  A store on another object (a ctypes function's argtypes, an array's
    flags.writeable) sets that object's attribute, not a field of the class."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            if any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                   for d in cls.decorator_list):
                yield from ((module, cls.name, node.target.id) for node in cls.body
                            if isinstance(node, ast.AnnAssign)
                            and isinstance(node.target, ast.Name))
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                        and isinstance(node.value, ast.Name) and node.value.id == "self":
                    yield module, cls.name, node.attr


def test_every_field_is_read():
    """A field that no attribute load in src/ or bench/ reads is dead data that every
    instance carries: delete it, or read it."""
    paths = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    read = {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert sorted({f for f in stored_fields() if f[2] not in read}) == []


def unused_imports(path):
    """(line, name) of each name the module at path imports and never reads.  A dotted
    `import a.b` binds a; `__future__` imports set compiler flags and bind nothing used."""
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    yield alias.lineno, name


def test_every_import_is_used():
    """An unused import is dead weight that hides which modules a file needs: delete it.
    Package __init__ modules import only to re-export, so they are exempt."""
    paths = [p for p in sorted(PACKAGE.rglob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = [(path.relative_to(ROOT).as_posix(), line, name)
              for path in paths for line, name in unused_imports(path)]
    assert unused == []
