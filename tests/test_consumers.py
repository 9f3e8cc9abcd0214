"""Every public function, class and method in the package has a consumer outside tests/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dqdcap"

# public names with no consumer in src/ or bench/, each kept for the reason given
ALLOWED = {
    "build_reference_device": "the reference device's documented entry point (README)",
    "dumps_device": "loads_device's inverse; their round trip is tested",
    "set_transfer_points": "rejects caps with no i1 island, which the bare routine cannot read",
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
