"""Every public module-level function and class of the package, and every
public method and property of its public classes, has a caller, and no
module of the package keeps mutable state at module level.

The scan parses src/actris and perfbench with ast. A reference to a
module-level definition is a Name node (other than the name of an imported
module) or an Attribute node on an imported module, as in
`circuit.reflection`. A reference to a method or property is any Attribute
node with its name, as in `fits.bounds`. Text inside strings does not
count, nor does a reference inside the definition itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "actris"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

# (module, name): why the definition stays without a caller in the program
ALLOWED = {
    ("circuit", "m_from_resistance"): "acceptance criterion 2 checks the resistance inversion",
    ("harness", "save_design"): "writes the design files that `actris validate` reads",
}


def _module_aliases(tree):
    """Local names bound to package modules by `from . import x` or
    `from actris import x`."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "actris"):
            for alias in node.names:
                if alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
    return aliases


def _references(path):
    """(module, name) pairs a file refers to; module None matches any module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = _module_aliases(tree)
    refs = set()
    for top in tree.body:
        own = getattr(top, "name", None) if path.parent == PACKAGE else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id not in aliases and node.id != own:
                refs.add((None, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                refs.add((aliases[node.value.id], node.attr))
    return refs


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node.name


def test_every_public_definition_has_a_caller():
    refs = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        refs |= _references(path)
    unused = [
        f"{module}.{name}"
        for module, name in _public_definitions()
        if (None, name) not in refs and (module, name) not in refs
        and (module, name) not in ALLOWED
    ]
    assert not unused, f"public definitions without a caller in src/ or perfbench/: {unused}"


def _attribute_references(path):
    """Attribute names a file reads, without a method's references to its
    own name inside its body."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    own |= {id(node) for node in ast.walk(fn)
                            if isinstance(node, ast.Attribute) and node.attr == fn.name}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and id(node) not in own}


def _public_methods():
    for module, cls in _public_definitions():
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == cls:
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        yield module, cls, fn.name


def test_every_public_method_has_a_caller():
    refs = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        refs |= _attribute_references(path)
    unused = [f"{module}.{cls}.{name}" for module, cls, name in _public_methods()
              if name not in refs]
    assert not unused, f"public methods without a caller in src/ or perfbench/: {unused}"


def test_allowlist_names_existing_definitions():
    assert set(ALLOWED) <= set(_public_definitions())


MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def test_no_module_level_mutable_containers():
    # a module-level list, dict or set is per-process state that a call can
    # leave behind for the next one; __all__ is the export list
    bound = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            names = [ast.unparse(t) for t in targets]
            if isinstance(node.value, MUTABLE_DISPLAYS) and names != ["__all__"]:
                bound += [f"{path.stem}.{name}" for name in names]
    assert not bound, f"module-level mutable containers: {bound}"
