"""Every public name of the package has a caller: `cli.main`, or a stated reason.

The sources under `src/karycount` are read with `ast`, not imported.  A
definition is reached from `cli.main` through references that resolve to
it by module: a bare name in its own module, a name imported with
`from .module import name`, or `module.name` on an imported module.  A
method is reached when its class is and `.method` appears in reached code;
`str.encode` in `cli` reaches no module-level `encode`.  Code only the
tests call belongs in the tests' reference, `karyref`.
"""

import ast
from pathlib import Path

import karycount

PACKAGE = Path(karycount.__file__).resolve().parent

#: Public names no command reaches, each with its reason; what they use is reached too.
ALLOWED = {
    "mechanisms.Mechanism": "the online per-bit API, for an in-process caller",
    "mechanisms.Mechanism.feed": "the online per-bit step; tests pin BlockNoise to it",
    "mechanisms.Mechanism.ledger_size": "the online ledger's size; perfbench/layers.py reads it",
    "mechanisms.output_keys": "the online ledger's key walk; perfbench/layers.py wraps it",
    "noise.vertex_uniform": "the public uniform under vertex_laplace's counter-based draw",
}


class Module:
    """One source file: its definitions and what each of its names refers to."""

    def __init__(self, name: str, tree: ast.Module):
        self.name = name
        self.defs = {}  # qualified name -> def or class node
        self.values = {}  # module-level variable -> its assignment
        self.imports = {}  # local name -> (module, name)
        self.modules = {}  # local name -> module
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            self.defs[f"{node.name}.{item.name}"] = item
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.values[target.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        self.modules[alias.asname or alias.name] = alias.name
                    else:
                        self.imports[alias.asname or alias.name] = (node.module, alias.name)


def load() -> dict[str, Module]:
    return {
        path.stem: Module(path.stem, ast.parse(path.read_text(), str(path)))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


def references(node):
    """(names, (name, attribute) pairs, attributes) that the code under `node` loads.

    `node` is a node or a list of them.

    Annotations are skipped: under `from __future__ import annotations`
    they are strings at run time.
    """
    names, module_attrs, attrs = set(), set(), set()
    stack = node if isinstance(node, list) else [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            if isinstance(n.value, ast.Name):
                module_attrs.add((n.value.id, n.attr))
            attrs.add(n.attr)
        for field, child in ast.iter_fields(n):
            if field in ("annotation", "returns"):
                continue
            children = child if isinstance(child, list) else [child]
            stack.extend(c for c in children if isinstance(c, ast.AST))
    return names, module_attrs, attrs


def reached(modules: dict[str, Module], roots) -> set[str]:
    """"module.qualname" of every definition reached from `roots`."""
    seen, attrs, classes, todo = set(), set(), [], list(roots)
    while todo:
        mod, name = todo.pop()
        key = f"{mod}.{name}"
        module = modules.get(mod)
        if module is None or key in seen:
            continue
        if name in module.imports:
            todo.append(module.imports[name])
            continue
        node = module.defs.get(name) or module.values.get(name)
        if node is None:
            continue
        seen.add(key)
        if isinstance(node, ast.ClassDef):
            classes.append((mod, name))
            todo += [(mod, f"{name}.{m}") for m in methods(module, name)
                     if m.startswith("__") or m in attrs]
            # the class body but its methods: the decorators, bases and fields
            node = [*node.decorator_list, *node.bases,
                    *(n for n in node.body if not isinstance(n, ast.FunctionDef))]
        names, module_attrs, used = references(node)
        todo += [(mod, n) for n in names]
        todo += [(module.modules[m], a) for m, a in module_attrs if m in module.modules]
        # a newly used attribute reaches that method of every class reached so far
        used -= attrs
        attrs |= used
        todo += [(m, f"{c}.{a}") for m, c in classes for a in methods(modules[m], c) if a in used]
    return seen


def methods(module: Module, cls: str) -> list[str]:
    prefix = f"{cls}."
    return [q[len(prefix):] for q in module.defs if q.startswith(prefix)]


def public(modules: dict[str, Module]) -> set[str]:
    return {
        f"{mod}.{q}"
        for mod, module in modules.items()
        for q in module.defs
        if not any(part.startswith("_") for part in q.split("."))
    }


def test_every_public_name_is_reached_from_main_or_allowed():
    modules = load()
    from_main = reached(modules, [("cli", "main")])
    with_allowed = reached(modules, [("cli", "main"), *(tuple(a.split(".", 1)) for a in ALLOWED)])
    unreached = sorted(public(modules) - with_allowed)
    assert unreached == [], f"public names that no command and no allowed caller reaches: {unreached}"
    # an entry that main reaches, or that is gone, has lost its reason
    stale = sorted(name for name in ALLOWED if name in from_main or name not in with_allowed)
    assert stale == [], f"allowlist entries that need no reason: {stale}"


def test_a_string_method_reaches_no_module_function():
    # `value.encode()` in cli is `str.encode`; a module-level `encode`
    # elsewhere stays unreached, while `digits.encode(...)` would reach it
    sources = {
        "cli": "from . import digits\ndef main():\n    return 'x'.encode()\n",
        "digits": "def encode(t):\n    return t\nclass Codec:\n    def decode(self):\n        pass\n",
    }
    modules = {name: Module(name, ast.parse(text)) for name, text in sources.items()}
    assert reached(modules, [("cli", "main")]) == {"cli.main"}
    sources["cli"] = "from . import digits\ndef main():\n    return digits.encode(1)\n"
    modules = {name: Module(name, ast.parse(text)) for name, text in sources.items()}
    assert reached(modules, [("cli", "main")]) == {"cli.main", "digits.encode"}
    sources["cli"] = "from .digits import Codec\ndef main():\n    return Codec().decode()\n"
    modules = {name: Module(name, ast.parse(text)) for name, text in sources.items()}
    assert reached(modules, [("cli", "main")]) == {
        "cli.main", "digits.Codec", "digits.Codec.decode"}
