"""Every function, class and named method of the library has a caller
outside the tests.

The check walks name references in the source, with no import and no
type inference.  It starts from `main` (the `agealg` entry point), from
the module-level statements of every library module other than imports,
definitions and assignments, and from what the benchmark binds: every
name and attribute that `bench/spans.py` and `bench/workloads.py` mention
and the function names in `bench/spans.py`'s `LAYERS`.  A reached
function reaches every name and attribute in its body; a reached class
reaches its decorators, bases, class-level statements and dunder methods,
and a named method or property of it once that name is read as an
attribute (a bare variable `name` does not count); a module-level
assignment is reached with its target name, read either way.

An attribute read is resolved to a class where the source says which:
`self.name` or `cls.name` inside class C, and `C.name` for a library class
C, reach only C's member.  Any other read `x.name` reaches the methods of
that name in every class when it is called, `x.name(...)`; uncalled, it
reaches them only when no object holds `name` as data (a slot, a
class-level annotation such as a dataclass field, an attribute assigned
as `x.name = ...`, or an argparse option's destination), since the read
is then taken to be of that data.  So a dead property named like an
argparse field or a slot is reported.  The test reads `bench/` and does
not change it.
"""

import ast
import os
import shutil

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "agealgebra")
BENCH = os.path.join(ROOT, "bench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def mentioned(nodes, classes, owner=None):
    """The names read anywhere under the nodes: `x` as "x"; an attribute
    resolved to class C as "C.x"; any other `a.x` as ".x", and also as
    "x()" when it is called.  `owner` is the class the nodes sit in."""
    out = set()

    def key(node, owner):
        base = node.value
        if isinstance(base, ast.Name):
            if base.id in ("self", "cls") and owner:
                return f"{owner}.{node.attr}"
            if base.id in classes:
                return f"{base.id}.{node.attr}"
        return "." + node.attr

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(key(node, owner))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if key(node.func, owner).startswith("."):
                out.add(node.func.attr + "()")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for node in nodes:
        visit(node, owner)
    return out


def data_attributes(trees):
    """Names some object holds as data: slots, class-level annotations,
    attributes assigned through `x.name = ...`, argparse destinations."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        out.add(item.target.id)
                    elif isinstance(item, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
                    ):
                        out |= {e.value for e in item.value.elts}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                out.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
                out |= {kw.value.value for kw in node.keywords if kw.arg == "dest"}
                out |= {
                    a.value[2:].replace("-", "_")
                    for a in node.args
                    if isinstance(a, ast.Constant) and str(a.value).startswith("--")
                }
    return out


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def layer_functions(spans):
    """The function names listed in `LAYERS`."""
    for stmt in spans.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in stmt.targets
        ):
            return {row.elts[1].value for row in stmt.value.elts}
    raise AssertionError("bench/spans.py has no LAYERS")


def unreached(src=SRC):
    """Qualified names of the library definitions the walk does not reach."""
    spans = parse(os.path.join(BENCH, "spans.py"))
    workloads = parse(os.path.join(BENCH, "workloads.py"))
    modules = {
        fname[:-3]: parse(os.path.join(src, fname))
        for fname in sorted(os.listdir(src))
        if fname.endswith(".py")
    }
    classes = {
        stmt.name
        for tree in modules.values()
        for stmt in tree.body
        if isinstance(stmt, ast.ClassDef)
    }
    data = data_attributes([spans, workloads, *modules.values()])
    names = {"main"} | layer_functions(spans) | mentioned([spans, workloads], classes)
    # (qualified name, name to match, nodes it reaches, owning class or None,
    # whether the test reports it when unreached)
    defs = []
    roots = []
    for module, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ClassDef):
                own = list(stmt.decorator_list) + list(stmt.bases) + list(stmt.keywords)
                for item in stmt.body:
                    if isinstance(item, DEFS) and not is_dunder(item.name):
                        qual = f"{module}.{stmt.name}.{item.name}"
                        defs.append((qual, item.name, [item], stmt.name, True))
                    else:
                        own.append(item)
                defs.append((f"{module}.{stmt.name}", stmt.name, own, None, True))
            elif isinstance(stmt, DEFS):
                defs.append((f"{module}.{stmt.name}", stmt.name, [stmt], None, True))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for name in {n.lstrip(".") for n in mentioned([target], classes)}:
                        defs.append((f"{module}.{name}", name, [stmt], None, False))
            else:
                roots.append(stmt)
    names |= mentioned(roots, classes)

    def reaches(name, owner):
        if not owner:
            return name in names or "." + name in names
        return (
            f"{owner}.{name}" in names
            or name + "()" in names
            or ("." + name in names and name not in data)
        )

    reached = set()
    grew = True
    while grew:
        grew = False
        for qual, name, nodes, owner, _ in defs:
            if qual in reached or not reaches(name, owner):
                continue
            if owner and qual.rsplit(".", 1)[0] not in reached:
                continue
            reached.add(qual)
            names |= mentioned(nodes, classes, owner)
            grew = True
    return sorted(qual for qual, _, _, _, report in defs if report and qual not in reached)


def test_every_library_definition_is_reached_from_the_cli_or_the_benchmark():
    assert unreached() == []


def test_a_dead_property_named_like_an_argparse_field_is_reported(tmp_path):
    """`args.m` reads the argparse field, not `WitnessPair.m`."""
    src = tmp_path / "agealgebra"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "witnesses.py"
    text = path.read_text(encoding="utf-8")
    field = "    g: SetFunction\n"
    assert text.count(field) == 1
    dead = "\n    @property\n    def m(self) -> int:\n        return self.f.degree\n"
    path.write_text(text.replace(field, field + dead), encoding="utf-8")
    assert unreached(str(src)) == ["witnesses.WitnessPair.m"]


def test_no_library_module_imports_fractions():
    """Set functions hold integers, so the library needs no `Fraction`."""
    found = []
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        for node in ast.walk(parse(os.path.join(SRC, fname))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [fname for m in modules if m.split(".")[0] == "fractions"]
    assert found == []
