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
attribute (`x.name`; a bare variable `name` does not count); a
module-level assignment is reached with its target name, read either
way.  Names are matched across modules and objects, so a method whose name
is read as an attribute of some other object still passes.  The test
reads `bench/` and does not change it.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "agealgebra")
BENCH = os.path.join(ROOT, "bench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def mentioned(nodes):
    """The names read anywhere under the nodes: `x` as "x", `a.x` as ".x"."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add("." + sub.attr)
    return out


def reaches(name, owner, names):
    """A method is reached by an attribute read, anything else by either."""
    return "." + name in names or (not owner and name in names)


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


def unreached():
    """Qualified names of the library definitions the walk does not reach."""
    spans = parse(os.path.join(BENCH, "spans.py"))
    workloads = parse(os.path.join(BENCH, "workloads.py"))
    names = {"main"} | layer_functions(spans) | mentioned([spans, workloads])
    # (qualified name, name to match, nodes it reaches, owning class or None,
    # whether the test reports it when unreached)
    defs = []
    roots = []
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        module = fname[:-3]
        for stmt in parse(os.path.join(SRC, fname)).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ClassDef):
                cls = f"{module}.{stmt.name}"
                own = list(stmt.decorator_list) + list(stmt.bases) + list(stmt.keywords)
                for item in stmt.body:
                    if isinstance(item, DEFS) and not is_dunder(item.name):
                        defs.append((f"{cls}.{item.name}", item.name, [item], cls, True))
                    else:
                        own.append(item)
                defs.append((cls, stmt.name, own, None, True))
            elif isinstance(stmt, DEFS):
                defs.append((f"{module}.{stmt.name}", stmt.name, [stmt], None, True))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for name in {n.lstrip(".") for n in mentioned([target])}:
                        defs.append((f"{module}.{name}", name, [stmt], None, False))
            else:
                roots.append(stmt)
    names |= mentioned(roots)
    reached = set()
    grew = True
    while grew:
        grew = False
        for qual, name, nodes, owner, _ in defs:
            if qual in reached or not reaches(name, owner, names) or (owner and owner not in reached):
                continue
            reached.add(qual)
            names |= mentioned(nodes)
            grew = True
    return sorted(qual for qual, _, _, _, report in defs if report and qual not in reached)


def test_every_library_definition_is_reached_from_the_cli_or_the_benchmark():
    assert unreached() == []


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
