"""Package layout: src/ holds only what the pipeline runs.

A definition (module-level function or class, or a method) counts as used
when module-level code or another used definition in the package refers to
its name: a function or class as a bare name or as an attribute, a method
as an attribute only, so a local variable of the same name does not reach
it.  The package `__init__` and docstrings do not count, and the pass
repeats until nothing more drops out.  There is no exception: the graph's
slow oracles live in the tests.

A defaulted parameter counts as set when some call in src/ or tests/ to a
definition of that name (a constructor by its class name) passes it, by
keyword or by position.  One that nothing sets has one value in use and
belongs in a module constant.

An exception class in `errors` exists only where some `except` clause in
src/ names it: a type no handler tells apart says nothing its message does
not.
"""

import ast
from pathlib import Path

import chaincontrol


def _definitions(tree):
    """(qualified name, name, node) for module functions, classes, methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name, item


def _referenced(nodes):
    """Names the nodes refer to: bare names as is, attributes as ".name"."""
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add("." + node.attr)
    return names


def unused_definitions(package_dir):
    defs = []  # (module, qualified name, name, node, own references)
    roots = set()
    for path in sorted(Path(package_dir).glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        module_code = [n for n in tree.body
                       if not isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        roots |= _referenced(module_code)
        for qual, name, node in _definitions(tree):
            if isinstance(node, ast.ClassDef):
                # a class refers to what its body outside the methods names
                own = [n for n in node.body if not isinstance(n, ast.FunctionDef)]
                own += node.decorator_list + node.bases
            else:
                own = [node]
            defs.append((path.stem, qual, name, node, _referenced(own)))

    live = {(mod, qual) for mod, qual, *_ in defs}
    while True:
        dropped = set()
        for mod, qual, name, _, _ in defs:
            keys = {"." + name} if "." in qual else {name, "." + name}
            if (mod, qual) not in live or name.startswith("__") \
                    or keys & roots:
                continue
            if not any(keys & refs for m, q, _, _, refs in defs
                       if (m, q) in live and (m, q) != (mod, qual)):
                dropped.add((mod, qual))
        if not dropped:
            break
        live -= dropped
    return sorted(f"{mod}.{qual}" for mod, qual, *_ in defs
                  if (mod, qual) not in live)


def test_every_definition_is_reached_from_the_pipeline():
    unused = unused_definitions(Path(chaincontrol.__file__).parent)
    assert unused == [], "definitions nothing in src/ reaches: " + ", ".join(unused)


def unset_parameters(package_dir, test_dir):
    """'module.definition(parameter=default)' for each defaulted parameter no
    call in the package or the tests passes."""
    calls = {}  # called name -> [(positional count, keyword names)]
    for path in [*Path(package_dir).glob("*.py"), *Path(test_dir).glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append((
                    float("inf") if starred else len(node.args),
                    {k.arg for k in node.keywords}))  # None stands for **kwargs
    unset = []
    for path in sorted(Path(package_dir).glob("*.py")):
        for qual, name, node in _definitions(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                continue
            if name == "__init__":
                name = qual.split(".")[0]
            args = node.args.posonlyargs + node.args.args
            shift = 1 if "." in qual else 0  # a method's call omits self or cls
            defaulted = [(arg, args.index(arg) - shift, default) for arg, default
                         in zip(args[len(args) - len(node.args.defaults):],
                                node.args.defaults)]
            defaulted += [(arg, None, default) for arg, default
                          in zip(node.args.kwonlyargs, node.args.kw_defaults)
                          if default is not None]
            for arg, position, default in defaulted:
                if not any(arg.arg in keywords or None in keywords
                           or (position is not None and n_positional > position)
                           for n_positional, keywords in calls.get(name, [])):
                    unset.append(
                        f"{path.stem}.{qual}({arg.arg}={ast.unparse(default)})")
    return unset


def test_every_defaulted_parameter_is_set_somewhere():
    package = Path(chaincontrol.__file__).parent
    unset = unset_parameters(package, Path(__file__).parent)
    assert unset == [], "parameters no call sets: " + ", ".join(unset)


def unhandled_exceptions(package_dir):
    """Classes of the errors module that no except clause in the package names."""
    package = Path(package_dir)
    handled = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        handled |= _referenced(node.type for node in ast.walk(tree)
                               if isinstance(node, ast.ExceptHandler) and node.type)
    return sorted(name for _, name, node in
                  _definitions(ast.parse((package / "errors.py").read_text()))
                  if isinstance(node, ast.ClassDef)
                  and not {name, "." + name} & handled)


def test_every_exception_type_is_told_apart_by_a_handler():
    unhandled = unhandled_exceptions(Path(chaincontrol.__file__).parent)
    assert unhandled == [], "exception types no except clause names: " + ", ".join(unhandled)
