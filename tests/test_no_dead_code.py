"""Every top-level definition of the package has a user in it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "procamsim"

# The writers of the rig and scene files. The package only reads those
# files, but users write them with these.
ALLOWED = {"save_rig", "save_scene"}


def _loaded_names(tree):
    """The names and attribute names that a module reads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_definition_is_loaded_somewhere_in_the_package():
    defined = {}
    loaded = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.name
        loaded |= _loaded_names(tree)
    assert defined, f"no modules found under {SRC}"
    unused = sorted(
        f"{module}:{name}" for name, module in defined.items()
        if name not in loaded and name not in ALLOWED
    )
    assert unused == []


def _private_names(tree):
    """Private names bound by a module's top-level functions, classes and assignments.

    A private name starts with one ``_``; dunders such as ``__all__`` are not private.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n[1:].startswith("_"))


def test_every_private_name_is_loaded_somewhere_in_the_package():
    """A module-level ``_name`` that nothing in the package reads is left
    over from code that is gone; tests are not readers."""
    defined = []
    loaded = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(path.name, name) for name in _private_names(tree)]
        loaded |= _loaded_names(tree)
    assert defined, f"no private names found under {SRC}"
    unused = sorted(f"{module}:{name}" for module, name in defined if name not in loaded)
    assert unused == [], "never loaded: " + ", ".join(unused)


def test_every_top_level_import_is_loaded_in_its_module():
    """A name a module imports but never reads is left over from code that is gone."""
    imported = []
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.append(name)
                    if name not in loaded:
                        unused.append(f"{path.name}:{name}")
    assert imported, f"no imports found under {SRC}"
    assert unused == [], "imported but never loaded: " + ", ".join(unused)


PERFBENCH = SRC.parents[1] / "perfbench"


def _defaulted_parameters(tree):
    """(callee name, parameter, position, function) per defaulted parameter.

    A class's ``__init__`` is called by the class name. The position counts
    the arguments of a call, so a method's ``self`` is skipped; it is None
    for a keyword-only parameter.
    """
    found = []

    def visit(body, class_name):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
                )
                is_method = class_name is not None and not static
                name = class_name if node.name == "__init__" else node.name
                a = node.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    found.append((name, arg.arg, i - is_method, node.name))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        found.append((name, arg.arg, None, node.name))
                visit(node.body, None)

    visit(tree.body, None)
    return found


def _passed_arguments(tree):
    """Callee name -> [(keyword names, positional count, passes any)] per call.

    A call through an attribute (``obj.method(...)``) is matched by the
    attribute's name; ``*args`` or ``**kwargs`` may pass any parameter.
    """
    calls = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        calls.setdefault(name, []).append((keywords, len(node.args), starred or None in keywords))
    return calls


def _defaults_and_calls():
    """The package's defaulted parameters, and the package's and the benchmark's calls."""
    defaulted = []
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defaulted += [(path.name, *entry) for entry in _defaulted_parameters(tree)]
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        if path.name.startswith("test_"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, entries in _passed_arguments(tree).items():
            calls.setdefault(name, []).extend(entries)
    assert defaulted, f"no defaulted parameters found under {SRC}"
    return defaulted, calls


def test_every_defaulted_parameter_is_passed_by_some_package_caller():
    """A default that no caller in the package or the benchmark overrides is
    a constant, not an option; tests are not callers."""
    defaulted, calls = _defaults_and_calls()
    unpassed = sorted(
        f"{module}:{func}({param})"
        for module, name, param, position, func in defaulted
        if not any(
            param in keywords or open_ended or (position is not None and position < count)
            for keywords, count, open_ended in calls.get(name, [])
        )
    )
    assert unpassed == [], "never passed: " + ", ".join(unpassed)


def test_every_defaulted_parameter_is_left_out_by_some_package_caller():
    """A default that every caller in the package or the benchmark overrides
    is never used, and the parameter is required in all but name; tests are
    not callers. A call with ``*args`` or ``**kwargs`` may leave it out."""
    defaulted, calls = _defaults_and_calls()
    always = sorted(
        f"{module}:{func}({param})"
        for module, name, param, position, func in defaulted
        if calls.get(name) and all(
            param in keywords or (position is not None and position < count)
            for keywords, count, open_ended in calls[name]
        )
    )
    assert always == [], "always passed: " + ", ".join(always)


def _fields(tree):
    """(class, field) per annotated class attribute or ``self.<name> = ...`` in ``__init__``."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                found.append((cls.name, node.target.id))
            elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    ):
                        found.append((cls.name, sub.attr))
    return found


def _read_names(tree):
    """Attribute loads and literal ``getattr`` names outside ``__init__`` and ``__post_init__``."""
    names = set()

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name in ("__init__", "__post_init__"):
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            names.add(node.args[1].value)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return names


def test_every_field_is_read_outside_its_constructor():
    """A field that only its constructor reads holds nothing anyone uses;
    tests are not readers."""
    fields = []
    read = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        fields += [(path.name, *entry) for entry in _fields(tree)]
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        if not path.name.startswith("test_"):
            read |= _read_names(ast.parse(path.read_text(), filename=str(path)))
    assert fields, f"no fields found under {SRC}"
    unread = sorted(f"{module}:{cls}.{name}" for module, cls, name in fields if name not in read)
    assert unread == [], "never read: " + ", ".join(unread)


def _methods(tree):
    """(class, name) per method or property of each class; dunders are called by Python."""
    return [
        (cls.name, node.name)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("__")
    ]


def test_every_method_is_read_by_the_package_or_the_benchmark():
    """A method or property that no package or benchmark file reads as an
    attribute serves only tests; tests are not readers."""
    methods = []
    read = set()
    for path in sorted(SRC.glob("*.py")):
        methods += [(path.name, *entry) for entry in _methods(ast.parse(path.read_text()))]
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        if not path.name.startswith("test_"):
            tree = ast.parse(path.read_text(), filename=str(path))
            read |= {
                node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            }
    assert methods, f"no methods found under {SRC}"
    unread = sorted(f"{module}:{cls}.{name}" for module, cls, name in methods if name not in read)
    assert unread == [], "never read: " + ", ".join(unread)


def _dotted(node):
    """``a.b.c`` for an attribute chain on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def test_every_generator_is_seeded():
    """Every ``np.random`` call builds a generator from an explicit seed:
    ``default_rng(<seed>)``. numpy's legacy global state (``np.random.seed``,
    ``np.random.normal``, ...) or an unseeded generator would make artifacts
    depend on what ran before or on the clock."""
    calls = 0
    bad = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = []
            bad += [f"{path.name}:{node.lineno} imports {m}" for m in modules
                    if m.startswith("numpy.random")]
            name = _dotted(node.func) if isinstance(node, ast.Call) else None
            if name is None or not name.startswith(("np.random.", "numpy.random.")):
                continue
            calls += 1
            seeds = node.args + [k.value for k in node.keywords]
            if not (
                name.endswith(".default_rng") and len(seeds) == 1
                and not (isinstance(seeds[0], ast.Constant) and seeds[0].value is None)
            ):
                bad.append(f"{path.name}:{node.lineno} calls {name}")
    assert calls, f"no np.random calls found under {SRC}"
    assert bad == [], "unseeded or global-state randomness: " + ", ".join(bad)
