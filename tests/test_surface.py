"""Public surface: every top-level public function and class of the
package, and every public method and property of its classes, has a
caller in the package or the benchmark, so that no API is kept alive by
its tests alone, every field of its records is read, no package module
imports another's private names, only the checks build on the free-field
oracles, the free-field references in the tests share no kernel
internals, denominators are cleared by one helper, the free-field sums
call no pole product per structure or pattern, the twist recursion
runs only on the unit points, floats enter the exact layers only where a
q-series is evaluated, one helper decides when a float q-expansion sum
stops, and every exception class of the package is raised in it."""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gcipw"


def _names(node: ast.AST) -> set:
    """Every identifier that a load, store or attribute access names in node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_public_names():
    defined = {}  # "file: name" or "file: Class.member" -> the name a caller uses
    used = set()
    for path in [*PACKAGE.rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        ours = PACKAGE in path.parents
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, DEFINITIONS):
                used |= _names(node)
                continue
            if ours and not node.name.startswith("_"):
                defined[f"{path.relative_to(ROOT)}: {node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                parts = [*node.bases, *node.keywords, *node.decorator_list, *node.body]
            else:
                parts = [node]
            for part in parts:
                names = _names(part)
                if isinstance(part, DEFINITIONS):
                    # a recursive call does not count, nor a method naming its class
                    names.discard(part.name)
                    if part is not node and ours and not part.name.startswith("_"):
                        defined[f"{path.relative_to(ROOT)}: {node.name}.{part.name}"] = part.name
                names.discard(node.name)
                used |= names
    return sorted(label for label, name in defined.items() if name not in used)


def test_every_public_name_has_a_caller():
    assert unused_public_names() == []


def private_imports():
    """`from <package module> import _name` lines inside the package."""
    out = []
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("gcipw"):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    out.append(f"{path.relative_to(ROOT)}:{node.lineno}: {alias.name}")
    return sorted(out)


def test_no_private_import_between_modules():
    assert private_imports() == []


def imported_modules(path: Path) -> set:
    """The absolute names a package file imports: each module, and each
    module followed by a name it takes from it."""
    package = ["gcipw", *path.parent.relative_to(PACKAGE).parts]
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) + 1 - node.level] if node.level else []
            module = ".".join(filter(None, [*base, node.module]))
            out |= {module, *(f"{module}.{alias.name}" for alias in node.names)}
    return out


def test_only_verify_imports_freefield():
    # the free-field correlators are oracles for the checks, not a layer to build on
    importers = sorted(str(path.relative_to(ROOT)) for path in PACKAGE.rglob("*.py")
                       if "gcipw.freefield" in imported_modules(path))
    assert importers == ["src/gcipw/verify.py"]


def packed_key_readers():
    """Modules other than exact/mpoly.py that name MPoly's packed storage."""
    own = PACKAGE / "exact" / "mpoly.py"
    paths = [*PACKAGE.rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    return sorted(str(path.relative_to(ROOT)) for path in paths
                  if path != own and "_packed" in _names(ast.parse(path.read_text())))


def test_packed_keys_stay_inside_mpoly():
    assert packed_key_readers() == []


def denominator_clearers():
    """`math.lcm` calls that read a `.denominator`, outside the package's
    one helper for them, `exact.series.common_denominator`."""
    out = []
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text())
        helpers = [node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "common_denominator"]
        inside = {id(sub) for node in helpers for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "lcm" and "denominator" in _names(node)
                    and id(node) not in inside):
                out.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return sorted(out)


def test_denominators_are_cleared_in_one_place():
    assert denominator_clearers() == []


# the one place the exact layers meet floats: evaluating a q-series at tau
FLOAT_SITES = {"eval", "tail_bound", "_edge", "_tail", "_half_nome"}


def float_uses():
    """Float or complex literals, `float(`/`complex(` calls and `cmath` in
    src/gcipw/exact/, outside QSeries.eval, tail_bound, _edge and _tail and
    the function _half_nome of exact/qseries.py (`import cmath` included)."""
    out = []
    for path in (PACKAGE / "exact").rglob("*.py"):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "qseries.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name in FLOAT_SITES:
                    allowed |= {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if (
                (isinstance(node, ast.Constant) and type(node.value) in (float, complex))
                or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("float", "complex"))
                or (isinstance(node, ast.Name) and node.id == "cmath")
                or (isinstance(node, ast.Import) and path.name != "qseries.py"
                    and any(alias.name == "cmath" for alias in node.names))
                or (isinstance(node, ast.ImportFrom) and node.module == "cmath")
            ):
                out.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return sorted(out)


def test_floats_stay_in_the_qseries_evaluation():
    assert float_uses() == []


LOOPS = (ast.For, ast.While)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def pole_calls_in_loops():
    """`.pole(` calls in freefield.py and symmetrize.py that run once per
    iteration of a loop or comprehension (the first iterable of a
    comprehension runs once, so it is outside).  Per-structure and
    per-pattern products read the configuration's flat table instead."""
    out = []
    for name in ("freefield.py", "symmetrize.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        looped = set()
        for node in ast.walk(tree):
            if isinstance(node, LOOPS):
                parts = [*node.body, *([node.test] if isinstance(node, ast.While) else [])]
                looped |= {id(sub) for part in parts for sub in ast.walk(part)}
            elif isinstance(node, COMPREHENSIONS):
                once = {id(sub) for sub in ast.walk(node.generators[0].iter)}
                looped |= {id(sub) for sub in ast.walk(node)} - once
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pole" and id(node) in looped):
                out.append(f"{name}:{node.lineno}")
    return sorted(out)


def test_no_pole_product_per_structure():
    assert pole_calls_in_loops() == []


# the twist recursion runs on the unit points only; every other tower is
# their integer combination
UNIT_ONLY = ("lhs_series", "_twist_recursion")


def mention_owners(names):
    """For each of names, the innermost function or class of the package
    and the benchmark around each mention of it, once per mention
    ("<module>" outside any; its own definition does not mention it)."""
    out = {name: [] for name in names}

    def visit(node, owner, label):
        for child in ast.iter_child_nodes(node):
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name in out:
                out[name].append(f"{label}: {owner}")
            visit(child, child.name if isinstance(child, DEFINITIONS) else owner, label)

    for path in [*PACKAGE.rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        visit(ast.parse(path.read_text()), "<module>", path.relative_to(ROOT))
    return out


def test_the_recursion_runs_only_in_the_unit_builder():
    want = ["src/gcipw/partialwave.py: _unit_tower"]
    assert mention_owners(UNIT_ONLY) == {name: want for name in UNIT_ONLY}


def test_one_helper_decides_when_a_float_sum_stops():
    # the quarter-ulp rule lives in `settled` alone, and every float
    # q-expansion loop asks it
    owners = mention_owners(("ulp", "settled"))
    assert set(owners["ulp"]) == {"src/gcipw/exact/qseries.py: settled"}
    assert sorted(owners["settled"]) == [
        "src/gcipw/exact/qseries.py: eval",
        "src/gcipw/thermal.py: _p1_sums",
        "src/gcipw/thermal.py: gibbs_scalar_modes",
    ]


def private_freefield_imports():
    """`from gcipw.freefield import _name` lines under tests/."""
    out = []
    for path in (ROOT / "tests").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "gcipw.freefield":
                out += [f"{path.relative_to(ROOT)}:{node.lineno}: {alias.name}"
                        for alias in node.names if alias.name.startswith("_")]
    return sorted(out)


def test_tests_import_no_freefield_internals():
    # the walk and trace references must not reuse the kernels they check
    assert private_freefield_imports() == []


def _is_record(node: ast.ClassDef) -> bool:
    """A `@dataclass` (with or without arguments) or a `NamedTuple`."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
        isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases
    )


def unread_fields():
    """Annotated fields of the package's module-level records that no
    attribute read in the package or the benchmark names."""
    fields = {}  # "file: Class.field" -> field
    read = set()
    for path in [*PACKAGE.rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        tree = ast.parse(path.read_text())
        read |= {sub.attr for sub in ast.walk(tree)
                 if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
        if PACKAGE not in path.parents:
            continue
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_record(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        name = item.target.id
                        fields[f"{path.relative_to(ROOT)}: {node.name}.{name}"] = name
    return sorted(label for label, name in fields.items() if name not in read)


def test_every_record_field_is_read():
    assert unread_fields() == []


def unraised_exceptions():
    """Exception classes defined in the package that no `raise` in the
    package names, so that a deleted raise cannot leave its class behind."""
    classes, raised = [], set()  # (label, name, the names of its bases)
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = set().union(*map(_names, node.bases))
                classes.append((f"{path.relative_to(ROOT)}: {node.name}", node.name, bases))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                raised |= _names(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
    errors = {name for name, value in vars(builtins).items()
              if isinstance(value, type) and issubclass(value, BaseException)}
    for _ in classes:  # a subclass of a package exception is one too
        errors |= {name for _, name, bases in classes if bases & errors}
    return sorted(label for label, name, _ in classes if name in errors and name not in raised)


def test_every_exception_class_is_raised():
    assert unraised_exceptions() == []
