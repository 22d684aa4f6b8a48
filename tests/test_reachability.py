import ast
import pathlib
import re

import torusgibbs as tg

SRC = pathlib.Path(tg.__file__).parent
REPO = SRC.parent.parent

# public names kept although no root reaches them, each with its reason
ALLOWED = {
    "read_ensemble": "the reader the archive round-trip tests check write_ensemble against",
    "from_modes": "FourierField's builder from a {mode: coefficient} map, with which the "
                  "tests write their fields",
}


def _referenced(node, strings=False) -> set:
    """Identifiers a node loads (names and attributes, not import aliases);
    with strings, also the dotted parts of its string constants."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(sub.value.split("."))
    return out


def test_every_public_name_is_reached():
    # roots: the CLI and the runners, the acceptance criteria, perfbench (whose
    # tracer names its targets as strings) and every module-level statement;
    # a public method of a class is a name of its own, reached when some
    # reached body loads an attribute of its name
    defs = {}                          # top-level name or method -> names its body loads
    reached = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name in ("cli.py", "experiments.py"):
            reached |= _referenced(tree)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if isinstance(n, ast.FunctionDef)
                           and not n.name.startswith("_")]
                for method in methods:
                    defs.setdefault(method.name, set()).update(_referenced(method))
                rest = [n for n in node.body if n not in methods]
                defs.setdefault(node.name, set()).update(
                    *map(_referenced, rest + node.decorator_list + node.bases))
            elif isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, set()).update(_referenced(node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= _referenced(node)
    for path in [REPO / "tests" / "test_acceptance.py", REPO / "tests" / "conftest.py"]:
        reached |= _referenced(ast.parse(path.read_text()))
    for path in sorted((REPO / "perfbench").glob("*.py")):
        reached |= _referenced(ast.parse(path.read_text()), strings=True)
    todo = list(reached)
    while todo:
        for name in defs.get(todo.pop(), ()):
            if name not in reached:
                reached.add(name)
                todo.append(name)
    orphans = sorted(n for n in defs if not n.startswith("_") and n not in reached
                     and n not in ALLOWED)
    assert not orphans, f"public names no root reaches: {orphans}"


MODEL_CLASSES = {"NLS", "KdV", "GrossPitaevskii", "GrossPitaevskiiProjected", "Zakharov",
                 "ZakharovState"}


def test_generic_modules_do_not_ask_which_model_they_hold():
    # every module of the package is generic: per-model behaviour lives on
    # the model and state classes
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                hit = _referenced(node.args[1]) & MODEL_CLASSES
                if hit:
                    found.append(f"{path.name}:{node.lineno} {sorted(hit)}")
    assert not found, f"isinstance against a model or state class: {found}"


def test_the_package_depends_on_numpy_alone():
    # scipy serves the tests as an oracle (the test extra), never the package
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports += [f"{path.name}:{node.lineno} {n}" for n in names
                        if n.split(".")[0] == "scipy"]
    assert not imports, f"scipy imported by the package: {imports}"
    import tomllib                     # Python 3.11+
    with open(REPO / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [re.split(r"[<>=!~ ;\[]", d)[0] for d in project["dependencies"]] == ["numpy"]
    # spectral.fft_synthesize passes out= to numpy.fft, which numpy accepts from 2.0
    floor = re.fullmatch(r"numpy>=(\d+)\.(\d+)(?:\.\d+)?", project["dependencies"][0])
    assert floor and (int(floor[1]), int(floor[2])) >= (2, 0), project["dependencies"]
