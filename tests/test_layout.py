"""The package's layering, read from its source with `ast`.

`verify` holds the ratio sweeps and their bounds and sits below
`structure`, which reads those bounds; `hurwitz` sits below both.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "snhurwitz"


def _internal_imports() -> dict[str, set[str]]:
    """{module: the package modules it imports}, for every module of the
    package; `from . import x` counts as an import of module x."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for name in modules:
        edges = set()
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is not None:
                    edges.add(node.module.split(".")[0])
                else:
                    edges.update(a.name for a in node.names if a.name in modules)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("snhurwitz."):
                edges.add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                edges.update(a.name.split(".")[1] for a in node.names if a.name.startswith("snhurwitz."))
        graph[name] = edges & modules
    return graph


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a path of module names, or None."""
    state: dict[str, int] = {}  # 1 on the current path, 2 finished
    path: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = 1
        path.append(node)
        for nxt in sorted(graph[node]):
            if state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            if nxt not in state and (found := visit(nxt)):
                return found
        path.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if node not in state and (found := visit(node)):
            return found
    return None


def test_graph_is_read_from_the_source():
    graph = _internal_imports()
    # both import forms are read: `from . import x` and `from .x import y`
    assert "verify" in graph and "structure" in graph["cli"] and "hurwitz" in graph["structure"]


def test_internal_imports_have_no_cycle():
    assert _cycle(_internal_imports()) is None


def test_cycle_finder_reports_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set()}) is None


def test_verify_sits_below_structure_and_hurwitz():
    assert not _internal_imports()["verify"] & {"structure", "hurwitz"}


def test_strips_are_read_only_by_column():
    # `_column` is the one constructor of a χ column: no other function
    # calls or reads the strip table, and no `_grow` is left beside it
    tree = ast.parse((PACKAGE / "characters.py").read_text())
    readers = set()
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            readers.update(func.name for node in ast.walk(func)
                           if isinstance(node, ast.Name) and node.id == "_strips")
    assert readers == {"_column"}
    assert "_grow" not in {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_dimensions_are_read_only_from_the_rows_table():
    # `_rows` is the one place λ is paired with dim λ: no other function of
    # characters.py names `_dimension`, and no `_positions` is left beside it
    tree = ast.parse((PACKAGE / "characters.py").read_text())
    readers = set()
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            readers.update(func.name for node in ast.walk(func)
                           if isinstance(node, ast.Name) and node.id == "_dimension")
    assert readers == {"_rows"}
    names = {node.name if isinstance(node, ast.FunctionDef) else node.id
             for path in PACKAGE.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.Name))}
    assert "_positions" not in names


def test_the_table_form_peels_in_one_loop():
    # `mu_splits` is read by one loop per form: the count form's
    # `_tuples_transitive` and the table form's `_peeled`; no convolution
    # helper is left beside the loop
    callers = set()
    for func in ast.walk(ast.parse((PACKAGE / "hurwitz.py").read_text())):
        if isinstance(func, ast.FunctionDef):
            callers.update(func.name for node in ast.walk(func)
                           if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                           and node.func.id == "mu_splits")
    assert callers == {"_tuples_transitive", "_peeled"}
    defined = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert "convolve" not in defined


def test_only_the_tracked_start_walks_s_d():
    # the oracle enumerates classes from their cycle types (`_members`); the
    # tracked h = 1 start is the one place that iterates
    # permutations(range(d)), and neither `_classes` nor `_BF_MAX_DEGREE` is
    # left beside it
    def walks(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "permutations" and node.args
                and ast.unparse(node.args[0]).startswith("range("))

    tree = ast.parse((PACKAGE / "hurwitz.py").read_text())
    calls = [node for node in ast.walk(tree) if walks(node)]
    assert [ast.unparse(node) for node in calls] == ["permutations(range(d))"]
    walkers = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               and any(walks(node) for node in ast.walk(func))}
    assert walkers == {"_start"}
    names = {node.name if isinstance(node, ast.FunctionDef) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.Name))}
    assert not names & {"_classes", "_BF_MAX_DEGREE"}
