"""Only the serve tier runs a thread pool.

A request, a batch (``Engine.execute_many``) and a live-view update
(``LiveEngine.apply``) run in the caller's thread: under the GIL a pool
of Python threads made none of them faster.  The serve executor is the
one pool left, because the server calls one ``Engine`` from several
connections at once.  This scan of the package's source stops a second
pool from growing back unnoticed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
ALLOWED = {"serve/server.py"}


def pool_uses(tree: ast.AST) -> list[str]:
    """The ``concurrent.futures`` imports and ``ThreadPoolExecutor``
    names in one module, as ``line: what`` strings."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [
                f"{module}.{alias.name}" for alias in node.names
            ]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        for name in names:
            if (
                name.startswith("concurrent.futures")
                or name.endswith("ThreadPoolExecutor")
            ):
                found.append(f"{node.lineno}: {name}")
    return found


def modules() -> dict[str, ast.AST]:
    return {
        path.relative_to(PACKAGE).as_posix(): ast.parse(
            path.read_text(encoding="utf-8")
        )
        for path in sorted(PACKAGE.rglob("*.py"))
    }


MODULES = modules()


def test_no_module_outside_the_serve_tier_runs_a_pool():
    offenders = {
        name: uses
        for name, tree in MODULES.items()
        if name not in ALLOWED and (uses := pool_uses(tree))
    }
    assert offenders == {}


def test_the_scan_sees_the_serve_executor():
    """The one allowed pool is still found, so a moved file or a renamed
    import cannot make the scan vacuous."""
    for name in ALLOWED:
        assert pool_uses(MODULES[name])
