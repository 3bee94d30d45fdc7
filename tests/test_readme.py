"""The ```python blocks of README.md run, in order and in one namespace,
and each `print(...)  # shown` line prints what its comment shows."""

import ast
import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"),
                      re.M | re.S)


def test_readme_examples_run():
    blocks = python_blocks()
    assert blocks
    namespace = {}
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(ast.Module([stmt], []), str(README), "exec"),
                     namespace)
            _, hash_, shown = lines[stmt.end_lineno - 1].partition("  # ")
            is_print = (isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Call)
                        and getattr(stmt.value.func, "id", None) == "print")
            if is_print and hash_:
                # the comment may add an explanation after the value
                assert shown.strip().startswith(out.getvalue().strip()), (
                    ast.unparse(stmt), out.getvalue())
