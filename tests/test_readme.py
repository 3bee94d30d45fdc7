"""The ```python blocks of README.md run, in order and in one namespace,
and each `print(...)  # shown` line prints what its comment shows. Every
`meromat ...` line of its ```sh blocks exits 0 on the README's own file
examples."""

import ast
import contextlib
import io
import pathlib
import re
import shlex

import pytest

from meromat.frontio import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text("utf-8")


def blocks(lang: str) -> list:
    """The fenced blocks of the language, "" for a bare fence."""
    return [body for tag, body in re.findall(r"^```(\w*)\n(.*?)^```$",
                                             TEXT, re.M | re.S)
            if tag == lang]


def test_readme_examples_run():
    namespace = {}
    assert blocks("python")
    for block in blocks("python"):
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


CLI_LINES = [shlex.split(line, comments=True) for block in blocks("sh")
             for line in block.splitlines() if line.startswith("meromat ")]


def file_example(kind: str) -> str:
    """The README's example of a `meromat/1 <kind>` file."""
    (text,) = [b for b in blocks("") if b.startswith(f"meromat/1 {kind}\n")]
    return text


def test_readme_cli_shows_every_command():
    shown = sorted(" ".join(a[1:3] if a[1] in ("amd", "tds") else a[1:2])
                   for a in CLI_LINES)
    assert shown == sorted(words for words, *_ in cli._COMMANDS)


@pytest.mark.parametrize("argv", CLI_LINES, ids=" ".join)
def test_readme_cli_line_runs(argv, tmp_path, monkeypatch, capsys):
    amd = file_example("amd")
    docs = {"G": file_example("matrix"), "H": amd, "H1": amd, "H2": amd,
            "T": file_example("tds"),
            "M": "meromat/1 matrix\nkind polynomial\nsize 2 2\n"
                 "row z ; 1\nrow 0 ; z^2\n",
            "F": "meromat/1 matrix\nkind polynomial\nsize 2 2\n"
                 "row z - 1/2 ; 1\nrow 0 ; z + 1/2\n"}
    for name, text in docs.items():
        (tmp_path / f"{name}.mm").write_text(text)
    monkeypatch.chdir(tmp_path)
    assert argv[0] == "meromat"
    code = cli.main(argv[1:])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out
