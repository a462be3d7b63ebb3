"""The README's library quick start runs as written."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quick_start_runs_as_written():
    # statement by statement; where the comment after a statement is a
    # literal, such as `(216, 144, 96, 96)`, the statement's value equals it
    source = _quick_start()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), README.name, "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), README.name, "exec"), namespace)
            value = None
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        try:
            expected = ast.literal_eval(comment.removeprefix("#").strip())
        except (ValueError, SyntaxError):  # no comment, or one in words
            continue
        assert isinstance(stmt, ast.Expr), ast.unparse(stmt)
        assert value == expected, ast.unparse(stmt)
        checked += 1
    assert checked
