"""README's "Library quickstart" block runs, and its result comments hold.

A statement whose line comment starts with a Python literal, such as
``# [True, True, False]`` or ``# False: duplicate``, must evaluate to that
literal. Other comments are prose and are not checked.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def leading_literal(comment: str):
    """The literal a comment starts with, as a value; None when it starts with prose.

    The literal ends at the first space, colon or comma outside brackets.
    """
    depth = 0
    end = len(comment)
    for i, ch in enumerate(comment):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif depth == 0 and ch in " :,":
            end = i
            break
    try:
        return (ast.literal_eval(comment[:end]),)
    except (ValueError, SyntaxError):
        return None


def result_comments(source: str) -> dict[int, object]:
    """Line number -> the literal its comment starts with, for each such line."""
    out = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            literal = leading_literal(tok.string.lstrip("#").strip())
            if literal is not None:
                out[tok.start[0]] = literal[0]
    return out


def test_leading_literal():
    assert leading_literal("[True, True, False]") == ([True, True, False],)
    assert leading_literal("True (directed: contains(2, 1) is False)") == (True,)
    assert leading_literal("[2], newest target first") == ([2],)
    assert leading_literal("False: duplicate") == (False,)
    assert leading_literal("measured probes per membership query") is None


def test_quickstart_runs_and_its_results_hold():
    source = quickstart_block()
    expected = result_comments(source)
    namespace: dict = {}
    checked = {}
    for stmt in ast.parse(source).body:
        if stmt.lineno in expected:
            assert isinstance(stmt, ast.Expr), ast.unparse(stmt)
            checked[stmt.lineno] = eval(compile(ast.Expression(stmt.value), "README", "eval"),
                                        namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked == expected
    assert len(checked) >= 5
