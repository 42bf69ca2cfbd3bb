"""README: its Python examples print what their comments say, and its
"Library use" section names everything the package exports."""

import ast
import contextlib
import io
import re
import tokenize
import types
from pathlib import Path

import medina_arctan

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()


def python_blocks():
    """(first line number, source) of each ```python block, in order."""
    return [
        (TEXT.count("\n", 0, match.start(1)) + 1, match.group(1))
        for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
    ]


def trailing_comments(source):
    """{line number within source: text} of each comment that ends a line of code."""
    return {
        token.start[0]: token.string[1:].strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT and token.line[: token.start[1]].strip()
    }


def test_examples_print_their_comments():
    # One namespace: a later block may use what an earlier one imported.
    namespace = {}
    blocks = python_blocks()
    assert blocks
    for first, source in blocks:
        expected = trailing_comments(source)
        assert expected, f"README.md:{first}: a block with no expected output"
        for statement in ast.parse(source).body:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(ast.Module([statement], []), str(README), "exec"), namespace)
            end = statement.end_lineno
            printed = out.getvalue().rstrip("\n")
            assert printed == expected.pop(end, ""), f"README.md:{first + end - 1}"
        assert not expected, f"README.md:{first}: comments inside a statement"


def test_library_use_names_every_export():
    section = TEXT.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    exported = [
        name
        for name, value in vars(medina_arctan).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    missing = [name for name in exported if not re.search(rf"`{name}\b", section)]
    assert exported and not missing
