"""`tools/code_size.py`: each rule by which it counts lines and settable values."""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "code_size.py"
_spec = importlib.util.spec_from_file_location("code_size", _path)
code_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_size)


@pytest.mark.parametrize("source, count", [
    ("def f(a, b=1, c=2):\n    pass\n", 2),
    ("def f(a, *, b=1, c):\n    pass\n", 1),
    ("async def f(a=1):\n    pass\n", 1),
    ("g = lambda x, y=3: x\n", 1),
    ("@dataclass\nclass D:\n    x: int\n    y: int = 0\n    z: list = field(default_factory=list)\n", 3),
    ("@dataclasses.dataclass(frozen=True)\nclass D:\n    x: int\n", 1),
    ("@dataclass\nclass D:\n    x: int = field(init=False)\n    y: int = dataclasses.field(init=False)\n", 0),
    ("@dataclass\nclass D:\n    x: ClassVar[int] = 1\n    y: typing.ClassVar[int]\n", 0),
    ("class P:\n    x: int = 1\n    y: int\n", 0),
], ids=[
    "positional-defaults", "keyword-only-defaults", "async-defaults", "lambda-defaults",
    "dataclass-fields", "called-dataclass-decorator", "init-false-fields", "classvar-fields",
    "plain-class-fields",
])
def test_settable_values_counts_by_rule(source, count):
    assert code_size.settable_values(ast.parse(source)) == count


def test_main_counts_lines_and_values_over_py_files_only(tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text("def f(a=1):\n    return a\n\n")
    (tmp_path / "sub" / "b.py").write_text("@dataclass\nclass D:\n    x: int\n")
    (tmp_path / "notes.txt").write_text("def g(b=2):\n    pass\n")
    (tmp_path / "c.pyi").write_text("def h(c=3): ...\n")
    assert code_size.main([str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"lines": 6, "settable_values": 2}


def test_main_with_two_arguments_prints_its_usage_and_exits_2(capsys):
    assert code_size.main(["a", "b"]) == 2
    assert "code_size.py [SRC_DIR]" in capsys.readouterr().err
