"""Size of the `notetune` package: its lines and its settable values.

    python3 tools/code_size.py [SRC_DIR]

Prints one JSON object for the `.py` files under SRC_DIR (default: this
checkout's src/notetune): `lines`, their total line count, and
`settable_values`, the count of optional parameters (function and lambda
parameters with a default) plus dataclass fields, found by parsing each file.
A dataclass field declared with `field(init=False)` is left out, since no
caller can set it; so is a `ClassVar`.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _settable_field(stmt: ast.stmt) -> bool:
    if not isinstance(stmt, ast.AnnAssign) or "ClassVar" in ast.unparse(stmt.annotation):
        return False
    value = stmt.value
    if isinstance(value, ast.Call) and ast.unparse(value.func).split(".")[-1] == "field":
        return not any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in value.keywords
        )
    return True


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(_settable_field(stmt) for stmt in node.body)
    return count


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src = Path(argv[0]) if argv else ROOT / "src" / "notetune"
    texts = [path.read_text() for path in sorted(src.rglob("*.py"))]
    print(json.dumps({
        "lines": sum(len(text.splitlines()) for text in texts),
        "settable_values": sum(settable_values(ast.parse(text)) for text in texts),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
