"""Print the total lines, the code lines and the defaulted parameters of a
source tree.

    python3 tools/src_lines.py [DIR]

DIR defaults to this checkout's ``src``. A code line is one that is neither
blank, comment-only nor part of a docstring. A docstring is any string
constant that stands alone as an expression statement (found with ``ast``);
a comment-only line holds no token but a comment (found with ``tokenize``).
A defaulted parameter is a positional or keyword-only parameter with a
default value, of any ``def`` or ``lambda``.
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def count(text):
    """(total lines, code lines, defaulted parameters) of one Python source."""
    lines = text.splitlines()
    docstrings = set()
    defaults = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.arguments):
            defaults += len(node.defaults) + sum(d is not None for d in node.kw_defaults)
        elif (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstrings
    return len(lines), sum(1 for i in code if lines[i - 1].strip()), defaults


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    top = argv[0] if argv else os.path.join(ROOT, "src")
    total = code = defaults = 0
    for dirpath, _dirnames, filenames in os.walk(top):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    t, c, d = count(f.read())
                total += t
                code += c
                defaults += d
    print("%s: %d lines, %d code lines, %d defaulted parameters" % (top, total, code, defaults))
    return 0


if __name__ == "__main__":
    sys.exit(main())
