"""Print the total lines, the code lines and the defaulted parameters of one
or two source trees.

    python3 tools/src_lines.py [TREE [TREE]]

Each TREE names a git revision (its ``src`` is taken with ``git archive``) or
a directory, as in ``tools/compare_trees.py``; with none, this checkout's
``src``. Each tree gets one line; with two, a third line gives the second's
counts minus the first's. A code line is one that is neither blank,
comment-only nor part of a docstring. A docstring is any string constant that
stands alone as an expression statement (found with ``ast``); a comment-only
line holds no token but a comment (found with ``tokenize``). A defaulted
parameter is a positional or keyword-only parameter with a default value, of
any ``def`` or ``lambda``.
"""

import ast
import io
import os
import sys
import tempfile
import tokenize

from compare_trees import ROOT, tree

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
FORMAT = "%s: %d lines, %d code lines, %d defaulted parameters"


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


def count_tree(top):
    """count()'s three numbers summed over every .py file under top."""
    totals = [0, 0, 0]
    for dirpath, _dirnames, filenames in os.walk(top):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    totals = [a + b for a, b in zip(totals, count(f.read()))]
    return totals


def main(argv=None):
    specs = (sys.argv[1:] if argv is None else argv) or [os.path.join(ROOT, "src")]
    if len(specs) > 2:
        print("at most two trees", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        counts = [count_tree(tree(spec, scratch)) for spec in specs]
    for spec, numbers in zip(specs, counts):
        print(FORMAT % (spec, *numbers))
    if len(counts) == 2:
        print(FORMAT.replace("%d", "%+d") % ("change", *(b - a for a, b in zip(*counts))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
