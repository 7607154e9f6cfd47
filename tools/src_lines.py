"""Count the code-only lines of each module of ROOT/src/azumaya.

    python3 tools/src_lines.py ROOT

ROOT is the root of a checkout. A line counts when it holds part of a token
other than a comment or a docstring; blank lines, comment-only lines and
docstrings (a string that is a statement of its own, as the first statement
of a module, class or function is) do not count. The script reads the
files with `tokenize` and prints one line per module, then the total.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# a string is a statement of its own when it follows one of these and
# ends at a NEWLINE
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for k, t in enumerate(tokens):
        if t.type in _LAYOUT:
            continue
        if (t.type == tokenize.STRING and (k == 0 or tokens[k - 1].type in _STATEMENT_START)
                and k + 1 < len(tokens) and tokens[k + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a docstring
        lines.update(range(t.start[0], t.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root", help="root of a checkout")
    args = p.parse_args(argv)
    src = os.path.join(args.root, "src", "azumaya")
    total = 0
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            n = code_lines(fh.read())
        total += n
        print(f"{name:<16} {n:5d}")
    print(f"{'total':<16} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
