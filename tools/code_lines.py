"""Count the code lines of Python files: lines holding a token that is not
a comment or a docstring.

    python tools/code_lines.py src/rankal/*.py

prints one ``<lines>  <path>`` row per file and a ``total`` row.  Blank
lines, comment lines and the lines of a docstring (a string literal that
makes up a statement of its own) do not count; a line holding code and a
trailing comment does.  Uses only the standard library.
"""

from __future__ import annotations

import sys
import tokenize

_STATEMENT_START = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
_LAYOUT = _STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(path):
    """The number of lines of ``path`` that hold a code token."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        # a string that makes up a whole statement is a docstring
        alone = (tok.type == tokenize.STRING and tokens[i - 1].type in _STATEMENT_START
                 and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if not alone:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths):
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
