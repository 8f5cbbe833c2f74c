# The plain-text file rules. Every input file (MDP, class sequence, config,
# dataset CSV, probability file) is read as UTF-8 with an optional byte-order
# mark and universal newlines; a line carries no data if it is blank or its first
# non-blank character is '#'. Every output file is written as UTF-8 text by
# write_lines, and float_line formats floats that numbers reads back bit for bit.
from __future__ import annotations


def read_lines(path: str) -> tuple[list[str], list[tuple[int, str]]]:
    """(comment lines, data lines) of the file at path, in file order, each
    stripped; a data line comes with its 1-based line number."""
    comments, data = [], []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if text.startswith("#"):
                comments.append(text)
            elif text:
                data.append((lineno, text))
    return comments, data


def write_lines(path: str, *parts) -> None:
    """Write each iterable of strings in parts to path in turn, adding no line ends."""
    with open(path, "w", encoding="utf-8") as fh:
        for lines in parts:
            fh.writelines(lines)


def float_line(values) -> str:
    """values as one line: the repr of each as a float, space-separated."""
    return " ".join(repr(float(v)) for v in values) + "\n"


def numbers(path: str, rows: list[tuple[int, str]], i: int, convert, count: int, what: str,
            error: type[Exception]) -> list:
    """The count whitespace-separated values of data line rows[i], each read
    by convert; error names the line when it is missing, holds a value that
    convert rejects, or holds another number of values."""
    if i >= len(rows):
        raise error(f"{path}:{rows[-1][0]}: file ends here, "
                    f"expected a line of {count} {what} after it")
    lineno, text = rows[i]
    try:
        vals = [convert(t) for t in text.split()]
    except ValueError as exc:
        raise error(f"{path}:{lineno}: expected {count} {what}: {exc}") from exc
    if len(vals) != count:
        raise error(f"{path}:{lineno}: expected {count} {what}")
    return vals
