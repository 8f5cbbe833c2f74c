# The plain-text file rules. Every input file (MDP, class sequence, config,
# dataset CSV, probability file) is opened by open_text as UTF-8 with an
# optional byte-order mark and universal newlines; a line carries no data if it
# is blank or its first non-blank character is '#'. Every output file is written
# as UTF-8 text by write_lines, and float_line formats floats that numbers reads
# back bit for bit.
from __future__ import annotations

import contextlib
import itertools

_PIECE = 1 << 16    # characters text_lines splits at a time


def text_lines(text: str):
    r"""The lines of text.split("\n"), split a piece at a time so that only one
    piece's strings are alive at once. As in a file read with universal newlines,
    only "\n" ends a line, never U+2028 or U+0085 as with str.splitlines()."""
    def pieces():
        start = 0
        while (end := text.find("\n", start + _PIECE)) >= 0:
            yield text[start:end].split("\n")
            start = end + 1
        yield text[start:].split("\n")
    return itertools.chain.from_iterable(pieces())


def split_lines(lines, start: int = 1, stop: int | None = None) -> tuple[list, list]:
    """(comment lines, data lines) of lines (a text file, text_lines) numbered
    from start, each stripped; a data line comes with its number. With stop, it
    ends after the stop-th data line and leaves an iterator's later lines unread."""
    comments, data = [], []
    for lineno, line in enumerate(lines, start=start):
        text = line.strip()
        if text.startswith("#"):
            comments.append(text)
        elif text:
            data.append((lineno, text))
            if len(data) == stop:
                break
    return comments, data


@contextlib.contextmanager
def open_text(path: str):
    """The file at path opened for reading as text. A byte that is not UTF-8 raises
    UnicodeDecodeError with its offset in the file and its line, as split_lines
    numbers it; a file that cannot seek, such as a pipe, keeps the decoder's error."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            if not fh.buffer.seekable():
                raise
            fh.buffer.seek(0)
            data = fh.buffer.read()
            try:
                data.decode("utf-8")    # the byte-order mark decodes, so offsets are the file's
            except UnicodeDecodeError as bad:
                head = data[:bad.start]
                line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
                raise UnicodeDecodeError(bad.encoding, data, bad.start, bad.end,
                                         f"{bad.reason} (line {line})") from None
            raise


def read_lines(path: str) -> tuple[list[str], list[tuple[int, str]]]:
    """split_lines of the file at path."""
    with open_text(path) as fh:
        return split_lines(fh)


def write_lines(path: str, *parts) -> None:
    """Write each iterable of strings in parts to path in turn, adding no line ends."""
    with open(path, "w", encoding="utf-8") as fh:
        for lines in parts:
            fh.writelines(lines)


def float_line(values) -> str:
    """values as one line: the repr of each as a float, space-separated."""
    return " ".join(repr(float(v)) for v in values) + "\n"


def numbers(path: str, rows: list[tuple[int, str]], i: int, convert, count: int | None,
            what: str, error: type[Exception]) -> list:
    """The count (with None, any number of) whitespace-separated values of data
    line rows[i], each read by convert; error names the line when it is missing,
    holds a value that convert rejects, or holds another number of values."""
    if i >= len(rows):
        raise error(f"{path}:{rows[-1][0]}: file ends here, "
                    f"expected a line of {count} {what} after it")
    lineno, text = rows[i]
    expected = what if count is None else f"{count} {what}"
    try:
        vals = [convert(t) for t in text.split()]
    except ValueError as exc:
        raise error(f"{path}:{lineno}: expected {expected}: {exc}") from exc
    if count is not None and len(vals) != count:
        raise error(f"{path}:{lineno}: expected {expected}")
    return vals
