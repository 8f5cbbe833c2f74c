# The plain-text file rules (modbe.textfile). Reading: UTF-8 with an optional
# byte-order mark, universal newlines, and a blank line or one whose first
# non-blank character is '#' carries no data. Every input format reads a copy
# of a valid file with a byte-order mark, or with indented '#' lines, as it
# reads the file itself. Writing: a float line reads back bit for bit.
import contextlib
import io
import math
import os
import random
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modbe import cli, textfile
from modbe.dataset import generate_from_mu, load_dataset_csv, save_dataset_csv
from modbe.evaluation import chain_classes, chain_mdp, parse_config, uniform_mu
from modbe.funcclass import load_sequence, save_sequence
from modbe.mdp import load_mdp, save_mdp
from modbe.textfile import float_line, numbers, read_lines, split_lines, text_lines


def test_read_lines_splits_comments_from_numbered_data(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes("\ufeff# head\r\n\r\n  1 2 \r  # indented\n3\t4 # tail\n".encode("utf-8"))
    assert read_lines(str(path)) == (["# head", "# indented"], [(3, "1 2"), (5, "3\t4 # tail")])


@pytest.mark.parametrize("piece", [1, 2, 3, 7, 1 << 16])
def test_text_lines_split_on_newline_only(monkeypatch, piece):
    # every piece size gives the lines of one split on "\n", wherever a piece ends
    monkeypatch.setattr(textfile, "_PIECE", piece)
    rng = random.Random(piece)
    for _ in range(300):
        text = "".join(rng.choice("ab\n\r \u2028\x85#") for _ in range(rng.randrange(40)))
        assert list(text_lines(text)) == text.split("\n")
    assert list(text_lines("a\u2028b\x85c\nd")) == ["a\u2028b\x85c", "d"]


def test_split_lines_stops_after_the_stop_th_data_line():
    lines = iter(["# a", "", "h,x", "1,2", "# b"])
    assert split_lines(lines, stop=1) == (["# a"], [(3, "h,x")])
    assert list(lines) == ["1,2", "# b"]     # left unread
    assert split_lines(["x", " # c", " ", "y"], start=7) == (["# c"], [(7, "x"), (10, "y")])


class RowError(Exception):
    pass


@pytest.mark.parametrize("i, count, message", [
    (0, 3, "f:2: expected 3 ids$"),
    (1, 2, "f:5: expected 2 ids: invalid literal for int"),
    (2, 2, "f:5: file ends here, expected a line of 2 ids after it$")])
def test_numbers_names_the_line(i, count, message):
    rows = [(2, "1 2"), (5, "1 x")]
    assert numbers("f", rows, 0, int, 2, "ids", RowError) == [1, 2]
    with pytest.raises(RowError, match=message):
        numbers("f", rows, i, int, count, "ids", RowError)


# zeros of both signs, the smallest subnormal, the largest subnormal, the
# smallest normal, the largest float and both infinities
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, sys.float_info.min,
               sys.float_info.max, -sys.float_info.max, math.inf, -math.inf)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False), min_size=1,
                max_size=12))
def test_float_line_reads_back_bit_for_bit(values):
    line = float_line(values)
    assert line.endswith("\n") and "\n" not in line[:-1]
    assert float_line(np.array(values)) == line     # the writers pass numpy rows
    back = numbers("f", [(1, line)], 0, float, len(values), "floats", RowError)
    assert [struct.pack("<d", v) for v in back] == [struct.pack("<d", v) for v in values]


def resaved(root, save, obj) -> str:
    save(obj, str(root / "resaved"))
    return (root / "resaved").read_text(encoding="utf-8")


def command_output(argv, out=None):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main([str(a) for a in argv]) == 0
    return stdout.getvalue(), out.read_bytes() if out is not None else None


# format -> (the name of a valid file, what reading a file at path gives)
FORMATS = {
    "mdp": ("chain.mdp", lambda root, path: resaved(root, save_mdp, load_mdp(path))),
    "classes": ("chain.classes",
                lambda root, path: resaved(root, save_sequence, load_sequence(path))),
    "config": ("chain.cfg", lambda root, path: parse_config(path)),
    "csv": ("data.csv",
            lambda root, path: resaved(root, save_dataset_csv, load_dataset_csv(path))),
    "--behavior": ("behavior.txt", lambda root, path: command_output(
        ["gen-data", "--mdp", root / "chain.mdp", "--n", "50", "--behavior", path,
         "--out", root / "out.csv"], root / "out.csv")),
    "--mu": ("mu.txt", lambda root, path: command_output(
        ["diagnose", "--mdp", root / "chain.mdp", "--classes", root / "chain.classes",
         "--mu", path])),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    save_mdp(chain_mdp(), str(root / "chain.mdp"))
    save_sequence(chain_classes(), str(root / "chain.classes"))
    (root / "chain.cfg").write_text("instance = chain\nn_list = 5, 6\nseeds = 0, 1\n"
                                    "methods = modbe, holdout\nschedule = theoretical\n")
    assert cli.main(["gen-data", "--mdp", str(root / "chain.mdp"), "--n", "50",
                     "--out", str(root / "data.csv")]) == 0
    (root / "behavior.txt").write_text("0.25 0.75\n" * 16)
    (root / "mu.txt").write_text("0.0625 0.1875 0.0625 0.1875 0.0625 0.1875 0.0625 0.1875\n" * 4)
    return root


@pytest.mark.parametrize("fmt", FORMATS)
def test_bom_and_indented_comments_read_as_the_plain_file(valid_files, tmp_path, fmt):
    name, read = FORMATS[fmt]
    text = (valid_files / name).read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    half = len(lines) // 2
    commented = "".join(["  # note\n", *lines[:half], "\t# note\n", *lines[half:]])
    expected = read(valid_files, str(valid_files / name))
    for variant, copy in (("bom", "\ufeff" + text), ("comment", commented)):
        path = tmp_path / f"{variant}-{name}"
        path.write_text(copy, encoding="utf-8")
        assert read(valid_files, str(path)) == expected, variant


@pytest.fixture(scope="module")
def large_csv(tmp_path_factory):
    """The bytes of an 80 000-sample chain dataset CSV."""
    path = tmp_path_factory.mktemp("large") / "data.csv"
    mdp = chain_mdp()
    save_dataset_csv(generate_from_mu(mdp, uniform_mu(mdp), 80_000, seed=0), str(path))
    return path.read_bytes()


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("offset", [100_003, 2], ids=["deep", "first-line"])
def test_bad_byte_names_its_line_and_file_offset(large_csv, tmp_path, bom, offset):
    # the decoder reads in chunks, yet the error gives the byte's offset in the file
    data = bytearray(bom + large_csv)
    pos = len(bom) + offset
    data[pos] = 0xFF
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    line = data[:pos].count(b"\n") + 1
    assert (line > 8000) == (offset > 2)
    with pytest.raises(UnicodeDecodeError) as err:
        load_dataset_csv(str(path))
    assert str(err.value) == (f"'utf-8' codec can't decode byte 0xff in position {pos}: "
                              f"invalid start byte (line {line})")


@pytest.mark.parametrize("fmt", ["mdp", "classes", "config", "csv"])
def test_every_reader_names_the_bad_byte(valid_files, tmp_path, fmt):
    # the line is numbered as split_lines numbers it, whatever the line ends
    name, read = FORMATS[fmt]
    lines = (valid_files / name).read_bytes().splitlines()
    rng = random.Random(fmt)
    for _ in range(10):
        body = [line + rng.choice([b"\n", b"\r\n", b"\r"]) for line in lines]
        j = rng.randrange(len(body))
        body[j] = body[j][:1] + b"\xc3(" + body[j][1:]
        path = tmp_path / name
        path.write_bytes(b"".join(body))
        with pytest.raises(UnicodeDecodeError) as err:
            read(valid_files, str(path))
        assert err.value.start == len(b"".join(body[:j])) + 1
        assert str(err.value).endswith(f": invalid continuation byte (line {j + 1})")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_keeps_the_decoder_error():
    # a pipe cannot be read again, so its error stays the decoder's own
    read_end, write_end = os.pipe()
    os.write(write_end, b"h,x,a,r,x_next\n\xff\n")
    os.close(write_end)
    try:
        with pytest.raises(UnicodeDecodeError, match=r"invalid start byte$"):
            load_dataset_csv(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
