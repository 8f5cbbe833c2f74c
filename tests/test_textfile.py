# The reading rule for plain-text input files (modbe.textfile): UTF-8 with an
# optional byte-order mark, universal newlines, and a blank line or one whose
# first non-blank character is '#' carries no data. Every input format reads
# a copy of a valid file with a byte-order mark, or with indented '#' lines,
# as it reads the file itself.
import contextlib
import io

import pytest

from modbe import cli
from modbe.dataset import load_dataset_csv, save_dataset_csv
from modbe.evaluation import chain_classes, chain_mdp, parse_config
from modbe.funcclass import load_sequence, save_sequence
from modbe.mdp import load_mdp, save_mdp
from modbe.textfile import numbers, read_lines


def test_read_lines_splits_comments_from_numbered_data(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes("\ufeff# head\r\n\r\n  1 2 \r  # indented\n3\t4 # tail\n".encode("utf-8"))
    assert read_lines(str(path)) == (["# head", "# indented"], [(3, "1 2"), (5, "3\t4 # tail")])


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
