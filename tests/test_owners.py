# One module writes files and one builds random streams. textfile.py owns the
# output format (write_lines, float_line) and dataset.py the seeded streams
# (stream); another module that opens a file for writing or names Philox
# restates a rule they own. Tests may write files, but they too build their
# streams with stream.
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WRITERS = {"write_text", "write_bytes", "savetxt", "save", "savez", "savez_compressed",
           "tofile"}


def owner_violations(path: Path) -> list[str]:
    """One line per node of the file at path (relative to ROOT) that breaks the rule."""
    in_src = path.parts[0] == "src"
    bad = []
    for node in ast.walk(ast.parse((ROOT / path).read_text(encoding="utf-8"))):
        name = next(filter(None, (getattr(node, a, None) for a in ("id", "attr", "name"))), None)
        if name == "Philox" and not (in_src and path.name == "dataset.py"):
            bad.append(f"{path}:{node.lineno}: names Philox")
        if in_src and isinstance(node, ast.Call) and path.name != "textfile.py":
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            mode = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
            reads = not mode or (isinstance(mode[0], ast.Constant)
                                 and set(str(mode[0].value)) <= set("rbt"))
            if called in WRITERS or (called == "open" and not reads):
                bad.append(f"{path}:{node.lineno}: opens a file for writing")
    return bad


def test_one_module_writes_files_and_one_builds_random_streams():
    paths = sorted([*(ROOT / "src" / "modbe").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(paths) > 10
    bad = [line for p in paths for line in owner_violations(p.relative_to(ROOT))]
    assert bad == []


def test_the_rule_sees_a_writer_and_a_philox(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "cli.py").write_text(
        "import numpy as np\nopen(p, 'w')\nopen(p)\nnp.save(p, a)\nnp.random.Philox(1)\n")
    (tmp_path / "src" / "textfile.py").write_text("open(p, mode='a')\n")
    assert owner_violations(Path("src/cli.py")) == [
        "src/cli.py:2: opens a file for writing", "src/cli.py:4: opens a file for writing",
        "src/cli.py:5: names Philox"]
    assert owner_violations(Path("src/textfile.py")) == []
