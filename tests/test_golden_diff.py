"""The golden-diff tool's comparison and report on synthetic outputs, without
running any command."""

import hashlib

from golden_diff import line_counts, lines_report, moves, report

TABLE = "a,b,c\n1.0,2.0,x\n3.0,4.0,y\n"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_identical_outputs(capsys):
    assert moves(TABLE, TABLE) == (0, None, {})
    assert report("cmd", (0, TABLE), (0, TABLE), digest(TABLE), False)
    assert report("cmd", (0, TABLE), (0, TABLE), digest("other"), False)
    assert capsys.readouterr().out.splitlines() == [
        "cmd: identical", "cmd: identical, but not the pinned output"]


def test_moved_numeric_column(capsys):
    new = "a,b,c\n1.0,2.5,z\n3.0,4.0,y\n"
    # only numbers count: the text column moved but has no size
    assert moves(TABLE, new) == (1, 1, {"a": 0.0, "b": 0.5})
    assert not report("cmd", (0, TABLE), (0, new), digest(new), False)
    assert capsys.readouterr().out.splitlines() == [
        "cmd: 1 of 3 lines moved",
        "    first moved line 2:",
        "      BASE 1.0,2.0,x",
        "      NEW  1.0,2.5,z",
        "    largest move of b: 0.5",
        f"    NEW digest {digest(new)} (matches the pinned one)"]


def test_appended_line(capsys):
    new = TABLE + "5.0,6.0,w\n"
    assert moves(TABLE, new) == (1, 3, {})
    assert not report("cmd", (0, TABLE), (0, new), digest(TABLE), False)
    assert capsys.readouterr().out.splitlines() == [
        "cmd: 1 of 4 lines moved",
        "    first moved line 4:",
        "      BASE (none)",
        "      NEW  5.0,6.0,w",
        f"    NEW digest {digest(new)} (differs from the pinned one)"]


def test_nan_on_both_sides_has_not_moved():
    base, new = "x,y\nnan,1.0\n", "x,y\nnan,1.25\n"
    assert moves(base, new) == (1, 1, {"x": 0.0, "y": 0.25})


def test_name_value_lines():
    # a "# name: value" line is named by its name; the digest skips the header line
    base = "# seed=1\n# total: 1.5\n# note: none\n"
    new = "# seed=1\n# total: 1.25\n# note: some\n"
    assert moves(base, new) == (2, 1, {"total": 0.25})
    header_free = digest(new.partition("\n")[2])
    assert report("cmd", (0, new), (0, new), header_free, True)


def test_line_counts_footer(tmp_path):
    for tree, files in (("base", {"a.py": "x\n" * 3, "b.py": "y\n"}),
                        ("new", {"a.py": "x\n" * 2, "b.py": "y\n", "c.py": "z\n" * 4})):
        package = tmp_path / tree / "src" / "poolgame"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
    assert line_counts(tmp_path / "base") == {"a.py": 3, "b.py": 1}
    assert lines_report(tmp_path / "base", tmp_path / "new") == (
        "src/poolgame: 4 lines in BASE, 7 in NEW (a.py 3 -> 2, c.py 0 -> 4)")
    assert lines_report(tmp_path / "base", tmp_path / "base") == (
        "src/poolgame: 4 lines in BASE, 4 in NEW")
