"""The list of lines only a fault reaches keeps step with the code.

tests/linecov.py flags a stale row of unreachable_lines.txt only in its
traced run, which takes about ten minutes; a row left behind when an edit
moves or deletes the lines above it is caught here instead, untraced.
"""

from linecov import PACKAGE, ROOT, executable_lines, listed_lines


def test_every_listed_row_names_an_executable_package_line_and_a_reason():
    listed = listed_lines()
    assert 0 < len(listed) <= 10
    for (path, line), reason in sorted(listed.items()):
        where = "%s:%d" % (path, line)
        source = ROOT / path
        assert source.parent == PACKAGE and source.is_file(), where
        assert line in executable_lines(source), where
        assert reason.strip(), where
