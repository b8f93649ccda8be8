"""The executable lines of src/itstore that a test run never reaches.

Run it from the repository root as a script, outside the tier-1 suite
(pytest does not collect it):

    PYTHONPATH=src python tests/linecov.py [pytest arguments]

It runs pytest in this process under a sys.settrace line tracer that
follows only the package's own files, then prints every unrun line as
path:line and its source, and a count per module and in all. Lines that
only a fault the suite cannot make reaches are listed, each with its
reason, in unreachable_lines.txt beside this script; they are printed
apart, after the others, and a listed line that ran or is not
executable is printed as stale, so the list is kept honest. The
executable lines of a module are those its compiled code objects map
instructions to, less each function's own first line (its def or first
decorator, which the enclosing code runs). A full tier-1 run takes about
four times as long traced as untraced. The exit status is pytest's.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "itstore"
LISTED = Path(__file__).resolve().parent / "unreachable_lines.txt"


def listed_lines() -> dict:
    """{(path from the root, line): reason} for each `path:line  reason`
    row of the list; blank rows and rows starting with # are skipped."""
    out = {}
    for row in LISTED.read_text().splitlines():
        if row.strip() and not row.startswith("#"):
            where, reason = row.split(None, 1)
            path, line = where.rsplit(":", 1)
            out[(path, int(line))] = reason
    return out


def executable_lines(path: Path) -> set:
    """The line numbers of path's compiled code that can report a line."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        own = {line for _start, _end, line in code.co_lines() if line}
        if code.co_name != "<module>":
            own.discard(code.co_firstlineno)
        lines |= own
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def traced_run(args) -> tuple:
    """(pytest's exit status, {file name: lines run}) for one run."""
    root = str(PACKAGE)
    hits = {}

    def local(frame, event, _arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(
                frame.f_lineno)
        return local

    def call(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    sys.path.insert(0, str(ROOT))  # as python -m pytest from the root
    threading.settrace(call)
    sys.settrace(call)
    try:
        import pytest
        status = pytest.main(list(args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hits


def main(args) -> int:
    status, hits = traced_run(args)
    listed = listed_lines()
    faults = []  # (path, line, reason, how the listed line fared)
    total = unrun_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        rel = str(path.relative_to(ROOT))
        lines = executable_lines(path)
        unrun = sorted(lines - hits.get(str(path), set()))
        total += len(lines)
        unrun_total += len(unrun)
        source = path.read_text().splitlines()
        for line in unrun:
            if (rel, line) not in listed:
                print("%s:%d  %s" % (rel, line, source[line - 1].strip()))
        mine = [(rel, line, listed[(rel, line)],
                 "unrun" if line in unrun else
                 "ran" if line in lines else "not executable")
                for where, line in sorted(listed) if where == rel]
        faults += mine
        print("# %s: %d of %d executable lines unrun, %d of them listed"
              % (path.name, len(unrun), len(lines),
                 sum(fared == "unrun" for *_, fared in mine)))
    print("# src/itstore: %d of %d executable lines unrun"
          % (unrun_total, total))
    print("# listed in %s as reachable only by a fault:" % LISTED.name)
    for rel, line, reason, fared in faults:
        stale = "" if fared == "unrun" else "STALE (%s) " % fared
        print("%s%s:%d  %s" % (stale, rel, line, reason))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
