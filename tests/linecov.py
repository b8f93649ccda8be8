"""The executable lines of src/itstore that a test run never reaches, and
the functions that the system itself never enters.

Run it from the repository root as a script, outside the tier-1 suite
(pytest does not collect it):

    PYTHONPATH=src python tests/linecov.py [pytest arguments]
    PYTHONPATH=src python tests/linecov.py --system

The first form runs pytest in this process under a sys.settrace line
tracer that follows only the package's own files, then prints every unrun
line as path:line and its source, and a count per module and in all.
Lines that only a fault the suite cannot make reaches are listed, each
with its reason, in unreachable_lines.txt beside this script; they are
printed apart, after the others, and a listed line that ran or is not
executable is printed as stale, so the list is kept honest. The
executable lines of a module are those its compiled code objects map
instructions to, less each function's own first line (its def or first
decorator, which the enclosing code runs). A full tier-1 run takes about
four times as long traced as untraced. The exit status is pytest's.

--system traces what the system runs instead of the test suite: every
shipped scenario but bench.yaml through harness.run_scenario, the CLI
tests (tests/test_cli.py), and perfbench's three workloads at the cycle
counts of its smoke test. It prints every unrun line as path:line and
its source, as the first form does, then every function and method of
the package that none of them enters, as path:line and its qualified
name, then their count and the count of unrun lines. A line or a
function that a test alone reaches shows up there. The exit status is
the CLI tests'.
"""

import inspect
import shutil
import sys
import tempfile
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


def code_objects(path: Path) -> list:
    """Every code object of path's compiled source, the module's first."""
    out, stack = [], [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        out.append(code)
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return out


def executable_lines(path: Path) -> set:
    """The line numbers of path's compiled code that can report a line."""
    lines = set()
    for code in code_objects(path):
        own = {line for _start, _end, line in code.co_lines() if line}
        if code.co_name != "<module>":
            own.discard(code.co_firstlineno)
        lines |= own
    return lines


def functions(path: Path) -> list:
    """(first line, qualified name) of each named function or method that
    path defines; lambdas and comprehensions are their enclosing code's."""
    return sorted((code.co_firstlineno, code.co_qualname)
                  for code in code_objects(path)
                  if code.co_flags & inspect.CO_OPTIMIZED  # not a class body
                  and not code.co_name.startswith("<"))


def traced(work) -> tuple:
    """(work()'s result, {file name: lines run}, {(file name, first line)
    of each code entered}) for one call of work, tracing only the
    package's own files."""
    root = str(PACKAGE)
    hits, entered = {}, set()

    def local(frame, event, _arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(
                frame.f_lineno)
        return local

    def call(frame, _event, _arg):
        code = frame.f_code
        if not code.co_filename.startswith(root):
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        return local

    sys.path.insert(0, str(ROOT))  # as python -m pytest from the root
    threading.settrace(call)
    sys.settrace(call)
    try:
        result = work()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits, entered


def run_pytest(args) -> int:
    import pytest
    return pytest.main(list(args))


def run_system() -> int:
    """The system's own runs (see the module docstring); returns the CLI
    tests' exit status."""
    from itstore.config import load_scenario
    from itstore.harness import run_scenario

    for path in sorted((ROOT / "scenarios").glob("*.yaml")):
        if path.stem != "bench":
            run_scenario(load_scenario(path))
    status = run_pytest(["-q", "-p", "no:cacheprovider",
                         str(ROOT / "tests" / "test_cli.py")])
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as bench
    import smoke_test
    import workloads
    work = Path(tempfile.mkdtemp(prefix="linecov-system-"))
    try:
        for name, cycles in smoke_test.CYCLES.items():
            res, _metrics, _ = bench.run_untraced(
                workloads, workloads.WORKLOADS[name], smoke_test.SEED,
                work / name, cycles=cycles)
            if not res.correct:
                raise SystemExit("perfbench %s failed: %s"
                                 % (name, res.failures or res.problems))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return status


def system_report(hits: dict, entered: set) -> None:
    """Print the unrun lines, the functions never entered, and the counts
    of both."""
    never = total = unrun = 0
    paths = sorted(PACKAGE.glob("*.py"))
    for path in paths:
        rel = str(path.relative_to(ROOT))
        lines = executable_lines(path)
        source = path.read_text().splitlines()
        missed = sorted(lines - hits.get(str(path), set()))
        for line in missed:
            print("%s:%d  %s" % (rel, line, source[line - 1].strip()))
        total += len(lines)
        unrun += len(missed)
    for path in paths:
        rel = str(path.relative_to(ROOT))
        for line, name in functions(path):
            if (str(path), line) not in entered:
                never += 1
                print("%s:%d  %s" % (rel, line, name))
    print("# src/itstore: %d functions never entered by the system" % never)
    print("# src/itstore: %d of %d executable lines unrun by the system"
          % (unrun, total))


def main(args) -> int:
    if args == ["--system"]:
        status, hits, entered = traced(run_system)
        system_report(hits, entered)
        return status
    status, hits, _entered = traced(lambda: run_pytest(args))
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
