"""Reach check: the run fails unless it executes every library statement.

An opt-in pytest plugin.  With tests/ on the path,

    PYTHONPATH=src:tests python -m pytest -q -p reach

records, by sys.settrace in the test process, the lines of
src/robinrecon that the run executes, and fails the run when a statement
is never reached; the report lists each by file and line.  __main__.py
and the body of an ``if __name__ == "__main__":`` block are not counted,
and neither is what runs only in a worker process.  A statement counts
as reached when any line of it runs: its own lines, for a compound
statement those of its header, and those of its decorators.  Meant for
the whole tier-1 suite; a selection of tests reaches less.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "robinrecon"


def _is_main_guard(node: ast.stmt) -> bool:
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name)
            and node.test.left.id == "__name__")


def _statements(path: Path):
    """(first line, lines) of every statement of the module that counts,
    lines the ones on which it may report a line event."""
    tree = ast.parse(path.read_text(), str(path))

    def walk(body):
        for i, node in enumerate(body):
            if _is_main_guard(node):
                continue
            docstring = (i == 0 and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            if docstring:
                continue
            inner = [getattr(node, field) for field in
                     ("body", "orelse", "finalbody", "handlers")
                     if getattr(node, field, None)]
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            # a compound statement's header ends where its first block
            # starts; a simple statement spans all its lines
            last = (min(b[0].lineno for b in inner) - 1 if inner
                    else node.end_lineno)
            yield first, set(range(first, max(first, last) + 1))
            for block in inner:
                yield from walk(block)

    yield from walk(tree.body)


class Recorder:
    """The lines of the library that the traced threads execute, by file,
    and the pytest hooks that report and judge them at the session's end."""

    def __init__(self):
        self.executed: dict[str, set[int]] = {}
        self.missing: list[str] = []

    def _local(self, frame, event, arg):
        if event == "line":
            self.executed[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self.executed:
            if not name.startswith(str(LIBRARY)):
                return None
            self.executed[name] = set()
        self.executed[name].add(frame.f_lineno)
        return self._local

    def start(self) -> None:
        sys.settrace(self._global)
        threading.settrace(self._global)

    def unreached(self) -> list[str]:
        """file:line of every counted statement that no traced line
        reached."""
        missing = []
        for path in sorted(LIBRARY.glob("*.py")):
            if path.name == "__main__.py":
                continue
            lines = self.executed.get(str(path), set())
            missing += [f"{path.name}:{first}"
                        for first, span in _statements(path)
                        if not span & lines]
        return missing

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        threading.settrace(None)
        self.missing = self.unreached()
        if self.missing:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter, exitstatus, config):
        if self.missing:
            terminalreporter.section("reach", red=True)
            terminalreporter.line(
                f"{len(self.missing)} library statements never reached: "
                f"{', '.join(self.missing)}")
        else:
            terminalreporter.line("reach: every library statement reached")


def pytest_configure(config):
    recorder = Recorder()
    config.pluginmanager.register(recorder, "reach-recorder")
    recorder.start()
