"""A record list that forked workers append to as well as the test process,
and the check that a test left no forked worker behind.

A spy that appends to a plain list sees only the calls made in its own
process; a pass at workers > 1 makes some of them in forked children.
SharedLog appends each record as one repr line to an unlinked temporary file
opened with O_APPEND, which every child forked after it inherits, and reads
them back with ast.literal_eval.  Records must be literals: ints, floats,
strings and tuples of them.
"""

from __future__ import annotations

import ast
import os
import tempfile

import pytest


def assert_no_child() -> None:
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class SharedLog:
    def __init__(self):
        fd, path = tempfile.mkstemp(prefix="shared-log-")
        os.close(fd)
        self._fd = os.open(path, os.O_RDWR | os.O_APPEND)
        os.unlink(path)

    def __del__(self):
        os.close(self._fd)

    def append(self, record) -> None:
        self.extend([record])

    def extend(self, records) -> None:
        text = "".join(f"{record!r}\n" for record in records)
        if text:
            os.write(self._fd, text.encode())  # one O_APPEND write: never torn by another process

    def records(self) -> list:
        data = os.pread(self._fd, os.fstat(self._fd).st_size, 0).decode()
        return [ast.literal_eval(line) for line in data.splitlines()]

    def __iter__(self):
        return iter(self.records())

    def __len__(self) -> int:
        return len(self.records())

    def __eq__(self, other) -> bool:
        return self.records() == other

    __hash__ = None
