"""Shared console output for the CLI entry points.

Every ``repro-*`` script routes its human-facing output through one
:class:`Console` so ``--quiet`` means the same thing everywhere:

* :meth:`Console.result` — the command's primary output (reports, tables,
  JSON).  Always printed; ``--quiet`` never swallows the answer.
* :meth:`Console.info` — progress and confirmations ("generation 3 ...",
  "report written to ...").  Suppressed by ``--quiet``.
* :meth:`Console.error` — always printed, to stderr.

The default (no flag) prints ``result`` + ``info`` to stdout exactly
as the historical ``print`` calls did, so scripted consumers of the CLIs
see byte-identical output.  There is no verbose level: ``-v`` is a usage
error.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, Optional


class Console:
    """Leveled print wrapper shared by all console scripts."""

    def __init__(
        self,
        *,
        quiet: bool = False,
        out: Optional[IO[str]] = None,
        err: Optional[IO[str]] = None,
    ) -> None:
        self.quiet = quiet
        self._out = out
        self._err = err

    # Streams resolve lazily so a Console built at import time still honors
    # later monkeypatching of sys.stdout/sys.stderr (pytest's capsys).
    @property
    def out(self) -> IO[str]:
        return self._out if self._out is not None else sys.stdout

    @property
    def err(self) -> IO[str]:
        return self._err if self._err is not None else sys.stderr

    def result(self, message: str = "", *, end: str = "\n") -> None:
        """Primary command output; never suppressed."""
        print(message, file=self.out, end=end)

    def info(self, message: str = "") -> None:
        """Progress/confirmation output; suppressed by ``--quiet``."""
        if not self.quiet:
            print(message, file=self.out)

    def error(self, message: str) -> None:
        print(message, file=self.err)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "Console":
        return cls(quiet=getattr(args, "quiet", False))


def add_console_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--quiet`` flag to a parser."""
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress progress output (primary results still print)",
    )
