"""Error and diagnostic types shared across the toolkit."""

from __future__ import annotations

from contextlib import contextmanager

from .record import record


@record(frozen=True)
class Diagnostic:
    """A positioned message, printed as ``file:line:col: message``."""

    message: str
    line: int
    col: int
    filename: str

    def render(self) -> str:
        return f"{self.filename}:{self.line}:{self.col}: {self.message}"


class PcspError(Exception):
    """Base class for all toolkit errors."""


class ParseError(PcspError):
    """Lexical, syntactic or resolution failure; carries positioned diagnostics."""

    def __init__(self, diagnostics):
        super().__init__()
        self.diagnostics = list(diagnostics)

    def __str__(self) -> str:
        # rendered on demand: the command line prints each diagnostic itself
        return "\n".join(d.render() for d in self.diagnostics)


class SemanticsError(PcspError):
    """A transition rule was applied outside its precondition (caller bug or
    ill-formed input that slipped past the checkers)."""


class UsageError(PcspError):
    """An argument outside what a command or an API entry point accepts."""


class BoundExceeded(PcspError):
    """State-space or trace-depth bound exceeded; names the frontier state
    and, when given, the build that hit it (e.g. ``Impl at #T=6``)."""

    def __init__(self, what: str, bound: int, frontier: str, building: str = ""):
        self.what = what
        self.bound = bound
        self.frontier = frontier
        where = f"building {building}" if building else "at"
        super().__init__(f"{what} bound ({bound}) exceeded {where}: {frontier}")


@contextmanager
def building(what: str):
    """Name the build that a bound or a semantics error stops: what is the
    process and the phase, and #T=n where there is one (``Impl at #T=6``,
    ``the symbolic LTS of Spec``)."""
    try:
        yield
    except BoundExceeded as exc:
        raise BoundExceeded(exc.what, exc.bound, exc.frontier, what) from None
    except SemanticsError as exc:
        raise SemanticsError(f"{exc}, building {what}") from None
