"""Text forms: one tokenizer and one reader for every printed form.

Each kind keeps its printed form beside its type, as a ``format_*``
function and a ``read_*`` function.  A reader takes the tokens it owns from
a :class:`Reader` and stops at the first token it does not own, so a
composite form such as ``tilde { step ... ; mpt ... }`` reads its parts
from one token stream.  :func:`parse` runs one reader over a whole text;
it is the only place where trailing text is refused and where a
constructor's ``ValueError`` becomes :class:`ParseError`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

# A token is one bracket or separator, or a run of any other non-space text,
# so a malformed word or number is reported whole.
_TOKEN = re.compile(r"[()\[\]{};,]|[^\s()\[\]{};,]+")
# An integer, a rational p/q with a nonzero denominator, or a decimal.
_NUMBER = re.compile(r"-?\d+(/0*[1-9]\d*|\.\d+)?")


def format_fraction(x: Fraction) -> str:
    """Exact text form ``p/q`` of a rational, also for integers."""
    return f"{x.numerator}/{x.denominator}"


class Reader:
    """A cursor over the tokens of one text."""

    def __init__(self, text: str):
        self.tokens = _TOKEN.findall(text)
        self.pos = 0

    def peek(self) -> str | None:
        """The token at the cursor, or None at the end of the text."""
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def error(self, expected: str) -> ParseError:
        """A ParseError naming the token at the cursor."""
        token = self.peek()
        found = "the end of the text" if token is None else repr(token)
        return ParseError(f"expected {expected}, got {found}")

    def accept(self, token: str) -> bool:
        """Take ``token`` if it is at the cursor; say whether it was."""
        if self.peek() == token:
            self.pos += 1
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.accept(token):
            raise self.error(repr(token))

    def integer(self) -> int:
        """A signed integer ``[-]digits``."""
        token = self.peek()
        if token is None or not token.removeprefix("-").isdecimal():
            raise self.error("an integer")
        self.pos += 1
        return int(token)

    def number(self) -> int | Fraction:
        """An integer as an ``int``; a rational ``p/q`` or a decimal as a
        :class:`Fraction`."""
        token = self.peek()
        m = _NUMBER.fullmatch(token or "")
        if m is None:
            raise ParseError(f"bad rational: {self.error('a number')}")
        self.pos += 1
        return Fraction(token) if m[1] else int(token)

    def ints(self) -> list[int]:
        """The run of nonnegative integers at the cursor, maybe empty."""
        tokens, stop = self.tokens, self.pos
        while stop < len(tokens) and tokens[stop].isdecimal():
            stop += 1
        run = tokens[self.pos : stop]
        self.pos = stop
        return list(map(int, run))

    def ints_until(self, end: str) -> list[int]:
        """The nonnegative integers before the next ``end``, read as one
        slice; ``end`` is taken too."""
        try:
            stop = self.tokens.index(end, self.pos)
        except ValueError:
            stop = len(self.tokens)
        run = self.tokens[self.pos : stop]
        if run and not "".join(run).isdecimal():
            self.pos += next(i for i, t in enumerate(run) if not t.isdecimal())
            raise self.error(f"an integer or {end!r}")
        self.pos = stop
        self.expect(end)
        return list(map(int, run))


def parse(text: str, read):
    """The object ``read`` takes from a :class:`Reader` over all of ``text``.

    Text left after it is refused.  A ``ValueError`` from a constructor,
    such as a map that is not a bijection, is raised as :class:`ParseError`.
    """
    reader = Reader(text)
    try:
        value = read(reader)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if reader.peek() is not None:
        raise reader.error("the end of the text")
    return value


def parse_fraction(text: str) -> Fraction:
    """The rational written as ``text``: an integer, ``p/q`` or a decimal.
    A malformed text or a zero denominator raises :class:`ParseError`."""
    return Fraction(parse(text, Reader.number))
