"""Compact textual syntax for hesitant linguistic elements.

Grammar (whitespace allowed between tokens):

    element   = "{" term ("," term)* "}"
    term      = "s_" number "<o_" number ">"
    number    = ["+"|"-"] (digits ["." digits] | "." digits) [exponent]

Example: ``{s_2<o_0>,s_2<o_1>}``.  Formatting emits the minimal decimal
representation of each subscript (no trailing ``.0``), so parse and
format are mutual inverses on canonical strings.
"""

from __future__ import annotations

import re

from .linguistic import DHLT, DHHFLE, DHLTScale

_NUMBER = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")

# Fast path: a whole element with no whitespace and ASCII digits only, read
# as "{", terms split at commas, "}".  A number can never be followed by a
# character it could also contain, and no term holds a comma or a brace,
# so this accepts exactly the texts of that form the scanner accepts, with
# the same terms.  Everything else goes to the scanner, the only source of
# syntax errors.
_ASCII_NUMBER = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_TERM = re.compile(rf"s_({_ASCII_NUMBER})<o_({_ASCII_NUMBER})>")


class TermSyntaxError(ValueError):
    """Malformed element text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _location(self, pos: int | None = None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        handled = self.text[:pos]
        line = handled.count("\n") + 1
        column = pos - (handled.rfind("\n") + 1) + 1
        return line, column

    def error(self, message: str, pos: int | None = None) -> TermSyntaxError:
        line, column = self._location(pos)
        return TermSyntaxError(message, line, column)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, literal: str) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            found = self.text[self.pos:self.pos + len(literal)] or "end of input"
            raise self.error(f"expected '{literal}', found '{found}'")
        self.pos += len(literal)

    def peek(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def number(self) -> float:
        self.skip_ws()
        m = _NUMBER.match(self.text, self.pos)
        if m is None:
            raise self.error("expected a decimal subscript")
        self.pos = m.end()
        return float(m.group())

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_dhhfle(text: str, scale: DHLTScale, terms: dict | None = None) -> DHHFLE:
    """Parse one element; raises TermSyntaxError with position on bad input
    and ScaleRangeError when a subscript leaves the scale.

    ``terms`` maps term texts such as ``s_2<o_1>``, already built and
    checked against ``scale``, to their (immutable) terms.  Passing one
    dict for every element of a document builds and checks each distinct
    term text once; a term that fails is not stored.
    """
    if not (text.startswith("{") and text.endswith("}")):
        return _scan_dhhfle(text, scale)
    if terms is None:
        terms = {}
    out = []
    for part in text[1:-1].split(","):
        term = terms.get(part)
        if term is None:
            match = _TERM.fullmatch(part)
            if match is None:
                return _scan_dhhfle(text, scale)
            term = DHLT(float(match[1]), float(match[2]))
            # in term order, as the scanner checks them
            scale.check(term.phi, term.varphi)
            terms[part] = term
        out.append(term)
    return DHHFLE(out)


def _scan_dhhfle(text: str, scale: DHLTScale) -> DHHFLE:
    """:func:`parse_dhhfle` one character at a time, with located errors."""
    s = _Scanner(text)
    s.expect("{")
    terms = [_parse_term(s, scale)]
    while s.peek(","):
        s.expect(",")
        terms.append(_parse_term(s, scale))
    s.expect("}")
    if not s.at_end():
        raise s.error("unexpected trailing input")
    return DHHFLE(terms)


def _parse_term(s: _Scanner, scale: DHLTScale) -> DHLT:
    s.expect("s_")
    phi = s.number()
    s.expect("<o_")
    varphi = s.number()
    s.expect(">")
    scale.check(phi, varphi)
    return DHLT(phi, varphi)


def format_subscript(value: float) -> str:
    """Minimal decimal rendering: '2' not '2.0', '-1.5' stays '-1.5'."""
    out = repr(float(value))
    if out.endswith(".0"):
        out = out[:-2]
    return out


def format_dhhfle(h: DHHFLE, scale: DHLTScale) -> str:
    h.validate(scale)
    parts = (f"s_{format_subscript(t.phi)}<o_{format_subscript(t.varphi)}>"
             for t in h)
    return "{" + ",".join(parts) + "}"
