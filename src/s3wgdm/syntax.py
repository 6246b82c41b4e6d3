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
from itertools import filterfalse
from typing import Iterable

import numpy as np

from .linguistic import DHLT, DHHFLE, DHLTScale

TERM = "s_%s<o_%s>"  # a term's text, given the texts of its two subscripts
_NUMBER = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")

# Fast path (CodeBook._split): whole elements with no whitespace and ASCII
# digits only, joined by a NUL; each "}NUL{" joint is made a comma and a NUL
# and the whole split at commas, so every part must be a term, after one NUL
# where a text other than the first opens.  A number is never followed by a
# character it could also contain, and no term holds a brace, a comma or a
# NUL: with braces at both ends, one joint and one NUL-led part per joiner
# and none first, this accepts exactly the "{" terms "}" texts the scanner
# accepts, with the same terms.  All else goes to the scanner, the only
# source of syntax errors.
_ASCII_NUMBER = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_TERM = re.compile(TERM % ((f"({_ASCII_NUMBER})",) * 2))


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


class CodeBook:
    """Every distinct term and cell of one document, each under an int code.

    A term text such as ``s_2<o_1>`` gets a code and its subscripts the
    first time it is seen, once its range check passes.  A cell text gets
    a code and its term codes the first time it parses; :attr:`texts` maps
    it to that code.  :meth:`code_texts` codes a list of texts in bulk;
    :meth:`text` codes one, through the scanner outside the fast path (see
    ``_TERM``).  Cells of subscript pairs get fresh codes.  Failures are
    not stored, so each bad occurrence raises on its own.

    :meth:`means` is every cell's linguistic expected value, computed with
    numpy from the term codes, kept in arrays; :meth:`element` builds one
    cell's element on demand.
    """

    def __init__(self, scale: DHLTScale):
        self.scale = scale
        self.texts: dict = {}  # cell text -> cell code
        self._terms: dict = {}  # term text -> 2 * term code, NUL and term text -> that + 1
        self._phi: list = []  # term code -> subscripts
        self._varphi: list = []
        self._cells = self._size = 0  # cells coded so far, and their terms
        self._flat: list = []  # arrays of the term codes of every cell, cell after cell
        self._starts: list = []  # arrays of each cell's first position in the joined _flat
        self._loose: tuple = ([], [])  # the same of the cells since coded one by one
        self._means = None

    def _term(self, phi: float, varphi: float) -> int:
        self.scale.check(phi, varphi)
        self._phi.append(phi)
        self._varphi.append(varphi)
        return len(self._phi) - 1

    def _cell(self, term_codes: list) -> int:
        self._means = None
        self._loose[0].extend(term_codes)
        self._loose[1].append(self._size)
        self._size += len(term_codes)
        self._cells += 1
        return self._cells - 1

    def _flush(self) -> None:
        if self._loose[1]:
            self._flat.append(np.array(self._loose[0], np.intp))
            self._starts.append(np.array(self._loose[1], np.intp))
            self._loose = ([], [])

    def _arrays(self) -> tuple:
        """Every cell's term codes and starts, joined once per change."""
        if self._loose[1] or len(self._starts) != 1:
            self._flush()
            self._flat = [np.concatenate([np.empty(0, np.intp), *self._flat])]
            self._starts = [np.concatenate([np.empty(0, np.intp), *self._starts])]
        return self._flat[0], self._starts[0]

    def text(self, text: str) -> int:
        """The code of a cell text, parsed the first time it is seen."""
        if text not in self.texts:
            split = self._split([text])
            self.texts[text] = self._cell(self.parse(text) if split is None else split[0].tolist())
        return self.texts[text]

    def code_texts(self, cells: list) -> np.ndarray | None:
        """The codes of a list of cell texts, the new ones coded in bulk by
        :meth:`_split`.  Returns None, having stored no cell, if it fails,
        for the caller to read the cells one by one and locate each failure.
        """
        texts = self.texts
        try:
            new = list(dict.fromkeys(filterfalse(texts.__contains__, cells)))
        except TypeError:  # an unhashable cell
            return None
        if new:
            split = self._split(new)
            if split is None:
                return None
            self._flush()
            self._means = None
            self._flat.append(split[0])
            self._starts.append(split[1] + self._size)
            self._size += len(split[0])
            self._cells += len(new)
            texts.update(zip(new, range(self._cells - len(new), self._cells)))
        return np.fromiter(map(texts.__getitem__, cells), np.intp, len(cells))

    def _split(self, new: list) -> tuple | None:
        """The term codes of distinct cell texts, text after text, and the
        first position of each text's terms, read by the fast path (see
        ``_TERM``); None if any text fails it.  Term texts new to the
        document are range-checked in first-seen order.  A part's code
        carries its leading NUL in the low bit."""
        try:
            doc = "\0".join(new)
        except TypeError:  # a cell that is not a string
            return None
        body = doc[1:-1].replace("}\0{", ",\0")
        if (len(doc) - len(body) != len(new) + 1 or body.startswith("\0")
                or not (doc.startswith("{") and doc.endswith("}"))):
            return None
        parts = body.split(",")
        terms = self._terms
        try:
            flat = np.fromiter(map(terms.__getitem__, parts), np.intp, len(parts))
        except KeyError:  # term texts new to the document, checked in order
            for part in filterfalse(terms.__contains__, dict.fromkeys(parts)):
                match = _TERM.fullmatch(part, part.startswith("\0"))
                if match is None:
                    return None
                try:
                    code = self._term(float(match[1]), float(match[2]))
                except ValueError:  # off the scale
                    return None
                terms[match[0]], terms["\0" + match[0]] = 2 * code, 2 * code + 1
            flat = np.fromiter(map(terms.__getitem__, parts), np.intp, len(parts))
        flat[0] |= 1  # the first text, which opens with no NUL
        starts = np.flatnonzero(flat & 1)
        return (flat >> 1, starts) if len(starts) == len(new) else None

    def release_texts(self) -> None:
        """Forget the text dictionaries, which only coding reads, once the
        document is coded; a text seen before is coded afresh after this."""
        self.texts, self._terms = {}, {}

    def pairs(self, pairs: Iterable) -> int:
        """A fresh code for a cell of ``(phi, varphi)`` pairs, each checked
        in order as it is drawn."""
        return self._cell([self._term(phi, varphi) for phi, varphi in pairs])

    def parse(self, text: str) -> list:
        """The term codes of one element text, read by the scanner; raises
        TermSyntaxError with position on bad input and ScaleRangeError when
        a subscript leaves the scale."""
        return [self._term(t.phi, t.varphi) for t in _scan_dhhfle(text, self.scale)]

    def element(self, code: int) -> DHHFLE:
        """The element of one cell code, built on each call."""
        flat, starts = self._arrays()
        stop = starts[code + 1] if code + 1 < len(starts) else len(flat)
        return DHHFLE(DHLT(self._phi[t], self._varphi[t])
                      for t in flat[starts[code]:stop].tolist())

    def means(self) -> np.ndarray:
        """The (K, 2) array of each cell's mean ``phi`` and ``varphi``.

        Terms are summed position by position, in term order, from zeros,
        and the sums divided by the term counts: the arithmetic of
        ``sum(phis) / n``, bit for bit.  Cells are sorted by term count,
        longest first, so position ``p`` adds one term to a prefix of them
        and the work stays linear in the number of terms.
        """
        if self._means is None:
            flat, starts = self._arrays()
            counts = np.diff(starts, append=len(flat))
            order = np.argsort(-counts, kind="stable")
            starts, counts = starts[order], counts[order]
            terms = np.array([self._phi, self._varphi]).reshape(2, -1).T
            # longer[p]: how many cells have more than p terms
            longer = len(counts) - np.cumsum(np.bincount(counts))
            total = np.zeros((len(counts), 2))
            for p, a in enumerate(longer[:-1].tolist()):
                total[:a] += terms[flat[starts[:a] + p]]
            self._means = np.empty_like(total)
            self._means[order] = total / counts[:, None]
        return self._means


def parse_dhhfle(text: str, scale: DHLTScale) -> DHHFLE:
    """Parse one element; raises TermSyntaxError with position on bad input
    and ScaleRangeError when a subscript leaves the scale."""
    book = CodeBook(scale)
    return book.element(book.text(text))


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


def format_term(phi: float, varphi: float) -> str:
    """One term's text, such as ``s_2<o_-1.5>``."""
    return TERM % (format_subscript(phi), format_subscript(varphi))


def format_dhhfle(h: DHHFLE, scale: DHLTScale) -> str:
    h.validate(scale)
    return "{" + ",".join(format_term(t.phi, t.varphi) for t in h) + "}"
