import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3wgdm import syntax
from s3wgdm.caseio import validate_case_dict
from s3wgdm.linguistic import DHHFLE, DHLT, DHLTScale, ScaleRangeError
from s3wgdm.syntax import CodeBook, TermSyntaxError, format_dhhfle, format_subscript, parse_dhhfle

S33 = DHLTScale(3, 3)

# number texts: signs, decimals with either side empty, exponents; some
# leave the 3x3 scale, and a few are malformed (doubled signs, an
# exponent without digits, a bare point)
digits = st.text("0123456789", min_size=1, max_size=3)
sign = st.sampled_from(["", "", "+", "-", "+-", "--"])
mantissa = st.one_of(digits, digits.map(lambda d: d + "."), digits.map(lambda d: "." + d),
                     st.builds(lambda a, b: f"{a}.{b}", digits, digits), st.just("."))
exponent = st.one_of(st.just(""), st.builds(lambda e, s, d: e + s + d, st.sampled_from("eE"),
                                            sign, st.one_of(digits, st.just(""))))
number_text = st.builds(lambda s, m, e: s + m + e, sign, mantissa, exponent)
term_text = st.builds(lambda p, v: f"s_{p}<o_{v}>", number_text, number_text)
element_text = st.lists(term_text, min_size=1, max_size=4).map(
    lambda ts: "{" + ",".join(ts) + "}")

# characters a mutation inserts: ASCII and Unicode spaces, signs, decimal
# points, exponents, ASCII and non-ASCII digits, and the grammar's own
# punctuation
INSERTED = " \t\n\u00a0\u2003\u3000+-.eE05\u0663\uff17\u00b2{},<>_so"


@st.composite
def mutated_elements(draw):
    text = draw(element_text)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "swap", "truncate"]))
        at = draw(st.integers(0, len(text)))
        if kind == "insert":
            text = text[:at] + draw(st.sampled_from(INSERTED)) + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1:]
        elif kind == "swap" and at + 1 < len(text):
            text = text[:at] + text[at + 1] + text[at] + text[at + 2:]
        elif kind == "truncate":
            text = text[:at]
    return text


def scan(text, scale):
    """The scanner's element, each term range-checked as it is read."""
    terms = []
    for phi, varphi in syntax._scan_dhhfle(text):
        scale.check(phi, varphi)
        terms.append(DHLT(phi, varphi))
    return DHHFLE(terms)


def outcome(parse, text):
    """The terms a parse returns, or the type and message it raises."""
    try:
        return parse(text, S33).terms
    except Exception as exc:
        return type(exc), str(exc)


class TestParse:
    def test_two_term_cell(self):
        h = parse_dhhfle("{s_2<o_0>,s_2<o_1>}", S33)
        assert h == DHHFLE([DHLT(2, 0), DHLT(2, 1)])

    def test_singleton(self):
        assert parse_dhhfle("{s_0<o_0>}", S33) == DHHFLE([DHLT(0, 0)])

    def test_signs_and_decimals(self):
        h = parse_dhhfle("{s_-1.5<o_+2.25>}", S33)
        assert h == DHHFLE([DHLT(-1.5, 2.25)])

    def test_whitespace_tolerated(self):
        h = parse_dhhfle(" { s_1<o_0> ,\n s_2<o_-1> } ", S33)
        assert h == DHHFLE([DHLT(1, 0), DHLT(2, -1)])

    def test_syntax_error_carries_position(self):
        with pytest.raises(TermSyntaxError) as err:
            parse_dhhfle("{s_1<o_0>", S33)
        assert err.value.line == 1
        assert err.value.column == 10

        with pytest.raises(TermSyntaxError) as err:
            parse_dhhfle("{x_1<o_0>}", S33)
        assert err.value.column == 2

    def test_multiline_position(self):
        with pytest.raises(TermSyntaxError) as err:
            parse_dhhfle("{s_1<o_0>,\n?}", S33)
        assert err.value.line == 2
        assert err.value.column == 1

    def test_range_violation_is_domain_error(self):
        with pytest.raises(ScaleRangeError, match="4"):
            parse_dhhfle("{s_4<o_0>}", S33)

    def test_trailing_garbage(self):
        with pytest.raises(TermSyntaxError):
            parse_dhhfle("{s_1<o_0>} tail", S33)

    def test_empty_braces(self):
        with pytest.raises(TermSyntaxError):
            parse_dhhfle("{}", S33)


class TestFormat:
    def test_minimal_decimals(self):
        assert format_subscript(2.0) == "2"
        assert format_subscript(-1.5) == "-1.5"
        assert format_subscript(0.9) == "0.9"

    def test_format_example(self):
        h = DHHFLE([DHLT(0.9, 0.6)])
        assert format_dhhfle(h, S33) == "{s_0.9<o_0.6>}"

    def test_corpus_roundtrip(self):
        import random

        rng = random.Random(7)
        for _ in range(100):
            terms = [DHLT(round(rng.uniform(-3, 3), 3), round(rng.uniform(-3, 3), 3))
                     for _ in range(rng.randint(1, 4))]
            h = DHHFLE(terms)
            text = format_dhhfle(h, S33)
            assert format_dhhfle(parse_dhhfle(text, S33), S33) == text

    @given(st.lists(
        st.tuples(st.floats(min_value=-3, max_value=3, allow_nan=False),
                  st.floats(min_value=-3, max_value=3, allow_nan=False)),
        min_size=1, max_size=4))
    @settings(max_examples=200)
    def test_parse_format_inverse(self, raw):
        h = DHHFLE([DHLT(p, v) for p, v in raw])
        text = format_dhhfle(h, S33)
        assert parse_dhhfle(text, S33) == h


class TestFastPath:
    """``parse_dhhfle`` takes a regular-expression fast path on well-formed
    text and falls back to the scanner on anything else; both must give
    the same terms, or the same error."""

    def test_canonical_text_skips_the_scanner(self, monkeypatch):
        def scanner_called(text):
            raise AssertionError(f"scanner ran on {text!r}")

        monkeypatch.setattr(syntax, "_scan_dhhfle", scanner_called)
        h = parse_dhhfle("{s_-1.5<o_+2.25>,s_.5<o_1e0>,s_3.<o_-0>}", S33)
        assert h.terms == (DHLT(-1.5, 2.25), DHLT(0.5, 1.0), DHLT(3.0, -0.0))

    def test_unicode_digits_and_spaces_go_to_the_scanner(self):
        # the scanner reads any Unicode digit and skips any Unicode space
        h = parse_dhhfle("{s_٢<o_１>, s_1<o_0> }", S33)
        assert h.terms == (DHLT(2.0, 1.0), DHLT(1.0, 0.0))

    @given(mutated_elements())
    @settings(max_examples=500, deadline=None)
    def test_fast_path_agrees_with_scanner(self, text):
        assert outcome(parse_dhhfle, text) == outcome(scan, text)


class TestErrorPrecedence:
    """Terms are read and range-checked in order: an off-scale term raises
    before a later syntax error, and a syntax error before a later
    off-scale term, with the same message in a case's located problems."""

    @pytest.mark.parametrize("text, error, message", [
        ("{ s_9<o_0> , x }", ScaleRangeError, "first-hierarchy subscript 9.0 outside [-3, 3]"),
        ("{ s_1<o_0> , x }", TermSyntaxError, "expected 's_', found 'x ' at line 1, column 14"),
        ("{ x , s_9<o_0> }", TermSyntaxError, "expected 's_', found 'x ' at line 1, column 3"),
    ], ids=["scale-then-syntax", "syntax-after-a-good-term", "syntax-then-scale"])
    def test_first_failure_in_reading_order(self, text, error, message):
        with pytest.raises(ValueError) as err:
            parse_dhhfle(text, S33)
        assert (type(err.value), str(err.value)) == (error, message)
        doc = {"scale": {"tau": 3, "sigma_scale": 3}, "alternatives": ["x1"],
               "attributes": [{"id": "a1", "weight": 1.0}],
               "experts": [{"id": "E1", "weight": 1.0, "table": [[text]]}]}
        assert validate_case_dict(doc) == (None, [f"experts[0].table[0][0]: {message}"])


class TestCodeBookMeans:
    def test_long_cell_among_short_ones(self):
        # 3,000 one- to four-term cells and one of 3,000 terms; a (cells x
        # longest cell) intermediate would take 72 MB
        rng = random.Random(1)
        values = [-0.0, 0.0, 0.1, 1.5, -2.25, 3.0]
        cells = [[(rng.choice(values), rng.choice(values)) for _ in range(rng.randint(1, 4))]
                 for _ in range(3000)]
        cells.insert(1234, [(rng.choice(values), rng.choice(values)) for _ in range(3000)])
        book = CodeBook(S33)
        assert [book.pairs(cell) for cell in cells] == list(range(len(cells)))
        tracemalloc.start()
        try:
            means = book.means()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = [(sum(p for p, _ in cell) / len(cell), sum(v for _, v in cell) / len(cell))
                for cell in cells]
        assert means.tobytes() == np.array(want).tobytes()
        assert peak < 2_000_000

    def test_means_follow_cells_added_after_a_read(self):
        book = CodeBook(S33)
        book.text("{s_1<o_0>,s_2<o_-0>}")
        assert book.means().tolist() == [[1.5, 0.0]]
        book.text("{s_-0<o_-0>}")
        assert book.means().tobytes() == np.array([[1.5, 0.0], [0.0, 0.0]]).tobytes()

    def test_empty_book(self):
        assert CodeBook(S33).means().shape == (0, 2)


# on-scale subscripts, signed zeros among them; a few cells of a small pool
# so that bulk lists repeat texts already coded
SUBSCRIPT = ["0", "-0", "1", "-1.5", "2.25", "3", ".5", "0.1"]
book_text = st.lists(st.tuples(st.sampled_from(SUBSCRIPT), st.sampled_from(SUBSCRIPT)),
                     min_size=1, max_size=3).map(
    lambda ts: "{" + ",".join(f"s_{p}<o_{v}>" for p, v in ts) + "}")
book_step = st.one_of(
    st.tuples(st.just("bulk"), st.lists(book_text, min_size=1, max_size=6)),
    st.tuples(st.just("text"), book_text.map(lambda t: t.replace(",", " , ") + " ")),
    st.tuples(st.just("pairs"), st.lists(st.tuples(st.sampled_from([-0.0, 0.0, 0.7, -3.0]),
                                                   st.sampled_from([0.0, 1.5, -2.0])),
                                         min_size=1, max_size=3)),
    st.tuples(st.just("read"), st.none()),
)


class TestArrayBook:
    """Cells coded in bulk, one text at a time and as subscript pairs, in
    any order, with reads between, read as each cell on its own would."""

    @staticmethod
    def check(book, want):
        assert [[(t.phi.hex(), t.varphi.hex()) for t in book.element(c)]
                for c in range(len(want))] == \
            [[(float(p).hex(), float(v).hex()) for p, v in cell] for cell in want]
        means = [(sum(p for p, _ in cell) / len(cell), sum(v for _, v in cell) / len(cell))
                 for cell in want]
        assert book.means().tobytes() == np.array(means).reshape(-1, 2).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(book_step, min_size=1, max_size=8))
    def test_interleaved_steps_match_each_cell_alone(self, steps):
        book, want, coded = CodeBook(S33), [], {}

        def alone(text):
            return list(syntax._scan_dhhfle(text))

        for kind, arg in steps:
            if kind == "bulk":
                codes = book.code_texts(arg)
                assert codes is not None
                for text in arg:
                    if text not in coded:
                        coded[text] = len(want)
                        want.append(alone(text))
                assert codes.tolist() == [coded[text] for text in arg]
            elif kind == "text":
                if arg not in coded:
                    coded[arg] = len(want)
                    want.append(alone(arg))
                assert book.text(arg) == coded[arg]
            elif kind == "pairs":
                assert book.pairs(arg) == len(want)
                want.append(arg)
            else:
                self.check(book, want)
        self.check(book, want)
