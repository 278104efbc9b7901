"""Data model and file-format tests: parsing, round-trips, dedup, merge."""

import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from plrank.corpus import (
    Corpus,
    DataError,
    Hypothesis,
    NBestList,
    ParseError,
    Rows,
    _lines,
    _parse_number,
    _records,
    dedup,
    feature_matrix,
    format_weights,
    merge,
    model_scores,
    nbest_line,
    parse_first_hypotheses,
    parse_nbest,
    parse_refs,
    parse_weights,
    weights_vector,
    write_nbest,
)
from plrank.tuner import SPEC_KEYS, SyntheticDecoderSpec, parse_spec, synthetic_decode, synthetic_references

SAMPLE = (
    "0 ||| der mann ||| lm=-2.5 tm=0.4 ||| -1.25\n"
    "0 ||| der herr ||| lm=-3.0 wp=2.0 ||| -2.5\n"
    "1 ||| guten tag ||| lm=-1.0 ||| -0.5\n"
)

# an input too long for an error message to repeat
LONG = "x" * 5000


def dense(rows):
    """A Rows block as a dense array, read by scipy as the oracle."""
    return sp.csr_matrix((rows.data, rows.indices, rows.indptr), shape=rows.shape).toarray()


# every character an N-best token or feature name can carry: no whitespace,
# no line break and no "|"; a feature name also has no "="
FORMAT_CHARS = st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs"), blacklist_characters="|")


NAME_RULE = "is empty or holds whitespace, '=' or '|||'"

# tokens and feature names over every character, with the pieces that an
# N-best line gives a meaning of its own drawn often
LINE_PIECES = st.lists(
    st.one_of(st.characters(blacklist_categories=("Cs",)), st.sampled_from(["|||", "|", "=", " ", "\t", "\x85"])),
    max_size=5,
).map("".join)

# feature values and decoder scores, NaN and infinities among them drawn often
LINE_NUMBERS = st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf")]))


def hyp(sent_id, tokens, features=None, score=0.0):
    return Hypothesis(tuple(tokens.split()), dict(features or {}), score)


class TestParseNbest:
    def test_basic_fields(self):
        corpus = parse_nbest(SAMPLE)
        assert len(corpus.lists) == 2
        first = corpus.lists[0].hypotheses[0]
        assert corpus.lists[0].sent_id == 0
        assert first.tokens == ("der", "mann")
        assert first.features == {"lm": -2.5, "tm": 0.4}
        assert first.decoder_score == -1.25

    def test_grouping_preserves_order_and_ids(self):
        text = (
            "3 ||| a ||| f=1.0 ||| 0.0\n"
            "1 ||| b ||| f=2.0 ||| 0.0\n"
            "3 ||| c ||| f=3.0 ||| 0.0\n"
        )
        corpus = parse_nbest(text)
        assert [lst.sent_id for lst in corpus.lists] == [3, 1]
        assert [h.tokens for h in corpus.lists[0].hypotheses] == [("a",), ("c",)]

    def test_feature_index_first_appearance_order(self):
        # first seen out of sorted order, across lines and sentences
        corpus = parse_nbest(
            "0 ||| a ||| wp=1.0 lm=2.0 ||| 0.0\n"
            "0 ||| b ||| tm=1.0 lm=0.5 ||| 0.0\n"
            "1 ||| c ||| b=1.0 wp=3.0 ||| 0.0\n"
        )
        assert list(corpus.feature_index.items()) == [("wp", 0), ("lm", 1), ("tm", 2), ("b", 3)]

    def test_feature_index_is_bijection(self):
        corpus = parse_nbest(SAMPLE)
        indices = sorted(corpus.feature_index.values())
        assert indices == list(range(len(corpus.feature_index)))

    def test_empty_token_field_allowed(self):
        corpus = parse_nbest("0 |||  ||| f=1.0 ||| 0.0\n")
        assert corpus.lists[0].hypotheses[0].tokens == ()

    def test_absent_features_are_zero_in_matrix(self):
        corpus = parse_nbest(SAMPLE)
        matrix = dense(feature_matrix(corpus.lists[0], corpus.feature_index))
        np.testing.assert_array_equal(matrix[0], [-2.5, 0.4, 0.0])
        np.testing.assert_array_equal(matrix[1], [-3.0, 0.0, 2.0])

    @pytest.mark.parametrize(
        "bad, lineno",
        [
            ("0 ||| a ||| f=1.0\n", 1),  # three fields
            ("0 ||| a ||| f=1.0 ||| 0.0 ||| x\n", 1),  # five fields
            ("0 ||| a ||| f=oops ||| 0.0\n", 1),  # non-numeric value
            ("0 ||| a ||| f=1.0 ||| oops\n", 1),  # non-numeric score
            ("0 ||| a ||| f=1.0 f=2.0 ||| 0.0\n", 1),  # duplicate feature
            ("x ||| a ||| f=1.0 ||| 0.0\n", 1),  # bad id
            ("-1 ||| a ||| f=1.0 ||| 0.0\n", 1),  # negative id
            ("0 ||| a ||| f=nan ||| 0.0\n", 1),  # non-finite value
            ("0 ||| a ||| =1.0 ||| 0.0\n", 1),  # empty name
        ],
    )
    def test_parse_errors_carry_line_number(self, bad, lineno):
        with pytest.raises(ParseError) as err:
            parse_nbest(bad)
        assert err.value.line_no == lineno
        assert f"line {lineno}" in str(err.value)

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_nbest, "1_0 ||| a ||| f=1.0 ||| 0.0\n", "sentence id '1_0' is not an integer"),
            (parse_nbest, "+1 ||| a ||| f=1.0 ||| 0.0\n", "sentence id '+1' is not an integer"),
            (parse_nbest, "\u0663 ||| a ||| f=1.0 ||| 0.0\n", "sentence id '\u0663' is not an integer"),
            (parse_refs, "\u0663 ||| a\n", "sentence id '\u0663' is not an integer"),
            (parse_nbest, "0 ||| a ||| f=1_0.5 ||| 0.0\n", "feature 'f' value '1_0.5' is not a number"),
            (parse_nbest, "0 ||| a ||| f=1.0 ||| \u0663\n", "decoder score '\u0663' is not a number"),
            (parse_weights, "f\t1_0\n", "weight 'f' '1_0' is not a number"),
            (parse_nbest, "007 ||| a ||| f=1.0 ||| 0.0\n", "sentence id '007' is not in canonical form"),
            (parse_nbest, "-0 ||| a ||| f=1.0 ||| 0.0\n", "sentence id '-0' is not in canonical form"),
            (parse_refs, "007 ||| a\n", "sentence id '007' is not in canonical form"),
            (parse_refs, "-0 ||| a\n", "sentence id '-0' is not in canonical form"),
            # a long id is named by its length, not echoed
            (parse_nbest, "1" + "_1" * 2000 + " ||| a ||| f=1.0 ||| 0.0\n",
             "sentence id of 4001 characters is not an integer"),
            (parse_nbest, "0" + "1" * 4000 + " ||| a ||| f=1.0 ||| 0.0\n",
             "sentence id of 4001 characters is not in canonical form"),
            (parse_refs, "-" + "1" * 4000 + " ||| a\n", "sentence id of 4001 characters is negative"),
            # so is every other long input a message quotes
            (parse_nbest, f"0 ||| a ||| {LONG} ||| 0.0\n", "feature of 5000 characters is not <name>=<value>"),
            (parse_nbest, f"0 ||| a ||| f={LONG} ||| 0.0\n", "feature 'f' value of 5000 characters is not a number"),
            (parse_nbest, f"0 ||| a ||| f={'9' * 5000} ||| 0.0\n",
             "feature 'f' value of 5000 characters is not finite"),
            (parse_nbest, f"0 ||| a ||| {LONG}=1_0 ||| 0.0\n",
             "feature of 5000 characters value '1_0' is not a number"),
            (parse_nbest, f"0 ||| a ||| {LONG}=1 {LONG}=2 ||| 0.0\n", "duplicate feature of 5000 characters"),
            (parse_nbest, f"0 ||| a ||| f=1.0 ||| {LONG}\n", "decoder score of 5000 characters is not a number"),
            (parse_weights, f"f\t{LONG}\n", "weight 'f' of 5000 characters is not a number"),
            (parse_weights, f"{LONG}\t1_0\n", "weight of 5000 characters '1_0' is not a number"),
            # the limit is on the printed form: 32 characters with its quotes
            (parse_nbest, f"0 ||| a ||| {'x' * 30} ||| 0.0\n",
             f"feature '{'x' * 30}' is not <name>=<value>"),
            (parse_nbest, f"0 ||| a ||| {'x' * 31} ||| 0.0\n", "feature of 31 characters is not <name>=<value>"),
        ],
        ids=["underscore-id", "plus-id", "arabic-indic-id", "arabic-indic-ref-id",
             "underscore-value", "arabic-indic-score", "underscore-weight",
             "leading-zero-id", "minus-zero-id", "leading-zero-ref-id", "minus-zero-ref-id",
             "long-underscore-id", "long-leading-zero-id", "long-negative-ref-id",
             "long-feature-item", "long-feature-value", "long-infinite-feature-value",
             "long-feature-name-bad-value", "long-duplicate-feature", "long-decoder-score",
             "long-weight-value", "long-weight-name-bad-value",
             "item-at-echo-limit", "item-past-echo-limit"],
    )
    def test_ids_and_numbers_are_plain_ascii(self, parse, text, message):
        # int() and float() would read these as 10, 1, 3, 3, 10.5, 3, 10, 7, 0, 7, 0,
        # 2,001 ones, 4,000 ones and minus 4,000 ones; an input longer than 32
        # printed characters is named by its length, so the message stays one short line
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"line 1: {message}"
        assert len(str(err.value)) < 120

    @given(st.text("ab\n\r\f\u2028", max_size=12))
    def test_lines_are_the_newline_split_without_a_last_empty_line(self, text):
        lines = text.split("\n")
        assert list(_lines(text)) == (lines[:-1] if lines[-1] == "" else lines)

    def test_lines_end_only_at_newline(self):
        # str.splitlines would also break at the form feed and at U+2028
        with pytest.raises(ParseError) as err:
            parse_refs("0 ||| a b\f1 ||| c d\n")
        assert str(err.value) == "line 1: expected 2 '|||'-separated fields, got 3"
        corpus = parse_nbest("0 ||| a\u2028b ||| f=1.0 ||| 0.0\n")
        assert corpus.lists[0].hypotheses[0].tokens == ("a", "b")
        with pytest.raises(ParseError) as err:
            parse_nbest("0 ||| a\u2028b ||| f=1.0 ||| 0.0\n0 ||| c\n")
        assert err.value.line_no == 2

    def test_error_line_number_points_at_offender(self):
        text = SAMPLE + "9 ||| z ||| broken ||| 0.0\n"
        with pytest.raises(ParseError) as err:
            parse_nbest(text)
        assert err.value.line_no == 4

    def test_each_feature_name_is_one_string(self):
        # "lm_score" is cut from each line afresh; the corpus keeps the first cut
        corpus = parse_nbest("0 ||| a ||| lm_score=1.0 tm=2.0 ||| 0.0\n1 ||| b ||| tm=3.0 lm_score=4.0 ||| 0.0\n")
        (a,), (b,) = (lst.hypotheses for lst in corpus.lists)
        key_a, key_b, key_index = (next(k for k in keys if k == "lm_score")
                                   for keys in (a.features, b.features, corpus.feature_index))
        assert key_a is key_b is key_index


# The parsers as they were before feature names were shared: each
# hypothesis keeps the name strings cut from its own line, and the feature
# index is built by a second pass over every hypothesis's names.  The
# parsers must accept and reject exactly what these do.
def walked_hypothesis(line_no, fields):
    features = {}
    for item in fields[2].split():
        name, eq, value = item.partition("=")
        if not eq or not name:
            raise ParseError(line_no, f"feature {item!r} is not <name>=<value>")
        if name in features:
            raise ParseError(line_no, f"duplicate feature {name!r}")
        features[name] = _parse_number(value, line_no, f"feature {name!r} value")
    return Hypothesis(tuple(fields[1].split()), features, _parse_number(fields[3], line_no, "decoder score"))


def walked_parse_nbest(text):
    order, grouped, index = [], {}, {}
    for line_no, sent_id, fields in _records(text, (4,)):
        hyp = walked_hypothesis(line_no, fields)
        for name in hyp.features:
            if name not in index:
                index[name] = len(index)
        if sent_id not in grouped:
            grouped[sent_id] = []
            order.append(sent_id)
        grouped[sent_id].append(hyp)
    return Corpus(tuple(NBestList(sid, tuple(grouped[sid])) for sid in order), index)


def walked_first_hypotheses(text):
    first = {}
    for line_no, sent_id, fields in _records(text, (2, 4)):
        hyp = walked_hypothesis(line_no, fields).text if len(fields) == 4 else " ".join(fields[1].split())
        first.setdefault(sent_id, hyp)
    return first


def outcome(parse, text):
    try:
        return parse(text), None
    except ParseError as err:
        return None, (str(err), err.line_no)


# feature fields of well-formed items with at most one hostile item among
# them: few names, so they repeat; values that overflow, are not finite, not
# ASCII or carry "_"; items with no "=", two or an empty side, which can pair
# up across items ("f=1=2 3"); empty fields; Unicode whitespace between items
FIELD_NAME = st.sampled_from(["f", "lm_score", "tm\u20ac", "_", "1"])
FIELD_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from(["1", "-0.5", "1e308", "-1e308"])
)
HOSTILE_ITEM = st.sampled_from([
    "f", "f==1", "=1", "f=", "=", "f=1=2", "3", "==", "\u0663", "f=1e999", "f=-1e999", "f=inf", "f=nan",
    "f=1_0", "_=1_0", "f=\u0663", "f=_", "f=x", "f=0x1", "f=1\xa0", "tm\u20ac=\u0661.5",
])
FIELD_SPACE = st.sampled_from([" ", " ", " ", "  ", "\t", "\u3000", "\xa0", "\x1c"])


@st.composite
def feature_field(draw):
    items = draw(st.lists(st.builds("{}={}".format, FIELD_NAME, FIELD_VALUE), max_size=5))
    hostile = draw(st.one_of(st.none(), HOSTILE_ITEM))
    if hostile is not None:
        items.insert(draw(st.integers(0, len(items))), hostile)
    return draw(FIELD_SPACE).join(items)


LINE_ID = st.sampled_from(["0", "0", "1", "1", "2", "01", "x"])
HOSTILE_NBEST_LINE = st.builds(
    "{} ||| {} ||| {} ||| {}".format,
    LINE_ID,
    st.sampled_from(["a b", "a", "", "b\u3000c"]),
    feature_field(),
    st.one_of(FIELD_VALUE, st.sampled_from(["nan", "1_0", "x"])),
)


class TestParseMatchesTheOldParsers:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(HOSTILE_NBEST_LINE, max_size=6))
    def test_parse_nbest_accepts_and_rejects_what_the_walk_does(self, lines):
        text = lf_text(lines)
        expected, expected_error = outcome(walked_parse_nbest, text)
        corpus, error = outcome(parse_nbest, text)
        assert error == expected_error
        if expected is None:
            return
        # == would ignore the order of each dict and the sign of a zero
        def content(c):
            return [
                (lst.sent_id, h.tokens, [(k, repr(v)) for k, v in h.features.items()], repr(h.decoder_score))
                for lst in c.lists
                for h in lst.hypotheses
            ], list(c.feature_index.items())

        assert content(corpus) == content(expected)
        assert [len(lst) for lst in corpus.lists] == [len(lst) for lst in expected.lists]
        for rows, want in zip(corpus.rows, expected.rows, strict=True):
            assert rows.shape == want.shape
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(rows, part), getattr(want, part))
        key = {k: k for k in corpus.feature_index}
        assert all(k is key[k] for lst in corpus.lists for h in lst.hypotheses for k in h.features)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(HOSTILE_NBEST_LINE, st.builds("{} ||| {}".format, LINE_ID, feature_field())),
                    max_size=6))
    def test_parse_first_hypotheses_accepts_and_rejects_what_the_walk_does(self, lines):
        text = lf_text(lines)
        assert outcome(parse_first_hypotheses, text) == outcome(walked_first_hypotheses, text)

    @pytest.mark.parametrize(
        "field, message",
        [
            ("f=1=2 3", "feature 'f' value '1=2' is not a number"),
            ("f=1 3=2", None),
            ("", None),
            ("f=1e308 g=1e308", None),
            ("f=1 f=1e999", "duplicate feature 'f'"),
            ("g=1e999 f=1 f=2", "feature 'g' value '1e999' is not finite"),
            ("f\u3000=1", "feature 'f' is not <name>=<value>"),
        ],
        ids=["pieces-pair-across-items", "digit-name", "empty-field", "finite-values-overflowing-sum",
             "duplicate-before-bad-value", "first-fault-named", "unicode-space-in-item"],
    )
    def test_hand_picked_fields(self, field, message):
        text = f"0 ||| a ||| {field} ||| 0.0\n"
        corpus, error = outcome(parse_nbest, text)
        assert outcome(walked_parse_nbest, text) == (corpus, error)
        assert error == (None if message is None else (f"line 1: {message}", 1))


class TestRoundTrip:
    def test_canonical_sample(self):
        assert write_nbest(parse_nbest(SAMPLE)) == SAMPLE

    def test_shortest_float_rendering(self):
        text = "0 ||| a ||| f=0.1 g=-0.0 h=1e-20 ||| 3.0\n"
        out = write_nbest(parse_nbest(text))
        assert out == text
        assert write_nbest(parse_nbest(out)) == out

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.lists(st.text("abcd", min_size=1, max_size=3), max_size=4),
                    st.dictionaries(
                        st.text("fglmtw", min_size=1, max_size=3),
                        st.floats(allow_nan=False, allow_infinity=False),
                        max_size=4,
                    ),
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=60)
    def test_write_parse_write_fixpoint(self, groups):
        lists = [
            NBestList(sid, tuple(Hypothesis(tuple(t), f, s) for t, f, s in hyps))
            for sid, hyps in enumerate(groups)
        ]
        corpus = Corpus.from_lists(lists)
        text = write_nbest(corpus)
        reparsed = parse_nbest(text)
        assert write_nbest(reparsed) == text
        assert reparsed.feature_index == corpus.feature_index

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.lists(st.text(FORMAT_CHARS, min_size=1, max_size=4), max_size=4),
                    st.dictionaries(
                        st.text(FORMAT_CHARS.filter(lambda c: c != "="), min_size=1, max_size=4),
                        st.floats(allow_nan=False, allow_infinity=False),
                        max_size=3,
                    ),
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_parse_write_parse_byte_identical_for_any_names(self, groups):
        # one line per hypothesis, each sentence's lines together
        text = "".join(
            f"{sid} ||| {' '.join(tokens)} ||| "
            + " ".join(f"{name}={value!r}" for name, value in feats.items())
            + f" ||| {score!r}\n"
            for sid, hyps in enumerate(groups)
            for tokens, feats, score in hyps
        )
        corpus = parse_nbest(text)
        assert write_nbest(corpus) == text
        assert parse_nbest(write_nbest(corpus)) == corpus


@st.composite
def line_fields(draw):
    """(sent_id, tokens, features, score) of one N-best line, and the line
    as write_nbest renders it."""
    sent_id = draw(st.integers(0, 3))
    tokens = draw(st.lists(st.text(FORMAT_CHARS, min_size=1, max_size=4), max_size=4))
    features = draw(
        st.dictionaries(
            st.text(FORMAT_CHARS.filter(lambda c: c != "="), min_size=1, max_size=4),
            st.floats(allow_nan=False, allow_infinity=False),
            max_size=5,
        )
    )
    score = draw(st.floats(allow_nan=False, allow_infinity=False))
    feats = " ".join(f"{name}={value!r}" for name, value in features.items())
    return (sent_id, tokens, features, score), f"{sent_id} ||| {' '.join(tokens)} ||| {feats} ||| {score!r}"


class TestHypothesisStorage:
    @given(line_fields())
    @settings(max_examples=60, deadline=None)
    def test_parsed_line_equals_the_constructed_hypothesis(self, case):
        (_, tokens, features, score), line = case
        parsed = parse_nbest(line + "\n").lists[0].hypotheses[0]
        built = Hypothesis(tokens, features, score)
        assert parsed == built and built == parsed
        assert parsed.text == built.text == " ".join(tokens)
        assert parsed.tokens == built.tokens == tuple(tokens)
        assert repr(parsed) == repr(built)

    @given(line_fields())
    @settings(max_examples=60, deadline=None)
    def test_features_keep_line_order_and_the_line_round_trips(self, case):
        (sent_id, tokens, features, score), line = case
        parsed = parse_nbest(line + "\n").lists[0].hypotheses[0]
        for hyp in (parsed, Hypothesis(tokens, features, score)):
            assert [(name, repr(v)) for name, v in hyp.features.items()] == [
                (name, repr(v)) for name, v in features.items()
            ]
            assert nbest_line(sent_id, hyp, hyp.decoder_score) == line

    @pytest.mark.parametrize("token", ["", "a b", "a\tb", " a", "a\n", "a\u2028b", "\x85"])
    def test_a_token_a_line_cannot_carry_is_rejected(self, token):
        # written out, it would parse back as other tokens
        with pytest.raises(ValueError) as err:
            Hypothesis(("x", token), {"f": 1.0}, 0.0)
        assert str(err.value) == f"token {token!r} is empty or holds whitespace"

    @pytest.mark.parametrize(
        "tokens, features, message, score",
        [
            (("x",), {"x=1 y": 2.0}, f"feature name 'x=1 y' {NAME_RULE}", 0.0),
            (("x",), {"x y": 1.0}, f"feature name 'x y' {NAME_RULE}", 0.0),
            (("x",), {"x=y": 1.0}, f"feature name 'x=y' {NAME_RULE}", 0.0),
            (("x",), {"": 1.0}, f"feature name '' {NAME_RULE}", 0.0),
            (("x",), {"f": 1.0, "x|||y": 1.0}, f"feature name 'x|||y' {NAME_RULE}", 0.0),
            (("x", "a|||b"), {"f": 1.0}, "token 'a|||b' holds '|||'", 0.0),
            (("x", "|||"), {}, "token '|||' holds '|||'", 0.0),
            # the parser's words for the line each would write, less its prefix
            (("x",), {"f": float("inf")}, "feature 'f' value 'inf' is not finite", 0.0),
            (("x",), {"f": 1.0, "g": float("-inf")}, "feature 'g' value '-inf' is not finite", 0.0),
            (("x",), {"f": float("nan")}, "feature 'f' value 'nan' is not finite", 0.0),
            (("x",), {"f": 1.0}, "decoder score 'nan' is not finite", float("nan")),
            (("x",), {}, "decoder score '-inf' is not finite", float("-inf")),
        ],
    )
    def test_a_name_or_token_a_line_cannot_carry_back_is_rejected(self, tokens, features, message, score):
        # written out, each would parse back as other features or fail to parse
        with pytest.raises(ValueError) as err:
            Hypothesis(tokens, features, score)
        assert str(err.value) == message

    def test_a_negative_sentence_id_is_rejected(self):
        # in the parser's words for the line it would write, less its prefix
        with pytest.raises(ParseError, match="^line 1: sentence id -1 is negative$"):
            parse_nbest("-1 ||| x ||| f=1.0 ||| 0.0\n")
        with pytest.raises(ValueError) as err:
            NBestList(-1, (hyp(0, "x", {"f": 1.0}),))
        assert str(err.value) == "sentence id -1 is negative"
        assert NBestList(0, ()).sent_id == 0

    @given(
        st.lists(LINE_PIECES, max_size=4),
        st.dictionaries(LINE_PIECES, LINE_NUMBERS, max_size=4),
        LINE_NUMBERS,
    )
    @settings(max_examples=300, deadline=None)
    def test_a_hypothesis_is_refused_or_round_trips(self, tokens, features, score):
        try:
            built = Hypothesis(tokens, features, score)
        except ValueError:
            return
        corpus = parse_nbest(write_nbest(Corpus.from_lists([NBestList(0, (built,))])))
        parsed = corpus.lists[0].hypotheses[0]
        assert parsed == built
        assert repr(parsed) == repr(built)

    def test_frozen_and_compared_as_tokens_features_and_score(self):
        h = Hypothesis(["a", "b"], {"f": 1.0, "g": -0.5}, 0.25)
        for name in ("text", "tokens", "features", "decoder_score"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(h, name, None)
        # feature dicts compare regardless of order, as they always did
        assert h == Hypothesis(("a", "b"), {"g": -0.5, "f": 1.0}, 0.25)
        assert h != Hypothesis(("a",), {"f": 1.0, "g": -0.5}, 0.25)
        assert h != Hypothesis(("a", "b"), {"f": 1.0}, 0.25)
        assert repr(h) == "Hypothesis(tokens=('a', 'b'), features={'f': 1.0, 'g': -0.5}, decoder_score=0.25)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del h.text
        with pytest.raises(TypeError):
            hash(h)
        assert pickle.loads(pickle.dumps(h)) == h

    def test_parsed_corpus_holds_under_800_bytes_per_hypothesis(self):
        # 2,000 hypotheses of 8 tokens and 16 features (train-deep's shape)
        # over 200 names, so the feature index is small.  Measured on
        # CPython 3.11: the corpus holds 664 bytes per hypothesis, rows
        # included, and the parse peaks at 681, with no list of the lines;
        # the bound leaves 20 % for other Pythons
        spec = SyntheticDecoderSpec(num_sentences=40, feature_dim=200, seed=3, ref_len=8, features_per_hyp=16)
        text = write_nbest(synthetic_decode(spec, synthetic_references(spec), {}, 0, 50))
        tracemalloc.start()
        try:
            corpus = parse_nbest(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = corpus.total_hypotheses()
        assert n == 2000
        assert held < 800 * n and peak < 800 * n, (held / n, peak / n)


def first_occurrence_positions(lst):
    # the scan dedup is checked against: the first position of each token
    # sequence, or None when no sequence repeats
    first = {}
    for i, h in enumerate(lst.hypotheses):
        first.setdefault(h.tokens, i)
    return None if len(first) == len(lst.hypotheses) else list(first.values())


class TestDedup:
    @given(st.lists(st.sampled_from(["a", "b", "a b", ""]), max_size=8))
    def test_matches_the_first_occurrence_scan(self, tokens):
        lst = NBestList(3, tuple(hyp(3, t, {"f": float(i)}) for i, t in enumerate(tokens)))
        out, kept = dedup(lst)
        assert kept == first_occurrence_positions(lst)
        if kept is None:
            assert out is lst
        else:
            assert out.sent_id == 3
            assert all(h is lst.hypotheses[i] for h, i in zip(out.hypotheses, kept, strict=True))
            # dedup keeps nothing between calls: a second one gives the same
            again, kept_again = dedup(lst)
            assert again == out and kept_again == kept
        twice, none = dedup(out)
        assert twice is out and none is None

    def test_keeps_first_occurrence(self):
        lst = NBestList(
            0,
            (
                hyp(0, "a b", {"f": 1.0}, 0.5),
                hyp(0, "a b", {"f": 9.0}, 9.5),
                hyp(0, "a c", {"f": 2.0}, 1.5),
            ),
        )
        out, kept = dedup(lst)
        assert [h.tokens for h in out.hypotheses] == [("a", "b"), ("a", "c")]
        assert out.hypotheses[0].features == {"f": 1.0}
        assert kept == [0, 2]

    def test_identity_when_unique(self):
        lst = NBestList(0, (hyp(0, "a"), hyp(0, "b")))
        out, kept = dedup(lst)
        assert out is lst and kept is None

    def test_idempotent(self):
        lst = NBestList(0, tuple(hyp(0, t) for t in ["a", "b", "a", "c", "b"]))
        once, _ = dedup(lst)
        assert dedup(once) == (once, None)


class TestMerge:
    def test_concatenates_then_dedups_per_sentence(self):
        a = parse_nbest("0 ||| x ||| f=1.0 ||| 0.0\n")
        b = parse_nbest("0 ||| x ||| f=9.0 ||| 9.0\n0 ||| y ||| g=1.0 ||| 0.0\n")
        out = merge(a, b)
        hyps = out.lists[0].hypotheses
        assert [h.tokens for h in hyps] == [("x",), ("y",)]
        assert hyps[0].features == {"f": 1.0}  # a's copy wins

    def test_new_sentences_appended(self):
        a = parse_nbest("0 ||| x ||| f=1.0 ||| 0.0\n")
        b = parse_nbest("1 ||| y ||| g=1.0 ||| 0.0\n")
        out = merge(a, b)
        assert [lst.sent_id for lst in out.lists] == [0, 1]
        assert out.feature_index == {"f": 0, "g": 1}

    def test_repeated_sentence_id_is_one_list(self):
        # from_lists keeps two lists of one sentence apart; merge joins them
        a = Corpus.from_lists([NBestList(0, (hyp(0, "x", {"f": 1.0}),)), NBestList(0, (hyp(0, "y", {"g": 1.0}),))])
        b = Corpus.from_lists([NBestList(0, (hyp(0, "z", {"h": 1.0}),))])
        out = merge(a, b)
        assert [[h.tokens for h in lst.hypotheses] for lst in out.lists] == [[("x",), ("y",), ("z",)]]
        assert out.feature_index == {"f": 0, "g": 1, "h": 2}

    def test_merge_with_self_is_identity_on_sets(self):
        a = parse_nbest(SAMPLE)
        out = merge(a, a)
        assert write_nbest(out) == write_nbest(a)

    @given(st.data())
    @settings(max_examples=40)
    def test_associative(self, data):
        def tiny_corpus():
            n_lists = data.draw(st.integers(1, 3))
            lists = []
            for sid in range(n_lists):
                hyps = data.draw(
                    st.lists(
                        st.sampled_from(["a", "b", "c", "a b"]).map(
                            lambda t, s=sid: hyp(s, t, {"f": 1.0})
                        ),
                        min_size=1,
                        max_size=4,
                    )
                )
                lists.append(NBestList(sid, tuple(hyps)))
            return Corpus.from_lists(lists)

        a, b, c = tiny_corpus(), tiny_corpus(), tiny_corpus()
        assert merge(merge(a, b), c) == merge(a, merge(b, c))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_rows_are_the_merged_lists_feature_matrices(self, data):
        # few token sequences, so duplicates come within a round and across
        # rounds; sentences and feature names in any order, so a name first
        # seen in a later sentence reorders the merged index; lists may be empty
        def corpus(sids):
            lists = []
            for sid in sids:
                hyps = []
                for _ in range(data.draw(st.integers(0, 4))):
                    tokens = data.draw(st.sampled_from(["a", "b", "a b", ""]))
                    names = data.draw(st.lists(st.sampled_from("fghk"), unique=True, max_size=4))
                    values = data.draw(st.lists(st.integers(-3, 3), min_size=len(names), max_size=len(names)))
                    hyps.append(hyp(sid, tokens, {n: v / 2 for n, v in zip(names, values)}))
                lists.append(NBestList(sid, tuple(hyps)))
            return Corpus.from_lists(lists)

        # the first pool is any corpus: a sentence may have several lists, so
        # merge drops rows of the pool as well as of the round, and its index
        # may give out its ids in any order
        pool = corpus(data.draw(st.lists(st.integers(0, 3), max_size=4)))
        if data.draw(st.booleans()):
            ids = data.draw(st.permutations(range(len(pool.feature_index))))
            pool = Corpus(pool.lists, dict(zip(pool.feature_index, ids)))
        grouped = {}
        for lst in pool.lists:
            grouped.setdefault(lst.sent_id, []).extend(lst.hypotheses)
        for _ in range(data.draw(st.integers(1, 4))):
            b = corpus(data.draw(st.lists(st.integers(0, 3), unique=True, max_size=3)))
            for lst in b.lists:
                grouped.setdefault(lst.sent_id, []).extend(lst.hypotheses)
            pool = merge(pool, b)
            # what merge meant before it carried rows: rebuild from the survivors
            assert pool == Corpus.from_lists(dedup(NBestList(s, tuple(h)))[0] for s, h in grouped.items())
            # == ignores a dict's order; ids go out in insertion order, which
            # run_tuning relies on to name the weights by zipping the index
            assert list(pool.feature_index.values()) == list(range(len(pool.feature_index)))
            assert len(pool.rows) == len(pool.lists)
            for lst, rows in zip(pool.lists, pool.rows):
                expected = feature_matrix(lst, pool.feature_index)
                assert rows.shape == expected.shape
                for part in ("indptr", "indices", "data"):
                    np.testing.assert_array_equal(getattr(rows, part), getattr(expected, part))

    def test_index_given_out_of_id_order(self):
        # a hand-made index need not list its names in id order
        a = Corpus((NBestList(0, (hyp(0, "x", {"f": 1.0, "g": 2.0}),)),), {"g": 1, "f": 0})
        b = Corpus((NBestList(1, (hyp(1, "y", {"g": 5.0}),)),), {"g": 0})
        out = merge(a, b)
        assert out.feature_index == {"f": 0, "g": 1}
        assert [dense(m).tolist() for m in out.rows] == [[[1.0, 2.0]], [[0.0, 5.0]]]

    def test_merge_keeps_rows_of_hypotheses_it_keeps(self):
        # b's copy of "x" is dropped with its row, and so is the name only it has
        a = parse_nbest("0 ||| x ||| f=1.0 ||| 0.0\n")
        b = parse_nbest("1 ||| y ||| g=2.0 ||| 0.0\n0 ||| x ||| h=9.0 ||| 0.0\n0 ||| z ||| g=3.0 f=4.0 ||| 0.0\n")
        out = merge(a, b)
        assert out.feature_index == {"f": 0, "g": 1}
        assert [dense(m).tolist() for m in out.rows] == [[[1.0, 0.0], [4.0, 3.0]], [[0.0, 2.0]]]
        assert out.rows[0].indices.tolist() == [0, 1, 0]


class TestFeatureMatrix:
    @given(
        st.lists(st.dictionaries(st.sampled_from("fghkm"), st.floats(-1e3, 1e3), max_size=5), max_size=6),
        st.lists(st.sampled_from("fghkmz"), unique=True),
    )
    @settings(max_examples=80)
    def test_rows_follow_each_dict_and_reject_unknown_names(self, features, names):
        lst = NBestList(7, tuple(Hypothesis((), f, 0.0) for f in features))
        index = {name: i for i, name in enumerate(names)}
        unknown = [name for f in features for name in f if name not in index]
        if unknown:
            message = f"^sentence 7: feature '{unknown[0]}' is not in the feature index$"
            with pytest.raises(DataError, match=message):
                feature_matrix(lst, index)
            return
        matrix = feature_matrix(lst, index)
        indptr, indices, data = [0], [], []
        for f in features:
            for name, value in f.items():
                indices.append(index[name])
                data.append(value)
            indptr.append(len(indices))
        assert matrix.shape == (len(features), len(index))
        assert matrix.indptr.tolist() == indptr
        assert matrix.indices.tolist() == indices
        assert matrix.data.tolist() == data


class TestRows:
    def test_one_block_per_list_built_with_the_corpus(self):
        corpus = parse_nbest(SAMPLE)
        assert [m.shape for m in corpus.rows] == [(2, 3), (1, 3)]
        np.testing.assert_array_equal(dense(corpus.rows[0]), [[-2.5, 0.4, 0.0], [-3.0, 0.0, 2.0]])
        assert Corpus((), {}).rows == ()

    def test_rows_take_no_part_in_comparison_or_repr(self):
        corpus = parse_nbest(SAMPLE)
        again = parse_nbest(write_nbest(corpus))
        assert again == corpus and again.rows is not corpus.rows
        assert "rows" not in repr(corpus)

    def test_feature_missing_from_the_index_is_rejected(self):
        lists = (NBestList(4, (hyp(4, "a", {"f": 1.0, "g": 2.0}),)),)
        with pytest.raises(DataError, match="^sentence 4: feature 'g' is not in the feature index$"):
            Corpus(lists, {"f": 0})
        lists = (NBestList(4, (hyp(4, "a", {"f": 1.0, LONG: 2.0}),)),)
        with pytest.raises(DataError, match="^sentence 4: feature of 5000 characters is not in the feature index$"):
            Corpus(lists, {"f": 0})


# magnitudes from 1e-5 to 1e5 of either sign, and zeros of both signs
CSR_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-5, 5)),
)


@st.composite
def csr_blocks(draw, columns, max_rows=5):
    """A Rows block and the scipy CSR matrix of the same arrays: rows may be
    empty, and a row's columns come in any order."""
    rows = draw(st.lists(st.lists(st.integers(0, columns - 1), unique=True, max_size=columns), max_size=max_rows))
    indices = [c for row in rows for c in row]
    data = draw(st.lists(CSR_VALUE, min_size=len(indices), max_size=len(indices)))
    indptr = np.cumsum([0] + [len(row) for row in rows])
    block = Rows(np.array(data, dtype=float), np.array(indices, dtype=np.int64), indptr, (len(rows), columns))
    return block, sp.csr_matrix((block.data, block.indices, indptr), shape=block.shape)


def same_bits(a, b):
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_rows(rows, matrix):
    return (
        rows.shape == matrix.shape
        and rows.indptr.tolist() == matrix.indptr.tolist()
        and rows.indices.tolist() == matrix.indices.tolist()
        and same_bits(rows.data, matrix.data)
    )


class TestRowsMatchScipy:
    @settings(max_examples=200)
    @given(st.integers(1, 6).flatmap(lambda f: st.tuples(csr_blocks(f), st.lists(CSR_VALUE, min_size=f, max_size=f))))
    def test_matvec_bits(self, case):
        (rows, matrix), w = case
        w = np.array(w)
        assert same_bits(rows @ w, matrix @ w)

    @settings(max_examples=200)
    @given(st.integers(1, 6).flatmap(csr_blocks), st.data())
    def test_row_selection(self, block, data):
        rows, matrix = block
        # any order, repeats allowed, and no row at all
        picked = data.draw(st.lists(st.integers(0, rows.shape[0] - 1), max_size=6) if rows.shape[0] else st.just([]))
        assert same_rows(rows[picked], matrix[np.array(picked, dtype=np.intp)])
        assert same_rows(rows[np.array(picked, dtype=np.int64)], matrix[np.array(picked, dtype=np.intp)])

    @settings(max_examples=200)
    @given(st.integers(1, 6).flatmap(lambda f: st.lists(csr_blocks(f), min_size=1, max_size=4)))
    def test_stacking(self, blocks):
        expected = sp.vstack([matrix for _, matrix in blocks], format="csr")
        assert same_rows(Rows.stack([rows for rows, _ in blocks]), expected)
        # a scipy block is read by its four attributes
        assert same_rows(Rows.stack([matrix for _, matrix in blocks]), expected)

    def test_blocks_and_weights_must_fit(self):
        with pytest.raises(ValueError, match="^blocks to stack have 2 column counts, not 1$"):
            Rows.stack([sp.csr_matrix((1, 2)), sp.csr_matrix((1, 3))])
        rows = feature_matrix(parse_nbest(SAMPLE).lists[0], {"lm": 0, "tm": 1, "wp": 2})
        with pytest.raises(ValueError, match=r"^weights of shape \(2,\) for rows of shape \(2, 3\)$"):
            rows @ np.ones(2)

    def test_overflowing_score_is_a_data_error_without_a_warning(self):
        rows = feature_matrix(parse_nbest("3 ||| a ||| f=1e308 ||| 0\n").lists[0], {"f": 0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^sentence 3: model score is not finite$"):
                model_scores(rows, np.array([10.0]), 3)


class TestRefs:
    def test_multiple_refs_per_sentence(self):
        refs = parse_refs("0 ||| a b\n0 ||| a c\n1 ||| d\n")
        assert refs[0] == (("a", "b"), ("a", "c"))
        assert refs[1] == (("d",),)
        assert 2 not in refs

    def test_profiling_leaves_equality_and_repr_alone(self):
        text = "0 ||| a b\n1 ||| d\n"
        refs = parse_refs(text)
        assert refs.profile(0) is refs.profile(0)
        refs.profile(0).stats_for("a b")
        assert refs == parse_refs(text)
        assert repr(refs) == repr(parse_refs(text))

    def test_malformed_line(self):
        with pytest.raises(ParseError) as err:
            parse_refs("0 ||| a ||| b\n")
        assert err.value.line_no == 1


class TestWeightsFiles:
    def test_sorted_by_name_and_round_trips(self):
        index = {"tm": 0, "lm": 1}
        text = format_weights(index, np.array([0.25, -1.5]))
        assert text == "lm\t-1.5\ntm\t0.25\n"
        assert parse_weights(text) == {"lm": -1.5, "tm": 0.25}

    def test_vector_alignment_and_unknowns(self):
        w, unknown = weights_vector({"lm": 2.0, "zz": 1.0}, {"lm": 0, "tm": 1})
        np.testing.assert_array_equal(w, [2.0, 0.0])
        assert unknown == ["zz"]

    @given(
        st.dictionaries(st.sampled_from("abcdefgh"), st.floats(allow_nan=False), max_size=8),
        st.lists(st.sampled_from("abcdefghij"), unique=True, max_size=8),
    )
    def test_vector_matches_the_per_name_loop(self, named, names):
        index = {name: i for i, name in enumerate(reversed(names))}
        w, unknown = weights_vector(named, index)
        expected = np.zeros(len(index))
        expected_unknown = []
        for name, value in named.items():
            if name in index:
                expected[index[name]] = value
            else:
                expected_unknown.append(name)
        assert same_bits(w, expected)
        assert unknown == expected_unknown

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_weights("lm 1.0\n")
        with pytest.raises(ParseError):
            parse_weights("lm\tx\n")
        with pytest.raises(ParseError):
            parse_weights("lm\t1.0\nlm\t2.0\n")
        with pytest.raises(ParseError, match="^line 2: duplicate feature of 5000 characters$"):
            parse_weights(f"{LONG}\t1.0\n{LONG}\t2.0\n")


# well-formed lines of every input format, for the CRLF property below
CRLF_ID = st.integers(0, 3).map(str)
CRLF_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)
CRLF_TOKENS = st.lists(st.text(FORMAT_CHARS, min_size=1, max_size=3), max_size=3).map(" ".join)
CRLF_NAME = st.text(FORMAT_CHARS.filter(lambda c: c != "="), min_size=1, max_size=3)
CRLF_NBEST_LINE = st.builds(
    lambda sid, tokens, feats, score: f"{sid} ||| {tokens} ||| {feats} ||| {score}",
    CRLF_ID,
    CRLF_TOKENS,
    st.dictionaries(CRLF_NAME, CRLF_NUMBER, max_size=3).map(
        lambda d: " ".join(f"{k}={v}" for k, v in d.items())
    ),
    CRLF_NUMBER,
)
CRLF_REFS_LINE = st.builds("{} ||| {} {}".format, CRLF_ID, st.text(FORMAT_CHARS, min_size=1), CRLF_TOKENS)
CRLF_SPEC = st.fixed_dictionaries(
    {"num_sentences": st.integers(1, 3), "feature_dim": st.integers(8, 12)},
    optional={
        "noise_scale": st.floats(0, 10),
        "seed": st.integers(-5, 2**70),
        "ref_len": st.integers(1, 30),
        "features_per_hyp": st.integers(1, 8),
    },
).map(lambda d: [f"{k} = {v}" for k, v in d.items()] + ["", "# comment"])


def lf_text(lines):
    return "".join(line + "\n" for line in lines)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(CRLF_NBEST_LINE, max_size=4),
    st.lists(CRLF_REFS_LINE, max_size=4),
    st.dictionaries(CRLF_NAME, CRLF_NUMBER, max_size=4).map(lambda d: [f"{k}\t{v}" for k, v in d.items()]),
    st.lists(st.one_of(CRLF_NBEST_LINE, st.builds("{} ||| {}".format, CRLF_ID, CRLF_TOKENS)), max_size=4),
    CRLF_SPEC,
)
def test_crlf_text_parses_as_lf_text(nbest, refs, weights, hyps, spec):
    # files are read as bytes, so a \r before each \n reaches the parsers,
    # which must strip it with the field or token it ends
    cases = [(parse_nbest, nbest), (parse_refs, refs), (parse_weights, weights),
             (parse_first_hypotheses, hyps)]
    for parse, lines in cases:
        text = lf_text(lines)
        assert parse(text.replace("\n", "\r\n")) == parse(text), parse.__name__
    text = lf_text(spec)
    lf, crlf = parse_spec(text, 7), parse_spec(text.replace("\n", "\r\n"), 7)
    assert {k: getattr(crlf, k) for k in SPEC_KEYS} == {k: getattr(lf, k) for k in SPEC_KEYS}
