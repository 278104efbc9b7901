"""N-best lists, references, weights, and the line formats they travel in.

An N-best file holds one hypothesis per line:

    <sent_id> ||| <token> <token> ... ||| <name>=<value> ... ||| <score>

Lines are grouped by ``sent_id`` (input order is preserved inside each
group, and groups appear in first-occurrence order).  A reference file
holds one reference per line, repeating a ``sent_id`` for multiple
references:

    <sent_id> ||| <token> <token> ...

Lines end at ``\\n`` only, and a sentence id is written in canonical form
(no sign, no leading zero).  A weights file holds one
``<feature_name>\\t<value>`` per line, sorted by feature name.  Floats are
always rendered with :func:`format_float`, the shortest decimal string that
parses back to the same double, so parsing followed by writing reproduces a
canonically formatted file byte for byte.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import FrozenInstanceError, dataclass, field
from itertools import chain, compress, repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bleu import BleuStats, ReferenceStats, corpus_bleu

FIELD_SEP = " ||| "


class ParseError(ValueError):
    """A malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DataError(ValueError):
    """Inputs are individually well-formed but mutually inconsistent."""


class Hypothesis:
    """One candidate translation with its sparse feature vector; its
    sentence is the ``sent_id`` of the NBestList holding it.

    ``Hypothesis(tokens, features, decoder_score)`` raises ValueError on what
    an N-best line could not carry back: a token that is empty or holds
    whitespace or ``|||``, or a feature name that is empty or holds
    whitespace, ``=`` or ``|||``.  The hypothesis keeps its tokens as
    ``text``, joined by single spaces, and its features as their names plus
    their values packed as float64; ``tokens`` (a tuple) and ``features`` (a
    dict, in line order; an absent feature is zero) are built anew on each
    access.  A hypothesis cannot be changed.
    """

    __slots__ = ("text", "_names", "_values", "decoder_score")
    text: str
    _names: tuple[str, ...]
    _values: bytes
    decoder_score: float

    def __init__(self, tokens: Sequence[str], features: Mapping[str, float], decoder_score: float):
        tokens = tuple(tokens)
        text = " ".join(tokens)
        if tuple(text.split()) != tokens:
            bad = next(t for t in tokens if t.split() != [t])
            raise ValueError(f"token {_echo(bad)} is empty or holds whitespace")
        if "|||" in text:
            raise ValueError(f"token {_echo(next(t for t in tokens if '|||' in t))} holds '|||'")
        for name in features:
            if name.split() != [name] or "=" in name or "|||" in name:
                raise ValueError(f"feature name {_echo(name)} is empty or holds whitespace, '=' or '|||'")
        _fill(self, text, tuple(features), array("d", features.values()).tobytes(), decoder_score)

    @classmethod
    def _packed(cls, text: str, names: tuple[str, ...], values: bytes, decoder_score: float) -> "Hypothesis":
        """The hypothesis of checked parts: ``text`` splits into its tokens
        again, and ``values`` holds one float64 per name."""
        hyp = object.__new__(cls)
        _fill(hyp, text, names, values, decoder_score)
        return hyp

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self.text.split())

    @property
    def features(self) -> dict[str, float]:
        return dict(zip(self._names, memoryview(self._values).cast("d")))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Hypothesis._packed, (self.text, self._names, self._values, self.decoder_score)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.text, self.decoder_score) != (other.text, other.decoder_score):
            return False
        # equal records first; then features as dicts, which equal in any
        # order and count 0.0 and -0.0 as equal
        return (self._names, self._values) == (other._names, other._values) or self.features == other.features

    def __repr__(self) -> str:
        return f"Hypothesis(tokens={self.tokens!r}, features={self.features!r}, decoder_score={self.decoder_score!r})"


def _fill(hyp: Hypothesis, text: str, names: tuple[str, ...], values: bytes, decoder_score: float) -> None:
    object.__setattr__(hyp, "text", text)
    object.__setattr__(hyp, "_names", names)
    object.__setattr__(hyp, "_values", values)
    object.__setattr__(hyp, "decoder_score", decoder_score)


@dataclass(frozen=True)
class NBestList:
    sent_id: int
    hypotheses: tuple[Hypothesis, ...]
    # set by :func:`dedup` once the list is known to repeat no token
    # sequence, so it is never searched again
    _distinct: bool = field(default=False, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.hypotheses)


@dataclass(frozen=True, eq=False)
class Rows:
    """Feature rows in compressed sparse row (CSR) form, its arrays named as
    in scipy: row i has the values ``data[indptr[i]:indptr[i + 1]]`` in the
    columns ``indices[indptr[i]:indptr[i + 1]]``, and ``shape`` is (rows,
    columns).  A row keeps its columns in the order given, which is the
    order ``rows @ w`` adds them in."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        """Each row's products with ``w`` summed from 0.0 in column order,
        as scipy's CSR matvec adds them, so both give the same bits; an
        overflow is left as inf or NaN for the caller to check."""
        if w.shape != (self.shape[1],):
            raise ValueError(f"weights of shape {w.shape} for rows of shape {self.shape}")
        row_of_entry = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        with np.errstate(over="ignore", invalid="ignore"):
            products = self.data * w[self.indices]
        # with no entry at all, bincount gives int64 zeros
        return np.bincount(row_of_entry, products, minlength=self.shape[0]).astype(float, copy=False)

    def __getitem__(self, rows: Sequence[int] | np.ndarray) -> "Rows":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        lengths = np.diff(self.indptr)[rows]
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        entries = np.repeat(self.indptr[rows] - indptr[:-1], lengths) + np.arange(indptr[-1])
        return Rows(self.data[entries], self.indices[entries], indptr, (rows.size, self.shape[1]))

    @staticmethod
    def stack(blocks: Sequence["Rows"]) -> "Rows":
        """The blocks' rows one after another.  A block may be any CSR
        matrix with these four attributes, such as scipy's; raises
        ValueError if the blocks differ in column count."""
        columns = {block.shape[1] for block in blocks}
        if len(columns) != 1:
            raise ValueError(f"blocks to stack have {len(columns)} column counts, not 1")
        lengths = np.concatenate([np.diff(block.indptr) for block in blocks])
        return Rows(
            np.concatenate([block.data for block in blocks]),
            np.concatenate([block.indices for block in blocks]),
            np.concatenate([[0], np.cumsum(lengths)]),
            (lengths.size, columns.pop()),
        )


@dataclass(frozen=True)
class Corpus:
    """A set of N-best lists plus the name <-> dense-index feature bijection.

    ``feature_index`` maps each feature name appearing anywhere in the
    corpus to a 0-based dense index, assigned in first-appearance order.

    ``rows`` holds one :class:`Rows` block per list, array for array what
    :func:`feature_matrix` gives for the list.  The blocks are built once,
    when the corpus is made; :func:`merge` carries them into the merged
    corpus, and training and reranking read them.  Raises DataError if a
    hypothesis has a feature that ``feature_index`` lacks.  The rows take
    no part in comparison.
    """

    lists: tuple[NBestList, ...]
    feature_index: dict[str, int]
    rows: tuple[Rows, ...] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.rows is None:
            rows = tuple(map(feature_matrix, self.lists, repeat(self.feature_index)))
            object.__setattr__(self, "rows", rows)

    @classmethod
    def from_lists(cls, lists: Iterable[NBestList]) -> "Corpus":
        lists = tuple(lists)
        names = dict.fromkeys(chain.from_iterable(h._names for lst in lists for h in lst.hypotheses))
        return cls(lists, dict(zip(names, range(len(names)))))

    def total_hypotheses(self) -> int:
        return sum(len(lst) for lst in self.lists)


@dataclass(frozen=True)
class ReferenceSet:
    """References per sentence: sent_id -> one or more token sequences.

    The set owns each sentence's BLEU profile (see :meth:`profile`), so
    everything scored against one set, over any number of training runs,
    is scored once.  The profiles take no part in comparison.
    """

    by_sent: dict[int, tuple[tuple[str, ...], ...]]
    _profiles: dict[int, ReferenceStats] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    # without this, ``in`` would iterate __getitem__ from 0 and raise KeyError
    def __contains__(self, sent_id: int) -> bool:
        return sent_id in self.by_sent

    def __getitem__(self, sent_id: int) -> tuple[tuple[str, ...], ...]:
        return self.by_sent[sent_id]

    def profile(self, sent_id: int) -> ReferenceStats:
        """The BLEU profile of ``sent_id``, built on first use and kept as
        long as the set.  Raises DataError if the sentence has no reference."""
        profile = self._profiles.get(sent_id)
        if profile is None:
            if sent_id not in self.by_sent:
                raise DataError(f"no reference for sentence {sent_id}")
            profile = self._profiles[sent_id] = ReferenceStats(self.by_sent[sent_id])
        return profile

    def bleu(self, pairs: Iterable[tuple[int, str]]) -> float:
        """Corpus BLEU (0-100) of ``(sent_id, Hypothesis.text)`` pairs, one
        per sentence, over their pooled statistics."""
        stats = (self.profile(sent_id).stats_for(text) for sent_id, text in pairs)
        return 100.0 * corpus_bleu(sum(stats, BleuStats.zero()))


def format_float(value: float) -> str:
    """Shortest decimal string that round-trips to the same double."""
    return repr(float(value))


# an error message repeats an input of up to this many printed characters
_ECHO = 32


def _echo(text: str, quote: bool = True, noun: str = "") -> str:
    """How an error message shows an input: ``repr(text)`` (``text`` itself
    when not ``quote``) if that prints in at most _ECHO characters, else
    ``noun`` "of N characters", so a long input still makes a short line."""
    shown = repr(text) if quote else text
    if len(shown) <= _ECHO:
        return shown
    return f"{noun} of {len(text)} characters".lstrip()


def _parse_sent_id(text: str, line_no: int) -> int:
    # ASCII digits only: int() would also read "+1", "1_0" and non-ASCII digits
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ParseError(line_no, f"sentence id {_echo(text)} is not an integer")
    try:
        sent_id = int(text)
    except ValueError:  # more digits than int() converts, so longer than _ECHO
        raise ParseError(line_no, f"sentence id {_echo(text)} is too long") from None
    if str(sent_id) != text:
        raise ParseError(line_no, f"sentence id {_echo(text)} is not in canonical form")
    if sent_id < 0:
        raise ParseError(line_no, f"sentence id {_echo(text, quote=False)} is negative")
    return sent_id


def _parse_number(text: str, line_no: int, what: str, name: str | None = None) -> float:
    """``text`` as a finite float; else a ParseError on ``what``, with its
    ``{}`` filled by ``name`` as :func:`_echo` shows it."""
    try:
        # float() would also read "1_0" and non-ASCII digits
        if not text.isascii() or "_" in text:
            raise ValueError
        value = float(text)
    except ValueError:
        problem = "is not a number"
    else:
        if math.isfinite(value):
            return value
        problem = "is not finite"
    if name is not None:
        what = what.format(_echo(name))
    raise ParseError(line_no, f"{what} {_echo(text)} {problem}")


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text`` one at a time, so no list of them is held; a
    last line need not end in \\n."""
    # str.splitlines would also end a line at \f, \v, \x1c-\x1e, \x85, \u2028 and \u2029
    start, end = 0, text.find("\n")
    while end >= 0:
        yield text[start:end]
        start, end = end + 1, text.find("\n", end + 1)
    if start < len(text):
        yield text[start:]


def _records(text: str, counts: tuple[int, ...]) -> Iterator[tuple[int, int, list[str]]]:
    """Yield ``(line_no, sent_id, fields)`` per ``|||`` line, fields stripped.

    Raises ParseError on a line whose field count is not in ``counts`` and
    on a sentence id that is not a canonical non-negative integer.
    """
    expected = " or ".join(map(str, counts))
    for line_no, raw in enumerate(_lines(text), start=1):
        fields = [f.strip() for f in raw.split("|||")]
        if len(fields) not in counts:
            raise ParseError(line_no, f"expected {expected} '|||'-separated fields, got {len(fields)}")
        yield line_no, _parse_sent_id(fields[0], line_no), fields


def _hypothesis(line_no: int, fields: Sequence[str], names: dict[str, str]) -> Hypothesis:
    """The hypothesis of one N-best line's four stripped fields; raises
    ParseError on a malformed or repeated feature and on a bad number.

    ``names`` maps each feature name seen so far to the one string that
    holds it; the hypothesis's features use those strings, and a new name
    is added.
    """
    seen: set[str] = set()
    keys: list[str] = []
    values = array("d")
    for item in fields[2].split():
        name, eq, value = item.partition("=")
        if not eq or not name:
            raise ParseError(line_no, f"feature {_echo(item)} is not <name>=<value>")
        if name in seen:
            raise ParseError(line_no, f"duplicate feature {_echo(name)}")
        seen.add(name)
        keys.append(names.setdefault(name, name))
        values.append(_parse_number(value, line_no, "feature {} value", name))
    score = _parse_number(fields[3], line_no, "decoder score")
    return Hypothesis._packed(" ".join(fields[1].split()), tuple(keys), values.tobytes(), score)


def parse_nbest(text: str) -> Corpus:
    """Parse N-best lines into a Corpus.  Raises ParseError (with the line
    number) on a line without four ``|||`` fields or with a malformed hypothesis.

    Each feature name is held by one string, shared by every hypothesis
    that has the feature and by the feature index."""
    grouped: dict[int, list[Hypothesis]] = {}
    # first-seen order, which is the feature index's order
    names: dict[str, str] = {}
    for line_no, sent_id, fields in _records(text, (4,)):
        grouped.setdefault(sent_id, []).append(_hypothesis(line_no, fields, names))
    lists = tuple(NBestList(sid, tuple(hyps)) for sid, hyps in grouped.items())
    return Corpus(lists, dict(zip(names, range(len(names)))))


def nbest_line(sent_id: int, hyp: Hypothesis, score: float) -> str:
    """One N-best line, without its newline, with ``score`` as the last field."""
    values = memoryview(hyp._values).cast("d")
    feats = " ".join(f"{name}={format_float(v)}" for name, v in zip(hyp._names, values))
    return FIELD_SEP.join([str(sent_id), hyp.text, feats, format_float(score)])


def write_nbest(corpus: Corpus) -> str:
    """Render a Corpus back into N-best lines (inverse of parse_nbest)."""
    lines = (nbest_line(lst.sent_id, h, h.decoder_score) for lst in corpus.lists for h in lst.hypotheses)
    return "".join(line + "\n" for line in lines)


def parse_refs(text: str) -> ReferenceSet:
    """Parse reference lines (``sent_id ||| tokens``) into a ReferenceSet.

    A line with no reference tokens is a ParseError.
    """
    by_sent: dict[int, list[tuple[str, ...]]] = {}
    for line_no, sent_id, fields in _records(text, (2,)):
        tokens = tuple(fields[1].split())
        if not tokens:
            raise ParseError(line_no, f"empty reference for sentence {sent_id}")
        by_sent.setdefault(sent_id, []).append(tokens)
    return ReferenceSet({sid: tuple(refs) for sid, refs in by_sent.items()})


def parse_first_hypotheses(text: str) -> dict[int, str]:
    """The first hypothesis's ``text`` per sentence, in first-occurrence
    order, from N-best lines or ``sent_id ||| tokens`` lines (or a mix).
    Every N-best line is checked as :func:`parse_nbest` checks it."""
    first: dict[int, str] = {}
    for line_no, sent_id, fields in _records(text, (2, 4)):
        hyp = _hypothesis(line_no, fields, {}).text if len(fields) == 4 else " ".join(fields[1].split())
        first.setdefault(sent_id, hyp)
    return first


def dedup(lst: NBestList) -> tuple[NBestList, list[int] | None]:
    """The list without repeated token sequences (the first of each kept),
    marked distinct, and the positions it kept, or None when it keeps them
    all and so is the list itself.  A marked list is not searched again."""
    kept = None
    if not lst._distinct:
        first: dict[str, int] = {}
        for i, hyp in enumerate(lst.hypotheses):
            first.setdefault(hyp.text, i)
        if len(first) < len(lst.hypotheses):
            kept = list(first.values())
            lst = NBestList(lst.sent_id, tuple(map(lst.hypotheses.__getitem__, kept)))
        object.__setattr__(lst, "_distinct", True)
    return lst, kept


def merge(a: Corpus, b: Corpus) -> Corpus:
    """Union of two corpora: per sentence, a's hypotheses then b's, deduplicated.

    The feature index is rebuilt from the surviving hypotheses in scan
    order, so equal hypothesis sets always yield equal indices.  No row is
    built: each survivor keeps its row from ``a`` or ``b``, its columns
    mapped to the merged index.
    """
    # one column space: a's columns, then b's shifted past them
    width = len(a.feature_index) + len(b.feature_index)
    grouped: dict[int, list[tuple[NBestList, Rows]]] = {}
    for corpus, shift in ((a, 0), (b, len(a.feature_index))):
        for lst, rows in zip(corpus.lists, corpus.rows):
            rows = Rows(rows.data, rows.indices + shift, rows.indptr, (rows.shape[0], width))
            grouped.setdefault(lst.sent_id, []).append((lst, rows))
    lists: list[NBestList] = []
    blocks: list[Rows] = []
    for sid, parts in grouped.items():
        lst, kept = dedup(NBestList(sid, tuple(chain.from_iterable(part[0].hypotheses for part in parts))))
        block = Rows.stack([part[1] for part in parts])
        lists.append(lst)
        blocks.append(block if kept is None else block[kept])
    if not lists:
        return Corpus((), {})

    # number the names in scan order: a column's first position becomes its
    # name's id, so a name both corpora have takes the id of whichever of its
    # two columns comes first
    cols = np.concatenate([block.indices for block in blocks])
    names = sorted(a.feature_index, key=a.feature_index.get) + sorted(b.feature_index, key=b.feature_index.get)
    first = np.full(width, cols.size)
    np.minimum.at(first, cols, np.arange(cols.size))
    used = np.flatnonzero(first < cols.size)
    order = used[np.argsort(first[used])]
    index: dict[str, int] = {}
    first[order] = [index.setdefault(names[c], len(index)) for c in order.tolist()]
    blocks = [Rows(rows.data, first[rows.indices], rows.indptr, (rows.shape[0], len(index))) for rows in blocks]
    return Corpus(tuple(lists), index, tuple(blocks))


def feature_matrix(lst: NBestList, feature_index: Mapping[str, int]) -> Rows:
    """The list's N x F rows of dense indices: row i is the feature
    vector of hypothesis i, its columns in the order of its ``features``.

    Raises DataError naming the sentence and the first feature, in scan
    order, that ``feature_index`` lacks."""
    hyps = lst.hypotheses
    names = list(chain.from_iterable(hyp._names for hyp in hyps))
    # joined into a bytearray, so the data is writable, as a fresh array is
    data = np.frombuffer(bytearray().join([hyp._values for hyp in hyps]), dtype=float)
    cols = np.fromiter(map(feature_index.get, names, repeat(-1)), dtype=np.int64, count=len(names))
    unknown = np.flatnonzero(cols < 0)
    if unknown.size:
        name = names[unknown[0]]
        raise DataError(f"sentence {lst.sent_id}: feature {_echo(name)} is not in the feature index")
    lengths = np.fromiter((len(hyp._names) for hyp in hyps), dtype=np.int64, count=len(hyps))
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    return Rows(data, cols, indptr, (len(hyps), len(feature_index)))


def model_scores(matrix: Rows, w: np.ndarray, sent_id: int) -> np.ndarray:
    """One list's linear model scores ``matrix @ w``; raises DataError
    naming the sentence if a score overflows or is NaN."""
    scores = matrix @ w
    if not np.all(np.isfinite(scores)):
        raise DataError(f"sentence {sent_id}: model score is not finite")
    return scores


def parse_weights(text: str) -> dict[str, float]:
    """Read a tab-separated weights file into a name -> value mapping."""
    named: dict[str, float] = {}
    for line_no, line in enumerate(_lines(text), start=1):
        name, tab, value = line.partition("\t")
        if not tab or not name:
            raise ParseError(line_no, "expected <feature_name>\\t<value>")
        if name in named:
            raise ParseError(line_no, f"duplicate feature {_echo(name)}")
        named[name] = _parse_number(value, line_no, "weight {}", name)
    return named


def format_weights(feature_index: Mapping[str, int], values: np.ndarray) -> str:
    """Render a dense weight vector as a weights file, sorted by feature name."""
    lines = [
        f"{name}\t{format_float(values[idx])}" for name, idx in sorted(feature_index.items())
    ]
    return "".join(line + "\n" for line in lines)


def weights_vector(
    named: Mapping[str, float], feature_index: Mapping[str, int]
) -> tuple[np.ndarray, list[str]]:
    """Align named weights to a corpus feature index.

    Returns the dense vector (features missing from ``named`` get 0) and
    the list of names in ``named`` that the index does not know.
    """
    ids = np.fromiter(map(feature_index.get, named, repeat(-1)), dtype=np.int64, count=len(named))
    values = np.fromiter(named.values(), dtype=float, count=len(named))
    known = ids >= 0
    w = np.zeros(len(feature_index))
    w[ids[known]] = values[known]
    return w, list(compress(named, (~known).tolist()))
