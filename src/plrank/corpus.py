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
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .bleu import BleuStats, ReferenceStats, corpus_bleu

FIELD_SEP = " ||| "


class ParseError(ValueError):
    """A malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DataError(ValueError):
    """Inputs are individually well-formed but mutually inconsistent."""


@dataclass(frozen=True, slots=True)
class Hypothesis:
    """One candidate translation with its sparse feature vector; its
    sentence is the ``sent_id`` of the NBestList holding it.

    Features absent from ``features`` are implicitly zero.  ``features``
    preserves the order in which names appeared on the input line.
    """

    tokens: tuple[str, ...]
    features: dict[str, float]
    decoder_score: float


@dataclass(frozen=True, slots=True)
class NBestList:
    sent_id: int
    hypotheses: tuple[Hypothesis, ...]
    # set by :func:`dedup` once the list is known to repeat no token
    # sequence, so it is never searched again
    _distinct: bool = field(default=False, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.hypotheses)


@dataclass(frozen=True, slots=True)
class Corpus:
    """A set of N-best lists plus the name <-> dense-index feature bijection.

    ``feature_index`` maps each feature name appearing anywhere in the
    corpus to a 0-based dense index, assigned in first-appearance order.

    ``rows`` holds one CSR block per list, array for array what
    :func:`feature_matrix` gives for the list.  The blocks are built once,
    when the corpus is made; :func:`merge` carries them into the merged
    corpus, and training and reranking read them.  Raises DataError if a
    hypothesis has a feature that ``feature_index`` lacks.  The rows take
    no part in comparison.
    """

    lists: tuple[NBestList, ...]
    feature_index: dict[str, int]
    rows: tuple[sp.csr_matrix, ...] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.rows is None:
            rows = tuple(map(feature_matrix, self.lists, repeat(self.feature_index)))
            object.__setattr__(self, "rows", rows)

    @classmethod
    def from_lists(cls, lists: Iterable[NBestList]) -> "Corpus":
        lists = tuple(lists)
        names = dict.fromkeys(chain.from_iterable(h.features for lst in lists for h in lst.hypotheses))
        return cls(lists, dict(zip(names, range(len(names)))))

    def total_hypotheses(self) -> int:
        return sum(len(lst) for lst in self.lists)


@dataclass(frozen=True, slots=True)
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

    def bleu(self, pairs: Iterable[tuple[int, Sequence[str]]]) -> float:
        """Corpus BLEU (0-100) of ``(sent_id, tokens)`` pairs, one per sentence,
        over their pooled statistics."""
        stats = (self.profile(sent_id).stats_for(tokens) for sent_id, tokens in pairs)
        return 100.0 * corpus_bleu(sum(stats, BleuStats.zero()))


def format_float(value: float) -> str:
    """Shortest decimal string that round-trips to the same double."""
    return repr(float(value))


# an error message repeats a sentence id of up to this many printed characters
_ID_ECHO = 32


def _parse_sent_id(text: str, line_no: int) -> int:
    def error(shown: str, problem: str) -> ParseError:
        if len(shown) > _ID_ECHO:
            shown = f"of {len(text)} characters"
        return ParseError(line_no, f"sentence id {shown} {problem}")

    # ASCII digits only: int() would also read "+1", "1_0" and non-ASCII digits
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise error(repr(text), "is not an integer")
    try:
        sent_id = int(text)
    except ValueError:  # more digits than int() converts, so longer than _ID_ECHO
        raise error(repr(text), "is too long") from None
    if str(sent_id) != text:
        raise error(repr(text), "is not in canonical form")
    if sent_id < 0:
        raise error(text, "is negative")
    return sent_id


def _parse_number(text: str, line_no: int, what: str) -> float:
    try:
        # float() would also read "1_0" and non-ASCII digits
        if not text.isascii() or "_" in text:
            raise ValueError
        value = float(text)
    except ValueError:
        raise ParseError(line_no, f"{what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"{what} {text!r} is not finite")
    return value


def _lines(text: str) -> list[str]:
    # str.splitlines would also end a line at \f, \v, \x1c-\x1e, \x85, \u2028 and \u2029
    lines = text.split("\n")
    return lines[:-1] if lines[-1] == "" else lines


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
    tokens = tuple(fields[1].split())
    features: dict[str, float] = {}
    for item in fields[2].split():
        name, eq, value = item.partition("=")
        if not eq or not name:
            raise ParseError(line_no, f"feature {item!r} is not <name>=<value>")
        if name in features:
            raise ParseError(line_no, f"duplicate feature {name!r}")
        features[names.setdefault(name, name)] = _parse_number(value, line_no, f"feature {name!r} value")
    return Hypothesis(tokens, features, _parse_number(fields[3], line_no, "decoder score"))


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
    feats = " ".join(f"{name}={format_float(v)}" for name, v in hyp.features.items())
    return FIELD_SEP.join([str(sent_id), " ".join(hyp.tokens), feats, format_float(score)])


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


def parse_first_hypotheses(text: str) -> dict[int, tuple[str, ...]]:
    """The first hypothesis's tokens per sentence, in first-occurrence order,
    from N-best lines or ``sent_id ||| tokens`` lines (or a mix).  Every
    N-best line is checked as :func:`parse_nbest` checks it."""
    first: dict[int, tuple[str, ...]] = {}
    for line_no, sent_id, fields in _records(text, (2, 4)):
        tokens = _hypothesis(line_no, fields, {}).tokens if len(fields) == 4 else tuple(fields[1].split())
        first.setdefault(sent_id, tokens)
    return first


def dedup(lst: NBestList) -> tuple[NBestList, list[int] | None]:
    """The list without repeated token sequences (the first of each kept),
    marked distinct, and the positions it kept, or None when it keeps them
    all and so is the list itself.  A marked list is not searched again."""
    kept = None
    if not lst._distinct:
        first: dict[tuple[str, ...], int] = {}
        for i, hyp in enumerate(lst.hypotheses):
            first.setdefault(hyp.tokens, i)
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
    grouped: dict[int, list[tuple[NBestList, sp.csr_matrix, int]]] = {}
    for corpus, shift in ((a, 0), (b, len(a.feature_index))):
        for lst, rows in zip(corpus.lists, corpus.rows):
            grouped.setdefault(lst.sent_id, []).append((lst, rows, shift))
    lists: list[NBestList] = []
    data, cols, lengths, kept = [], [], [], []
    for sid, parts in grouped.items():
        if len(parts) == 1:
            lst = parts[0][0]
        else:
            lst = NBestList(sid, tuple(chain.from_iterable(part[0].hypotheses for part in parts)))
        mask = np.zeros(len(lst), dtype=bool)
        lst, keep = dedup(lst)
        mask[slice(None) if keep is None else keep] = True
        lists.append(lst)
        kept.append(mask)
        for _, rows, shift in parts:
            data.append(rows.data)
            cols.append(rows.indices + shift if shift else rows.indices)
            lengths.append(np.diff(rows.indptr))
    if not lists:
        return Corpus((), {})

    # drop the rows dedup dropped, then number the names in scan order: a
    # column's first position becomes its name's id, so a name both corpora
    # have takes the id of whichever of its two columns comes first
    lengths = np.concatenate(lengths)
    kept = np.concatenate(kept)
    nnz_kept = np.repeat(kept, lengths)
    data = np.concatenate(data)[nnz_kept]
    cols = np.concatenate(cols)[nnz_kept]
    names = sorted(a.feature_index, key=a.feature_index.get) + sorted(b.feature_index, key=b.feature_index.get)
    first = np.full(len(names), cols.size)
    np.minimum.at(first, cols, np.arange(cols.size))
    used = np.flatnonzero(first < cols.size)
    order = used[np.argsort(first[used])]
    index: dict[str, int] = {}
    first[order] = [index.setdefault(names[c], len(index)) for c in order.tolist()]
    cols = first[cols]

    indptr = np.concatenate([[0], np.cumsum(lengths[kept])])
    blocks = []
    start = 0
    for lst in lists:
        end = start + len(lst.hypotheses)
        lo, hi = indptr[start], indptr[end]
        block = (data[lo:hi], cols[lo:hi], indptr[start : end + 1] - lo)
        blocks.append(sp.csr_matrix(block, shape=(end - start, len(index))))
        start = end
    return Corpus(tuple(lists), index, tuple(blocks))


def feature_matrix(lst: NBestList, feature_index: Mapping[str, int]) -> sp.csr_matrix:
    """The list's N x F CSR matrix of dense indices: row i is the feature
    vector of hypothesis i, its columns in the order of its ``features``.

    Raises DataError naming the sentence and the first feature, in scan
    order, that ``feature_index`` lacks."""
    features = [hyp.features for hyp in lst.hypotheses]
    names = list(chain.from_iterable(features))
    data = np.fromiter(chain.from_iterable(f.values() for f in features), dtype=float, count=len(names))
    cols = np.fromiter(map(feature_index.get, names, repeat(-1)), dtype=np.int64, count=len(names))
    unknown = np.flatnonzero(cols < 0)
    if unknown.size:
        name = names[unknown[0]]
        raise DataError(f"sentence {lst.sent_id}: feature {name!r} is not in the feature index")
    lengths = np.fromiter(map(len, features), dtype=np.int64, count=len(features))
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    return sp.csr_matrix((data, cols, indptr), shape=(len(features), len(feature_index)))


def model_scores(matrix: sp.csr_matrix, w: np.ndarray, sent_id: int) -> np.ndarray:
    """One list's linear model scores ``matrix @ w`` as a flat array; raises
    DataError naming the sentence if a score overflows or is NaN."""
    scores = np.asarray(matrix @ w).ravel()
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
            raise ParseError(line_no, f"duplicate feature {name!r}")
        named[name] = _parse_number(value, line_no, f"weight {name!r}")
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
    w = np.zeros(len(feature_index))
    unknown: list[str] = []
    for name, value in named.items():
        idx = feature_index.get(name)
        if idx is None:
            unknown.append(name)
        else:
            w[idx] = value
    return w, unknown
