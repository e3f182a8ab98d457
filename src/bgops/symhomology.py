"""The bigraded mod-2 homology ring of the disjoint union of BSigma_n.

Two commutative products coexist: the juxtaposition product (weights
add) and the composition product written as a circle-word of subscripts
(weights multiply).  As a ring under juxtaposition, the homology is
polynomial on the circle-words E_{i1} o E_{2 i2} o ... o E_{2^(k-1) ik}
with 1 <= i1 <= ... <= ik; the weight-1 class [1] is itself one of these
polynomial generators (the empty circle-word), distinct from the ring
unit in weight 0.

Circle-words whose sorted subscripts are not of that generator shape are
kept as opaque words; no rewriting into the polynomial basis is
performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .f2core import json_int


@dataclass(frozen=True)
class CircWord:
    """A composition product E_{m1} o ... o E_{mk}, subscripts sorted.

    The empty word is the class [1] of weight 1 in degree 0.  Degree is
    the sum of the subscripts and weight is 2^k.
    """

    subscripts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(m < 1 for m in self.subscripts):
            raise ValueError("subscripts must be positive")
        if tuple(sorted(self.subscripts)) != self.subscripts:
            raise ValueError("subscripts must be sorted")

    @classmethod
    def of(cls, *subscripts: int) -> "CircWord":
        return cls(tuple(sorted(subscripts)))

    @classmethod
    def from_chain(cls, chain: Sequence[int]) -> "CircWord":
        """Generator with chain (i1 <= ... <= ik): subscripts 2^(j-1) ij."""
        chain = tuple(json_int(i, "a chain of integers") for i in chain)
        if any(i < 1 for i in chain):
            raise ValueError("chain entries must be positive")
        if any(chain[j] > chain[j + 1] for j in range(len(chain) - 1)):
            raise ValueError("chain must be weakly increasing")
        return cls(tuple((1 << j) * i for j, i in enumerate(chain)))

    @property
    def degree(self) -> int:
        return sum(self.subscripts)

    @property
    def weight(self) -> int:
        return 1 << len(self.subscripts)

    def chain(self) -> tuple[int, ...] | None:
        """The generator chain (i1, ..., ik) if this word has that shape."""
        out = []
        prev = 0
        for j, m in enumerate(self.subscripts):
            if m % (1 << j):
                return None
            i = m >> j
            if i < prev:
                return None
            out.append(i)
            prev = i
        return tuple(out)

    @property
    def is_generator(self) -> bool:
        return self.chain() is not None

    def __str__(self) -> str:
        if not self.subscripts:
            return "[1]"
        return "o".join(f"E{m}" for m in self.subscripts)


SymTerm = tuple[CircWord, ...]
"""A juxtaposition product of circle-words, stored sorted."""


def _term_key(w: CircWord) -> tuple[int, tuple[int, ...]]:
    return (len(w.subscripts), w.subscripts)


def _canonical_term(words: Iterable[CircWord]) -> SymTerm:
    return tuple(sorted(words, key=_term_key))


def term_degree(term: SymTerm) -> int:
    return sum(w.degree for w in term)


def term_weight(term: SymTerm) -> int:
    return sum(w.weight for w in term)


def term_is_decomposable(term: SymTerm) -> bool:
    """Decomposable for the juxtaposition product: at least two factors."""
    return len(term) >= 2


@dataclass(frozen=True)
class SymClass:
    """GF(2)-sum of juxtaposition products of circle-words.

    The empty term is the ring unit (weight 0); the term consisting of
    the single empty word is [1] (weight 1).
    """

    terms: frozenset[SymTerm]

    @classmethod
    def zero(cls) -> "SymClass":
        return cls(frozenset())

    @classmethod
    def one(cls) -> "SymClass":
        return cls(frozenset({()}))

    @classmethod
    def single(cls, word: CircWord) -> "SymClass":
        return cls(frozenset({(word,)}))

    @classmethod
    def from_terms(cls, terms: Iterable[Iterable[CircWord]]) -> "SymClass":
        acc: set[SymTerm] = set()
        for t in terms:
            acc ^= {_canonical_term(t)}
        return cls(frozenset(acc))

    def __add__(self, other: "SymClass") -> "SymClass":
        return SymClass(self.terms ^ other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {term_degree(t) for t in self.terms}

    def weights(self) -> set[int]:
        return {term_weight(t) for t in self.terms}

    def homogeneous_weight(self) -> int:
        ws = self.weights()
        if len(ws) != 1:
            raise ValueError(f"class is not weight-homogeneous (weights {sorted(ws)})")
        return ws.pop()

    def homogeneous_degree(self) -> int:
        ds = self.degrees()
        if len(ds) != 1:
            raise ValueError(f"class is not homogeneous (degrees {sorted(ds)})")
        return ds.pop()

    def sorted_terms(self) -> list[SymTerm]:
        return sorted(self.terms, key=lambda t: [_term_key(w) for w in t])

    def to_json(self) -> list[dict]:
        docs = []
        for term in self.sorted_terms():
            gens = []
            circ = []
            for w in term:
                ch = w.chain()
                if ch is not None:
                    gens.append(list(ch))
                else:
                    circ.append(list(w.subscripts))
            doc: dict = {"gens": sorted(gens)}
            if circ:
                doc["circ"] = sorted(circ)
            docs.append(doc)
        return docs

    JSON_SHAPE = '[{"gens": [[I, ...], ...], "circ": [[S, ...], ...]}, ...]'

    @classmethod
    def from_json(cls, docs: Sequence[Mapping]) -> "SymClass":
        """Inverse of ``to_json``; a document of another shape raises
        ValueError naming the expected one."""
        if not isinstance(docs, list) or not all(isinstance(doc, Mapping) for doc in docs):
            raise ValueError(f"expected a class of the shape {cls.JSON_SHAPE}")
        try:
            terms = [
                [CircWord.from_chain(ch) for ch in doc.get("gens", ())]
                + [
                    CircWord.of(*(json_int(m, "integer subscripts") for m in w))
                    for w in doc.get("circ", ())
                ]
                for doc in docs
            ]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"expected a class of the shape {cls.JSON_SHAPE} ({exc})") from None
        return cls.from_terms(terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for term in self.sorted_terms():
            parts.append("*".join(str(w) for w in term) if term else "1")
        return " + ".join(parts)


def juxta_multiply(a: SymClass, b: SymClass) -> SymClass:
    """Free polynomial product on generator multisets; degree and weight add."""
    acc: set[SymTerm] = set()
    for s in a.terms:
        for t in b.terms:
            acc ^= {_canonical_term(s + t)}
    return SymClass(frozenset(acc))


def iota_push(exponents: Sequence[int]) -> SymClass:
    """Image of the monomial x1^[n1]...xk^[nk] in weight-2^k homology.

    Returns the circle-word with the nonzero exponents as sorted
    subscripts; zero exponents contribute the unit of the composition
    product.  The result is a single polynomial generator exactly when
    the sorted subscripts have the shape (i1, 2 i2, 4 i3, ...).
    """
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be non-negative")
    word = CircWord(tuple(sorted(e for e in exponents if e > 0)))
    return SymClass.single(word)


@dataclass(frozen=True)
class AdmissibleIndex:
    """A multi-index (s1, ..., sk) with sj <= 2 s(j+1) for j < k."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s < 0 for s in self.entries):
            raise ValueError("entries must be non-negative")
        for j in range(len(self.entries) - 1):
            if self.entries[j] > 2 * self.entries[j + 1]:
                raise ValueError(f"index {self.entries} is not admissible at position {j}")

    @property
    def excess(self) -> int | None:
        """s1 - (s2 + ... + sk); None for the empty index (infinite excess)."""
        if not self.entries:
            return None
        return self.entries[0] - sum(self.entries[1:])

    @property
    def degree(self) -> int:
        return sum(self.entries)

    @property
    def weight(self) -> int:
        return 1 << len(self.entries)


def dl_to_chain(index: AdmissibleIndex) -> tuple[int, ...]:
    """Chain (i1, ..., ik) with it = st - (s(t+1) + ... + sk).

    Requires positive excess; the resulting chain is weakly increasing
    with i1 >= 1, and sum(sj) = i1 + 2 i2 + ... + 2^(k-1) ik.
    """
    s = index.entries
    if s and index.excess is not None and index.excess <= 0:
        raise ValueError(f"index {s} has non-positive excess")
    suffix = 0
    out = [0] * len(s)
    for t in range(len(s) - 1, -1, -1):
        out[t] = s[t] - suffix
        suffix += s[t]
    return tuple(out)


def chain_to_dl(chain: Sequence[int]) -> AdmissibleIndex:
    """Inverse of dl_to_chain: st = it + (s(t+1) + ... + sk)."""
    chain = tuple(chain)
    if any(i < 1 for i in chain):
        raise ValueError("chain entries must be positive")
    if any(chain[j] > chain[j + 1] for j in range(len(chain) - 1)):
        raise ValueError("chain must be weakly increasing")
    entries = [0] * len(chain)
    running = 0
    for t in range(len(chain) - 1, -1, -1):
        entries[t] = chain[t] + running
        running += entries[t]
    return AdmissibleIndex(tuple(entries))


def iter_chains(degree: int, length: int) -> Iterable[tuple[int, ...]]:
    """All chains (i1 <= ... <= ik), ij >= 1, with sum 2^(j-1) ij = degree."""

    def rec(remaining: int, pos: int, minimum: int) -> Iterable[tuple[int, ...]]:
        if pos == length:
            if remaining == 0:
                yield ()
            return
        scale = 1 << pos
        # remaining must cover minimal tail: minimum * (2^pos + ... + 2^(length-1))
        for i in range(minimum, remaining // scale + 1):
            for rest in rec(remaining - scale * i, pos + 1, i):
                yield (i,) + rest

    return rec(degree, 0, 1)


def iter_admissible(degree: int, length: int) -> Iterable[tuple[int, ...]]:
    """All admissible (s1, ..., sk), sj >= 0, with positive excess and given degree.

    Enumerated directly from the admissibility inequalities, independent
    of the chain parametrization.
    """

    def rec(remaining: int, pos: int, bound: int | None) -> Iterable[tuple[int, ...]]:
        # bound: s[pos] must satisfy 2 * s[pos] >= s[pos - 1] = bound (if set)
        if pos == length:
            if remaining == 0:
                yield ()
            return
        lo = 0 if bound is None else (bound + 1) // 2
        for s in range(lo, remaining + 1):
            for rest in rec(remaining - s, pos + 1, s):
                yield (s,) + rest

    for entries in rec(degree, 0, None):
        if not entries:
            if degree == 0:
                yield entries
            continue
        if entries[0] - sum(entries[1:]) > 0:
            yield entries


def count_basis(degree: int, weight: int) -> int:
    """Number of polynomial generators of the given degree and weight.

    The weight must be a power of two, 2^k; generators are counted by
    their chains (i1 <= ... <= ik) with sum 2^(j-1) ij = degree.
    """
    if weight < 1 or weight & (weight - 1):
        raise ValueError("weight must be a power of two")
    k = weight.bit_length() - 1
    return sum(1 for _ in iter_chains(degree, k))


def count_admissible(degree: int, length: int) -> int:
    """Number of admissible indices of positive excess with given degree/length."""
    return sum(1 for _ in iter_admissible(degree, length))
