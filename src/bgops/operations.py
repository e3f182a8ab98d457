"""Closed-form string topology operations on mod-2 homology of BG.

For each supported coefficient group G the operation indexed by a class
a over the rank-k elementary abelian 2-group is multiplication by a class
C(a) of H_*(BG) (``multiplier``), built from the computed closed forms:

* elementary abelian targets: either the matrix-count fast path (the
  A-counting function below) or, as an internal oracle, the sum of
  induced maps over all linear maps between the elementary abelian
  groups;
* dihedral groups of order 2 mod 4: transport along the mod-2 homology
  isomorphism with Z/2;
* the circle (k <= 2) and SU(2) (k <= 1): explicit one-line formulas;
* finite products and higher tori: reduction to the factors through the
  diagonal coproduct.

The value at a (x) b is C(a) * b, so an operation is nonzero on some b
exactly when it is nonzero on the unit class.

Unsupported (group, k) pairs raise UnsupportedOperationError rather than
silently returning zero.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

from .f2core import binom_parity, json_int, multinomial_parity
from .gradedalg import (
    DPClass,
    DPMonomial,
    GeneratorSet,
    compositions,
    dp_coproduct,
    field_width,
    linear_push_packed,
    pack_width,
    packed_compositions,
    packed_product,
)
from .symhomology import SymClass, term_is_decomposable, term_weight


class UnsupportedOperationError(ValueError):
    """The requested (group, k) pair has no computed closed form."""


class GroupHypothesisError(ValueError):
    """The coefficient group violates a stated group hypothesis."""


# ---------------------------------------------------------------------------
# group descriptors


@dataclass(frozen=True)
class Z2Power:
    """Elementary abelian 2-group of rank l."""

    l: int

    def __post_init__(self) -> None:
        if self.l < 1:
            raise ValueError("rank must be positive")


@dataclass(frozen=True)
class Dihedral:
    """Dihedral group of order 4n + 2; n = 0 gives Z/2."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be non-negative")

    @property
    def order(self) -> int:
        return 4 * self.n + 2


@dataclass(frozen=True)
class Torus:
    """Torus of rank l."""

    l: int

    def __post_init__(self) -> None:
        if self.l < 1:
            raise ValueError("rank must be positive")


@dataclass(frozen=True)
class SU2:
    """The group SU(2)."""


@dataclass(frozen=True)
class ProductGroup:
    """Finite product of the other descriptors, flattened left-to-right."""

    factors: tuple["GroupDescriptor", ...]

    def __post_init__(self) -> None:
        if len(self.factors) < 2:
            raise ValueError("a product needs at least two factors")
        if any(isinstance(f, ProductGroup) for f in self.factors):
            raise ValueError("factors must be flattened")


GroupDescriptor = Union[Z2Power, Dihedral, Torus, SU2, ProductGroup]


def make_product(factors: Sequence[GroupDescriptor]) -> GroupDescriptor:
    """Product descriptor with nested products flattened left-to-right."""
    flat: list[GroupDescriptor] = []
    for f in factors:
        if isinstance(f, ProductGroup):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if not flat:
        raise ValueError("empty product")
    if len(flat) == 1:
        return flat[0]
    return ProductGroup(tuple(flat))


def group_dim(g: GroupDescriptor) -> int:
    if isinstance(g, (Z2Power, Dihedral)):
        return 0
    if isinstance(g, Torus):
        return g.l
    if isinstance(g, SU2):
        return 3
    return sum(group_dim(f) for f in g.factors)


def atomic_factors(g: GroupDescriptor) -> tuple[GroupDescriptor, ...]:
    return g.factors if isinstance(g, ProductGroup) else (g,)


def is_abelian(g: GroupDescriptor) -> bool:
    if isinstance(g, Dihedral):
        return g.n == 0
    if isinstance(g, SU2):
        return False
    if isinstance(g, ProductGroup):
        return all(is_abelian(f) for f in g.factors)
    return True


def is_elementary_abelian_2(g: GroupDescriptor) -> bool:
    if isinstance(g, Z2Power):
        return True
    if isinstance(g, Dihedral):
        return g.n == 0
    if isinstance(g, ProductGroup):
        return all(is_elementary_abelian_2(f) for f in g.factors)
    return False


def is_even_or_positive_dimensional(g: GroupDescriptor) -> bool:
    """Positive-dimensional, or finite of even order.

    Every descriptor in this library satisfies this (dihedral orders
    4n + 2 are even); the check is kept explicit because several
    operations are only defined under this hypothesis.
    """
    if group_dim(g) > 0:
        return True
    for f in atomic_factors(g):
        if isinstance(f, (Z2Power, Dihedral)):
            return True
    return False


def format_group(g: GroupDescriptor) -> str:
    if isinstance(g, Z2Power):
        return f"z2^{g.l}"
    if isinstance(g, Dihedral):
        return f"d{g.order}"
    if isinstance(g, Torus):
        return f"t^{g.l}"
    if isinstance(g, SU2):
        return "su2"
    return "x".join(f"({format_group(f)})" for f in g.factors)


def parse_group(spec: str) -> GroupDescriptor:
    """Parse the group grammar: z2^L | d<4n+2> | t^L | su2 | (G1)x(G2)."""
    text = spec.replace(" ", "").lower()
    pos = 0

    def fail(msg: str) -> ValueError:
        return ValueError(f"bad group spec {spec!r}: {msg}")

    def parse_int() -> int:
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if start == pos:
            raise fail(f"expected an integer at position {start}")
        return int(text[start:pos])

    def parse_atom() -> GroupDescriptor:
        nonlocal pos
        if text.startswith("(", pos):
            pos += 1
            g = parse_expr()
            if not text.startswith(")", pos):
                raise fail("unbalanced parenthesis")
            pos += 1
            return g
        if text.startswith("z2^", pos):
            pos += 3
            return Z2Power(parse_int())
        if text.startswith("z2", pos):
            pos += 2
            return Z2Power(1)
        if text.startswith("su2", pos):
            pos += 3
            return SU2()
        if text.startswith("t^", pos):
            pos += 2
            return Torus(parse_int())
        if text.startswith("d", pos):
            pos += 1
            order = parse_int()
            if order % 4 != 2:
                raise fail(f"dihedral order {order} is not 2 mod 4")
            return Dihedral((order - 2) // 4)
        raise fail(f"unrecognized group at position {pos}")

    def parse_expr() -> GroupDescriptor:
        nonlocal pos
        parts = [parse_atom()]
        while text.startswith("x", pos):
            pos += 1
            parts.append(parse_atom())
        return make_product(parts)

    g = parse_expr()
    if pos != len(text):
        raise fail(f"trailing input at position {pos}")
    return g


# ---------------------------------------------------------------------------
# coefficient classes

TensorTerm = tuple[DPMonomial, ...]
"""Basis tensor of a class: one exponent vector per atomic factor."""


def factor_generators(g: GroupDescriptor) -> GeneratorSet:
    """Generator set of an atomic factor's homology, a divided power algebra."""
    if isinstance(g, Z2Power):
        return GeneratorSet.z2_basis(g.l)
    if isinstance(g, Dihedral):
        return GeneratorSet.z2_basis(1)
    if isinstance(g, Torus):
        return GeneratorSet.torus_basis(g.l)
    if isinstance(g, SU2):
        return GeneratorSet.su2_basis()
    raise ValueError("not an atomic factor")


def _factor_basis(g: GroupDescriptor, degree: int) -> list[DPMonomial]:
    """Canonical homology basis of an atomic factor in one degree, lex order."""
    gens = factor_generators(g)
    d = gens.degrees[0]
    if degree % d:
        return []
    return compositions(degree // d, len(gens))


@functools.lru_cache(maxsize=None)
def _layout(g: GroupDescriptor) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """First generator index and generator count of each atomic factor of G."""
    sizes = tuple(len(factor_generators(f)) for f in atomic_factors(g))
    return tuple(itertools.accumulate(sizes[:-1], initial=0)), sizes


def _pack_terms(g: GroupDescriptor, terms: Iterable[TensorTerm], width: int) -> list[int]:
    """Tensor terms as ints, generator i of G at bit i * width; with one
    generator, a term's int is its exponent."""
    starts, sizes = _layout(g)
    if sizes == (1,):
        return [t[0][0] for t in terms]
    shifts = range(0, sum(sizes) * width, width)
    return [sum(map(operator.lshift, itertools.chain.from_iterable(t), shifts)) for t in terms]


def _unpack_class(g: GroupDescriptor, packed: Iterable[int], width: int) -> "CoefficientClass":
    """The class of terms packed as ``_pack_terms`` does.  On a product,
    each distinct factor monomial is unpacked once per call and shared, as
    the tensors of the product formula share their legs."""
    starts, sizes = _layout(g)
    if sizes == (1,):
        return CoefficientClass(g, frozenset([((p,),) for p in packed]))
    mask = (1 << width) - 1
    if len(sizes) == 1:
        span = range(0, sizes[0] * width, width)
        terms = [(tuple([(p >> i) & mask for i in span]),) for p in packed]
        return CoefficientClass(g, frozenset(terms))
    fields = [
        (i * width, (1 << n * width) - 1, range(0, n * width, width), {})
        for i, n in zip(starts, sizes)
    ]
    terms = []
    for p in packed:
        term = []
        for shift, field, span, seen in fields:
            bits = (p >> shift) & field
            if (mono := seen.get(bits)) is None:
                mono = seen[bits] = tuple([(bits >> i) & mask for i in span])
            term.append(mono)
        terms.append(tuple(term))
    return CoefficientClass(g, frozenset(terms))


def _max_exponent(terms: Iterable[TensorTerm]) -> int:
    return max(map(max, itertools.chain.from_iterable(terms)), default=0)


@dataclass(frozen=True)
class CoefficientClass:
    """A mod-2 homology class of BG in the canonical basis convention.

    Every atomic factor's homology is a divided power algebra on the
    generators of ``factor_generators``: an elementary abelian group of
    rank l has l degree-1 generators; a dihedral group one degree-1
    generator, transported along the mod-2 homology isomorphism with its
    reflection subgroup; a rank-l torus l degree-2 generators; SU(2) one
    degree-4 generator u, whose divided power u^[m] is written u_m.  A
    term is a tensor of exponent vectors, one per factor.

    The external format (``to_json``, ``from_json``, ``__str__``) writes an
    SU(2) factor as the bare index m: ``{"su2": [m, ...]}`` alone, an int
    inside ``tensor_terms``, and the text ``u_m``.
    """

    group: GroupDescriptor
    terms: frozenset[TensorTerm]

    def __post_init__(self) -> None:
        if not self.terms:
            return
        sizes = _layout(self.group)[1]
        n = len(sizes)
        for t in self.terms:
            if len(t) != n:
                raise ValueError("tensor length does not match factor count")
        # each distinct monomial once per factor position
        for j, size in enumerate(sizes):
            for mono in {t[j] for t in self.terms}:
                if not isinstance(mono, tuple) or len(mono) != size or min(mono) < 0:
                    g = atomic_factors(self.group)[j]
                    raise ValueError(f"bad factor monomial {mono!r} for {format_group(g)}")

    @classmethod
    def zero(cls, group: GroupDescriptor) -> "CoefficientClass":
        return cls(group, frozenset())

    @classmethod
    def unit(cls, group: GroupDescriptor) -> "CoefficientClass":
        return cls(group, frozenset({tuple((0,) * n for n in _layout(group)[1])}))

    @classmethod
    def from_dp(cls, group: GroupDescriptor, value: DPClass) -> "CoefficientClass":
        if isinstance(group, ProductGroup):
            raise ValueError("from_dp requires a single divided-power factor")
        if value.gens != factor_generators(group):
            raise ValueError("class uses the wrong generator set for this group")
        return cls(group, frozenset({(t,) for t in value.terms}))

    @classmethod
    def tensor(cls, a: "CoefficientClass", b: "CoefficientClass") -> "CoefficientClass":
        group = make_product([a.group, b.group])
        acc: set[TensorTerm] = set()
        for s in a.terms:
            for t in b.terms:
                acc ^= {s + t}
        return cls(group, frozenset(acc))

    def as_dp(self) -> DPClass:
        if isinstance(self.group, ProductGroup):
            raise ValueError("not a single divided-power factor")
        return DPClass(factor_generators(self.group), frozenset(t[0] for t in self.terms))

    def __add__(self, other: "CoefficientClass") -> "CoefficientClass":
        if self.group != other.group:
            raise ValueError("cannot add classes over different groups")
        return CoefficientClass(self.group, self.terms ^ other.terms)

    def __mul__(self, other: "CoefficientClass") -> "CoefficientClass":
        """Product in H_*(BG): commutative, associative, with unit ``unit``."""
        if self.group != other.group:
            raise ValueError("cannot multiply classes over different groups")
        return _multiply(self.group, [], [self, other])

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def term_degree(self, term: TensorTerm) -> int:
        return sum(
            factor_generators(g).monomial_degree(m)
            for g, m in zip(atomic_factors(self.group), term)
        )

    def degrees(self) -> set[int]:
        return {self.term_degree(t) for t in self.terms}

    def homogeneous_degree(self) -> int:
        ds = self.degrees()
        if len(ds) != 1:
            raise ValueError("class is not homogeneous")
        return ds.pop()

    def sorted_terms(self) -> list[TensorTerm]:
        return sorted(self.terms)

    def to_json(self) -> dict:
        if isinstance(self.group, SU2):
            return {"su2": [m for ((m,),) in self.sorted_terms()]}
        if not isinstance(self.group, ProductGroup):
            return self.as_dp().to_json()
        factors = self.group.factors
        return {
            "group": format_group(self.group),
            "tensor_terms": [
                [m[0] if isinstance(g, SU2) else list(m) for g, m in zip(factors, t)]
                for t in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, group: GroupDescriptor, doc) -> "CoefficientClass":
        """Inverse of ``to_json`` over ``group``.  A document of another
        shape, or one whose ``"group"`` names another group, raises
        ValueError naming the expected shape or group."""
        if not isinstance(doc, Mapping):
            raise ValueError(f"expected a JSON object for a class over {format_group(group)}")
        if "group" in doc and parse_group(str(doc["group"])) != group:
            raise ValueError(
                f"the class is written for {doc['group']}, not for {format_group(group)}"
            )
        if isinstance(group, SU2):
            factors, key, shape = (group,), "su2", '{"su2": [M, ...]}'
        elif isinstance(group, ProductGroup):
            factors, key = group.factors, "tensor_terms"
            shape = '{"group": G, "tensor_terms": [[FACTOR, ...], ...]}'
        else:
            return cls.from_dp(group, DPClass.from_json(doc))
        expected = f"a class of the shape {shape} for {format_group(group)}"
        rows = doc.get(key)
        if not isinstance(rows, list):
            raise ValueError(f"expected {expected}")
        if isinstance(group, SU2):
            rows = [[m] for m in rows]

        def monomial(m) -> tuple[int, ...]:  # an SU(2) factor is one bare exponent
            return tuple(json_int(e, expected) for e in (m if isinstance(m, list) else [m]))

        acc: set[TensorTerm] = set()
        for row in rows:
            if not isinstance(row, list) or len(row) != len(factors):
                raise ValueError("tensor length does not match factor count")
            for g, m in zip(factors, row):
                if isinstance(g, SU2) == isinstance(m, list):
                    raise ValueError(f"bad factor monomial {m!r} for {format_group(g)}")
            acc ^= {tuple(map(monomial, row))}
        return cls(group, frozenset(acc))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        factors = atomic_factors(self.group)
        return " + ".join(
            " (x) ".join(
                f"u_{mono[0]}" if isinstance(g, SU2) else factor_generators(g).format_monomial(mono)
                for g, mono in zip(factors, term)
            )
            for term in self.sorted_terms()
        )


def coefficient_basis(group: GroupDescriptor, degree: int) -> list[CoefficientClass]:
    """Canonical homology basis of BG in one degree.

    Ordered lexicographically factor by factor: by the first factor's
    degree, then its monomial, then the next factor's degree, and so on;
    the last factor takes the rest of the degree.
    """
    *heads, last = atomic_factors(group)
    partial: list[tuple[TensorTerm, int]] = [((), 0)]
    for g in heads:
        partial = [
            (term + (mono,), used + d)
            for term, used in partial
            for d in range(degree - used + 1)
            for mono in _factor_basis(g, d)
        ]
    return [
        CoefficientClass(group, frozenset({term + (mono,)}))
        for term, used in partial
        for mono in _factor_basis(last, degree - used)
    ]


# ---------------------------------------------------------------------------
# the A-counting function


def A_count(
    row_sums: Sequence[int], col_sums: Sequence[int], mode: str = "parity"
) -> int:
    """Number of positive-integer matrices with column-disjoint bits.

    Counts k x l matrices of positive integers with the given row and
    column sums such that no two entries in the same column share a 1 in
    their binary expansions.  Equivalently: ways to distribute the powers
    of two of each column sum among the k rows, every row receiving at
    least one power per column, with prescribed row totals.

    ``mode`` is "exact" for the integer count or "parity" for its value
    mod 2.  Mismatched totals give 0.

    Dynamic programme over binary digits i = 0 .. width - 1.  At digit i
    each column with bit i set hands that bit to one row; if m_r columns
    pick row r, row r gains m_r 2^i.  The state is the per-row carries
    c_r (the part of that gain not yet matched against the row sum)
    together with a k*l-bit mask of the entries that are already
    nonzero.  Assignments are grouped by their count vector m: a group
    survives when c_r + m_r has the parity of bit i of row r's sum, and
    the new carry is (c_r + m_r) >> 1.  The answer is the count on the
    state with a full mask and carries equal to the row sums shifted
    past the last digit.  States that cannot reach it are dropped: a
    carry above what is left of its row sum, or a mask missing an entry
    of a column whose last bit has passed.  A carry stays below l, so
    there are at most l^k 2^(kl) states and k^l assignments per digit,
    whatever the sums: the cost is linear in their bit length.  In
    parity mode counts are kept mod 2 and even states are dropped.
    """
    if mode not in ("parity", "exact"):
        raise ValueError("mode must be 'parity' or 'exact'")
    k, l = len(row_sums), len(col_sums)
    if k < 1 or l < 1:
        raise ValueError("row and column counts must be at least 1")
    if any(n < 0 for n in itertools.chain(row_sums, col_sums)):
        raise ValueError("sums must be non-negative")
    if sum(row_sums) != sum(col_sums):
        return 0
    if any(bin(e).count("1") < k for e in col_sums):
        return 0  # k positive entries of a column need k distinct powers of two
    width = max(col_sums).bit_length()
    column = ((1 << (k * l)) - 1) // ((1 << l) - 1)  # one bit per row, column 0
    # carries -> {mask: count}; entry (r, j) is bit r * l + j of the mask
    states: dict[tuple[int, ...], dict[int, int]] = {(0,) * k: {0: 1}}
    for i in range(width):
        bits = [(n >> i) & 1 for n in row_sums]
        caps = [n >> (i + 1) for n in row_sums]
        # every entry of a column whose last bit is this one must now be set
        done = sum(column << j for j, e in enumerate(col_sums) if e.bit_length() == i + 1)
        # assignments of this digit's column bits to rows, grouped by the
        # parity pattern of their count vector m, then by m
        groups: dict[tuple[int, ...], dict[tuple[int, ...], list[int]]] = {}
        digit_cols = [j for j, e in enumerate(col_sums) if (e >> i) & 1]
        for assign in itertools.product(range(k), repeat=len(digit_cols)):
            m = [0] * k
            added = 0
            for j, r in zip(digit_cols, assign):
                m[r] += 1
                added |= 1 << (r * l + j)
            pattern = tuple([v & 1 for v in m])
            groups.setdefault(pattern, {}).setdefault(tuple(m), []).append(added)
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        for carries, masks in states.items():
            pattern = tuple([(b - c) & 1 for b, c in zip(bits, carries)])
            for m, additions in groups.get(pattern, {}).items():
                new = tuple([(c + v) >> 1 for c, v in zip(carries, m)])
                if any(map(operator.gt, new, caps)):
                    continue  # more than the rest of a row sum
                out = nxt.setdefault(new, {})
                for mask, count in masks.items():
                    for added in additions:
                        added |= mask
                        if added & done == done:
                            out[added] = out.get(added, 0) + count
        if mode == "parity":
            nxt = {c: {s: 1 for s, n in masks.items() if n & 1} for c, masks in nxt.items()}
        states = {c: masks for c, masks in nxt.items() if masks}
        if not states:
            return 0
    final = states.get(tuple(n >> width for n in row_sums), {})
    return final.get((1 << (k * l)) - 1, 0)


# ---------------------------------------------------------------------------
# the operations


def _supported(g: GroupDescriptor, k: int) -> bool:
    if k == 0:
        return True
    if isinstance(g, (Z2Power, Dihedral)):
        return True
    if isinstance(g, Torus):
        return k <= 2
    if isinstance(g, SU2):
        return k <= 1
    return all(_supported(f, k) for f in g.factors)


def require_supported(g: GroupDescriptor, k: int) -> None:
    if not _supported(g, k):
        raise UnsupportedOperationError(
            f"the operation for group {format_group(g)} at k={k} has no computed closed form"
        )


def _check_input_class(a: DPClass, k: int) -> None:
    if a.gens.degrees != (1,) * k:
        raise ValueError(f"input class must live over {k} degree-1 generators")


def multiplier(g: GroupDescriptor, k: int, a: DPClass) -> CoefficientClass:
    """The class C(a) with alpha(g, k, a, b) = C(a) * b for every b.

    Per atomic factor of G, for a monomial a with exponents (n_1, ..., n_k):

    * Z/2 and dihedral targets: x^[n_1 + ... + n_k] when every n_j > 0 and
      the multinomial coefficient is odd, else 0;
    * Z/2^l, l > 1: the sum of t_1^[c_1] ... t_l^[c_l] over the column
      sums c whose matrix count A_count(n, c) is odd, computed as the
      product over rows r of the sums of t^[e] over the compositions e of
      n_r into l positive parts (see ``_z2power_terms``);
    * the circle: the halving map applied to x^[n + 1] (k = 1), or to
      x^[n_1 + n_2 + 3] when C(n_1 + n_2 + 2, n_1 + 1) is even (k = 2);
    * SU(2) (k = 1): the module action of x^[n + 3] on the unit u_0.

    A product, or a torus of rank l as a product of l circles, splits a
    through the diagonal coproduct: C(a) = sum of C_head(a') (x) C_tail(a'').
    At k = 0, C(a) is the unit when a is, and 0 otherwise.

    Multiplication on H_*(BG) is commutative and associative with unit 1,
    so alpha(g, k, a, 1) = C(a), and alpha(g, k, a, -) is zero exactly when
    C(a) is: if C(a) = 0 then C(a) * b = 0 for every b, and otherwise b = 1
    is a witness.  The same holds for a composite, whose value on b is the
    product of its multipliers times b, by associativity.
    """
    return _multiply(g, [(k, a)], [])


def _packed_multiplier(g: GroupDescriptor, k: int, a: DPClass, width: int) -> set[int]:
    """C(a) packed as ``_multiply`` lays it out, with ``width`` bits per field."""
    if k < 0:
        raise ValueError("k must be non-negative")
    require_supported(g, k)
    _check_input_class(a, k)
    if k == 0:
        # a is a scalar multiple of the unit class over zero generators
        return {0} if () in a.terms else set()
    build = _builder(g, width)
    acc: set[int] = set()
    for mono in a.terms:
        acc ^= build(mono, 0)
    return acc


def _multiply(
    g: GroupDescriptor,
    inputs: Sequence[tuple[int, DPClass]],
    classes: Sequence[CoefficientClass],
) -> CoefficientClass:
    """C(a_1) ... C(a_r) c_1 ... c_s for the (k_i, a_i) of ``inputs`` and the
    c_j of ``classes``, as one packed product unpacked once.  Every product
    of classes in this module is formed here.

    Layout.  Each factor is built as ints: G's generators in factor order,
    generator i at bit i * w (``_layout``).  An exponent of C(a) is at most
    |a|, the top total exponent of a's terms: it is a row or column sum or
    n_1 + ... + n_k on a finite factor, (|a| + 3) / 2 with |a| >= 3 on a
    circle (else the value is 0), (n + 3) / 4 on SU(2), and a coproduct
    leg's is bounded by its part of a.  So w from the largest |a_i| and
    the largest exponent of the c_j holds every factor, and
    ``packed_product`` multiplies without carries.
    """
    bounds = [sum(mono) for _, a in inputs for mono in a.terms]
    width = field_width(max(bounds + [_max_exponent(c.terms) for c in classes], default=0))
    factors = [_packed_multiplier(g, k, a, width) for k, a in inputs]
    if not all(factors):
        return CoefficientClass.zero(g)
    factors += [_pack_terms(g, c.terms, width) for c in classes]
    return _unpack_class(g, packed_product(factors), width)


def _builder(g: GroupDescriptor, width: int) -> Callable[[DPMonomial, int], set[int]]:
    """build(mono, shift): C(x^[mono]) for g with its first field at bit
    ``shift``, for a supported pair (g, k = len(mono)), k >= 1."""
    kind = type(g)
    if kind is Dihedral or (kind is Z2Power and g.l == 1):
        return _rank_one_terms
    if kind is Z2Power:
        return functools.partial(_z2power_terms, g.l, width=width)
    if kind is SU2:
        return _su2_terms
    if kind is Torus and g.l == 1:
        return _circle_terms
    if kind is ProductGroup:
        parts, starts = g.factors, _layout(g)[0]
    else:  # a torus as a product of circles, generator y_i circle i
        parts, starts = (Torus(1),) * g.l, range(g.l)
    return lambda mono, shift: _coproduct_terms(
        parts, [shift + s * width for s in starts], mono, width
    )


def _coproduct_terms(
    factors: Sequence[GroupDescriptor], shifts: Sequence[int], mono: DPMonomial, width: int
) -> set[int]:
    """Product formula: C(x^[mono]) = sum of C_1(x^[l_1]) (x) ... (x) C_m(x^[l_m])
    over the splittings mono = l_1 + ... + l_m, C_i the i-th factor's,
    packed with factor i's first field at bit ``shifts[i]``.

    Proof.  The diagonal of the product induces the iterated coproduct on
    a.  The deconcatenation coproduct is coassociative and splits each
    generator independently, v^[n] -> sum of v^[i] (x) v^[n-i] with every
    coefficient 1, so iterating it gives x^[l_1] (x) ... (x) x^[l_m] once
    for each splitting of mono, with coefficient 1.  Over GF(2) the twist
    map contributes no signs.

    The sum is folded over the factors, keyed by the exponents used so
    far: after i factors, ``partial[u]`` is the sum over the splittings
    u = l_1 + ... + l_i of C_1(x^[l_1]) (x) ... (x) C_i(x^[l_i]), so
    after the first factor it is that factor's legs.  Each non-last
    factor's nonzero legs C_i(x^[l]), l a left part of
    ``dp_coproduct(mono)``, are built once per call, and identical
    factors share them, shifted to each one's fields; the last factor
    takes the rest, mono - u.  The factors' fields are disjoint, so a
    tensor of terms is the OR of their packed ints, and distinct tensors
    are distinct ints: the sums are symmetric differences of sets.
    """
    # The splittings' exponent vectors are ints too, vw bits per generator
    # of a: a part of mono, or a sum of two, stays below a field's top
    # bit, so used + left adds entrywise, and it is at most mono in every
    # entry exactly when ceiling - (used + left) keeps every top bit.
    vw = max(mono).bit_length() + 2
    vshifts = range(0, len(mono) * vw, vw)
    guards = sum(1 << (s + vw - 1) for s in vshifts)
    ceiling = sum(map(operator.lshift, mono, vshifts)) | guards
    lefts = [left for left, _ in dp_coproduct(mono)]
    legs_of: dict[GroupDescriptor, list[tuple[int, set[int]]]] = {}

    def legs(factor: GroupDescriptor, shift: int) -> list[tuple[int, Iterable[int]]]:
        if factor not in legs_of:
            build = _builder(factor, width)
            legs_of[factor] = [
                (sum(map(operator.lshift, left, vshifts)), terms)
                for left in lefts
                if (terms := build(left, 0))
            ]
        if not shift:
            return legs_of[factor]
        return [(v, [t << shift for t in terms]) for v, terms in legs_of[factor]]

    partial = dict(legs(factors[0], shifts[0]))
    for factor, shift in zip(factors[1:-1], shifts[1:]):
        factor_legs = legs(factor, shift)
        extended: dict[int, set[int]] = {}
        for used, heads in partial.items():
            for left, terms in factor_legs:
                total = used + left
                if (ceiling - total) & guards != guards:
                    continue
                acc = extended.setdefault(total, set())
                acc ^= {s | t for s in heads for t in terms}
        partial = {used: heads for used, heads in extended.items() if heads}
    build, shift, low = _builder(factors[-1], width), shifts[-1], (1 << (vw - 1)) - 1
    out: set[int] = set()
    for used, heads in partial.items():
        tails = build(tuple([((ceiling - used) >> s) & low for s in vshifts]), shift)
        out ^= {s | t for s in heads for t in tails}
    return out


def _check_coefficient_group(g: GroupDescriptor, b: CoefficientClass) -> None:
    if b.group != g:
        raise ValueError("coefficient class group does not match the descriptor")


def alpha(
    g: GroupDescriptor, k: int, a: DPClass, b: CoefficientClass
) -> CoefficientClass:
    """The rank-k operation on H_*(BG) evaluated at a (x) b: C(a) * b.

    ``a`` is a class over k degree-1 generators; ``b`` a class over G; C(a)
    is ``multiplier(g, k, a)``, here multiplied by b packed, without being
    built as a class.  Bilinear; on homogeneous inputs the output degree
    is deg(a) + deg(b) + dim(G) (2^k - 1).
    """
    _check_coefficient_group(g, b)
    return _multiply(g, [(k, a)], [b])


def _rank_one_terms(mono: DPMonomial, shift: int) -> set[int]:
    """Z/2 target (and dihedral targets, transported)."""
    if min(mono) > 0 and multinomial_parity(mono):
        return {sum(mono) << shift}
    return set()


def _z2power_terms(l: int, mono: DPMonomial, shift: int, width: int) -> set[int]:
    """Rank-l elementary abelian target: C(x^[n]) as a product over rows.

    For each row r let P(n_r) be the sum of t^[e] over the compositions e
    of n_r into l positive parts.  Then C(x^[n]) = P(n_1) ... P(n_k) in
    the divided-power algebra on t_1, ..., t_l.

    Proof.  Expanding the product, each choice of one composition e_r per
    row is a k x l matrix of positive integers with rows e_r, so with row
    sums n, and each such matrix is one choice.  The choice contributes
    t^[e_1] ... t^[e_k], which is t^[c] for its column sums c times the
    product over columns j of multinomial(c_j; e_1j, ..., e_kj).  By
    Lucas' theorem that multinomial is odd exactly when the entries of
    column j are pairwise bit-disjoint.  So the coefficient of t^[c] is
    the number of matrices with row sums n, column sums c and
    bit-disjoint columns, A_count(n, c), mod 2: the term t^[c] is present
    exactly when the matrix count is odd, as ``multiplier`` defines it.

    Each P(n_r) is built as packed ints, t_i at bit shift + i * width,
    and the rows multiply with ``packed_product``, the kernel
    ``linear_push`` uses.  A row with n_r < l has no composition, so the
    product is 0.
    """
    if min(mono) < l:
        return set()
    shifts = range(shift, shift + l * width, width)
    return packed_product([packed_compositions(n, shifts, 1) for n in mono])


def alpha_z2power_bruteforce(
    g: Z2Power, k: int, a: DPClass, b: CoefficientClass
) -> CoefficientClass:
    """Internal oracle: sum of induced maps over all 2^(l k) linear maps.

    Each map is given by its k columns, bitmasks over the l rows; the
    pushes are summed as packed monomials, unpacked once and multiplied
    by b.
    """
    _check_coefficient_group(g, b)
    _check_input_class(a, k)
    width = pack_width(a.terms)
    packed: set[int] = set()
    for columns in itertools.product(range(1 << g.l), repeat=k):
        packed ^= linear_push_packed(columns, a.terms, g.l, width)
    return _unpack_class(g, packed, width) * b


def _circle_terms(mono: DPMonomial, shift: int) -> set[int]:
    """The circle (k <= 2): the halving map applied to x^[top].

    top is n + 1 for k = 1, and n_1 + n_2 + 3 for k = 2 when
    C(n_1 + n_2 + 2, n_1 + 1) is even (the value is 0 when it is odd).
    Halving (``beta_push``) sends x^[top] to y^[top / 2] for even top and
    to 0 for odd top.
    """
    if len(mono) == 1:
        top = mono[0] + 1
    else:
        n1, n2 = mono
        if binom_parity(n1 + n2 + 2, n1 + 1):
            return set()
        top = n1 + n2 + 3
    return {(top // 2) << shift} if top % 2 == 0 else set()


def _su2_terms(mono: DPMonomial, shift: int) -> set[int]:
    """SU(2) (k = 1): the module action of x^[n + 3] on the unit u_0.

    ``su2_act`` keeps x^[e] u^[0] = x^[e] when 4 divides e, as u^[e / 4],
    so the value is u_((n + 3) / 4) for n = 1 mod 4 and 0 otherwise.
    """
    (n,) = mono
    return {((n + 3) // 4) << shift} if n % 4 == 1 else set()


# ---------------------------------------------------------------------------
# operations indexed by symmetric-group classes


def _weight_input(g: GroupDescriptor, n: int, a: SymClass) -> tuple[int, DPClass] | None:
    """(k, a') such that the weight-n operation indexed by ``a`` multiplies
    by the rank-k multiplier C(a'), or None when it multiplies by 0.

    Zero when n is not a power of two; otherwise a' is the sum, over the
    terms of ``a`` that are indecomposable for the juxtaposition product,
    of the term's canonical preimage, and C is linear in a'.
    """
    if n < 1:
        raise ValueError("the weight must be positive")
    if not is_even_or_positive_dimensional(g):
        raise GroupHypothesisError(
            "operations require a positive-dimensional group or a finite group of even order"
        )
    for term in a.terms:
        if term_weight(term) != n:
            raise ValueError(
                f"weight mismatch: term of weight {term_weight(term)} in a weight-{n} operation"
            )
    if n & (n - 1):
        return None
    k = n.bit_length() - 1
    preimages = []
    for term in a.terms:
        if term_is_decomposable(term):
            continue  # vanishing holds for every such group, no dispatch needed
        (word,) = term
        require_supported(g, k)
        preimages.append(word.subscripts)
    return (k, DPClass.from_terms(GeneratorSet.v_basis(k), preimages)) if preimages else None


def phi_sigma(
    g: GroupDescriptor, n: int, a: SymClass, b: CoefficientClass
) -> CoefficientClass:
    """The weight-n operation evaluated at a (x) b.

    Vanishes when n is not a power of two and on every term decomposable
    for the juxtaposition product.  A single circle-word of weight 2^k
    evaluates through its canonical preimage x_1^[m_1] ... x_k^[m_k]
    under the rank-k operation; the choice of preimage is immaterial
    because the evaluation is invariant under GL_k(F2) changes of basis.
    On homogeneous inputs |output| = |b| + |a| + dim(G)(n - 1).
    """
    _check_coefficient_group(g, b)
    weight_input = _weight_input(g, n, a)
    if weight_input is None:
        return CoefficientClass.zero(g)
    return _multiply(g, [weight_input], [b])


def composite_op(
    g: GroupDescriptor,
    factors: Sequence[tuple[int, SymClass]],
    b: CoefficientClass,
) -> CoefficientClass:
    """Composite of weight-n_i operations, rightmost factor applied first.

    Each factor multiplies by a class, so the composite is multiplication
    by their product, formed with b in one packed product.  Total degree
    shift dim(G) * sum(n_i - 1).
    """
    _check_coefficient_group(g, b)
    inputs = [_weight_input(g, n, a) for n, a in reversed(list(factors))]
    if None in inputs:
        return CoefficientClass.zero(g)
    return _multiply(g, inputs, [b])


# ---------------------------------------------------------------------------
# nontriviality


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of ``nontrivial_witness``.

    ``witness`` is the unit class when the operation is nonzero, or None
    when it vanishes on every class, which ``multiplier`` proves from its
    value on the unit.
    """

    witness: CoefficientClass | None

    @property
    def certified_trivial(self) -> bool:
        return self.witness is None

    def __bool__(self) -> bool:
        return self.witness is not None


def nontrivial_witness(g: GroupDescriptor, k: int, a: DPClass) -> WitnessResult:
    """A class b with a nonzero operation value, or a proof that none exists.

    The operation is multiplication by ``multiplier(g, k, a)``, so it is
    zero on every b exactly when C(a) is; C(a) is tested packed, without
    being unpacked.
    """
    if _packed_multiplier(g, k, a, pack_width(a.terms)):
        return WitnessResult(CoefficientClass.unit(g))
    return WitnessResult(None)
