"""Divided power algebras over GF(2) on named graded generators.

Classes are GF(2)-sums of divided-power monomials v1^[n1]...vk^[nk].
Multiplication follows v^[n] v^[m] = C(n+m, m) v^[n+m]; over GF(2) a
product of monomials survives exactly when the exponents are bitwise
disjoint generator by generator, in which case exponents add.

These algebras model the mod-2 homology of classifying spaces of
elementary abelian 2-groups (generators of degree 1), of tori
(generators of degree 2) and of SU(2) (one generator u of degree 4, whose
divided power u^[m] is the degree-4m class u_m).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .f2core import F2Matrix, json_int

DPMonomial = tuple[int, ...]
"""Exponent vector of a divided-power monomial, aligned with a GeneratorSet."""


class GeneratorMismatchError(ValueError):
    """Operands live over different generator sets."""


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered named generators with degrees in {1, 2, 4}.

    The basis constructors are cached, because ``factor_generators`` asks
    for them on every class it builds; instances are frozen, so sharing
    them is safe, and a bad rank raises on every call.
    """

    names: tuple[str, ...]
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.degrees):
            raise ValueError("names/degrees length mismatch")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be distinct")
        if any(d not in (1, 2, 4) for d in self.degrees):
            raise ValueError("generator degrees must be 1, 2 or 4")

    def __len__(self) -> int:
        return len(self.names)

    def monomial_degree(self, mono: DPMonomial) -> int:
        return sum(d * e for d, e in zip(self.degrees, mono))

    def format_monomial(self, mono: DPMonomial) -> str:
        """Text of one monomial: x*y^[2], or 1 for the unit."""
        factors = [name if e == 1 else f"{name}^[{e}]" for name, e in zip(self.names, mono) if e]
        return "*".join(factors) if factors else "1"

    @staticmethod
    @lru_cache(maxsize=None)
    def v_basis(k: int) -> "GeneratorSet":
        """Degree-1 generators x (k = 1) or x1..xk."""
        if k < 0:
            raise ValueError("negative rank")
        if k == 0:
            return GeneratorSet((), ())
        if k == 1:
            return GeneratorSet(("x",), (1,))
        return GeneratorSet(tuple(f"x{i}" for i in range(1, k + 1)), (1,) * k)

    @staticmethod
    @lru_cache(maxsize=None)
    def z2_basis(l: int) -> "GeneratorSet":
        """Degree-1 generators x (l = 1) or t1..tl."""
        if l < 1:
            raise ValueError("rank must be positive")
        if l == 1:
            return GeneratorSet(("x",), (1,))
        return GeneratorSet(tuple(f"t{i}" for i in range(1, l + 1)), (1,) * l)

    @staticmethod
    @lru_cache(maxsize=None)
    def torus_basis(l: int) -> "GeneratorSet":
        """Degree-2 generators y (l = 1) or y1..yl."""
        if l < 1:
            raise ValueError("rank must be positive")
        if l == 1:
            return GeneratorSet(("y",), (2,))
        return GeneratorSet(tuple(f"y{i}" for i in range(1, l + 1)), (2,) * l)

    @staticmethod
    @lru_cache(maxsize=None)
    def su2_basis() -> "GeneratorSet":
        """The degree-4 generator u of H_*(BSU(2))."""
        return GeneratorSet(("u",), (4,))


@dataclass(frozen=True)
class DPClass:
    """GF(2)-sum of divided-power monomials over a fixed generator set.

    ``terms`` is a set of exponent vectors; duplicate monomials cancel.
    Inhomogeneous sums are permitted as values, but operations that
    require homogeneity assert it via ``homogeneous_degree``.
    """

    gens: GeneratorSet
    terms: frozenset[DPMonomial]

    def __post_init__(self) -> None:
        n = len(self.gens)
        for t in self.terms:
            if len(t) != n or (n and min(t) < 0):
                raise ValueError(f"bad monomial {t!r} for {n} generators")

    @classmethod
    def zero(cls, gens: GeneratorSet) -> "DPClass":
        return cls(gens, frozenset())

    @classmethod
    def unit(cls, gens: GeneratorSet) -> "DPClass":
        return cls(gens, frozenset({(0,) * len(gens)}))

    @classmethod
    def monomial(cls, gens: GeneratorSet, exps: Sequence[int] | Mapping[str, int]) -> "DPClass":
        """The monomial with exponents ``exps``, given in generator order or
        by name; an exponent that is not an int (a float or a bool) raises
        ValueError naming the expected shape."""
        if isinstance(exps, Mapping):
            unknown = set(exps) - set(gens.names)
            if unknown:
                raise ValueError(f"unknown generators {sorted(unknown)}")
            exps = [exps.get(name, 0) for name in gens.names]
        return cls.from_terms(gens, [exps])

    @classmethod
    def from_terms(cls, gens: GeneratorSet, terms: Iterable[Sequence[int]]) -> "DPClass":
        """The sum of the monomials ``terms``; duplicates cancel, and an
        exponent that is not an int raises as in ``monomial``."""
        shape = "a monomial of integer exponents"
        acc: set[DPMonomial] = set()
        for t in terms:
            acc ^= {tuple(json_int(e, shape) for e in t)}
        return cls(gens, frozenset(acc))

    def __add__(self, other: "DPClass") -> "DPClass":
        if self.gens != other.gens:
            raise GeneratorMismatchError("cannot add classes over different generators")
        return DPClass(self.gens, self.terms ^ other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {self.gens.monomial_degree(t) for t in self.terms}

    def homogeneous_degree(self) -> int:
        ds = self.degrees()
        if len(ds) != 1:
            raise ValueError(f"class is not homogeneous (degrees {sorted(ds)})")
        return ds.pop()

    def sorted_terms(self) -> list[DPMonomial]:
        return sorted(self.terms)

    def to_json(self) -> dict:
        return {
            "generators": [
                {"name": n, "degree": d} for n, d in zip(self.gens.names, self.gens.degrees)
            ],
            "terms": [
                {n: e for n, e in zip(self.gens.names, t) if e} for t in self.sorted_terms()
            ],
        }

    JSON_SHAPE = (
        '{"generators": [{"name": NAME, "degree": D}, ...], '
        '"terms": [{NAME: EXPONENT, ...}, ...]}'
    )

    @classmethod
    def from_json(cls, doc: Mapping) -> "DPClass":
        """Inverse of ``to_json``; a document of another shape raises
        ValueError naming the expected one."""
        shape = f"a class of the shape {cls.JSON_SHAPE}"
        try:
            gens = GeneratorSet(
                tuple(g["name"] for g in doc["generators"]),
                tuple(json_int(g["degree"], shape) for g in doc["generators"]),
            )
            terms = [tuple(json_int(t.get(n, 0), shape) for n in gens.names) for t in doc["terms"]]
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(
                f"expected a class of the shape {cls.JSON_SHAPE} ({type(exc).__name__}: {exc})"
            ) from None
        return cls.from_terms(gens, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(self.gens.format_monomial(t) for t in self.sorted_terms())


def dp_multiply(a: DPClass, b: DPClass) -> DPClass:
    """Bilinear extension of v^[n] v^[m] = C(n+m, m) v^[n+m], as one packed
    product: generator i at bit i * w, w from the largest exponent of a
    and b (see ``packed_product``), unpacked once."""
    if a.gens != b.gens:
        raise GeneratorMismatchError("cannot multiply classes over different generators")
    l = len(a.gens)
    exponents = itertools.chain.from_iterable(itertools.chain(a.terms, b.terms))
    width = field_width(max(exponents, default=0))
    shifts = range(0, l * width, width)
    packed = packed_product([pack_monomials(a.terms, shifts), pack_monomials(b.terms, shifts)])
    return DPClass(a.gens, frozenset(unpack_monomials(packed, l, width)))


def dp_coproduct(mono: DPMonomial) -> list[tuple[DPMonomial, DPMonomial]]:
    """Deconcatenation coproduct of a monomial.

    Splits each generator independently: v^[n] -> sum of v^[i] x v^[n-i],
    all coefficients 1.  The pair list is the product of the per-generator
    splittings, in lexicographic order of the left factor.
    """
    return [
        (left, tuple(map(operator.sub, mono, left)))
        for left in itertools.product(*[range(e + 1) for e in mono])
    ]


def packed_compositions(n: int, shifts: Sequence[int], minimum: int = 0) -> list[int]:
    """Compositions of n into len(shifts) parts >= minimum, each packed
    into one int with part i at bit ``shifts[i]``.

    The fields must be wide enough to hold n.  Built one field at a time:
    a partial value holds what is left of n in its last field, and the
    next field takes b of it for b from the least the later parts need to
    what leaves this part ``minimum``; moving b up one field adds
    b * (2^hi - 2^lo), which borrows from no other field.
    """
    if not shifts:
        return [0] if n == 0 else []
    if n < minimum * len(shifts):
        return []
    level = [n << shifts[0]]
    for i, (lo, hi) in enumerate(zip(shifts, shifts[1:])):
        step = (1 << hi) - (1 << lo)
        need = minimum * (len(shifts) - 1 - i)
        level = [p + b * step for p in level for b in range(need, (p >> lo) - minimum + 1)]
    return level


@lru_cache(maxsize=None)
def _packed_sum_power(rows_mask: int, n: int, l: int, width: int) -> tuple[int, ...]:
    """Terms of (sum of t_i over set bits of rows_mask)^[n] in l generators,
    each packed into one int with ``width`` bits per generator.

    Divided-power addition: (u + v)^[n] = sum over i+j=n of u^[i] v^[j],
    so the expansion runs over compositions of n supported on rows_mask,
    every coefficient 1; exponent e_i sits at bit i * width, so n must be
    below 2 ** width.
    """
    shifts = [i * width for i in range(l) if (rows_mask >> i) & 1]
    return tuple(packed_compositions(n, shifts))


def field_width(bound: int) -> int:
    """Bits per packed exponent field that hold every exponent up to
    ``bound``; at least one, so that the fields have distinct offsets."""
    return max(bound.bit_length(), 1)


def pack_monomials(terms: Iterable[Sequence[int]], shifts: Sequence[int]) -> list[int]:
    """Each exponent vector as one int, exponent i at bit ``shifts[i]``."""
    return [sum(map(operator.lshift, t, shifts)) for t in terms]


def packed_product(factors: Sequence[Sequence[int]]) -> set[int]:
    """Terms of the product of sums of packed monomials.

    Layout: each generator owns a field of w bits at its own offset, the
    fields of different generators disjoint, and every exponent of every
    factor is below 2^w.  Then m & n == 0 exactly when the exponents of m
    and n are bitwise disjoint generator by generator, which by Lucas'
    theorem is exactly when every binomial C(e + f, e) of the product
    v^[e] v^[f] = C(e + f, e) v^[e + f] is odd; the product is then m | n.

    No carry.  For bitwise disjoint e and f, e + f = e | f, and the OR of
    two values below 2^w is below 2^w.  So each field of m | n holds the
    sum of the two exponents and no field spills into the next, and every
    product of the factors, however many, again has all its exponents
    below 2^w: the width need only bound the exponents of the factors.

    Each factor must list distinct monomials.  The factors are taken
    smallest first, so the partial products stay small, and the loop stops
    once one is zero.
    """
    if not factors:
        return {0}
    first, *rest = sorted(factors, key=len)
    partial = set(first)
    for f in rest:
        if not partial:
            break
        nxt: set[int] = set()
        for m in partial:
            for n in f:
                if not m & n:
                    p = m | n
                    if p in nxt:
                        nxt.remove(p)
                    else:
                        nxt.add(p)
        partial = nxt
    return partial


def unpack_monomials(packed: Iterable[int], l: int, width: int) -> list[DPMonomial]:
    """Exponent vectors of packed monomials with ``width`` bits per generator."""
    exponent = (1 << width) - 1
    shifts = [i * width for i in range(l)]
    return [tuple([(p >> shift) & exponent for shift in shifts]) for p in packed]


def compositions(n: int, parts: int) -> list[DPMonomial]:
    """All tuples of ``parts`` non-negative integers summing to n, in lex
    order: ``packed_compositions`` unpacked and sorted."""
    width = field_width(n)
    packed = packed_compositions(n, range(0, parts * width, width))
    return sorted(unpack_monomials(packed, parts, width))


def linear_push(k_matrix: F2Matrix, a: DPClass) -> DPClass:
    """Map on homology induced by a linear map of elementary abelian 2-groups.

    ``k_matrix`` is l x k over GF(2); ``a`` lives over k degree-1
    generators.  The induced ring map is determined by
    x_j^[n] -> (sum of t_i over rows i with K[i][j] = 1)^[n], expanded by
    divided-power addition, into the classes over ``GeneratorSet.z2_basis(l)``.
    """
    k = len(a.gens)
    if any(d != 1 for d in a.gens.degrees):
        raise ValueError("linear_push expects degree-1 generators")
    if k_matrix.cols != k:
        raise ValueError("matrix column count must match source generator count")
    l = k_matrix.rows
    target = GeneratorSet.z2_basis(l) if l > 0 else GeneratorSet((), ())
    columns = k_matrix.columns()
    width = pack_width(a.terms)
    packed = linear_push_packed(columns, a.terms, l, width)
    return DPClass(target, frozenset(unpack_monomials(packed, l, width)))


def pack_width(terms: Iterable[DPMonomial]) -> int:
    """Bits per generator that hold every exponent of a push of ``terms``,
    or of the multiplier of a class with these terms (see
    ``operations._multiply``): an output exponent is at most its term's
    total degree."""
    return field_width(max((sum(mono) for mono in terms), default=0))


def linear_push_packed(
    columns: Sequence[int], terms: Iterable[DPMonomial], l: int, width: int
) -> set[int]:
    """``linear_push`` on packed monomials, ``width`` bits per generator.

    ``columns[j]`` is column j of the l x k matrix as a bitmask over rows;
    x_j^[e] goes to the packed expansion of (sum of its rows' t_i)^[e].
    """
    acc: set[int] = set()
    for mono in terms:
        acc ^= packed_product(
            [_packed_sum_power(columns[j], e, l, width) for j, e in enumerate(mono) if e > 0]
        )
    return acc


def beta_push(a: DPClass) -> DPClass:
    """Halving map from one degree-1 generator to the degree-2 generator y.

    x^[2m] -> y^[m] and x^[2m+1] -> 0; this is a ring map, zero in odd
    degrees and a degreewise isomorphism in even degrees.
    """
    if len(a.gens) != 1 or a.gens.degrees != (1,):
        raise ValueError("beta_push expects one degree-1 generator")
    acc: set[DPMonomial] = set()
    for (e,) in a.terms:
        if e % 2 == 0:
            acc ^= {(e // 2,)}
    return DPClass(GeneratorSet.torus_basis(1), frozenset(acc))


def su2_act(a: DPClass, b: DPClass) -> DPClass:
    """Action of the divided power algebra on one degree-1 generator on
    H_*(BSU(2)), the divided power algebra on ``GeneratorSet.su2_basis()``.

    Lift u^[m] to x^[4m], multiply, then project to the quotient by the
    ideal generated by x and x^[2]: only exponents divisible by 4 survive,
    x^[4m] -> u^[m].
    """
    if len(a.gens) != 1 or a.gens.degrees != (1,):
        raise ValueError("su2_act expects one degree-1 generator")
    if b.gens != GeneratorSet.su2_basis():
        raise ValueError("su2_act expects a class over the SU(2) generator")
    acc: set[DPMonomial] = set()
    for (e,) in a.terms:
        for (m,) in b.terms:
            if e & (4 * m):
                continue  # even binomial coefficient
            total = e + 4 * m
            if total % 4 == 0:
                acc ^= {(total // 4,)}
    return DPClass(b.gens, frozenset(acc))
