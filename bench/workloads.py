"""Seeded job generation, the timed calls and their output checks.

A workload is a list of job kinds, each with a fixed count per round
(the mix is stratified: the seed chooses parameters, never how many jobs
of a kind run).  A round is generated from ``(workload, seed, index)``
alone, so the same seed gives the same inputs however many rounds a run
gets through.  Each job carries:

* ``call``: the timed call into a public bgops function, on inputs that
  were built before the clock starts;
* ``check``: an untimed output check, through an independent route
  where the repository has a cheap one;
* ``digest``: the mathematical value of the output, hashed per round to
  pin exactness across commits.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from bgops import (
    A_count,
    Certificate,
    CircWord,
    CoefficientClass,
    DPClass,
    Dihedral,
    FailureReport,
    FiniteGroupTable,
    GeneratorSet,
    ProductGroup,
    SymClass,
    Target,
    Z2Power,
    alpha,
    alpha_z2power_bruteforce,
    bar_homology,
    build_certificate,
    composite_op,
    compsum_alpha,
    dp_multiply,
    example_family,
    nontrivial_witness,
    parse_group,
    stable_image,
    t3_verify,
    transfer_map,
)
from bgops.cli import main as cli_main
from bgops.oracle import bar_space


@dataclass
class Job:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    digest: Callable[[object], object]


# ---------------------------------------------------------------------------
# shared helpers


def v_mono(mono: tuple[int, ...]) -> DPClass:
    return DPClass.monomial(GeneratorSet.v_basis(len(mono)), mono)


def word(*subscripts: int) -> SymClass:
    return SymClass.single(CircWord.of(*subscripts))


def bit_disjoint(parts) -> bool:
    seen = 0
    for p in parts:
        if seen & p:
            return False
        seen |= p
    return True


def z2_product(l: int) -> ProductGroup:
    return ProductGroup(tuple(Z2Power(1) for _ in range(l)))


def product_route(l: int, k: int, a: DPClass, b: CoefficientClass) -> CoefficientClass:
    """alpha over z2^l, evaluated through the product formula on (z2)^l."""
    g = z2_product(l)
    b_prod = CoefficientClass(g, frozenset(tuple((e,) for e in t[0]) for t in b.terms))
    out = alpha(g, k, a, b_prod)
    return CoefficientClass(Z2Power(l), frozenset((tuple(m[0] for m in t),) for t in out.terms))


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def cert_round_trips(cert: Certificate) -> bool:
    doc = cert.to_json()
    again = Certificate.from_json(json.loads(json.dumps(doc)))
    return again == cert and again.to_json() == doc


def factors_json(factors) -> str:
    return json.dumps([{"n": n, "a": a.to_json()} for n, a in factors])


def z2_basis_class(rng: random.Random, l: int) -> CoefficientClass:
    """A canonical basis class of z2^l in degree 0, 1 or 2."""
    mono = [0] * l
    for _ in range(rng.randint(0, 2)):
        mono[rng.randrange(l)] += 1
    return CoefficientClass(Z2Power(l), frozenset({(tuple(mono),)}))


# ---------------------------------------------------------------------------
# search: witness and certificate traffic

DETECT_GROUPS = ("z2^1", "d6", "d10", "su2", "t^1")


def _detect_expected(spec: str, mono: tuple[int, ...]) -> bool:
    """Closed-form nonvanishing rules for the detector-covered groups."""
    if spec == "su2":
        return mono[0] % 4 == 1
    if spec == "t^1":
        return mono[0] % 2 == 1
    return bit_disjoint(mono)


def _parse_pool(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(c) for c in item) for item in text.split()]


# (group, k) -> exponent monomials, all with single-digit entries.  Every
# entry of FOUND_POOL finds a witness through the basis search; every entry
# of EXHAUSTIVE_POOL walks the whole search without one, at 2-100 ms here.
FOUND_POOL = {
    ("z2^2", 1): "2 3 4 5 6 7 8",
    ("z2^2", 2): "24 26 28 35 36 38 45 48 56 68",
    ("z2^3", 1): "3 4 5 6 7 8",
    ("z2^3", 2): "36 38 45 48 56 68",
    ("t^1", 2): "12 16 25 34 36 45 56 78",
    ("t^2", 1): "2 4 6 8",
    ("t^2", 2): "24 28 48 68",
    ("(z2)x(su2)", 1): "2 3 4 5 6 7 8",
    ("(t^1)x(z2)", 1): "2 3 4 5 6 7 8",
    ("(t^1)x(z2)", 2): "24 26 28 35 36 45 48 68",
    ("(su2)x(su2)", 1): "2 6",
}
EXHAUSTIVE_POOL = {
    ("z2^2", 2): "16 17 18 25 27 33 34 37 44 46 47 55 57 58 66 67 77 78",
    ("z2^2", 3): "145 155 235 244 245 255 334 335 344 345 355 444 445 555",
    ("z2^3", 1): "1 2",
    ("z2^3", 2): "11 12 13 14 15 16 17 22 23 24 25 26 33 34 35 44",
    ("z2^3", 3): "111 112 113 114 115 122 123 124 125 133 134 135 144 222 223 224 225 233 234",
    ("t^2", 1): "1 3 5 7",
    ("t^2", 2): "11 12 13 14 15 16 17 18 22 23 25 26 33 35",
    ("(z2)x(su2)", 1): "1",
    ("(t^1)x(z2)", 1): "1",
    ("(t^1)x(z2)", 2): "11 12 13 14 15 16 22 23 33 34 44",
    ("(su2)x(su2)", 1): "1 3 4 5 7 8",
}


def _draw_pool(rng: random.Random, pool: dict) -> tuple[str, int, tuple[int, ...]]:
    spec, k = rng.choice(sorted(pool))
    return spec, k, rng.choice(_parse_pool(pool[(spec, k)]))


def _draw_detect(rng: random.Random) -> tuple[str, int, tuple[int, ...]]:
    spec = rng.choice(DETECT_GROUPS)
    k = rng.randint(1, 3) if spec in ("z2^1", "d6", "d10") else 1
    return spec, k, tuple(rng.randint(1, 24) for _ in range(k))


def _witness_job(kind: str, spec: str, k: int, mono, expect_found: bool) -> Job:
    g = parse_group(spec)
    a = v_mono(mono)

    def check(res) -> bool:
        if (res.witness is not None) != expect_found:
            return False
        if res.witness is not None:
            return not alpha(g, k, a, res.witness).is_zero()
        if isinstance(g, Z2Power) and g.l > 1:
            # the product formula is an independent route on the unit class
            return product_route(g.l, k, a, CoefficientClass.unit(g)).is_zero()
        return alpha(g, k, a, CoefficientClass.unit(g)).is_zero()

    return Job(
        kind,
        lambda: nontrivial_witness(g, k, a),
        check,
        lambda res: None if res.witness is None else res.witness.to_json(),
    )


def gen_witness_detect(rng: random.Random) -> Job:
    spec, k, mono = _draw_detect(rng)
    return _witness_job("witness_detect", spec, k, mono, _detect_expected(spec, mono))


def gen_witness_found(rng: random.Random) -> Job:
    spec, k, mono = _draw_pool(rng, FOUND_POOL)
    return _witness_job("witness_found", spec, k, mono, True)


def gen_witness_exhaustive(rng: random.Random) -> Job:
    spec, k, mono = _draw_pool(rng, EXHAUSTIVE_POOL)
    return _witness_job("witness_exhaustive", spec, k, mono, False)


# targets whose group hypotheses hold, per group of the certificate pools
_COMPACT = (Target.HOL_ORDINARY, Target.AUT_TWISTED, Target.HOL_UNSTABLE)
_ABELIAN = _COMPACT + (Target.AFF_Z, Target.AFF_Z_UNSTABLE)
TARGETS_FOR = {
    "z2^1": tuple(Target),
    "z2^2": tuple(Target),
    "z2^3": tuple(Target),
    "t^1": _ABELIAN,
    "t^2": _ABELIAN,
    "(t^1)x(z2)": _ABELIAN,
    "d6": _COMPACT,
    "d10": _COMPACT,
    "su2": _COMPACT,
    "(z2)x(su2)": _COMPACT,
    "(su2)x(su2)": _COMPACT,
}


def _disjoint_pair(rng: random.Random, limit: int) -> tuple[int, int]:
    while True:
        i, j = rng.randint(1, limit), rng.randint(1, limit)
        if i & j == 0:
            return i, j


def _nonvanishing_factors(rng: random.Random, spec: str):
    """Factor lists whose composite is nonzero on the group (closed-form rules)."""
    if spec == "su2":
        return [(2, word(4 * rng.randint(0, 5) + 1))]
    if spec == "t^1":
        if rng.random() < 0.5:
            return [(2, word(2 * rng.randint(0, 7) + 1))]
        while True:
            i, j = 2 * rng.randint(0, 7) + 1, 2 * rng.randint(0, 7) + 1
            if ((i + 1) // 2) & ((j + 1) // 2) == 0:
                return [(2, word(i)), (2, word(j))]
    shape = rng.randint(0, 2)
    if shape == 0:
        return [(2, word(rng.randint(1, 15)))]
    i, j = _disjoint_pair(rng, 15)
    if shape == 1:
        return [(2, word(i)), (2, word(j))]
    return [(4, word(i, j))]


# factor lists (arity, circle-word subscripts) whose certificate search ends
# in a FailureReport, per group
_ONE, _THREE = ((2, (1,)),), ((2, (3,)),)
_ONE_TWO, _TWO_FOUR = ((2, (1,)), (2, (2,))), ((2, (2,)), (2, (4,)))
_W12, _W14 = ((4, (1, 2)),), ((4, (1, 4)),)
FAILING_FACTORS = {
    "z2^2": (_ONE, _ONE_TWO, _W12, _W14),
    "z2^3": (_ONE, _ONE_TWO, _TWO_FOUR, _W12, _W14),
    "t^2": (_ONE, _THREE, _ONE_TWO, _TWO_FOUR, _W12, _W14),
    "(z2)x(su2)": (_ONE, _ONE_TWO, _TWO_FOUR),
    "(t^1)x(z2)": (_ONE, _ONE_TWO, _TWO_FOUR, _W12, _W14),
    "(su2)x(su2)": (_ONE, _THREE, _ONE_TWO, _TWO_FOUR),
}


def _draw_certify(rng: random.Random, found: bool):
    if found:
        spec = rng.choice(DETECT_GROUPS)
        factors = _nonvanishing_factors(rng, spec)
    else:
        spec = rng.choice(sorted(FAILING_FACTORS))
        factors = [(n, word(*subs)) for n, subs in rng.choice(FAILING_FACTORS[spec])]
    return spec, rng.choice(TARGETS_FOR[spec]), factors


def _certify_check(g, factors, found: bool):
    def check(res) -> bool:
        if not found:
            if not isinstance(res, FailureReport):
                return False
            if isinstance(g, Z2Power):
                unit = CoefficientClass.unit(z2_product(g.l))
                return composite_op(z2_product(g.l), factors, unit).is_zero()
            return True
        return (
            isinstance(res, Certificate)
            and cert_round_trips(res)
            and composite_op(g, factors, res.coefficient) == res.output
        )

    return check


def _certify_digest(res):
    return {"failure": True} if isinstance(res, FailureReport) else res.to_json()["witness"]


def gen_certify(found: bool):
    kind = "certify_found" if found else "certify_exhaustive"

    def gen(rng: random.Random) -> Job:
        spec, target, factors = _draw_certify(rng, found)
        g = parse_group(spec)
        return Job(
            kind,
            lambda: build_certificate(target, g, factors),
            _certify_check(g, factors, found),
            _certify_digest,
        )

    return gen


def _draw_family(rng: random.Random) -> tuple[list[int], list[int]]:
    bits = rng.sample(range(7), rng.randint(2, 4))
    cuts = sorted(rng.sample(range(1, len(bits)), rng.randint(0, len(bits) - 1)))
    u = [sum(1 << b for b in part) for part in _split(bits, cuts)]
    r = rng.randint(1, len(u))
    labels = list(range(1, r + 1)) + [rng.randint(1, r) for _ in range(len(u) - r)]
    rng.shuffle(labels)
    return u, labels


def _split(items, cuts):
    bounds = [0, *cuts, len(items)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _family_output_ok(u: list[int], cert: Certificate) -> bool:
    """The family's composite is multiplication by x^[sum(u)] on Z/2."""
    x = GeneratorSet.z2_basis(1)
    expected = dp_multiply(DPClass.monomial(x, (sum(u),)), cert.coefficient.as_dp())
    return cert.output.as_dp() == expected


def gen_family(rng: random.Random) -> Job:
    u, labels = _draw_family(rng)

    def check(bundle) -> bool:
        return len(bundle.certificates) == len(Target) and all(
            cert_round_trips(c) and _family_output_ok(u, c) for c in bundle.certificates.values()
        )

    return Job(
        "family",
        lambda: example_family(u, labels),
        check,
        lambda b: [b.certificates[t].to_json()["witness"] for t in Target],
    )


def _draw_stable(rng: random.Random):
    factors = []
    for _ in range(rng.randint(1, 3)):
        subs = sorted(rng.randint(1, 12) for _ in range(rng.randint(1, 2)))
        factors.append((1 << len(subs), word(*subs)))
    return factors, rng.randint(0, 12)


def gen_stable_image(rng: random.Random) -> Job:
    factors, k_degree = _draw_stable(rng)
    weight = sum(n for n, _ in factors)
    rank = sum(n - 1 for n, _ in factors)

    def check(res) -> bool:
        image, offset = res
        return (
            not image.is_zero()
            and image.homogeneous_weight() == weight
            and rank + len(factors) + offset > 2 * k_degree + 1
            and (offset == 0 or rank + len(factors) + offset - 1 <= 2 * k_degree + 1)
        )

    return Job(
        "stable_image",
        lambda: stable_image(factors, k_degree),
        check,
        lambda res: [res[0].to_json(), res[1]],
    )


def gen_cli_witness(found: bool):
    kind = "cli_witness_found" if found else "cli_witness_exhaustive"
    pool = FOUND_POOL if found else EXHAUSTIVE_POOL

    def gen(rng: random.Random) -> Job:
        spec, k, mono = _draw_pool(rng, pool)
        g = parse_group(spec)
        argv = ["--json", "witness", "--group", spec, "-k", str(k), "--a", json.dumps(list(mono))]

        def check(res) -> bool:
            code, out = res
            doc = json.loads(out)
            if not found:
                return code == 1 and doc["witness"] is None
            b = CoefficientClass.from_json(g, doc["witness"])
            return code == 0 and not alpha(g, k, v_mono(mono), b).is_zero()

        return Job(kind, lambda: run_cli(argv), check, lambda res: json.loads(res[1])["witness"])

    return gen


def gen_cli_certify(found: bool):
    kind = "cli_certify_found" if found else "cli_certify_exhaustive"

    def gen(rng: random.Random) -> Job:
        spec, target, factors = _draw_certify(rng, found)
        argv = ["--json", "certify", "--target", target.value, "--group", spec,
                "--factors", factors_json(factors)]

        def check(res) -> bool:
            code, out = res
            doc = json.loads(out)
            if not found:
                return code == 1 and doc.get("failure") is True
            return code == 0 and Certificate.from_json(doc).to_json() == doc

        def digest(res):
            doc = json.loads(res[1])
            return {"failure": True} if doc.get("failure") else doc["witness"]

        return Job(kind, lambda: run_cli(argv), check, digest)

    return gen


def gen_cli_family(rng: random.Random) -> Job:
    u, labels = _draw_family(rng)
    argv = ["--json", "family", "--u", ",".join(map(str, u)), "--f", ",".join(map(str, labels))]

    def check(res) -> bool:
        code, out = res
        certs = [Certificate.from_json(d) for d in json.loads(out)["certificates"].values()]
        return code == 0 and len(certs) == len(Target) and all(_family_output_ok(u, c) for c in certs)

    return Job(
        "cli_family",
        lambda: run_cli(argv),
        check,
        lambda res: [d["witness"] for _, d in sorted(json.loads(res[1])["certificates"].items())],
    )


def gen_cli_stable_image(rng: random.Random) -> Job:
    factors, k_degree = _draw_stable(rng)
    argv = ["--json", "stable-image", "--factors", factors_json(factors), "--k-degree", str(k_degree)]

    def check(res) -> bool:
        code, out = res
        image, offset = stable_image(factors, k_degree)
        return code == 0 and json.loads(out) == {"image": image.to_json(), "L": offset}

    return Job("cli_stable_image", lambda: run_cli(argv), check, lambda res: json.loads(res[1]))


# ---------------------------------------------------------------------------
# fastpath: few, wide evaluations on z2^l

# (l, k) -> inclusive range of each exponent; sized so that one evaluation
# takes tens of milliseconds here, dominated by A_count and the column sweep
WIDE_EXPONENTS = {
    (2, 1): (240, 320),
    (2, 2): (40, 56),
    (2, 3): (14, 20),
    (3, 1): (22, 30),
    (3, 2): (12, 16),
    (3, 3): (7, 9),
    (4, 1): (11, 14),
    (4, 2): (7, 9),
    (4, 3): (5, 6),
}
LADDER = (16, 32, 48, 56)


def _alpha_job(kind: str, l: int, mono: tuple[int, ...], b: CoefficientClass) -> Job:
    """One fast-path evaluation, checked through the product formula.

    For k >= 2 with distinct exponents the product route costs 5-20 times
    the job here, so the check there is the symmetry of A_count in its
    rows instead: reordering the exponents leaves the value unchanged.
    """
    g = Z2Power(l)
    a = v_mono(mono)
    k = len(mono)
    rotated = mono[1:] + mono[:1]

    def check(res) -> bool:
        if k == 1 or rotated == mono:
            return res == product_route(l, k, a, b)
        return res == alpha(g, k, v_mono(rotated), b)

    return Job(kind, lambda: alpha(g, k, a, b), check, lambda res: res.to_json())


def gen_alpha_wide(l: int, k: int):
    lo, hi = WIDE_EXPONENTS[(l, k)]

    def gen(rng: random.Random) -> Job:
        mono = tuple(rng.randint(lo, hi) for _ in range(k))
        return _alpha_job(f"alpha_z2^{l}_k{k}", l, mono, z2_basis_class(rng, l))

    return gen


def gen_ladder(n: int):
    def gen(rng: random.Random) -> Job:
        return _alpha_job(f"ladder_{n}", 3, (n,), z2_basis_class(rng, 3))

    return gen


# (rows, columns, bits per column): the bit count fixes the k^bits row
# assignments tried per state, which keeps one call within a few ms here
ACOUNT_SHAPES = ((2, 3, 5), (2, 4, 5), (3, 2, 5), (3, 3, 4))


def _draw_acount(rng: random.Random, k: int, l: int, bits: int):
    """Row and column sums with equal totals and ``bits`` bits per column."""
    cols = []
    while len(cols) < l:
        c = rng.randint(8, 127)
        if bin(c).count("1") == bits:
            cols.append(c)
    total = sum(cols)
    cuts = sorted(rng.sample(range(1, total), k - 1))
    rows = tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, total]))
    return rows, tuple(cols)


def gen_acount(mode: str, shape: tuple[int, int, int]):
    other = "parity" if mode == "exact" else "exact"

    def gen(rng: random.Random) -> Job:
        rows, cols = _draw_acount(rng, *shape)

        def check(res) -> bool:
            again = A_count(rows, cols, other)
            exact, parity = (res, again) if mode == "exact" else (again, res)
            return exact >= 0 and exact % 2 == parity

        kind = f"acount_{mode}_{shape[0]}x{shape[1]}"
        return Job(kind, lambda: A_count(rows, cols, mode), check, lambda res: res)

    return gen


# ---------------------------------------------------------------------------
# oracle: verification traffic


TABLES = {
    "z2": FiniteGroupTable.z2,
    "v2": lambda: FiniteGroupTable.elementary_abelian(2),
    "v3": lambda: FiniteGroupTable.elementary_abelian(3),
    "d6": lambda: FiniteGroupTable.dihedral(1),
    "d10": lambda: FiniteGroupTable.dihedral(2),
}


def _unit_power(g, m: int) -> CoefficientClass:
    return CoefficientClass.from_dp(g, DPClass.monomial(GeneratorSet.z2_basis(1), (m,)))


def gen_compsum(table_name: str, k: int, max_total: int):
    def gen(rng: random.Random) -> Job:
        g = {"z2": Z2Power(1), "d6": Dihedral(1), "d10": Dihedral(2)}[table_name]
        while True:
            mono = tuple(rng.randint(1, max_total) for _ in range(k))
            m = rng.randint(0, 2)
            if sum(mono) + m <= max_total:
                break
        a, b = v_mono(mono), _unit_power(g, m)
        return Job(
            f"compsum_{table_name}_k{k}",
            lambda: compsum_alpha(TABLES[table_name](), k, a, b),
            lambda res: res == alpha(g, k, a, b),
            lambda res: res.to_json(),
        )

    return gen


def _betti(kind: str, k: int, d: int) -> int:
    return math.comb(d + k - 1, k - 1) if kind == "elementary_abelian" else 1


BAR_HOMOLOGY = (("v2", 4), ("v3", 2), ("d6", 3), ("d10", 2))


def gen_bar_homology(name: str, max_degree: int):
    rank = int(name[1]) if name.startswith("v") else 0
    kind = "elementary_abelian" if rank else "dihedral"
    expected = [_betti(kind, rank, d) for d in range(max_degree + 1)]

    def gen(rng: random.Random) -> Job:
        degree = rng.randint(max_degree - 1, max_degree)
        return Job(
            f"bar_homology_{name}",
            lambda: bar_homology(TABLES[name](), degree, method="bar"),
            lambda res: res.dims == expected[: degree + 1],
            lambda res: res.dims,
        )

    return gen


def gen_bar_space(n: int, degree: int):
    def gen(rng: random.Random) -> Job:
        return Job(
            f"bar_space_d{4 * n + 2}_{degree}",
            lambda: bar_space(FiniteGroupTable.dihedral(n), degree),
            lambda res: res.dim == 1,
            lambda res: res.dim,
        )

    return gen


def gen_transfer(rng: random.Random) -> Job:
    """Transfers to order-2 subgroups: zero for V2, an isomorphism for dihedral groups."""
    name = rng.choice(("v2", "d6", "d10"))
    degree = rng.randint(1, 3 if name != "d10" else 2)
    if name == "v2":
        sub = rng.choice(([0, 1], [0, 2], [0, 3]))
        return Job(
            "transfer",
            lambda: transfer_map(FiniteGroupTable.elementary_abelian(2), sub, degree),
            lambda res: res.is_zero() and (res.rows, res.cols) == (1, degree + 1),
            lambda res: list(res.data),
        )
    n = 1 if name == "d6" else 2
    sub = [0, 2 * n + 1 + rng.randint(0, 2 * n)]
    return Job(
        "transfer",
        lambda: transfer_map(FiniteGroupTable.dihedral(n), sub, degree),
        lambda res: (res.rows, res.cols, res.data) == (1, 1, (1,)),
        lambda res: list(res.data),
    )


BRUTEFORCE_SHAPES = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2))


def gen_bruteforce(l: int, k: int):
    def gen(rng: random.Random) -> Job:
        mono = tuple(rng.randint(1, 4) for _ in range(k))
        g = Z2Power(l)
        a, b = v_mono(mono), z2_basis_class(rng, l)
        return Job(
            f"bruteforce_z2^{l}_k{k}",
            lambda: alpha_z2power_bruteforce(g, k, a, b),
            lambda res: res == alpha(g, k, a, b),
            lambda res: res.to_json(),
        )

    return gen


def gen_t3(rng: random.Random) -> Job:
    n1, n2 = rng.randint(0, 10), rng.randint(0, 10)
    return Job(
        "t3_verify",
        lambda: t3_verify(n1, n2),
        lambda res: res.passed and res.homology_dims == [1, 3, 3, 1],
        lambda res: res.to_json(),
    )


def gen_cli_oracle_check(rng: random.Random) -> Job:
    argv = ["--json", "oracle-check", "--degree-bound", str(rng.randint(2, 4))]

    def verdicts(out: str) -> list:
        return [json.loads(line) for line in out.strip().splitlines()]

    def check(res) -> bool:
        code, out = res
        lines = verdicts(out)
        return code == 0 and len(lines) >= 7 and all(line["pass"] for line in lines)

    return Job("cli_oracle_check", lambda: run_cli(argv), check, lambda res: verdicts(res[1]))


def gen_cli_t3(rng: random.Random) -> Job:
    argv = ["--json", "t3-verify", "--n1", str(rng.randint(0, 8)), "--n2", str(rng.randint(0, 8))]
    return Job(
        "cli_t3_verify",
        lambda: run_cli(argv),
        lambda res: res[0] == 0 and json.loads(res[1])["pass"] is True,
        lambda res: json.loads(res[1]),
    )


# ---------------------------------------------------------------------------
# the workloads: (generator, jobs per round)

# Kinds are split by outcome and shape so that each kind's latencies are
# unimodal.  The counts put the median and the 90th percentile of each mix
# inside a band of similar jobs rather than in a gap between two.
MIX = {
    "search": (
        (gen_witness_detect, 2),
        (gen_witness_found, 3),
        (gen_witness_exhaustive, 4),
        (gen_certify(True), 2),
        (gen_certify(False), 4),
        (gen_family, 2),
        (gen_stable_image, 1),
        (gen_cli_witness(True), 1),
        (gen_cli_witness(False), 1),
        (gen_cli_certify(True), 1),
        (gen_cli_certify(False), 1),
        (gen_cli_family, 1),
        (gen_cli_stable_image, 2),
    ),
    "fastpath": (
        *((gen_alpha_wide(l, k), 3) for l, k in sorted(WIDE_EXPONENTS)),
        *((gen_acount(mode, shape), 3) for mode in ("exact", "parity") for shape in ACOUNT_SHAPES),
        *((gen_ladder(n), 1) for n in LADDER),
    ),
    "oracle": (
        (gen_compsum("z2", 1, 10), 2),
        (gen_compsum("z2", 2, 10), 2),
        (gen_compsum("z2", 3, 8), 4),
        (gen_compsum("d6", 1, 6), 4),
        (gen_compsum("d6", 2, 4), 1),
        (gen_compsum("d10", 1, 4), 1),
        *((gen_bar_homology(name, degree), 1) for name, degree in BAR_HOMOLOGY),
        (gen_bar_space(1, 4), 1),
        (gen_bar_space(2, 3), 1),
        (gen_transfer, 3),
        *((gen_bruteforce(l, k), 1) for l, k in BRUTEFORCE_SHAPES),
        (gen_t3, 16),
        (gen_cli_oracle_check, 4),
        (gen_cli_t3, 2),
    ),
}


def make_round(workload: str, seed: int, index: int) -> list[Job]:
    """The jobs of one round, in a seeded order; independent of earlier rounds."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    jobs = [gen(rng) for gen, count in MIX[workload] for _ in range(count)]
    rng.shuffle(jobs)
    return jobs
