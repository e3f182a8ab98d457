"""Command line interface with JSON input and output.

Exit codes: 0 for success with a nonzero result, 1 for a zero result
(including a certified trivial witness and a certified vanishing
from ``certify``), 2 for errors (bad input, unsupported operation,
violated hypothesis), 3 for a failed internal invariant (an
``AssertionError``, such as an orbit sum that is not a cycle), which is
a fault of the program, not of its input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .certify import (
    Certificate,
    FailureReport,
    Target,
    build_certificate,
    example_family,
    factors_from_json,
    stable_image,
)
from .f2core import json_int
from .gradedalg import DPClass, GeneratorSet
from .operations import (
    A_count,
    CoefficientClass,
    Dihedral,
    Z2Power,
    alpha,
    composite_op,
    nontrivial_witness,
    parse_group,
    phi_sigma,
)
from .oracle import (
    FiniteGroupTable,
    _orbit_plan,
    _reused_space,
    bar_space,
    compsum_alpha,
    transfer_map,
)
from .symhomology import SymClass
from .t3 import t3_verify

EXIT_NONZERO = 0
EXIT_ZERO = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


def _input_document(args) -> dict:
    """The JSON document behind --in, or an empty dict."""
    path = getattr(args, "infile", None)
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("--in must hold a JSON object keyed by input name")
    return doc


def _load_doc(doc: dict, arg: str | None, key: str, what: str):
    """One named input, inline or from ``doc``, the parsed --in document."""
    from_file = doc.get(key)
    if (arg is None) == (from_file is None):
        raise ValueError(
            f"provide {what} either inline or under the key {key!r} via --in, "
            "not both or neither"
        )
    if arg is not None:
        return json.loads(arg)
    return from_file


def _input_dp_class(doc, k: int) -> DPClass:
    """A class over the rank-k source, from full JSON, exponents or a list of them."""
    if isinstance(doc, dict):
        return DPClass.from_json(doc)
    shape = f"a source class of the shape [E, ...], [[E, ...], ...] or {DPClass.JSON_SHAPE}"
    if not isinstance(doc, list):
        raise ValueError(f"expected {shape}")
    gens = GeneratorSet.v_basis(k)
    if doc and all(isinstance(t, list) for t in doc):
        return DPClass.from_terms(gens, [tuple(json_int(e, shape) for e in t) for t in doc])
    return DPClass.monomial(gens, tuple(json_int(e, shape) for e in doc))


def _emit(args, human: str, doc) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(human)


def _cmd_alpha(args) -> int:
    group = parse_group(args.group)
    doc = _input_document(args)
    a = _input_dp_class(_load_doc(doc, args.a, "a", "the source class"), args.k)
    b = CoefficientClass.from_json(group, _load_doc(doc, args.b, "b", "the coefficient class"))
    value = alpha(group, args.k, a, b)
    _emit(args, str(value), {"result": value.to_json(), "zero": value.is_zero()})
    return EXIT_ZERO if value.is_zero() else EXIT_NONZERO


def _cmd_phi(args) -> int:
    group = parse_group(args.group)
    doc = _input_document(args)
    a = SymClass.from_json(_load_doc(doc, args.a, "a", "the symmetric-group class"))
    b = CoefficientClass.from_json(group, _load_doc(doc, args.b, "b", "the coefficient class"))
    value = phi_sigma(group, args.n, a, b)
    _emit(args, str(value), {"result": value.to_json(), "zero": value.is_zero()})
    return EXIT_ZERO if value.is_zero() else EXIT_NONZERO


def _cmd_compose(args) -> int:
    group = parse_group(args.group)
    doc = _input_document(args)
    factors = factors_from_json(_load_doc(doc, args.factors, "factors", "the factor list"))
    b = CoefficientClass.from_json(group, _load_doc(doc, args.b, "b", "the coefficient class"))
    value = composite_op(group, factors, b)
    _emit(args, str(value), {"result": value.to_json(), "zero": value.is_zero()})
    return EXIT_ZERO if value.is_zero() else EXIT_NONZERO


def _cmd_acount(args) -> int:
    rows = tuple(int(v) for v in args.rows.split(","))
    cols = tuple(int(v) for v in args.cols.split(","))
    value = A_count(rows, cols, args.mode)
    _emit(args, str(value), {"count": value, "mode": args.mode})
    return EXIT_NONZERO if value else EXIT_ZERO


def _cmd_witness(args) -> int:
    group = parse_group(args.group)
    a = _input_dp_class(_load_doc(_input_document(args), args.a, "a", "the source class"), args.k)
    result = nontrivial_witness(group, args.k, a)
    if result.witness is None:
        _emit(args, "trivial (certified)", {"witness": None, "certified_trivial": True})
        return EXIT_ZERO
    _emit(
        args,
        f"witness: {result.witness}",
        {"witness": result.witness.to_json(), "certified_trivial": False},
    )
    return EXIT_NONZERO


def _cmd_certify(args) -> int:
    group = parse_group(args.group)
    docs = _load_doc(_input_document(args), args.factors, "factors", "the factor list")
    result = build_certificate(Target(args.target), group, factors_from_json(docs))
    if isinstance(result, FailureReport):
        _emit(args, f"failure: {result.reason}", result.to_json())
        return EXIT_ZERO
    _emit(
        args,
        f"certificate: nonzero class in degree {result.degree} at rank {result.rank} "
        f"({result.target.value})",
        result.to_json(),
    )
    return EXIT_NONZERO


def _cmd_family(args) -> int:
    u = [int(v) for v in args.u.split(",")]
    assignment = [int(v) for v in args.f.split(",")]
    bundle = example_family(u, assignment)
    _emit(
        args,
        f"bundle: {len(bundle.certificates)} certificates at rank {bundle.rank}",
        bundle.to_json(),
    )
    return EXIT_NONZERO


def _cmd_stable_image(args) -> int:
    docs = _load_doc(_input_document(args), args.factors, "factors", "the factor list")
    image, offset = stable_image(factors_from_json(docs), args.k_degree)
    _emit(
        args,
        f"stable image {image} with offset L = {offset}",
        {"image": image.to_json(), "L": offset},
    )
    return EXIT_ZERO if image.is_zero() else EXIT_NONZERO


def _oracle_checks(degree_bound: int):
    """The oracle self-check battery; yields (name, params, pass)."""
    z2 = FiniteGroupTable.z2()
    d6 = FiniteGroupTable.dihedral(1)

    for table, name, k_range in ((z2, "z2", (1, 2)), (d6, "d6", (1,))):
        for k in k_range:
            # the plan keeps one step table per odd-index orbit, and is the
            # same decomposition the compsum checks below reuse
            odd = len(_orbit_plan(table.mul, table.identity, k).steps)
            yield (
                "orbit_census",
                {"group": name, "k": k},
                odd == (1 << k),
            )


    gens1 = GeneratorSet.v_basis(1)
    for table, g, name, top, cap in ((z2, Z2Power(1), "z2", 4, 12), (d6, Dihedral(1), "d6", 3, 10)):
        b = CoefficientClass.unit(g)
        inputs = [DPClass.monomial(gens1, (n,)) for n in range(min(top, degree_bound) + 1)]
        ok = [compsum_alpha(table, 1, a, b, max_degree=cap) == alpha(g, 1, a, b) for a in inputs]
        yield ("compsum_vs_closed_form", {"group": name, "k": 1}, all(ok))

    v2 = FiniteGroupTable.elementary_abelian(2)
    diag = [0, 3]
    ok = all(transfer_map(v2, diag, d).is_zero() for d in range(1, 4))
    yield ("diagonal_transfer_zero", {"group": "z2^2", "degrees": "1..3"}, ok)

    # the spaces are fixed inputs, so every run after the first reads them
    dims = [_reused_space(bar_space, d6, d).dim for d in range(4)]
    yield ("dihedral_homology_dims", {"group": "d6", "max_degree": 3}, dims == [1, 1, 1, 1])

    report = t3_verify(0, 0)
    yield ("t3_identity", {"n1": 0, "n2": 0}, report.passed)


def _cmd_oracle_check(args) -> int:
    all_ok = True
    results = []
    for name, params, ok in _oracle_checks(args.degree_bound):
        all_ok &= ok
        results.append({"check": name, "params": params, "pass": ok})
        if not args.json:
            status = "PASS" if ok else "FAIL"
            print(f"[{status}] {name} {params}")
        else:
            print(json.dumps({"check": name, "params": params, "pass": ok}, sort_keys=True))
    return EXIT_NONZERO if all_ok else EXIT_ZERO


def _cmd_t3_verify(args) -> int:
    report = t3_verify(args.n1, args.n2)
    _emit(
        args,
        "\n".join(f"[{'PASS' if ok else 'FAIL'}] {name}" for name, ok in report.checks.items()),
        report.to_json(),
    )
    return EXIT_NONZERO if report.passed else EXIT_ZERO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgops",
        description="string topology operations on mod-2 homology of classifying spaces",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--in", dest="infile", metavar="PATH", default=None,
                        help="JSON object supplying inputs by name (a, b, factors)")
    # the global flags are accepted before or after the subcommand; SUPPRESS
    # keeps the subcommand position from clobbering a value given up front
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument(
        "--in",
        dest="infile",
        metavar="PATH",
        default=argparse.SUPPRESS,
        help="JSON object supplying inputs by name (a, b, factors)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    p = sub.add_parser("alpha", parents=[common], help="evaluate the rank-k operation")
    p.add_argument("--group", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--a", help="source class: JSON, exponent list, or list of terms")
    p.add_argument("--b", help="coefficient class JSON")
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("phi", parents=[common], help="evaluate the weight-n operation")
    p.add_argument("--group", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--a")
    p.add_argument("--b")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("compose", parents=[common], help="compose weight-graded operations")
    p.add_argument("--group", required=True)
    p.add_argument("--factors", help='JSON: [{"n": 2, "a": [...]}, ...]')
    p.add_argument("--b")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("acount", parents=[common], help="the matrix-counting function")
    p.add_argument("--rows", required=True, help="comma-separated row sums")
    p.add_argument("--cols", required=True, help="comma-separated column sums")
    p.add_argument("--mode", choices=("parity", "exact"), default="parity")
    p.set_defaults(func=_cmd_acount)

    p = sub.add_parser("witness", parents=[common], help="decide nontriviality by evaluating on the unit")
    p.add_argument("--group", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--a")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("certify", parents=[common], help="emit a nonvanishing certificate")
    p.add_argument("--target", required=True, choices=[t.value for t in Target])
    p.add_argument("--group", required=True)
    p.add_argument("--factors")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("family", parents=[common], help="certificate bundle from bit-disjoint integers")
    p.add_argument("--u", required=True, help="comma-separated positive integers")
    p.add_argument("--f", required=True, help="comma-separated group labels, surjective onto 1..r")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("stable-image", parents=[common], help="stable image and stabilization offset")
    p.add_argument("--factors")
    p.add_argument("--k-degree", dest="k_degree", type=int, required=True)
    p.set_defaults(func=_cmd_stable_image)

    p = sub.add_parser("oracle-check", parents=[common], help="run the oracle self-check battery")
    p.add_argument("--degree-bound", type=int, default=4,
                   help="top degree of the closed-form comparisons")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("t3-verify", parents=[common], help="the equivariant 3-torus boundary identity")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.set_defaults(func=_cmd_t3_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
