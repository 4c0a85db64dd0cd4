"""Command-line front end.

Subcommands: knit, hall, euler, lie, verify.  Every JSON document carries
the tool version and the full effective configuration, and identical
configurations produce byte-identical output.

Multiplicity vectors on the command line are written as comma-separated
``id:count`` entries (count defaults to 1), where ids are the knitted
dimension-vector ids, e.g. ``1-1:1,0-1:2``; ``0`` denotes the zero class.
A Hall triple is three such vectors joined by ``/`` in the order
submodule/quotient/total, e.g. ``--triple 0-1/1-0/1-1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .algebra import AlgebraSpec, parse_algebra
from .errors import HallieError, InputError, ResourceBound, VerificationError
from .hall import ARFamily, HallConfig
from .knit import ar_to_doc, compare_quiver_shapes
from .liealg import (compare_with_root_system, euler_lie_table, hall_lie_table,
                     jacobi_check, positive_roots, verify_isomorphism)
from .linalg import is_prime
from .report import CheckResult, Report
from .reps import MultiplicityVector

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hallie",
        description="Hall polynomials and Lie structure constants for bound "
                    "quiver algebras over prime fields")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--algebra", required=True, help="algebra JSON file")
        p.add_argument("--primes", default="auto",
                       help="comma-separated primes, or 'auto' "
                            "(knit and verify only)")
        p.add_argument("--exclude-primes", default="",
                       help="primes never used as interpolation nodes")
        p.add_argument("--jobs", type=int, default=1,
                       help="recorded in the output; must be 1")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the decomposition splitting draws")
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="json")
        p.add_argument("--max-vertices", type=int, default=512)

    knit_p = sub.add_parser("knit", help="construct the AR quiver")
    common(knit_p)
    knit_p.add_argument("--with-maps", action="store_true",
                        help="include irreducible-map matrices")

    hall_p = sub.add_parser("hall", help="interpolate one Hall polynomial")
    common(hall_p)
    hall_p.add_argument("--triple", required=True,
                        help="sub/quotient/total multiplicity vectors")

    euler_p = sub.add_parser("euler", help="Euler characteristic of a triple")
    common(euler_p)
    euler_p.add_argument("--triple", required=True)

    lie_p = sub.add_parser("lie", help="structure-constant tables")
    common(lie_p)

    verify_p = sub.add_parser("verify", help="run the whole verification pipeline")
    common(verify_p)
    return parser


def parse_primes(text: str, default: list[int]) -> list[int]:
    """Comma-separated distinct primes, or ``default`` for 'auto'.  A list
    that stands in for a non-empty default must not be empty."""
    if text == "auto":
        return list(default)
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            out.append(int(chunk))
        except ValueError as exc:
            raise InputError(f"{chunk!r} is not an integer") from exc
    if default and not out:
        raise InputError(f"no primes in {text!r}")
    if len(set(out)) != len(out):
        raise InputError("primes must be distinct")
    for p in out:
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
    return out


def parse_multvector(text: str, known_ids: set[str]) -> MultiplicityVector:
    text = text.strip()
    if text == "0":
        return MultiplicityVector.zero()
    counts: dict[str, int] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise InputError(f"empty entry in multiplicity vector {text!r}")
        if ":" in chunk:
            vid, raw = chunk.rsplit(":", 1)
            try:
                count = int(raw)
            except ValueError as exc:
                raise InputError(f"bad count in {chunk!r}") from exc
        else:
            vid, count = chunk, 1
        if vid not in known_ids:
            raise InputError(f"unknown AR vertex id {vid!r}; known: "
                             f"{sorted(known_ids)}")
        if count < 0:
            raise InputError(f"negative count in {chunk!r}")
        counts[vid] = counts.get(vid, 0) + count
    return MultiplicityVector(counts)


def parse_triple(text: str, known_ids: set[str]):
    parts = text.split("/")
    if len(parts) != 3:
        raise InputError(
            "--triple wants sub/quotient/total, three vectors joined by '/'")
    return tuple(parse_multvector(part, known_ids) for part in parts)


def _load_spec(path: str) -> tuple[AlgebraSpec, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_algebra(text), hashlib.sha256(text.encode("utf-8")).hexdigest()


def _provenance(args, digest: str, primes: list[int]) -> dict:
    return {
        "tool": "hallie",
        "version": __version__,
        "config": {
            "algebra": os.path.basename(args.algebra),
            "algebra_sha256": digest,
            "primes": primes,
            "exclude_primes": sorted(_excluded(args)),
            "jobs": args.jobs,
            "seed": args.seed,
            "format": args.format,
            "max_vertices": args.max_vertices,
        },
    }


def _excluded(args) -> tuple[int, ...]:
    return tuple(parse_primes(args.exclude_primes, []))


def _validate_caps(args) -> None:
    """Reject flag values the command cannot honour."""
    if args.max_vertices <= 0:
        raise InputError("--max-vertices must be positive")
    if args.jobs != 1:
        raise InputError("--jobs must be 1: Hall counting runs in one process")
    if args.primes != "auto" and args.command not in ("knit", "verify"):
        raise InputError(f"--primes applies to knit and verify only; "
                         f"{args.command} picks its interpolation primes itself")


def _family(spec: AlgebraSpec, args) -> ARFamily:
    _validate_caps(args)
    config = HallConfig(excluded_primes=_excluded(args), seed=args.seed,
                        max_vertices=args.max_vertices)
    return ARFamily(spec, config)


def _emit(doc: dict, fmt: str, csv_rows=None, text_lines=None) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    elif fmt == "csv":
        for row in csv_rows or []:
            print(",".join(str(x) for x in row))
    else:
        for line in text_lines or []:
            print(line)


def cmd_knit(args) -> int:
    spec, digest = _load_spec(args.algebra)
    primes = parse_primes(args.primes, default=[2])
    family = _family(spec, args)
    ar = family.quiver(primes[0])
    doc = _provenance(args, digest, primes)
    doc.update(ar_to_doc(ar, with_maps=args.with_maps))
    rows = [("id", "dim", "projective", "tau")]
    rows += [(v.id, " ".join(map(str, v.rep.dims)), int(v.projective),
              ar.tau.get(v.id, "")) for v in ar.vertices]
    lines = [f"AR quiver over F_{ar.field.p}: {len(ar.vertices)} vertices, "
             f"{len(ar.arrows)} arrows"]
    lines += [f"  {v.id}  projective={v.projective}  tau={ar.tau.get(v.id, '-')}"
              for v in ar.vertices]
    _emit(doc, args.format, rows, lines)
    return EXIT_OK


def cmd_hall(args) -> int:
    spec, digest = _load_spec(args.algebra)
    family = _family(spec, args)
    ar = family.reference_quiver()
    a, c, b = parse_triple(args.triple, set(ar.order))
    poly = family.polynomial(a, c, b)
    doc = _provenance(args, digest, [])
    doc.update(poly.to_doc())
    rows = [("phi", " ".join(map(str, poly.coefficients))),
            ("phi_at_1", poly.evaluate(1))]
    lines = [f"phi = {_format_poly(poly.coefficients)}",
             f"phi(1) = {poly.evaluate(1)}",
             f"primes {list(poly.primes)} counts {list(poly.counts)} "
             f"validated at {poly.validation_prime}"]
    _emit(doc, args.format, rows, lines)
    return EXIT_OK


def cmd_euler(args) -> int:
    spec, digest = _load_spec(args.algebra)
    family = _family(spec, args)
    ar = family.reference_quiver()
    a, c, b = parse_triple(args.triple, set(ar.order))
    value = family.euler(a, c, b)
    doc = _provenance(args, digest, [])
    doc["euler_characteristic"] = value
    _emit(doc, args.format, [("euler_characteristic", value)],
          [f"euler characteristic = {value}"])
    return EXIT_OK


def _format_poly(coeffs) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0 and len(coeffs) > 1:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append(f"{c}*T")
        else:
            terms.append(f"{c}*T^{k}")
    return " + ".join(terms) if terms else "0"


def _table_lines(name: str, table) -> list[str]:
    lines = [f"{name} bracket table (basis {', '.join(table.basis)})"]
    for (i, j), entry in sorted(table.entries.items()):
        if entry is not None:
            lines.append(f"  [{i}, {j}] = {entry[1]} * {entry[0]}")
    return lines


def cmd_lie(args) -> int:
    spec, digest = _load_spec(args.algebra)
    family = _family(spec, args)
    kt = hall_lie_table(family)
    lt = euler_lie_table(kt)
    doc = _provenance(args, digest, [])
    doc["hall_table"] = kt.to_doc()
    doc["euler_table"] = lt.to_doc()
    rows = [("table", "i", "j", "target", "coefficient")]
    for name, table in (("hall", kt), ("euler", lt)):
        for (i, j), entry in sorted(table.entries.items()):
            if entry is not None:
                rows.append((name, i, j, entry[0], entry[1]))
    lines = _table_lines("hall-count", kt) + _table_lines("euler", lt)
    _emit(doc, args.format, rows, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec, digest = _load_spec(args.algebra)
    primes = parse_primes(args.primes, default=[2, 3])
    family = _family(spec, args)
    checks: list[CheckResult] = []

    ar = family.quiver(primes[0])
    checks.append(CheckResult("knit", True,
                              f"{len(ar.vertices)} indecomposables over F_{primes[0]}"))
    if len(primes) >= 2:
        fi = compare_quiver_shapes({p: family.quiver(p) for p in primes})
        checks.append(CheckResult("field independence", True,
                                  f"identical over primes {list(fi.primes)}"))

    kt = hall_lie_table(family)
    lt = euler_lie_table(kt)
    checks.append(CheckResult("lie closure", True,
                              "commutators supported on indecomposables"))
    iso = verify_isomorphism(kt, lt)
    checks.append(CheckResult(
        "sign-twist isomorphism", iso.ok,
        "; ".join(c.detail for c in iso.failures()) or
        f"{len(iso.checks)} pairs"))
    jac_k = jacobi_check(kt)
    jac_l = jacobi_check(lt)
    checks.append(CheckResult("jacobi (hall table)", jac_k.ok,
                              f"{len(jac_k.checks)} triples"))
    checks.append(CheckResult("jacobi (euler table)", jac_l.ok,
                              f"{len(jac_l.checks)} triples"))
    if not spec.relations:
        try:
            rs = positive_roots(spec.cartan_matrix())
        except HallieError:
            checks.append(CheckResult("root system", True,
                                      "underlying graph not of finite type; skipped"))
        else:
            cmp_report = compare_with_root_system(kt, rs)
            checks.append(CheckResult(
                "root system comparison", cmp_report.ok,
                "; ".join(c.detail for c in cmp_report.failures()) or
                f"{len(rs.positive_roots)} positive roots"))
    else:
        checks.append(CheckResult("root system comparison", True,
                                  "skipped: algebra has relations"))

    report = Report(checks)
    doc = _provenance(args, digest, primes)
    doc.update(report.to_doc())
    rows = [("check", "ok", "detail")]
    rows += [(c.name, int(c.ok), c.detail) for c in checks]
    lines = [f"{'ok ' if c.ok else 'FAIL'} {c.name}: {c.detail}" for c in checks]
    lines.append("all checks passed" if report.ok else "VERIFICATION FAILED")
    _emit(doc, args.format, rows, lines)
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"knit": cmd_knit, "hall": cmd_hall, "euler": cmd_euler,
                "lie": cmd_lie, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceBound as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


def entry_point() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry_point()
