"""Command-line front end for verification, derivation, and evaluation.

Commands bind the engine's operations into workflows: verify-symbolic
(exact zero-residual recurrence checks), derive (recurrence from a
parameter tuple), accelerate (exact stream or normalized bracket form),
rate (convergence rate of the derived recurrence), eval (certified
decimal enclosure of a series), check / check-all (certified comparison
of displays against their constants), and catalog (listing and export).

All numeric flags parse as exact rationals.  Output is plain text with
a stable column layout, or tab-separated with --format tsv; identical
invocations print byte-identical stdout.  Exit codes: 0 success or all
checks passed, 1 verification or derivation failure, 2 usage error.
The environment variable HYPERACCEL_MAX_TERMS overrides the summation
term cap, which numerics.chu_eval_terms otherwise picks from |z| and the
digits.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Optional

from .accelerator import accelerated_stream, chu_normalize, convergence_rate
from .catalog import (catalog_entries, entry, export_text, series_text,
                      verify_entry)
from .exact_arith import VARS, MultiPoly, UniPoly, decimal_text
from .hypergeom_terms import FamilyId, family_instantiate
from .numerics import chu_eval_terms
from .telescoper import (builtin_residual, derive_recurrence,
                         theorem_families)

_USAGE_ERROR = 2
_FAILURE = 1
# accelerate prints at most this many exact terms with this many digits in
# all; at 5000 terms the catalog recipe streams have 7.3e6 to 1.19e8 digits
# (F427-7, printed in 31 s) except S64-R6 (1.75e8)
_MAX_STREAM_TERMS = 5000
_MAX_STREAM_DIGITS = 12 * 10 ** 7
# derive --n and accelerate take a start point n with |n| at most this: the
# remainder check sums about |n| terms at each of 201 shifted points of a
# binomial family.  At |n| = 1000, over one recipe of each family, `derive
# --n` takes at most 0.41 s as a command (0.24 s in process) and `accelerate
# --chu` 1.8 s (1.4 s in process; Python 3.11.7, 2 vCPUs)
_MAX_START = 1000


class UsageError(Exception):
    """Bad input that no computation was attempted on."""


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _rational_list(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a comma-separated rational list: {text!r}")


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with `--params -2/3,2/3,0` and `--n -1/2` joined into
    `--params=-2/3,2/3,0` and `--n=-1/2`.

    argparse reads a word after an option as a flag when it starts with
    '-' and is not a negative decimal number, which a negative rational
    such as -2/3 is not; a joined word is parsed as the option's value.
    """
    out: list[str] = []
    for word in argv:
        if out and out[-1] in ("--params", "--n") and word.startswith("-"):
            try:
                _rational_list(word)
            except argparse.ArgumentTypeError:
                pass
            else:
                out[-1] += "=" + word
                continue
        out.append(word)
    return out


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _check_start(n: Fraction) -> None:
    if abs(n) > _MAX_START:
        raise UsageError(f"start point above supported range:"
                         f" |n| at most {_MAX_START}")


def _env_max_terms() -> Optional[int]:
    raw = os.environ.get("HYPERACCEL_MAX_TERMS")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"HYPERACCEL_MAX_TERMS is not an integer: {raw!r}")
    if value < 1:
        raise UsageError(f"HYPERACCEL_MAX_TERMS must be positive: {raw!r}")
    return value


def _ascending_coeffs(p: UniPoly) -> str:
    return "[" + ",".join(map(str, p.coeffs)) + "]"


def _grid_text(rows) -> str:
    """The grid sum_j rows[j](n) k^j in MultiPoly's text."""
    return str(MultiPoly.from_dict({
        tuple(i if v == "n" else j if v == "k" else 0 for v in VARS): c
        for j, row in enumerate(rows) for i, c in enumerate(row)}))


def _emit(fmt: str, columns: list[str]) -> None:
    if fmt == "tsv":
        print("\t".join(columns))
    else:
        print(" ".join(columns))


def _pad(text: str, width: int, fmt: str) -> str:
    return text if fmt == "tsv" else text.ljust(width)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _cmd_verify_symbolic(args) -> int:
    families = ([FamilyId(args.family)] if args.family
                else list(theorem_families()))
    status = 0
    for fam in families:
        residual = builtin_residual(fam)
        zero = residual.is_zero
        if not zero:
            status = _FAILURE
        _emit(args.format, [_pad(fam.value, 12, args.format),
                            "residual = 0" if zero else "residual != 0"])
    return status


def _build_recurrence(family: FamilyId, params, r: Optional[int]):
    try:
        term = family_instantiate(family, params)
    except ValueError as ex:
        raise UsageError(str(ex)) from None
    shifts = (r,) if r is not None else (1, 2)
    rec = derive_recurrence(term, shifts=shifts)
    if rec is None:
        raise ValueError(f"no two-term recurrence found for family"
                         f" {family.value} with the given parameters")
    return term, rec


def _cmd_derive(args) -> int:
    if args.n is not None:
        _check_start(args.n)
    family = FamilyId(args.family)
    term, rec = _build_recurrence(family, args.params, args.r)
    _emit(args.format, ["family", family.value])
    _emit(args.format, ["r", str(rec.r)])
    _emit(args.format, ["p1", _ascending_coeffs(rec.p1)])
    _emit(args.format, ["p2", _ascending_coeffs(rec.p2)])
    cert_num, cert_den = map(_grid_text, rec.cert)
    _emit(args.format, ["cert", f"({cert_num})/({cert_den})"])
    _emit(args.format, ["rate", str(convergence_rate(rec))])
    if args.n is not None:
        stream = accelerated_stream(term, rec, args.n)
        _emit(args.format, ["stream",
                            f"valid from n = {args.n}, first term"
                            f" {stream.term(0)}"])
    return 0


def _cmd_rate(args) -> int:
    family = FamilyId(args.family)
    _, rec = _build_recurrence(family, args.params, args.r)
    print(f"rate = {convergence_rate(rec)}")
    return 0


def _cmd_accelerate(args) -> int:
    if args.terms > _MAX_STREAM_TERMS:
        raise UsageError(f"term count above supported range:"
                         f" at most {_MAX_STREAM_TERMS}")
    _check_start(args.n)
    family = FamilyId(args.family)
    term, rec = _build_recurrence(family, args.params, args.r)
    stream = accelerated_stream(term, rec, args.n)
    if args.chu:
        series, scale = chu_normalize(stream.ratio, stream.term(0))
        print(series_text(series))
        print(f"scale = {scale}")
    else:
        bits = 0
        for j in range(args.terms):
            t = stream.term(j)
            bits += t.numerator.bit_length() + t.denominator.bit_length()
            if bits * 0.30103 > _MAX_STREAM_DIGITS:
                raise UsageError(f"stream output above supported range:"
                                 f" at most {_MAX_STREAM_DIGITS} digits")
        for j, t in enumerate(stream.take(args.terms)):
            _emit(args.format, [f"t[{j}]", "=", decimal_text(t)])
    return 0


def _display_series(rid: str):
    try:
        e = entry(rid)
    except KeyError as ex:
        raise UsageError(ex.args[0]) from None
    if e.chu is None:
        raise UsageError(f"entry {rid} has no display series")
    return e


def _cmd_eval(args) -> int:
    if args.id is not None:
        series = _display_series(args.id).chu
    else:
        series = args.series
    enclosure, _ = chu_eval_terms(series, args.digits, _env_max_terms())
    print(enclosure.decimal(args.digits + 2))
    return 0


def _check_row(rid: str, digits: int, max_terms: Optional[int]):
    report = verify_entry(rid, digits, max_terms)
    return (rid, report.passed,
            report.lhs.decimal(digits + 2), report.rhs.decimal(digits + 2),
            report.terms_used)


def _emit_check_row(fmt: str, row, id_width: int = 0) -> None:
    rid, passed, lhs, rhs, terms = row
    verdict = "PASS" if passed else "FAIL"
    _emit(fmt, [_pad(rid, id_width, fmt), verdict,
                f"lhs={lhs}", f"rhs={rhs}", f"terms={terms}"])


def _cmd_check(args) -> int:
    _display_series(args.id)
    row = _check_row(args.id, args.digits, _env_max_terms())
    _emit_check_row(args.format, row)
    return 0 if row[1] else _FAILURE


def _cmd_check_all(args) -> int:
    ids = [e.id for e in catalog_entries() if e.chu is not None]
    max_terms = _env_max_terms()
    tasks = [(rid, args.digits, max_terms) for rid in ids]
    # no more processes than displays or CPUs, whatever --jobs asks for
    jobs = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            rows = pool.starmap(_check_row, tasks)
    else:
        rows = [_check_row(*task) for task in tasks]
    by_id = {row[0]: row for row in rows}
    width = max(len(rid) for rid in ids)
    failed = 0
    for rid in ids:
        row = by_id[rid]
        if not row[1]:
            failed += 1
        _emit_check_row(args.format, row, width)
    _emit(args.format, [f"checked={len(ids)}", f"passed={len(ids) - failed}",
                        f"failed={failed}"])
    return 0 if failed == 0 else _FAILURE


def _cmd_catalog(args) -> int:
    if args.catalog_command == "export":
        text = export_text()
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as ex:
            raise UsageError(f"cannot write {args.out}: {ex.strerror}") from None
        print(f"wrote {len(catalog_entries())} entries to {args.out}")
        return 0
    width = max(len(e.id) for e in catalog_entries())
    for e in catalog_entries():
        kind = ("display+recipe" if e.chu is not None
                and e.derivation is not None
                else "display" if e.chu is not None else "recipe")
        marker = "tentative" if e.tentative else "-"
        _emit(args.format, [_pad(e.id, width, args.format),
                            _pad(str(e.rate), 6, args.format),
                            _pad(kind, 14, args.format),
                            _pad(marker, 9, args.format),
                            e.anchor])
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("plain", "tsv"),
                        default="plain")


def _add_family_params(parser, with_n: bool, n_required: bool = False) -> None:
    """--family, --params, --n when with_n, and --r: the n-offset of the
    recurrence, tried 1 then 2 when absent."""
    parser.add_argument("--family", required=True,
                        choices=[f.value for f in FamilyId])
    parser.add_argument("--params", required=True, type=_rational_list)
    if with_n:
        parser.add_argument("--n", type=_rational, required=n_required)
    parser.add_argument("--r", type=int, choices=(1, 2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperaccel",
        description="Exact verification and re-derivation of accelerated"
                    " hypergeometric series.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-symbolic",
                       help="check the stored recurrences have exactly"
                            " zero residual")
    p.add_argument("--family", choices=[f.value for f in theorem_families()])
    _add_format(p)
    p.set_defaults(func=_cmd_verify_symbolic)

    p = sub.add_parser("derive", help="derive the two-term recurrence for"
                                      " a parameter tuple")
    _add_family_params(p, with_n=True)
    _add_format(p)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("rate", help="convergence rate of the derived"
                                    " recurrence")
    _add_family_params(p, with_n=False)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("accelerate", help="print the accelerated stream or"
                                          " its normalized bracket form")
    _add_family_params(p, with_n=True, n_required=True)
    p.add_argument("--terms", type=_positive_int, default=10)
    p.add_argument("--chu", action="store_true")
    _add_format(p)
    p.set_defaults(func=_cmd_accelerate)

    p = sub.add_parser("eval", help="certified decimal enclosure of a"
                                    " series")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--id")
    group.add_argument("--series", type=_series_arg)
    p.add_argument("--digits", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="verify one catalog display against"
                                     " its constant")
    p.add_argument("--id", required=True)
    p.add_argument("--digits", type=_positive_int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("check-all", help="verify every display-bearing"
                                         " catalog entry")
    p.add_argument("--digits", type=_positive_int, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    _add_format(p)
    p.set_defaults(func=_cmd_check_all)

    p = sub.add_parser("catalog", help="list or export the embedded"
                                       " catalog")
    csub = p.add_subparsers(dest="catalog_command", required=True)
    clist = csub.add_parser("list")
    _add_format(clist)
    cexport = csub.add_parser("export")
    cexport.add_argument("--out", required=True)
    _add_format(cexport)
    p.set_defaults(func=_cmd_catalog)

    return parser


def _series_arg(text: str):
    from .catalog import parse_series_text

    try:
        return parse_series_text(text)
    except ValueError as ex:
        raise argparse.ArgumentTypeError(str(ex))


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except UsageError as ex:
        print(f"hyperaccel: {ex}", file=sys.stderr)
        return _USAGE_ERROR
    except KeyError as ex:
        print(f"hyperaccel: {ex.args[0]}", file=sys.stderr)
        return _USAGE_ERROR
    except (ValueError, ZeroDivisionError, OverflowError) as ex:
        sys.stdout.flush()
        print(f"hyperaccel: {ex}", file=sys.stderr)
        return _FAILURE
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _FAILURE


if __name__ == "__main__":
    sys.exit(main())
