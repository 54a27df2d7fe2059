"""Command-line front end: expand, count, and verify as batch commands.

Output is machine readable (JSON by default, CSV on request) and depends
on the arguments alone, so identical invocations print identical bytes.

The CLI owns flag syntax, and refuses up front an expansion or a DP count
over the engine's work cap; library calls of them are not bound by it. The
four kinds are two series at a color count: ``partition`` and
``overpartition`` are ``cubic`` and ``overcubic`` at c = 1. Every domain
rule (color count, weight, modulus, brute-force bounds, verification
order) belongs to the library, which raises ``ValueError``; :func:`main`
maps that to exit status 2.
A verify target reads only its flags (``_TARGET_FLAGS``) and, without
``--order``, runs at the library's least covering order.

Exit status: 0 when every requested check passes, 1 on a verification
failure, 2 on a usage error (bad flags, a flag its verify target does not
read, parse errors, a request outside the library's domain such as an
insufficient order, or a request over the work cap), 3 when two routes
through the engine disagree, in the composite-modulus cross-check or a
brute-force count against the DP, or when a DP step does not divide
exactly (an internal inconsistency, not a verdict on the claim checked).

Each engine prices its own request in one unit, an update of a sparse
pass (``series._kronecker_price``, ``series._update_price``), and every
expansion is priced by the plan it runs: ``eta._expansion_work`` plans
an expansion and sums its steps, to which ``expand`` adds the rows it
prints (``_expand_price``), ``verify._mod4_classification_work`` plans
``verify --target thm14`` as one side of its two mod-4 forms and prices
it with its colors and residues, and ``verify._families_work`` plans
``thm15`` and ``conj73`` once, their bases, Step series and step
products, and prices that plan with the residues it compares. Each hands
back its plan with its price, and the command runs that plan, through
the one runner ``eta._expand_side``. ``counting._dp_work`` sums the DP's
block products over its tree. ``series._check_work`` refuses each over
``series.WORK_CAP``, as it refuses every engine's requests.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from collections import namedtuple
from contextlib import contextmanager
from functools import lru_cache
from typing import List, Optional, Tuple

from . import __version__
from .counting import (
    _dp_work,
    count_gen_cubic,
    count_gen_cubic_brute,
    count_gen_overcubic_brute,
    count_gen_overcubic_dp,
)
from .eta import (
    EtaQuotientParseError,
    _coefficient_bits,
    _colored_quotient,
    _expand_side,
    _expansion_work,
    parse_eta_quotient,
)
from .series import WORK_CAP, _check_work
from .verify import (
    CONJECTURED_FAMILIES,
    IDENTITIES,
    PROVED_FAMILIES,
    EngineInconsistencyError,
    VerificationReport,
    _families_work,
    _mod4_classification_work,
    _verify_families,
    _verify_mod4,
    check_named_identity,
)

ENGINE_INCONSISTENCY = 3
USAGE_ERROR = 2
VERIFY_FAILURE = 1


class UsageError(Exception):
    """Invalid request; maps to exit status 2."""


def _record(command: str, parameters: dict, payload: dict) -> dict:
    out = {"command": command, "version": __version__, "parameters": parameters}
    out.update(payload)
    return out


def _emit(record: dict, csv_rows: List[List], csv_header: List[str], fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(record, indent=2) + "\n")
    else:  # no field holds a comma, a quote or a newline
        sys.stdout.write("".join(",".join(map(str, row)) + "\n" for row in [csv_header, *csv_rows]))


# -- expand and count ---------------------------------------------------------

# Partitions and overpartitions are the cubic and overcubic kinds at c = 1.
_Kind = namedtuple("_Kind", "overlined takes_c")
_KINDS = {
    "partition": _Kind(overlined=False, takes_c=False),
    "overpartition": _Kind(overlined=True, takes_c=False),
    "cubic": _Kind(overlined=False, takes_c=True),
    "overcubic": _Kind(overlined=True, takes_c=True),
}


def _colors(kind: str, flag: str, c: Optional[int]) -> int:
    """The color count of ``kind``: ``--c`` where the kind takes it, else 1."""
    takes_c = _KINDS[kind].takes_c
    if takes_c and c is None:
        raise UsageError(f"{flag} {kind} requires --c")
    if not takes_c and c is not None:
        raise UsageError(f"--c is meaningless with {flag} {kind}")
    return c if takes_c else 1


def _cmd_expand(args, command: str) -> int:
    order = args.order
    if order <= 0:
        raise UsageError(f"order must be positive, got {order}")
    if (args.gf is None) == (args.eta is None):
        raise UsageError("exactly one of --gf and --eta is required")
    if args.gf is not None:
        c = _colors(args.gf, "--gf", args.c)
        quotient = _colored_quotient(c, _KINDS[args.gf].overlined)
        spec = {"gf": args.gf, "c": args.c}
    else:
        if args.c is not None:
            raise UsageError("--c is meaningless with --eta")
        try:
            quotient = parse_eta_quotient(args.eta)
        except EtaQuotientParseError as exc:
            raise UsageError(f"bad eta quotient: {exc}")
        spec = {"eta": str(quotient)}
    price, ways = _expand_price(quotient, order, args.modulus)
    _check_work(price, f"expanding {quotient} to order {order}", "; lower --order")
    series = next(_expand_side(ways, args.modulus))
    record = _record(command, {**spec, "order": order, "modulus": args.modulus}, {"order": order})
    _emit_rows(record, series.coeffs, args.format)
    return 0


def _expand_price(quotient, order: int, modulus: Optional[int]) -> Tuple[float, Optional[list]]:
    """``(price, ways)`` of ``expand`` to ``order``: the plan of the
    expansion (:func:`~overcubic.eta._expansion_work`), which the command
    runs as it is, and its price with the rows it prints at
    :func:`_row_price` each."""
    price, ways = _expansion_work(quotient, order, modulus)
    if order < WORK_CAP:  # past it the expansion alone is priced over the cap
        price += (order + 1) * _row_price(_coefficient_bits(quotient.factors, order, modulus))
    return price, ways


def _row_price(bits: float) -> float:
    """The price of a row of ``expand`` output whose coefficient has at most
    ``bits`` bits, in updates of a sparse pass: a row of residues took 0.4
    to 0.75 us to build, format as JSON and write at orders 10^6 to 4.3 *
    10^6 mod 4, as the speed of a 2-vCPU x86 host drifted, about 30 times
    the time an update took at the work cap's other edges in the same
    hour; over Z a row took 1.9 ns more a bit up to 1100 bits. Without it an
    ``expand`` mod 4, 1-4 updates a coefficient, would be admitted to
    orders of 4 * 10^7 to 1.5 * 10^8: minutes and gigabytes of output."""
    return 30 + bits / 10


# Rows are formatted and written this many at a time, so that the output
# never exists whole: at the work bound its string and the row lists behind
# it took several times the memory of the expansion.
_ROW_CHUNK = 4096


def _emit_rows(record: dict, values, fmt: str) -> None:
    """Write what :func:`_emit` writes for ``record`` with a last field
    ``rows`` of the pairs ``[n, values[n]]``, byte for byte, in chunks of
    rows: ``json.dumps(record, indent=2)`` and a newline, or the CSV rows
    ``n,coefficient``."""
    if fmt == "json":
        head = json.dumps({**record, "rows": []}, indent=2)
        if not values:
            sys.stdout.write(head + "\n")
            return
        sys.stdout.write(head[: -len("[]\n}")] + "[\n")
        row, sep, end = "    [\n      {},\n      {}\n    ]", ",\n", "\n  ]\n}\n"
    else:
        sys.stdout.write("n,coefficient\n")
        row, sep, end = "{},{}\n", "", ""
    for lo in range(0, len(values), _ROW_CHUNK):
        chunk = values[lo : lo + _ROW_CHUNK]
        body = sep.join(map(row.format, range(lo, lo + len(chunk)), chunk))
        sys.stdout.write(sep + body if lo else body)
    sys.stdout.write(end)


def _cmd_count(args, command: str) -> int:
    kind, engine, n = args.kind, args.engine, args.n
    c = _colors(kind, "--kind", args.c)
    overlined = _KINDS[kind].overlined
    if engine == "dp":
        price, advice = _dp_work(c, n, overlined), ""
        # a refusal names the expansion of the same series where it is admitted
        if price > WORK_CAP and _expand_price(_colored_quotient(c, overlined), n, None)[0] <= WORK_CAP:
            c_flag = "" if args.c is None else f" --c {c}"
            advice = f"; expand the series instead: overcubic expand --gf {kind}{c_flag} --order {n}"
        _check_work(price, f"the {kind} DP at n = {n}", advice)
    # built on each call, so that a wrapper installed on these names (a
    # tracer, a test double) is the one called
    counter = {
        (False, "dp"): count_gen_cubic,
        (False, "brute"): count_gen_cubic_brute,
        (True, "dp"): count_gen_overcubic_dp,
        (True, "brute"): count_gen_overcubic_brute,
    }[overlined, engine]
    value = counter(c, n)
    record = _record(
        command,
        {"kind": kind, "c": args.c, "n": n, "engine": engine},
        {"count": value},
    )
    csv_c = "" if args.c is None else args.c
    _emit(record, [[csv_c, n, value]], ["c", "n", "count"], args.format)
    return 0


# -- verify -------------------------------------------------------------------


def _report_rows(reports: List[VerificationReport]) -> List[List]:
    rows = []
    for idx, rep in enumerate(reports):
        first = rep.counterexamples[0].to_dict() if rep.counterexamples else {}
        rows.append(
            [idx, int(rep.passed), int(rep.vacuous), rep.order]
            + list(rep.i_range or ("", ""))
            + list(rep.n_range)
            + [len(rep.counterexamples)]
            + ["" if first.get(key) is None else first[key]
               for key in ("i", "n", "observed", "expected")]
        )
    return rows


_VERIFY_CSV_HEADER = [
    "index",
    "passed",
    "vacuous",
    "order",
    "i_lo",
    "i_hi",
    "n_lo",
    "n_hi",
    "counterexamples",
    "first_i",
    "first_n",
    "first_observed",
    "first_expected",
]


# The flags each verify target reads besides --order and --format, with
# their defaults; a target refuses the others.
_TARGET_FLAGS = {
    "thm14": {"c_max": 10, "n_max": 2000},
    "thm15": {"i_max": 3, "n_max": 100},
    "conj73": {"i_max": 3, "n_max": 100},
    "identity": {"name": None},
}


def _cmd_verify(args, command: str) -> int:
    target, reads = args.target, _TARGET_FLAGS[args.target]
    params = {"target": target}
    for dest in ("c_max", "i_max", "n_max", "name"):
        value = getattr(args, dest)
        if dest in reads:
            params[dest] = reads[dest] if value is None else value
        elif value is not None:
            raise UsageError(f"--{dest.replace('_', '-')} is meaningless with --target {target}")
    if target == "thm14":
        c_max, n_max = params["c_max"], params["n_max"]
        price, plans = _mod4_classification_work(c_max, n_max, args.order)
        _check_work(price, f"the mod-4 sweep of c <= {c_max} to n = {n_max}", "; lower --n-max or --c-max")
        reports = [_verify_mod4(c_max, n_max, args.order, plans)]
    elif target == "identity":
        if args.name is None:
            raise UsageError(
                "--target identity requires --name; known names: "
                + ", ".join(sorted(IDENTITIES))
            )
        reports = [check_named_identity(args.name, args.order)]
    else:
        families = PROVED_FAMILIES if target == "thm15" else CONJECTURED_FAMILIES
        i_max, n_max = params["i_max"], params["n_max"]
        price, sides = _families_work(families, i_max, n_max, args.order)
        _check_work(price, f"the {target} sweep of i <= {i_max} to n = {n_max}", "; lower --n-max or --i-max")
        reports = _verify_families(families, i_max, n_max, args.order, sides)
    params["order"] = reports[0].order
    all_pass = all(r.passed for r in reports)
    record = _record(
        command,
        params,
        {
            "status": "pass" if all_pass else "fail",
            "reports": [r.to_dict() for r in reports],
        },
    )
    _emit(record, _report_rows(reports), _VERIFY_CSV_HEADER, args.format)
    return 0 if all_pass else VERIFY_FAILURE


# Built on first use, not at import, and kept for the process: a build
# takes about half a millisecond, as long as a small sweep.
@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overcubic",
        description=(
            "Exact q-series expansion, partition counting, and finite-order "
            "congruence verification for colored overlined partitions."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument(
            "--format",
            choices=("json", "csv"),
            default="json",
            help="output format (default json)",
        )

    p_expand = sub.add_parser("expand", help="expand a generating function")
    p_expand.add_argument("--gf", choices=tuple(_KINDS))
    p_expand.add_argument("--eta", help="eta quotient, e.g. 'f2/f1^2'")
    p_expand.add_argument("--c", type=int, help="color count for cubic/overcubic")
    p_expand.add_argument("--order", type=int, default=500, help="truncation order (default 500)")
    p_expand.add_argument("--modulus", type=int, help="reduce coefficients mod this")
    add_common(p_expand)

    p_count = sub.add_parser("count", help="count partitions of one weight")
    p_count.add_argument("--kind", required=True, choices=tuple(_KINDS))
    p_count.add_argument("--c", type=int, help="color count for cubic/overcubic")
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--engine", choices=("dp", "brute"), default="dp")
    add_common(p_count)

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument(
        "--target", required=True, choices=("thm14", "thm15", "conj73", "identity")
    )
    p_verify.add_argument("--c-max", type=int, dest="c_max")
    p_verify.add_argument("--n-max", type=int, dest="n_max")
    p_verify.add_argument("--i-max", type=int, dest="i_max")
    p_verify.add_argument("--order", type=int, help="truncation order (default: the least covering one)")
    p_verify.add_argument("--name", help="identity name for --target identity")
    add_common(p_verify)

    return parser


@contextmanager
def _exact_int_strings():
    """Lift CPython's limit on the digits of an int <-> str conversion, and
    restore it on exit: a count, a residue or a flag may run past the
    default 4300 digits, and the output is exact. Python before 3.10.7 has
    no such limit."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: Optional[List[str]] = None) -> int:
    with _exact_int_strings():
        return _main(argv)


def _main(argv: Optional[List[str]]) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the usage message
        return USAGE_ERROR if exc.code else 0
    command = shlex.join(["overcubic"] + argv)
    handlers = {"expand": _cmd_expand, "count": _cmd_count, "verify": _cmd_verify}
    try:
        return handlers[args.subcommand](args, command)
    except (UsageError, ValueError) as exc:
        # the library raises ValueError for every request outside its domain
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except EngineInconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ENGINE_INCONSISTENCY


if __name__ == "__main__":
    sys.exit(main())
