"""The benchmark's workloads: one operation list per workload, built from a seed.

An operation is one ``overcubic.cli.main(argv)`` call with stdout captured,
or one public library call where the CLI exposes nothing (``decompose``).
Each operation carries its own correctness check, run outside the timed
region:

- operations that do not depend on the seed compare their stdout with the
  digest recorded in ``digests.json`` (CLI stdout is byte-identical across
  reruns by contract) and also check what they can by another route. The
  digests were taken once, from the package as it stood when the benchmark
  was defined; they are reference data, not something to re-record when a
  change alters the output;
- seeded operations are checked against an independent route only:
  ``oracle.expand_eta`` for expansions and series coefficients, the DP
  counter for brute-force counts, divisor counts for ``decompose``.

Sizes keep each operation under about a second and a pass under about two:
``wall_vs_baseline`` pairs operations, and many short pairs are what keep
it steady on a shared host.

The seed picks the random eta quotients and (c, n) points. The paper's fixed
sweeps (``sweep-mod4``, ``families-mod12``) ignore it. Seeded choices are
drawn so that their cost hardly depends on the seed: the DP points keep one
slot per c with n drawn from a narrow band, and the random quotients are a
small share of their pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import oracle

# Sizes of every workload, recorded with each result.
SIZES = {
    "sweep-mod4": {"c_max": 10, "n_max": 2000},
    "families-mod12": {"i_max": 3, "n_max": 60, "order": 9 * 60 + 8},
    "exact-z": {"gf_c": [1, 2, 3], "gf_order": 1200, "eta_count": 4, "eta_order": 500},
    "oracle-count": {
        "brute": [[1, 30], [2, 28], [3, 24], [4, 22]],
        "dp_c": [1, 2, 3, 4],
        "dp_n_band": [981, 1000],
    },
}

WORKLOADS = tuple(SIZES)

# (name, order, expected exit status) of the identity-registry checks.
IDENTITY_CHECKS = (
    ("toh", 800, 0),
    ("phi", 1200, 0),
    ("psi-3dissection", 1200, 0),
    ("chan-a2", 300, 0),
    ("ramanujan-p5", 300, 0),
    ("overcubic-mod3-c5", 800, 0),
    ("negative-control", 1000, 1),
)


class Mismatch(Exception):
    """An operation's output disagrees with its expected value."""


@dataclass
class Op:
    """One operation. ``argv`` is set for a CLI call, ``call`` otherwise.

    ``check(output)`` raises :class:`Mismatch` on a wrong output; for a CLI
    call the output is ``(exit_status, stdout)``. ``fixed`` operations do
    not depend on the seed and are also held to their recorded digest.
    """

    label: str
    check: Callable = field(repr=False)
    argv: Optional[Tuple[str, ...]] = None
    call: Optional[Tuple[str, tuple]] = None
    fixed: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.argv) if self.argv else self.label


def report_coeffs(report: dict) -> int:
    """Coefficients one verification report compared.

    A sweep compares every (i, n) pair of its ranges; an identity check
    compares the common window up to and including its first mismatch.
    """
    n_lo, n_hi = report["n_range"]
    if report["i_range"] is None:
        ces = report["counterexamples"]
        return ces[0]["n"] + 1 if ces else n_hi - n_lo + 1
    i_lo, i_hi = report["i_range"]
    return max(0, i_hi - i_lo + 1) * max(0, n_hi - n_lo + 1)


def coeffs_checked(op: Op, output) -> int:
    """Coefficients or counts checked for one operation's output."""
    if op.call is not None:
        return 1
    _, stdout = output
    record = json.loads(stdout)
    if "reports" in record:
        return sum(report_coeffs(r) for r in record["reports"])
    if "rows" in record:
        return len(record["rows"])
    return 1


# -- checks -------------------------------------------------------------------


def _status(output, want: int) -> str:
    status, stdout = output
    if status != want:
        raise Mismatch(f"exit status {status}, expected {want}")
    return stdout


def _check_reports(n_range, want_pass=True):
    def check(output):
        record = json.loads(_status(output, 0 if want_pass else 1))
        for rep in record["reports"]:
            if (rep["status"] == "pass") != want_pass or rep["vacuous"]:
                raise Mismatch(f"report {rep['description']!r} is {rep['status']}")
            if n_range is not None and rep["n_range"] != list(n_range):
                raise Mismatch(f"n_range {rep['n_range']}, expected {list(n_range)}")
    return check


def _check_rows(factors, order):
    def check(output):
        rows = json.loads(_status(output, 0))["rows"]
        want = oracle.expand_eta(factors, order)
        got = [v for _, v in rows]
        if got != want:
            first = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            raise Mismatch(f"coefficient {first}: {got[first]} != {want[first]}")
    return check


def _check_count(expected: Callable[[], int]):
    def check(output):
        got, want = json.loads(_status(output, 0))["count"], expected()
        if got != want:
            raise Mismatch(f"count {got}, expected {want}")
    return check


def _check_decompose(c: int, n: int, total: Callable[[], int]):
    def check(result):
        want = {
            "total": total(),
            "kappa1": oracle.odd_divisors(n),
            "kappa21": c * oracle.even_divisors(n),
            "tau_odd": oracle.odd_divisors(n),
            "tau_even": oracle.even_divisors(n),
        }
        got = {name: getattr(result, name) for name in want}
        if got != want:
            raise Mismatch(f"decompose({c}, {n}) gave {got}, expected {want}")
    return check


# -- workloads ----------------------------------------------------------------


def _sweep_mod4(rng) -> List[Op]:
    s = SIZES["sweep-mod4"]
    n = str(s["n_max"])
    argv = ("verify", "--target", "thm14", "--c-max", str(s["c_max"]),
            "--n-max", n, "--order", n)
    return [Op("thm14", _check_reports((1, s["n_max"])), argv=argv, fixed=True)]


def _families_mod12(rng) -> List[Op]:
    s = SIZES["families-mod12"]
    ops = []
    for target in ("thm15", "conj73"):
        argv = ("verify", "--target", target, "--i-max", str(s["i_max"]),
                "--n-max", str(s["n_max"]), "--order", str(s["order"]))
        ops.append(Op(target, _check_reports((0, s["n_max"])), argv=argv, fixed=True))
    return ops


def random_quotient(rng) -> List[Tuple[int, int]]:
    """``f1^-2 * fa^ka * fb^kb`` with 2 <= a < b <= 8 and 1 <= |k| <= 3.

    The dense ``f1^-2`` part fixes most of the cost; the rest varies with
    the seed and keeps the coefficients away from any closed form.
    """
    a, b = sorted(rng.sample(range(2, 9), 2))
    ka, kb = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2))
    return [(1, -2), (a, ka), (b, kb)]


def _eta_text(factors) -> str:
    return "*".join(f"f{n}^{k}" for n, k in factors)


def _exact_z(rng) -> List[Op]:
    s = SIZES["exact-z"]
    order = s["gf_order"]
    ops = []
    for c in s["gf_c"]:
        argv = ("expand", "--gf", "overcubic", "--c", str(c), "--order", str(order))
        ops.append(Op(f"gf-overcubic-c{c}",
                      _check_rows(oracle.overcubic_factors(c), order),
                      argv=argv, fixed=True))
    for idx in range(s["eta_count"]):
        factors = random_quotient(rng)
        argv = ("expand", "--eta", _eta_text(factors), "--order", str(s["eta_order"]))
        ops.append(Op(f"eta-{idx}", _check_rows(factors, s["eta_order"]), argv=argv))
    for name, id_order, status in IDENTITY_CHECKS:
        argv = ("verify", "--target", "identity", "--name", name, "--order", str(id_order))
        ops.append(Op(f"identity-{name}", _check_reports(None, want_pass=status == 0),
                      argv=argv, fixed=True))
    return ops


def _oracle_count(rng) -> List[Op]:
    from overcubic.counting import (
        count_gen_cubic,
        count_gen_overcubic_dp,
        count_overpartitions,
        count_partitions,
    )

    s = SIZES["oracle-count"]
    ops = []
    brute = [(("overcubic", c, n), lambda c=c, n=n: count_gen_overcubic_dp(c, n))
             for c, n in s["brute"]]
    brute += [
        (("partition", None, 30), lambda: count_partitions(30)),
        (("overpartition", None, 30), lambda: count_overpartitions(30)),
        (("cubic", 2, 30), lambda: count_gen_cubic(2, 30)),
    ]
    for (kind, c, n), dp in brute:
        argv = ("count", "--kind", kind) + (("--c", str(c)) if c else ()) + (
            "--n", str(n), "--engine", "brute")
        ops.append(Op(f"brute-{kind}-c{c}-n{n}", _check_count(dp), argv=argv, fixed=True))
    for c, n in s["brute"]:
        total = lambda c=c, n=n: count_gen_overcubic_dp(c, n)
        ops.append(Op(f"decompose-c{c}-n{n}", _check_decompose(c, n, total),
                      call=("decompose", (c, n)), fixed=True))
    lo, hi = s["dp_n_band"]
    for c in s["dp_c"]:
        n = rng.randint(lo, hi)
        series = lambda c=c, n=n: oracle.expand_eta(oracle.overcubic_factors(c), n)[n]
        argv = ("count", "--kind", "overcubic", "--c", str(c), "--n", str(n))
        ops.append(Op(f"dp-c{c}", _check_count(series), argv=argv))
    return ops


_BUILDERS: Dict[str, Callable] = {
    "sweep-mod4": _sweep_mod4,
    "families-mod12": _families_mod12,
    "exact-z": _exact_z,
    "oracle-count": _oracle_count,
}


def build(workload: str, seed: int) -> List[Op]:
    """The operation list of one pass of ``workload`` for ``seed``."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
