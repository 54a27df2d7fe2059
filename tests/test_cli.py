"""End-to-end tests of the command-line interface.

Covers the exit-status contract (0 pass / 1 verification failure / 2 usage
error), JSON-vs-CSV numeric agreement, and byte-level idempotence.
"""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import overcubic.cli as cli_module
import overcubic.counting as counting_module
import overcubic.eta as eta_module
import overcubic.verify as verify_module
from overcubic.cli import (
    _VERIFY_CSV_HEADER,
    _emit_rows,
    main,
)
from overcubic.counting import _dp_work
from overcubic.eta import _colored_quotient, _expansion_work, gen_overcubic_gf
from overcubic.series import WORK_CAP, Series


def _src_env():
    """The environment of a subprocess that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def assert_refused(capsys, *argv):
    """Exit 2, nothing on stdout, one ``error:`` line on stderr."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


# -- expand -------------------------------------------------------------------


def test_expand_overcubic(capsys):
    code, record = run_json(
        capsys, "expand", "--gf", "overcubic", "--c", "2", "--order", "10"
    )
    assert code == 0
    assert record["order"] == 10
    assert len(record["rows"]) == 11
    assert record["rows"][0] == [0, 1]
    assert record["rows"][4] == [4, 26]
    assert record["command"].startswith("overcubic expand")


def test_expand_eta_overpartitions(capsys):
    code, record = run_json(capsys, "expand", "--eta", "f2/f1^2", "--order", "3")
    assert code == 0
    assert [row[1] for row in record["rows"]] == [1, 2, 4, 8]


def test_expand_trivial_eta(capsys):
    code, record = run_json(capsys, "expand", "--eta", "f1^0", "--order", "4")
    assert code == 0
    assert [row[1] for row in record["rows"]] == [1, 0, 0, 0, 0]


def test_expand_with_modulus(capsys):
    code, record = run_json(
        capsys, "expand", "--gf", "overcubic", "--c", "3", "--order", "12", "--modulus", "4"
    )
    assert code == 0
    for n, value in record["rows"]:
        assert 0 <= value < 4


def test_expand_parse_error_is_usage_error(capsys):
    code, out, err = run(capsys, "expand", "--eta", "f2//f1", "--order", "3")
    assert code == 2
    assert "position" in err


def test_expand_rejects_nonpositive_order(capsys):
    code, _, err = run(capsys, "expand", "--gf", "partition", "--order", "0")
    assert code == 2 and "positive" in err


def test_expand_requires_gf_or_eta(capsys):
    code, out, err = run(capsys, "expand", "--order", "3")
    assert code == 2
    code, out, err = run(
        capsys, "expand", "--gf", "overcubic", "--c", "2", "--eta", "f1", "--order", "3"
    )
    assert code == 2


def test_expand_gf_c_validation(capsys):
    code, _, err = run(capsys, "expand", "--gf", "cubic", "--order", "3")
    assert code == 2 and "--c" in err
    code, _, err = run(capsys, "expand", "--gf", "partition", "--c", "2", "--order", "3")
    assert code == 2
    assert "--c is meaningless with --eta" in assert_refused(
        capsys, "expand", "--eta", "f2/f1", "--c", "2"
    )
    # domain rules the library owns
    assert "color count" in assert_refused(
        capsys, "expand", "--gf", "overcubic", "--c", "0", "--order", "3"
    )
    for gf in ("partition", "overcubic --c 2"):
        assert "modulus" in assert_refused(
            capsys, "expand", "--gf", *gf.split(), "--order", "3", "--modulus", "1"
        )
    assert "modulus" in assert_refused(
        capsys, "expand", "--eta", "f2/f1^2", "--order", "3", "--modulus", "1"
    )


def test_expand_beyond_work_bound_is_usage_error(capsys):
    # over Z, priced at the bits of its coefficients, 18 times the work cap:
    # about a minute
    err = assert_refused(capsys, "expand", "--gf", "overcubic", "--c", "10", "--order", "200000")
    assert "lower --order" in err
    # under a 61-bit modulus, 3.6 times the work cap
    assert_refused(capsys, "expand", "--gf", "overcubic", "--c", "10", "--order", "150000",
                   "--modulus", str(2**61 - 1))
    # the expansion a refused DP count suggests, and the benchmark's largest
    # expansion over Z, stay below the bound
    for c, order in [(2, 20000), (3, 1200)]:
        assert _expansion_work(_colored_quotient(c, True), order)[0] < WORK_CAP


def test_expand_huge_exponent_under_a_composite_modulus(capsys):
    # mod 10^20 nothing reduces the exponents of c = 10^400, so the plan
    # powers phi(-q^2) densely through a ladder of about 1330 rungs, which
    # once recursed per rung into a RecursionError (exit 1). It must be
    # expanded or refused; expanded, it must match its prime-power parts
    c, m = 10**400, 10**20
    code, out, _ = run(capsys, "expand", "--gf", "overcubic", "--c", str(c), "--order", "50",
                       "--modulus", str(m), "--format", "csv")
    assert code in (0, 2)
    if code == 0:
        got = [int(row[1]) for row in _csv_rows(out)[1:]]
        for part in (2**20, 5**20):
            assert [v % part for v in got] == list(gen_overcubic_gf(c, 50, part).coeffs)


def test_expand_large_prime_modulus_finishes():
    # the exponents exceed m/2, so normalization asks whether m is a prime
    # power; trial division of 2^61 - 1 would run for minutes
    m = 2**61 - 1
    c = 10**19
    proc = subprocess.run(
        [sys.executable, "-m", "overcubic.cli", "expand", "--gf", "overcubic", "--c", str(c),
         "--order", "10", "--modulus", str(m)],
        capture_output=True,
        text=True,
        timeout=30,
        env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)["rows"]
    # a(2) and a(3) count 2c + 2 and 4c + 4 overlined partitions
    assert [v for _, v in rows[:4]] == [1, 2, (2 * c + 2) % m, (4 * c + 4) % m]


def test_expand_huge_modulus_takes_sparse_passes():
    # dense powering would pack each coefficient into 840-byte slots and run
    # for about a minute; the plan prices that and takes sparse passes
    m = 10**1000 + 7
    proc = subprocess.run(
        [sys.executable, "-m", "overcubic.cli", "expand", "--gf", "overcubic", "--c", "10",
         "--order", "2000", "--modulus", str(m)],
        capture_output=True,
        text=True,
        timeout=30,
        env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)["rows"]
    assert len(rows) == 2001
    exact = gen_overcubic_gf(10, 60)
    assert [v for _, v in rows[:61]] == [c % m for c in exact.coeffs]


def test_expand_env_default_order(capsys, monkeypatch):
    # expand without --order runs at order 500, whatever the environment
    # holds: the variable that once set the default is not read
    monkeypatch.delenv("OVERCUBIC_DEFAULT_ORDER", raising=False)
    _, unset, _ = run(capsys, "expand", "--gf", "partition")
    monkeypatch.setenv("OVERCUBIC_DEFAULT_ORDER", "7")
    code, out, _ = run(capsys, "expand", "--gf", "partition")
    assert code == 0
    assert out == unset
    record = json.loads(out)
    assert record["order"] == record["parameters"]["order"] == 500
    assert len(record["rows"]) == 501


# -- count --------------------------------------------------------------------


def test_count_overpartition(capsys):
    code, record = run_json(capsys, "count", "--kind", "overpartition", "--n", "3")
    assert code == 0
    assert record["count"] == 8


def test_count_cubic(capsys):
    code, record = run_json(capsys, "count", "--kind", "cubic", "--c", "2", "--n", "4")
    assert code == 0
    assert record["count"] == 9


def test_count_brute_engine(capsys):
    code, record = run_json(
        capsys, "count", "--kind", "overcubic", "--c", "2", "--n", "6", "--engine", "brute"
    )
    assert code == 0
    assert record["count"] == 92
    assert record["parameters"]["engine"] == "brute"


def test_count_brute_cap_is_usage_error(capsys):
    code, out, err = run(
        capsys, "count", "--kind", "overcubic", "--c", "2", "--n", "40", "--engine", "brute"
    )
    assert code == 2
    assert "capped" in err
    # n = 30 is within the weight cap, but c = 10 would walk 395 589 359
    # colored partitions
    assert "capped" in assert_refused(
        capsys, "count", "--kind", "cubic", "--c", "10", "--n", "30", "--engine", "brute"
    )
    # n = 2 walks only c + 1 partitions, but lists c + 1 (size, color) classes
    assert "capped" in assert_refused(
        capsys, "count", "--kind", "cubic", "--c", "9999999", "--n", "2", "--engine", "brute"
    )


@pytest.mark.parametrize("kind", ["cubic", "overcubic"])
def test_count_brute_of_huge_c(capsys, kind):
    # below weight 2 there is one (size, color) class whatever c is; at
    # n = 30 the class cap refuses the same c, though it is also over the
    # work cap
    c = "1" + "0" * 5000
    for n in (0, 1):
        code, out, err = run(capsys, "count", "--kind", kind, "--c", c, "--n", str(n),
                             "--engine", "brute")
        assert (code, err) == (0, "")
        count = _parse_without_digit_limit(json.loads, out)["count"]
        assert count == (2**n if kind == "overcubic" else 1)
    assert "(size, color) classes" in assert_refused(
        capsys, "count", "--kind", kind, "--c", c, "--n", "30", "--engine", "brute"
    )


_DP = counting_module._colored_dp


def test_count_brute_self_check_has_engine_exit_status(capsys, monkeypatch):
    # make the DP, which the brute-force count is checked against, one too large
    monkeypatch.setattr(counting_module, "_colored_dp",
                        lambda c, n, overlined: _DP(c, n, overlined) + 1)
    code, out, err = run(
        capsys, "count", "--kind", "overcubic", "--c", "2", "--n", "6", "--engine", "brute"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: brute-force count disagrees with the DP")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "wrong",
    [lambda c, n, overlined: _DP(c, n, overlined) + 1,
     lambda c, n, overlined: _DP(c, n + 1, overlined)],
    ids=["count", "weight"],
)
def test_off_by_one_dp_fails_every_brute_fold(capsys, monkeypatch, wrong):
    # each brute-force fold is checked against the DP, an independent route:
    # a DP one off, in its value or in its weight, fails all of them
    monkeypatch.setattr(counting_module, "_colored_dp", wrong)
    for fold in (counting_module.count_gen_cubic_brute, counting_module.count_gen_overcubic_brute,
                 counting_module.decompose):
        with pytest.raises(counting_module.EngineInconsistencyError, match="disagrees with the DP"):
            fold(2, 6)
    for kind in ("partition", "cubic", "overpartition", "overcubic"):
        c = ("--c", "2") if kind.endswith("cubic") else ()
        code, out, err = run(capsys, "count", "--kind", kind, *c, "--n", "6", "--engine", "brute")
        assert (code, out) == (3, "")
        assert err.startswith("error: brute-force count disagrees with the DP")


def test_count_dp_beyond_work_bound_is_usage_error(capsys):
    # this request used to run for well over 15 s
    code, out, err = run(capsys, "count", "--kind", "overcubic", "--c", "2", "--n", "20000")
    assert code == 2
    assert out == ""
    assert "overcubic expand --gf overcubic --c 2 --order 20000" in err
    # a large c makes every product long: 12.5e6 products, about 12 s
    assert "coefficient updates" in assert_refused(
        capsys, "count", "--kind", "overcubic", "--c", "1000000", "--n", "5000"
    )
    # the largest DP requests of the benchmark stay below the bound
    assert _dp_work(4, 1000, True) < WORK_CAP
    # the recurrence's cost hardly grows with c: 0.06 s here, where
    # multiplying in the classes one by one takes about 44 s
    code, record = run_json(capsys, "count", "--kind", "overcubic", "--c", "1000", "--n", "1000")
    assert code == 0
    for m in (8, 9, 25):  # prime powers reduce the series' exponents mod m
        assert record["count"] % m == gen_overcubic_gf(1000, 1000, m)[1000]


def test_dp_price_walks_the_dp_tree(monkeypatch):
    # the CLI prices the block products of the DP's own tree; a leaf's steps
    # are priced as one count against its products
    prices = counting_module._dp_block_prices
    for n in (31, 32, 100, 1000, 4097):
        shapes = []

        def record(length, count, a_bits, sigma_bits):
            shapes.append((length, count))
            return prices(length, count, a_bits, sigma_bits)

        monkeypatch.setattr(counting_module, "_dp_block_prices", record)
        _DP(2, n, True)
        by_dp = set(shapes)
        shapes.clear()
        _dp_work(2, n, True)
        assert by_dp == {shape for shape in shapes if shape[0] > 1}


@pytest.mark.parametrize("kind,c,edge", [("overcubic", 2, 15686), ("overcubic", 1000, 5791),
                                         ("cubic", 1000000, 3443)])
def test_dp_admission_edges(kind, c, edge):
    # the largest weights a cap of 5.36e8 updates admitted, 4.5-5.5 s each on
    # a 2-vCPU x86 host with every count priced at the bits of a(n); priced
    # now at each node's own bits, they are refused by the one work cap,
    # whose edges are in WORK_CAP_EDGES
    overlined = kind == "overcubic"
    assert _dp_work(c, edge, overlined) > WORK_CAP


# The largest orders of the overlined series, f2/f1^2 at c = 1, that a cap
# of 1.5e8 updates admitted with every update priced at 1: on a 2-vCPU x86
# host 12.3-16.1 s over Z, 1.7-2.6 s mod 4 and 12 and 4.2-4.8 s mod 2^61 - 1.
EXPAND_EDGES = {
    (1, None): 273528, (1, 4): 273528, (1, 12): 273528, (1, 2**61 - 1): 273528,
    (10, None): 101760, (10, 4): 221840, (10, 12): 151285, (10, 2**61 - 1): 101760,
}


@pytest.mark.parametrize("c,m,previous_edge", [
    (1, None, 282484), (1, 4, 282484), (1, 12, 282484), (1, 2**61 - 1, 282484),
    (10, None, 108891), (10, 4, 230945), (10, 12, 134507), (10, 2**61 - 1, 108891),
])
def test_expand_admission_edges(c, m, previous_edge):
    quotient = _colored_quotient(c, True)
    edge = EXPAND_EDGES[c, m]

    def work(order):
        return _expansion_work(quotient, order, m)[0]

    if m == 4:
        # mod 4 the series is phi(-q), or phi(-q) * phi(-q^2) for even c, a
        # few updates a coefficient: both edges are admitted far under the
        # cap, and the CLI's edges, set by the price of its rows, are in
        # WORK_CAP_EDGES
        for order in (edge, previous_edge):
            assert work(order) < WORK_CAP / 20
        return
    if m == 12:
        # residues of a few bits: an update is priced at 1, as it was; the
        # CLI adds the price of the rows, so its edges are in WORK_CAP_EDGES
        assert work(edge) <= WORK_CAP < work(edge + 1)
    else:
        # priced at the bits of their coefficients, these are refused now
        assert work(edge) > WORK_CAP
    if previous_edge < edge:
        # c = 10 mod 12 powers phi(-q^2)^-9 by Kronecker products, which
        # slots of the least whole bytes made cheaper: its edge rose past
        # that one, 131489 before them, and the older edge is admitted now
        assert work(previous_edge) <= WORK_CAP
    else:
        # the edge of the price without the per-exponent cost, which named
        # these cases, is refused now
        assert work(previous_edge) > WORK_CAP


def test_dp_price_of_a_huge_weight_is_immediate():
    # a weight past the cap is refused at once: the tree is priced per span,
    # and past 2**53 weights, where every weight still takes a step, unwalked
    for n in (WORK_CAP + 1, 10**12, 10**5000):
        assert _dp_work(10**6, n, True) > WORK_CAP
    assert _dp_work(10**5000, 10**4, False) > WORK_CAP


M61 = 2**61 - 1
# Every engine's request at its edge, as (engine, fixed arguments, the largest
# admitted value of the last one), bisected. Each ran in 1.5-3.7 s, cold, on a
# 2-vCPU x86 host (median of three runs; the tables in CHANGES.md). An
# expansion's edge is priced with the rows the CLI prints. The mod-4 sweep's
# edge, at c <= 10, is set by the memory its forms hold: about 1.0 s and
# 190 MB. The edges that Kronecker products price, c = 10 mod 12, the DP at
# c = 2 and the family sweeps, conj73 at i <= 20 and thm15 at i <= 3, ran in
# 2.23, 1.94, 1.67 and 1.87 s cold (median of three).
WORK_CAP_EDGES = [
    ("expand", (1, None), 103403), ("expand", (1, 4), 4807480), ("expand", (1, 12), 263434),
    ("expand", (1, M61), 163405), ("expand", (10, None), 36834), ("expand", (10, 4), 4434894),
    ("expand", (10, 12), 148224), ("expand", (10, M61), 61249),
    ("dp", ("overcubic", 2), 11145), ("dp", ("overcubic", 1000), 3915),
    ("dp", ("cubic", 10**6), 2634),
    ("chi", (1,), 1267), ("chi", (100,), 426), ("chi", (1000,), 394), ("chi", (3000,), 385),
    ("brute", (4,), 13865), ("brute", (5,), 13689), ("brute", (10,), 93), ("brute", (20,), 16),
    ("brute", (30,), 7), ("thm14", (10,), 2781662), ("conj73", (20,), 3244), ("thm15", (3,), 4100),
]
_EDGE_IDS = ["-".join(map(str, (engine, *args))) for engine, args, _ in WORK_CAP_EDGES]
_DP_EDGES = [row for row in WORK_CAP_EDGES if row[0] == "dp"]


def _request(engine, args, value):
    """An engine's request: the argv of a CLI command, or a call of
    distinct_class_profile, which the CLI does not offer."""
    if engine == "expand":
        c, m = args
        modulus = [] if m is None else ["--modulus", str(m)]
        return ["expand", "--gf", "overcubic", "--c", str(c), "--order", str(value), *modulus]
    if engine == "dp":
        kind, c = args
        return ["count", "--kind", kind, "--c", str(c), "--n", str(value)]
    if engine == "brute":
        return ["count", "--kind", "overcubic", "--c", str(value), "--n", str(args[0]),
                "--engine", "brute"]
    if engine == "thm14":
        return ["verify", "--target", "thm14", "--c-max", str(args[0]), "--n-max", str(value)]
    if engine in ("thm15", "conj73"):
        return ["verify", "--target", engine, "--i-max", str(args[0]), "--n-max", str(value)]
    return lambda: counting_module.distinct_class_profile.__wrapped__(value, args[0])


class _Priced(Exception):
    """Raised in place of the work check, with the price it was given."""


def _price(monkeypatch, request):
    """The price ``request`` gives the one work check, which the CLI and the
    counters call; nothing past the check runs."""
    def record(price, what, advice=""):
        raise _Priced(price)

    for module in (cli_module, counting_module):
        monkeypatch.setattr(module, "_check_work", record)
    with pytest.raises(_Priced) as priced:
        request() if callable(request) else main(request)
    monkeypatch.undo()
    return priced.value.args[0]


@pytest.mark.parametrize("engine,args,edge", WORK_CAP_EDGES, ids=_EDGE_IDS)
def test_work_cap_edges(monkeypatch, engine, args, edge):
    # one cap in one unit: every engine's request reaches the one work check,
    # priced under the cap at its edge and over it one step past
    assert _price(monkeypatch, _request(engine, args, edge)) <= WORK_CAP
    assert _price(monkeypatch, _request(engine, args, edge + 1)) > WORK_CAP


def reference_saddle_minimum(exponent, hi):
    """The golden-section search that evaluated both interior points on
    each of its 60 steps, then the midpoint of the last bracket."""
    lo = 0.0
    shrink = (math.sqrt(5) - 1) / 2
    for _ in range(60):
        t1, t2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        if exponent(t1) < exponent(t2):
            hi = t2
        else:
            lo = t1
    t = (lo + hi) / 2
    return exponent(t), t


@pytest.mark.parametrize("engine,args,edge", WORK_CAP_EDGES, ids=_EDGE_IDS)
def test_saddle_searches_keep_their_minimum_at_each_edge(monkeypatch, engine, args, edge):
    # the search that keeps its surviving point's value evaluates 61 points
    # where the old one evaluated 121, and finds the same minimum at every
    # edge request that prices a count or a coefficient by a saddle point
    searches = []
    real = eta_module._saddle_minimum

    def compared(exponent, hi):
        calls = []

        def counted(t):
            calls.append(t)
            return exponent(t)

        least, t = real(counted, hi)
        assert len(calls) == 61
        old = reference_saddle_minimum(exponent, hi)[0]
        assert least == pytest.approx(old, rel=1e-9, abs=1e-9)
        searches.append(least)
        return least, t

    eta_module._coefficient_bits.cache_clear()
    for module in (eta_module, counting_module):
        monkeypatch.setattr(module, "_saddle_minimum", compared)
    request = _request(engine, args, edge)
    with pytest.MonkeyPatch.context() as inner:
        _price(inner, request)
    eta_module._coefficient_bits.cache_clear()
    if engine == "dp" or engine == "chi" or (engine == "expand" and args[1] is None):
        assert searches


@pytest.mark.parametrize("engine,args,edge", WORK_CAP_EDGES, ids=_EDGE_IDS)
def test_every_work_refusal_has_one_shape(capsys, engine, args, edge):
    # one step past its edge each engine is refused by series._check_work,
    # in one message: what it refuses, the cap, then any advice
    request = _request(engine, args, edge + 1)
    if callable(request):
        with pytest.raises(ValueError) as refused:
            request()
        assert refused.traceback[-1].name == "_check_work"
        message = f"error: {refused.value}\n"
    else:
        message = assert_refused(capsys, *request)
    assert re.fullmatch(r"error: .+ is priced over the work cap: work is capped at "
                        r"1\.5e\+08 coefficient updates, a few seconds(; .+)?\n", message)


@pytest.mark.parametrize("engine,args,edge", _DP_EDGES, ids=[f"{k}-{c}" for _, (k, c), _ in _DP_EDGES])
def test_refused_dp_count_names_an_admitted_expansion(capsys, monkeypatch, engine, args, edge):
    # a DP count refused at its edge names the expand command of the same
    # series where that is admitted; at c = 1000 and 10^6 the expansion, of
    # thousands of passes over Z, is refused too, and none is named
    kind, c = args
    err = assert_refused(capsys, *_request(engine, args, edge + 1))
    named = err.partition("expand the series instead: overcubic ")[2].split()
    expand = ["expand", "--gf", kind, "--c", str(c), "--order", str(edge + 1)]
    if c == 2:
        assert named == expand
        assert _price(monkeypatch, named) <= WORK_CAP
    else:
        assert not named
        assert _price(monkeypatch, expand) > WORK_CAP


def test_count_dp_inconsistency_has_engine_exit_status(capsys, monkeypatch):
    # sigma(2) one too large leaves a remainder at the step n = 2
    sums = counting_module._divisor_sums

    def corrupted(*args):
        sigma = sums(*args)
        sigma[1] += 1
        return sigma

    monkeypatch.setattr(counting_module, "_divisor_sums", corrupted)
    code, out, err = run(capsys, "count", "--kind", "overcubic", "--c", "2", "--n", "6")
    assert code == 3
    assert out == ""
    assert err.startswith("error: colored DP step is not integral")
    assert err.count("\n") == 1


def test_count_engines_agree(capsys):
    for kind, c_args in [
        ("partition", []),
        ("overpartition", []),
        ("cubic", ["--c", "3"]),
        ("overcubic", ["--c", "3"]),
    ]:
        values = []
        for engine in ("dp", "brute"):
            code, record = run_json(
                capsys, "count", "--kind", kind, *c_args, "--n", "9", "--engine", engine
            )
            assert code == 0
            values.append(record["count"])
        assert values[0] == values[1]


def test_count_c_validation(capsys):
    code, _, err = run(capsys, "count", "--kind", "overcubic", "--n", "3")
    assert code == 2
    code, _, err = run(capsys, "count", "--kind", "partition", "--c", "2", "--n", "3")
    assert code == 2
    # domain rules the library owns, under both engines
    for engine in ("dp", "brute"):
        assert "color count" in assert_refused(
            capsys, "count", "--kind", "cubic", "--c", "0", "--n", "3", "--engine", engine
        )
        for kind in ("partition", "overcubic --c 2"):
            for n in ("-1", "-100000"):  # not priced as a DP over |n|
                assert "weight" in assert_refused(
                    capsys, "count", "--kind", *kind.split(), "--n", n, "--engine", engine
                )


@pytest.mark.parametrize("kind,colored", [("partition", "cubic"), ("overpartition", "overcubic")])
def test_one_color_kinds_are_the_colored_kinds_at_c_1(capsys, kind, colored):
    # partition and overpartition are the cubic and overcubic series at c = 1
    _, plain = run_json(capsys, "expand", "--gf", kind, "--order", "25")
    _, at_one = run_json(capsys, "expand", "--gf", colored, "--c", "1", "--order", "25")
    assert plain["rows"] == at_one["rows"]
    for engine in ("dp", "brute"):
        for n in ("0", "1", "9", "17"):
            _, plain = run_json(capsys, "count", "--kind", kind, "--n", n, "--engine", engine)
            _, at_one = run_json(
                capsys, "count", "--kind", colored, "--c", "1", "--n", n, "--engine", engine
            )
            assert plain["count"] == at_one["count"]


# -- verify -------------------------------------------------------------------


def test_verify_thm14_small(capsys):
    code, record = run_json(
        capsys, "verify", "--target", "thm14", "--c-max", "2", "--n-max", "50"
    )
    assert code == 0
    assert record["status"] == "pass"
    (report,) = record["reports"]
    assert report["status"] == "pass"
    assert report["order"] == 50


def test_thm14_is_refused_before_any_expansion(capsys, monkeypatch):
    # past the work cap the mod-4 sweep expands nothing: in n, in c, and at
    # counts far past it, which are priced at once
    def expanding(*args):
        raise AssertionError("expanded a refused sweep")

    monkeypatch.setattr(verify_module, "_expand_side", expanding)
    monkeypatch.setattr(eta_module, "_run_steps", expanding)
    for c_max, n_max in ((10, 2781663), (551083, 2000), (10**400, 5), (10, 10**400), (1, 10**7)):
        err = assert_refused(capsys, "verify", "--target", "thm14", "--c-max", str(c_max),
                             "--n-max", str(n_max))
        assert "mod-4 sweep" in err and "lower --n-max or --c-max" in err


def test_thm14_price_admits_the_frontier_and_prices_its_parts():
    # the CI frontier and the benchmark's size stay admitted; the price is
    # the plan of the side of the two mod-4 forms, each run whole, with the
    # memory of their coefficients, and a price per c and per residue
    # compared
    def work(*args):
        return verify_module._mod4_classification_work(*args)[0]

    assert work(10, 10**6) <= WORK_CAP
    assert work(10, 2000) <= WORK_CAP
    forms = sum(_expansion_work(_colored_quotient(c, True), 2000, 4)[0] for c in (1, 2))
    assert work(10, 2000) == (
        forms + 2 * 2001 * verify_module._MOD4_FORM_COEFFICIENT_PRICE
        + 10 * (verify_module._MOD4_COLOR_PRICE + 2000 * verify_module._MOD4_RESIDUE_PRICE)
    )
    # at c <= 1 the sweep reads one form, and an empty range reads none
    assert work(1, 2000) < work(2, 2000)
    # at order 1 the two forms coincide, and the side builds one series:
    # the second is the first times their empty quotient
    assert work(2, 1) == 74.26
    one_more_c = verify_module._MOD4_COLOR_PRICE + verify_module._MOD4_RESIDUE_PRICE
    assert work(2, 1) == pytest.approx(work(1, 1) + one_more_c)
    assert work(10, 0) == work(10, -5) == 0
    # an explicit order prices the forms at it
    assert work(10, 2000, 3000) > work(10, 2000)


def test_family_sweeps_are_refused_before_any_expansion(capsys, monkeypatch):
    # past the work cap a family sweep expands nothing: in n, in i, and at
    # ranges far past it, which are priced at once
    def expanding(*args):
        raise AssertionError("expanded a refused sweep")

    monkeypatch.setattr(verify_module, "_expand_side", expanding)
    monkeypatch.setattr(eta_module, "_run_steps", expanding)
    for target, i_max, n_max in (("thm15", 3, 6000), ("thm15", 3, 10**5), ("conj73", 20, 3245),
                                 ("conj73", 10**9, 5), ("conj73", 3, 10**12), ("thm15", 10**400, 5)):
        err = assert_refused(capsys, "verify", "--target", target, "--i-max", str(i_max),
                             "--n-max", str(n_max))
        assert f"{target} sweep" in err and "lower --n-max or --i-max" in err


def test_family_price_admits_the_frontier_and_prices_its_parts():
    # the CI frontier and the benchmark's sizes stay admitted; the price is
    # the plan of each side, its reads and residues, and grows with the
    # order, i and n; an empty range reads nothing
    def work(*args):
        return verify_module._families_work(*args)[0]

    proved, conjectured = verify_module.PROVED_FAMILIES, verify_module.CONJECTURED_FAMILIES
    for families, i_max, n_max in ((proved, 3, 2000), (conjectured, 3, 2000), (conjectured, 20, 2000),
                                   (conjectured, 200, 300), (proved, 3, 60), (conjectured, 3, 60)):
        assert work(families, i_max, n_max) <= WORK_CAP
    assert work(proved, 3, 60, 548) > work(proved, 3, 60)
    assert work(conjectured, 21, 300) > work(conjectured, 20, 300)
    assert work(conjectured, 20, 301) > work(conjectured, 20, 300)
    assert work(proved, 0, 100) == work(proved, 3, -1) == 0
    # one side's reads and residues alone: a family of modulus 3 at i <= 1
    family = verify_module.CongruenceFamily(1, 1, 1, 0, 3)
    form = tuple(verify_module._normalized_factors(_colored_quotient(2, True), 10, 3))
    assert work([family], 1, 10) == (
        verify_module._FAMILY_READ_PRICE + 11 * verify_module._FAMILY_RESIDUE_PRICE
        + eta_module._plan_price(eta_module._planned_steps(form, 10, 3, "theta"))
    )


@pytest.mark.parametrize("target", ["thm15", "conj73"])
def test_one_verify_request_plans_its_sweep_once(capsys, monkeypatch, target):
    # the price and the sweep read one plan of the sides: the CLI prices
    # it, then hands it to the sweep, which runs it as it is
    plans = []
    real = verify_module._family_sides

    def planning(*args):
        plans.append(args)
        return real(*args)

    monkeypatch.setattr(verify_module, "_family_sides", planning)
    code, _, _ = run(capsys, "verify", "--target", target, "--i-max", "3", "--n-max", "60")
    assert code == 0
    assert len(plans) == 1


@pytest.mark.parametrize("n_max", [60, 2000])
def test_no_dense_rung_is_built_twice_on_a_side(capsys, monkeypatch, n_max):
    # thm15 at its default order: the bases and the Steps of a side take
    # their dense powers from one dict, so the mod-12 Step phi(-q^2)^-18
    # finds the rungs phi(-q^2)^+-1 that the base phi(-q^2)^-13 built, and
    # at n <= 2000 the mod-3 Steps find the bases' f(n) rungs; every rung
    # of every side is built once
    built, seen, dicts = [], set(), []
    real = eta_module._dense_power

    def spying(step, k, top, m, theta, powers):
        power = real(step, k, top, m, theta, powers)
        dicts.append(powers)  # kept alive, so that no later dict takes its id
        for (n, order, base), rungs in powers.items():
            for j in rungs:
                key = (n, j, order, base)
                if (id(powers), key) not in seen:
                    seen.add((id(powers), key))
                    built.append((m, key))
        return power

    monkeypatch.setattr(eta_module, "_dense_power", spying)
    code, _, _ = run(capsys, "verify", "--target", "thm15", "--i-max", "3", "--n-max", str(n_max))
    assert code == 0
    top = (9 * n_max + 3) // 2
    assert {(12, (1, k, top, True)) for k in (1, -1)} <= set(built)
    assert len(built) == len(set(built))


def test_verify_thm15_small(capsys):
    code, record = run_json(
        capsys, "verify", "--target", "thm15", "--i-max", "1", "--n-max", "10"
    )
    assert code == 0
    assert len(record["reports"]) == 3


def test_verify_conj73_small(capsys):
    code, record = run_json(
        capsys, "verify", "--target", "conj73", "--i-max", "1", "--n-max", "10"
    )
    assert code == 0
    assert len(record["reports"]) == 5
    assert all(r["status"] == "pass" for r in record["reports"])


def test_verify_identity_by_name(capsys):
    code, record = run_json(
        capsys, "verify", "--target", "identity", "--name", "toh", "--order", "120"
    )
    assert code == 0
    assert record["parameters"]["name"] == "toh"


def test_verify_failure_exit_code(capsys):
    code, out, err = run(
        capsys, "verify", "--target", "identity", "--name", "negative-control"
    )
    assert code == 1
    record = json.loads(out)
    assert record["status"] == "fail"
    (report,) = record["reports"]
    assert report["counterexamples"]  # first counterexample included


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "--target", "identity", "--name", "zzz")
    assert code == 2
    assert "unknown identity" in err


def test_verify_identity_requires_name(capsys):
    code, _, err = run(capsys, "verify", "--target", "identity")
    assert code == 2


def test_verify_insufficient_order_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        "verify", "--target", "thm15", "--i-max", "1", "--n-max", "100", "--order", "50",
    )
    assert code == 2
    assert "insufficient" in err


def test_vacuous_verify_reports_order_zero(capsys):
    code, out, _ = run(capsys, "verify", "--target", "thm14", "--c-max", "3", "--n-max", "-5")
    assert code == 0
    record = json.loads(out)
    assert record["parameters"]["order"] == 0
    assert [r["order"] for r in record["reports"]] == [0]
    code, _, err = run(
        capsys, "verify", "--target", "thm14", "--c-max", "3", "--n-max", "-5", "--order", "-5"
    )
    assert code == 2
    assert err == "error: order must be non-negative, got -5\n"


@pytest.mark.parametrize("order", [-1, -3])
@pytest.mark.parametrize("name", sorted(verify_module.IDENTITIES))
def test_identity_refuses_a_negative_order_as_given(capsys, name, order):
    # refused with the order the request names, not one a build derives
    # from it (chan-a2 reads 3n+2, ramanujan-p5 5n+4)
    err = assert_refused(capsys, "verify", "--target", "identity", "--name", name, "--order", str(order))
    assert err == f"error: order must be non-negative, got {order}\n"


def test_empty_i_range_reports_order_zero(capsys):
    # a sweep over no i reads nothing: order 0, as for an empty n range
    for argv in (["--i-max", "0"], ["--n-max", "-1"]):
        code, out, _ = run(capsys, "verify", "--target", "thm15", *argv)
        assert code == 0
        record = json.loads(out)
        assert record["parameters"]["order"] == 0
        assert {r["order"] for r in record["reports"]} == {0}


def test_engine_inconsistency_has_its_own_exit_status(capsys, monkeypatch):
    # make the prime-power route disagree with the direct mod-6 route: the
    # first family reads q^2 at i = 1, n = 0
    real = verify_module._expand_side

    def skewed(ways, modulus):
        for series in real(ways, modulus):
            # the prime-power sides of thm15, which take the Euler factors
            if modulus not in (2, 3, 4):
                yield series
                continue
            coeffs = list(series.coeffs)
            coeffs[2] = (coeffs[2] + 1) % modulus
            yield Series(coeffs, modulus)

    monkeypatch.setattr(verify_module, "_expand_side", skewed)
    code, out, err = run(
        capsys, "verify", "--target", "thm15", "--i-max", "1", "--n-max", "5"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: prime-power decomposition disagrees")
    assert "Traceback" not in err


def test_stepped_inconsistency_has_its_own_exit_status(capsys, monkeypatch):
    # skew only the progressions that a Step derives on the prime-power
    # side: mod 3, the first family's i = 2 reads i = 1 times its Step,
    # and the cross-check against the direct mod-6 route must trip
    real = verify_module._step

    def skewed(progression, step):
        stepped = real(progression, step)
        if step is None or stepped.modulus != 3:
            return stepped
        coeffs = list(stepped.coeffs)
        coeffs[0] = (coeffs[0] + 1) % 3
        return Series(coeffs, 3)

    monkeypatch.setattr(verify_module, "_step", skewed)
    code, out, err = run(
        capsys, "verify", "--target", "thm15", "--i-max", "2", "--n-max", "5"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: prime-power decomposition disagrees")
    assert err.count("\n") == 1


def test_step_off_its_progression_has_its_own_exit_status(capsys, monkeypatch):
    # a Step series with one coefficient off q^s does not pass through the
    # progression; the sweep must say so, not report on it. The runner
    # skews the Steps, which a side runs after the bases its plan names
    real_plan, real_expand = verify_module._side_plan, verify_module._expand_side
    bases = {}

    def planning(forms, order, m, route, later=()):
        ways, price = real_plan(forms, order, m, route, later)
        bases[id(ways)] = (ways, len(forms))  # kept, so that no other list takes their id
        return ways, price

    def skewed(ways, m):
        for k, series in enumerate(real_expand(ways, m)):
            if k < bases[id(ways)][1]:
                yield series
                continue
            coeffs = list(series.coeffs)
            coeffs[1] = (coeffs[1] + 1) % m
            yield Series(coeffs, m)

    monkeypatch.setattr(verify_module, "_side_plan", planning)
    monkeypatch.setattr(verify_module, "_expand_side", skewed)
    code, out, err = run(capsys, "verify", "--target", "thm15")
    assert code == 3
    assert out == ""
    assert re.fullmatch(r"error: the Step .+ has a coefficient off q\^[39]: this is an engine bug\n", err)


def test_verify_bad_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--target", "bogus")
    assert code == 2


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["thm14", "--i-max", "3"], "--i-max"),
        (["thm15", "--c-max", "2"], "--c-max"),
        (["conj73", "--name", "psi"], "--name"),
        (["identity", "--name", "toh", "--n-max", "5"], "--n-max"),
        (["thm14", "--c-max", "2", "--n-max", "5", "--i-max", "7", "--name", "psi"], "--i-max"),
    ],
)
def test_verify_refuses_flags_its_target_does_not_read(capsys, monkeypatch, argv, flag):
    # refused before the library is called: a call would raise TypeError
    for name in ("_verify_mod4", "_verify_families", "check_named_identity"):
        monkeypatch.setattr(cli_module, name, None)
    err = assert_refused(capsys, "verify", "--target", *argv)
    assert err == f"error: {flag} is meaningless with --target {argv[0]}\n"


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    # built on the first call of main, not at import, and kept: a second
    # call builds nothing and prints the same bytes
    built = []
    parser_class = cli_module.argparse.ArgumentParser
    real_init = parser_class.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    argv = ("verify", "--target", "thm14", "--c-max", "3", "--n-max", "40")
    monkeypatch.setattr(parser_class, "__init__", counting)
    cli_module._build_parser.cache_clear()
    try:
        first = run(capsys, *argv)
        once = len(built)
        assert run(capsys, *argv) == first
    finally:
        cli_module._build_parser.cache_clear()
    assert first[0] == 0 and first[1]
    # the parser and its three subcommands' parsers, built once
    assert once == len(built) == 4


@pytest.mark.parametrize(
    "argv,status",
    [
        (["verify", "--target", "identity", "--name", "negative-control"], 1),
        (["count", "--kind", "cubic", "--c", "10", "--n", "30", "--engine", "brute"], 2),
    ],
)
def test_module_exit_status(argv, status):
    # the exit status of a real process, not only the return value of main
    proc = subprocess.run(
        [sys.executable, "-m", "overcubic.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=_src_env(),
    )
    assert proc.returncode == status
    assert proc.stderr.count("error:") == (status == 2)


# -- output formats --------------------------------------------------------------


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_expand_csv_matches_json(capsys):
    args = ("expand", "--gf", "overcubic", "--c", "2", "--order", "8")
    _, record = run_json(capsys, *args)
    code, out, err = run(capsys, *args, "--format", "csv")
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0] == ["n", "coefficient"]
    numeric = [[int(x) for x in row] for row in rows[1:]]
    assert numeric == record["rows"]


@pytest.mark.parametrize(
    "argv",
    [
        ("--gf", "overcubic", "--c", "3", "--order", "300"),
        ("--eta", "f2/f1^2", "--order", "1"),
        ("--gf", "cubic", "--c", "2", "--order", "300", "--modulus", "12"),
        # more rows than one chunk
        ("--gf", "overcubic", "--c", "10", "--order", "9000", "--modulus", "97"),
        # residues, and a modulus in the header, past 4300 digits
        ("--eta", "f1", "--order", "5", "--modulus", "1" + "0" * 5000),
    ],
)
def test_expand_streams_the_record_byte_for_byte(capsys, argv):
    # the rows are written in chunks; the output is still exactly the whole
    # record dumped at once, and its CSV rows those of csv.writer
    code, out, err = run(capsys, "expand", *argv)
    assert (code, err) == (0, "")
    record = _parse_without_digit_limit(json.loads, out)
    assert out == _parse_without_digit_limit(lambda r: json.dumps(r, indent=2), record) + "\n"
    assert [n for n, _ in record["rows"]] == list(range(record["order"] + 1))
    code, out, err = run(capsys, "expand", *argv, "--format", "csv")
    assert (code, err) == (0, "")
    buf = io.StringIO()
    _parse_without_digit_limit(
        csv.writer(buf, lineterminator="\n").writerows, [["n", "coefficient"]] + record["rows"]
    )
    assert out == buf.getvalue()


@pytest.mark.parametrize("values", [(), (1,)])
def test_emit_rows_of_order_zero_and_none(capsys, values):
    # the CLI asks for order >= 1; the writer still matches json.dumps and
    # csv.writer on one row and on none
    record = {"command": "overcubic expand", "order": len(values) - 1}
    rows = [[n, v] for n, v in enumerate(values)]
    _emit_rows(record, values, "json")
    assert capsys.readouterr().out == json.dumps({**record, "rows": rows}, indent=2) + "\n"
    _emit_rows(record, values, "csv")
    assert capsys.readouterr().out == "n,coefficient\n" + "".join(f"{n},{v}\n" for n, v in rows)


def _child_peak_kib(argv):
    """The exit status of the CLI run on ``argv`` in a child process, with
    stdout sent to the null device, and the child's peak resident memory in
    KiB. The child reads its own peak, VmHWM, which starts afresh at exec:
    the ru_maxrss of a forked child carries the test runner's peak over,
    and RUSAGE_CHILDREN is the peak of every child the runner has waited
    for. Where /proc/self/status is missing, ru_maxrss is the fallback (in
    bytes on macOS, KiB elsewhere)."""
    script = (
        "import os, resource, sys\n"
        "from overcubic.cli import main\n"
        "with open(os.devnull, 'w') as sink:\n"
        "    sys.stdout = sink\n"
        "    code = main(sys.argv[1:])\n"
        "sys.stdout = sys.__stdout__\n"
        "try:\n"
        "    with open('/proc/self/status') as status:\n"
        "        peak = next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
        "except OSError:\n"
        "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    peak //= 1024 if sys.platform == 'darwin' else 1\n"
        "print(code, peak)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, timeout=120, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.split())
    return code, peak_kib


def test_expand_at_the_work_bound_streams_its_rows():
    # f1^-40 mod 4 at order 572 507 is priced under the bound, and the
    # expansion needs about 31 MB; holding its 572 508 rows as lists and one
    # JSON string took 238 MB, and formatting them all in one chunk 99 MB.
    code, peak_kib = _child_peak_kib(
        ["expand", "--eta", "f1^-40", "--order", "572507", "--modulus", "4"])
    assert code == 0
    assert peak_kib < 64 * 1024


def test_long_family_sweep_holds_one_side_of_powers():
    # conj73 at i <= 200 reads hundreds of series per side; a side keeps
    # the dense powers it builds only until it is done, so the sweep's peak
    # stays near that of one side: 30 MB on a 2-vCPU x86 host
    code, peak_kib = _child_peak_kib(
        ["verify", "--target", "conj73", "--i-max", "200", "--n-max", "300"])
    assert code == 0
    assert peak_kib < 60 * 1024


def test_count_csv_matches_json(capsys):
    args = ("count", "--kind", "overcubic", "--c", "2", "--n", "6")
    _, record = run_json(capsys, *args)
    code, out, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0] == ["c", "n", "count"]
    assert int(rows[1][2]) == record["count"]


def _parse_without_digit_limit(parse, text):
    """``parse(text)`` with CPython's int <-> str digit limit lifted (Python
    before 3.10.7 has none), so the test reads the long counts itself."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return parse(text)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return parse(text)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "kind,counter",
    [("cubic", counting_module.count_gen_cubic), ("overcubic", counting_module.count_gen_overcubic_dp)],
)
def test_count_prints_counts_over_4300_digits(capsys, kind, counter):
    # at c = 10^100 the count of weight 100 has over 4300 digits, past the
    # default limit of CPython's int -> str conversion
    c = 10**100
    want = counter(c, 100)
    assert want > 10**4300
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    args = ("count", "--kind", kind, "--c", str(c), "--n", "100")
    code, out, err = run(capsys, *args)
    assert (code, err) == (0, "")
    assert _parse_without_digit_limit(json.loads, out)["count"] == want
    code, out, err = run(capsys, *args, "--format", "csv")
    assert (code, err) == (0, "")
    rows = _csv_rows(out)
    assert _parse_without_digit_limit(int, rows[1][2]) == want
    # main restores the limit it lifted
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def _csv_rows_of_record(record):
    """The header and rows of the CSV form of a ``count`` or ``verify``
    record, read back from its JSON form; an absent value is None, which
    csv.writer writes as an empty field."""
    if "count" in record:
        params = record["parameters"]
        return [["c", "n", "count"], [params["c"], params["n"], record["count"]]]
    rows = [_VERIFY_CSV_HEADER]
    for idx, rep in enumerate(record["reports"]):
        first = rep["counterexamples"][0] if rep["counterexamples"] else {}
        rows.append([
            idx, int(rep["status"] == "pass"), int(rep["vacuous"]), rep["order"],
            *(rep["i_range"] or [None, None]), *rep["n_range"], len(rep["counterexamples"]),
            first.get("i"), first.get("n"), first.get("observed"), first.get("expected"),
        ])
    return rows


@pytest.mark.parametrize(
    "argv,status",
    [
        (("count", "--kind", "partition", "--n", "10"), 0),
        (("count", "--kind", "overcubic", "--c", "2", "--n", "6", "--engine", "brute"), 0),
        # a count past 4300 digits
        (("count", "--kind", "cubic", "--c", "1" + "0" * 5000, "--n", "2"), 0),
        (("verify", "--target", "identity", "--name", "toh", "--order", "40"), 0),
        (("verify", "--target", "thm15", "--i-max", "1", "--n-max", "5"), 0),
        (("verify", "--target", "identity", "--name", "negative-control", "--order", "20"), 1),
    ],
)
def test_csv_output_is_that_of_csv_writer(capsys, argv, status):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (status, "")
    record = _parse_without_digit_limit(json.loads, out)
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, err) == (status, "")
    buf = io.StringIO()
    _parse_without_digit_limit(csv.writer(buf, lineterminator="\n").writerows,
                               _csv_rows_of_record(record))
    assert out == buf.getvalue()


def test_verify_csv_matches_json(capsys):
    args = ("verify", "--target", "conj73", "--i-max", "1", "--n-max", "5")
    _, record = run_json(capsys, *args)
    code, out, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    rows = _csv_rows(out)
    header, body = rows[0], rows[1:]
    assert len(body) == len(record["reports"])
    for row, report in zip(body, record["reports"]):
        fields = dict(zip(header, row))
        assert int(fields["passed"]) == (report["status"] == "pass")
        assert int(fields["order"]) == report["order"]
        assert int(fields["n_lo"]) == report["n_range"][0]
        assert int(fields["n_hi"]) == report["n_range"][1]
        assert int(fields["counterexamples"]) == len(report["counterexamples"])


def test_byte_identical_reruns(capsys):
    args = ("verify", "--target", "thm15", "--i-max", "1", "--n-max", "10")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    args = ("expand", "--eta", "f2/f1^2", "--order", "20", "--format", "csv")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
