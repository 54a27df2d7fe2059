"""Tests for Euler products, eta quotients, and theta sums.

The independent oracle for every product expansion is a naive truncated
product computed with plain list arithmetic, with no code shared with the
package.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overcubic.eta as eta_module
from overcubic.counting import _factorize, count_overpartitions, count_partitions_brute
from overcubic.eta import (
    _DIVISION_EXPONENT_PRICE,
    _colored_quotient,
    _expand_normalized,
    _expansion_work,
    _factor_plan,
    _factor_terms,
    _normalized_factors,
    _planned_steps,
    _prime_power_base,
    _theta_rewrite,
    _theta_terms,
    F_MINUS_Q_Q2,
    F_Q3_Q6,
    PHI_SPEC,
    PSI_NEG_SPEC,
    PSI_SPEC,
    EtaQuotient,
    EtaQuotientParseError,
    ThetaSpec,
    chi,
    expand_eta_quotient,
    expand_f,
    gen_cubic_gf,
    gen_overcubic_gf,
    parse_eta_quotient,
    phi,
    psi,
    psi_neg,
    theta_sum,
    toh_rhs,
    ROUTES,
    TOH_TERMS,
)
from overcubic.series import Series, _divide_sparse, _kronecker_price, _slot_width
from overcubic.verify import verify_conjectured_families, verify_proved_families


def naive_euler_power(step, k, order, poly=None):
    """Truncated ``poly * prod_{j>=1} (1 - q^(j*step))^k`` via lists.

    ``poly`` defaults to 1. Each factor ``1 - q^s`` is applied on its own:
    for k >= 0 as a multiply, for k < 0 as the running sum along stride s
    that divides by it.
    """
    poly = [1] + [0] * order if poly is None else list(poly)
    for _ in range(abs(k)):
        j = 1
        while j * step <= order:
            s = j * step
            if k > 0:
                for e in range(order - s, -1, -1):
                    poly[e + s] -= poly[e]
            else:
                for e in range(s, order + 1):
                    poly[e] += poly[e - s]
            j += 1
    return poly


def naive_eta_quotient(factors, order):
    """Truncated ``prod f(n)^k`` over Z, one ``naive_euler_power`` per factor."""
    poly = [1] + [0] * order
    for n, k in factors:
        poly = naive_euler_power(n, k, order, poly)
    return poly


# -- expand_f -----------------------------------------------------------------


def test_expand_f_pentagonal_signs():
    assert expand_f(1, 1, 8).coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0)


@pytest.mark.parametrize(
    "step,k,order",
    [(1, 1, 40), (2, 1, 40), (1, 3, 30), (3, 2, 50), (4, 5, 60), (1, -1, 40), (2, -3, 50)],
)
def test_expand_f_matches_naive_product(step, k, order):
    assert list(expand_f(step, k, order).coeffs) == naive_euler_power(step, k, order)


def test_expand_f_zero_power():
    assert expand_f(5, 0, 6) == Series.one(6)


def test_expand_f_inverse_is_partition_series():
    got = expand_f(1, -1, 10)
    expected = [count_partitions_brute(n) for n in range(11)]
    assert list(got.coeffs) == expected
    assert got.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_expand_f_negative_power_times_positive_is_one():
    order = 32
    prod = expand_f(3, -2, order) * expand_f(3, 2, order)
    assert prod == Series.one(order)


def test_expand_f_substitute_consistency():
    # replacing q -> q^2 in the expansion of f(1) gives f(2)
    order = 40
    assert expand_f(1, 1, order).substitute_power(2) == expand_f(2, 1, order)


def test_expand_f_rejects_bad_arguments():
    with pytest.raises(ValueError):
        expand_f(0, 1, 5)
    with pytest.raises(ValueError):
        expand_f(1, 1, -1)


# -- eta quotients ---------------------------------------------------------------


def test_eta_quotient_normalization():
    e = EtaQuotient([(2, 1), (1, -1), (2, 3), (5, 0), (1, 1)])
    assert e.factors == ((2, 4),)


def test_eta_quotient_rejects_bad_subscript():
    with pytest.raises(ValueError):
        EtaQuotient([(0, 1)])


def test_overpartition_counts():
    got = expand_eta_quotient([(2, 1), (1, -2)], 3)
    assert got.coeffs == (1, 2, 4, 8)


def test_empty_quotient_is_one():
    assert expand_eta_quotient([], 5) == Series.one(5)


def test_cancelling_quotient_is_one():
    assert expand_eta_quotient([(1, 1), (1, -1)], 30) == Series.one(30)


def test_expand_with_modulus_matches_reduction():
    factors = [(4, 2), (1, -2), (2, -3)]
    order = 60
    exact = expand_eta_quotient(factors, order)
    for m in (2, 3, 4, 6, 12):
        assert expand_eta_quotient(factors, order, modulus=m) == exact.reduce_mod(m)


# -- the expansion engine against the naive product --------------------------------

_quotients = st.lists(
    st.tuples(st.integers(1, 12), st.integers(-12, 12)), max_size=4
)


@settings(max_examples=60, deadline=None)
@given(_quotients, st.integers(0, 60))
def test_expansion_matches_naive_product_over_z(factors, order):
    got = expand_eta_quotient(factors, order)
    assert list(got.coeffs) == naive_eta_quotient(factors, order)


@settings(max_examples=120, deadline=None)
@given(_quotients, st.integers(0, 60), st.sampled_from([2, 4, 8, 3, 9, 27, 25, 6, 12]))
def test_expansion_matches_naive_product_mod_m(factors, order, m):
    got = expand_eta_quotient(factors, order, modulus=m)
    assert list(got.coeffs) == [c % m for c in naive_eta_quotient(factors, order)]


@settings(max_examples=120, deadline=None)
@given(_quotients, st.integers(0, 80), st.sampled_from([2, 4, 8, 16, 3, 9, 27, 5, 25, 7, 49]))
def test_reduced_exponents_match_z_expansion(factors, order, pa):
    # under a prime power the exponents are rewritten before expanding
    exact = expand_eta_quotient(factors, order)
    assert expand_eta_quotient(factors, order, modulus=pa) == exact.reduce_mod(pa)


def test_exponent_reduction_mod_4():
    # the c = 10 overlined series f4^9/(f1^2*f2^17) is f4/(f1^2*f2) mod 4:
    # 4 sparse passes in place of 28
    c10 = EtaQuotient([(4, 9), (1, -2), (2, -17)])
    assert _normalized_factors(c10, 100, 4) == [(1, -2), (2, -1), (4, 1)]
    assert _normalized_factors(c10, 100, 12) == [(1, -2), (2, -17), (4, 9)]
    assert _normalized_factors(c10, 100, None) == [(1, -2), (2, -17), (4, 9)]
    # subscripts beyond the order drop out: f(n) = 1 + O(q^n)
    assert _normalized_factors(c10, 3, 4) == [(1, -2), (2, -1)]


@pytest.mark.parametrize("m,k", [(m, k) for m in (8, 9) for k in range(1 - m, m)])
def test_exponent_reduction_never_adds_passes(m, k):
    # mod 8, f1^5 must not become f1^-3*f2^4: 7 passes in place of 5
    factors = _normalized_factors(EtaQuotient([(1, k)]), 60, m)
    assert sum(abs(e) for _, e in factors) <= abs(k)
    assert expand_eta_quotient([(1, k)], 60, modulus=m) == expand_f(1, k, 60).reduce_mod(m)


def test_large_prime_modulus_expands_promptly():
    # 2**61 - 1 is prime: factorizing it by trial division would not finish
    m = 2**61 - 1
    got = expand_eta_quotient([(2, 1), (1, -2)], 30, modulus=m)
    assert got == expand_eta_quotient([(2, 1), (1, -2)], 30).reduce_mod(m)
    # an exponent above m/2 makes normalization ask whether m is a prime
    # power: f1^(-2^61) is f1^-1 * f(m)^-1, and f(m) is 1 at order 30
    got = expand_eta_quotient([(1, -(2**61))], 30, modulus=m)
    assert got == expand_f(1, -1, 30).reduce_mod(m)


def test_prime_power_base_matches_factorization():
    for m in range(2, 5000):
        primes = _factorize(m)
        expected = next(iter(primes)) if len(primes) == 1 else None
        assert _prime_power_base(m) == expected
    # strong pseudoprimes to the bases up to 7 and up to 23, and their powers
    for pseudo in (3215031751, 3825123056546413051):
        assert _prime_power_base(pseudo) is None
        assert _prime_power_base(pseudo**2) is None
    assert _prime_power_base(2**61 - 1) == 2**61 - 1
    assert _prime_power_base(3**40) == 3
    assert _prime_power_base(2**81) == 2
    assert _prime_power_base((2**31 - 1) ** 2) == 2**31 - 1
    assert _prime_power_base(6**20) is None
    # past the deterministic range nothing is decided, so nothing is rewritten
    assert _prime_power_base(2**89 - 1) is None


def test_exponent_reduction_mod_3_chain():
    # c = 29: f4^28/(f1^2*f2^55) mod 3 takes 7 passes in place of 85; the
    # rewrite cascades f6^-18 -> f18^-6 -> f54^-2 -> f54*f162^-1 and
    # f12^9 -> f36^3 -> f108
    c29 = EtaQuotient([(4, 28), (1, -2), (2, -55)])
    assert _normalized_factors(c29, 1000, 3) == [
        (1, 1), (2, -1), (3, -1), (4, 1), (54, 1), (108, 1), (162, -1),
    ]


# -- repeated requests -------------------------------------------------------------

_memo_requests = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 40),
        st.sampled_from([None, 2, 3, 4, 6, 8, 9, 12]),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_quotients, min_size=1, max_size=3), _memo_requests)
def test_memoized_expansion_matches_uncached(quotients, requests):
    # a few quotients requested at several orders and moduli, each twice, so
    # the second finds the dense powers built and a power served under the
    # wrong key would show
    for idx, order, m in requests:
        factors = quotients[idx % len(quotients)]
        key = tuple(_normalized_factors(EtaQuotient(factors), order, m))
        fresh = _expand_normalized(key, order, m, None)
        for _ in range(2):
            assert expand_eta_quotient(factors, order, modulus=m) == fresh


def test_moduli_stay_apart():
    # f2/f1^2 normalizes to the same factors over Z, mod 4 and mod 12: only
    # the modulus tells the requests apart, and each expands under its own
    exact = expand_eta_quotient([(2, 1), (1, -2)], 60)
    mod12 = expand_eta_quotient([(2, 1), (1, -2)], 60, modulus=12)
    mod4 = expand_eta_quotient([(2, 1), (1, -2)], 60, modulus=4)
    assert (exact.modulus, mod12.modulus, mod4.modulus) == (None, 12, 4)
    assert mod4 == mod12.reduce_mod(4) == exact.reduce_mod(4)
    assert gen_overcubic_gf(1, 60, modulus=4) == mod4


# -- the dense power memo ----------------------------------------------------------

_LADDER_MODULI = [3, 4, 6, 8, 9, 12, 2**61 - 1]


def clear_memo():
    eta_module._POWER_MEMO.clear()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 12), st.integers(-8, 8)), min_size=1, max_size=3),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.integers(0, 600),
    st.sampled_from(_LADDER_MODULI),
)
def test_dense_powers_match_cold_and_naive(factors, shifts, order, m):
    # quotients over the same subscripts, with exponents shifted, share steps
    # and the rungs of their ladders; the last one expanded with the memo warm
    # must equal it expanded with the memo cold, and the naive product
    clear_memo()
    for shift in shifts:
        expand_eta_quotient([(n, k + shift) for n, k in factors], order, modulus=m)
    warm = expand_eta_quotient(factors, order, modulus=m)
    clear_memo()
    cold = expand_eta_quotient(factors, order, modulus=m)
    clear_memo()
    assert warm == cold
    assert list(cold.coeffs) == [c % m for c in naive_eta_quotient(factors, order)]


def test_dense_power_ladder_rungs():
    # f1^-13 = (f1^-6)^2 * f1^-1, f1^-6 = (f1^-3)^2, f1^-3 = (f1^-1)^2 * f1^-1
    clear_memo()
    power = eta_module._dense_power(1, -13, 300, 12, False)
    assert list(power.coeffs) == [c % 12 for c in naive_euler_power(1, -13, 300)]
    assert sorted(key[1] for key in eta_module._POWER_MEMO._entries) == [-13, -6, -3, -1, 1]
    # the odd rungs found f1^-1 built; a repeat is one more hit, and
    # f1^-12 = (f1^-6)^2 builds one rung
    assert eta_module._POWER_MEMO.hits == 2
    assert eta_module._dense_power(1, -13, 300, 12, False) is power
    eta_module._dense_power(1, -12, 300, 12, False)
    assert (eta_module._POWER_MEMO.hits, len(eta_module._POWER_MEMO._entries)) == (4, 6)
    clear_memo()


def test_mod12_sweep_leaves_no_power_for_its_prime_power_parts(monkeypatch):
    # the composite side of the mod-12 families powers phi(-q^n) mod 12 and
    # its parts power f(n) mod 3 and mod 4: after the mod-12 series, no
    # request of a part may hit an entry they left
    clear_memo()
    colors = range(2, 36, 3)
    composite = [expand_eta_quotient(_colored_quotient(c, True), 548, 12, "theta") for c in colors]
    mod12 = set(eta_module._POWER_MEMO._entries)
    assert mod12 and {key[3] for key in mod12} == {12}
    hit = []
    real_get = eta_module._POWER_MEMO.get

    def recording_get(key):
        power = real_get(key)
        if power is not None:
            hit.append(key)
        return power

    monkeypatch.setattr(eta_module._POWER_MEMO, "get", recording_get)
    for m in (3, 4):
        for c, whole in zip(colors, composite):
            got = expand_eta_quotient(_colored_quotient(c, True), 548, m, "pentagonal")
            assert got == whole.reduce_mod(m)
    assert hit and not mod12.intersection(hit)
    assert {key[3] for key in hit} == {3, 4}
    clear_memo()


def test_power_memo_holds_no_more_than_its_bound(monkeypatch):
    # a bound of a few powers at order 300 mod 12: after every store the
    # bytes held stay under it and match the entries kept, and a power
    # larger than the whole bound is not kept
    memo = eta_module._PowerMemo(5 * 8 * 301)
    held = []
    real_put = memo.put

    def checked_put(key, series):
        real_put(key, series)
        held.append(memo.held)
        assert memo.held <= memo.limit
        assert memo.held == sum(e[1] for e in memo._entries.values())

    monkeypatch.setattr(memo, "put", checked_put)
    monkeypatch.setattr(eta_module, "_POWER_MEMO", memo)
    for c in range(2, 40):
        got = gen_overcubic_gf(c, 300, 12)
        assert got == gen_overcubic_gf(c, 300).reduce_mod(12)
    assert len(held) > 40 and max(held) > memo.limit - 8 * 301
    memo.clear()
    eta_module._dense_power(1, -3, 2000, 12, False)
    assert memo.held == 0 and not memo._entries


def test_dropped_expansions_are_not_kept_alive():
    # 32 expansions whose results are dropped at once: afterwards the only
    # new series still alive are the dense powers the memo holds
    import gc

    def live_series():
        return {id(obj) for obj in gc.get_objects() if isinstance(obj, Series)}

    gc.collect()
    before = live_series()
    for k in range(1, 33):
        expand_eta_quotient([(2, k), (1, -1)], 2000, modulus=97)
    gc.collect()
    held = {id(entry[0]) for entry in eta_module._POWER_MEMO._entries.values()}
    assert live_series() - before <= held


def test_power_memo_is_shared_safely_between_threads(monkeypatch):
    # more threads than cores expand the same quotients through one small
    # memo that evicts all the time, switching every few microseconds; every
    # result must match the single-threaded one, and the bytes counted must
    # match the entries kept: a lost update would break either
    import sys
    import threading

    memo = eta_module._PowerMemo(20 * 8 * 401)
    monkeypatch.setattr(eta_module, "_POWER_MEMO", memo)
    requests = [(_colored_quotient(c, True), m) for c in range(2, 20) for m in (3, 4, 12)]
    want = [_expand_normalized(
        tuple(_normalized_factors(q, 400, m)), 400, m, None) for q, m in requests]
    failures = []

    def worker(offset):
        try:
            for i in range(len(requests)):
                q, m = requests[(i + offset) % len(requests)]
                key = tuple(_normalized_factors(q, 400, m))
                got = _expand_normalized(key, 400, m, None)
                if got != want[(i + offset) % len(requests)]:
                    failures.append((q, m))
        except Exception as exc:  # reported below, not lost in the thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(7 * j,)) for j in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert memo.held == sum(e[1] for e in memo._entries.values()) <= memo.limit
    assert memo.hits > 0
    memo.clear()


# -- the per-factor plan: routes and prices ---------------------------------------

_ROUTE_MODULI = [None, 2, 4, 6, 8, 12, 97, 2**61 - 1, 10**30 + 57]
_wide_quotients = st.lists(st.tuples(st.integers(1, 12), st.integers(-40, 40)), max_size=4)


def forced_expansion(factors, order, m, route, dense):
    """``expand_eta_quotient`` along the walk ``route`` names, every step
    by sparse passes or by dense powering as ``dense`` says, whichever the
    plan would pick."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eta_module, "_factor_plan", lambda *step: (dense, 0))
        return expand_eta_quotient(factors, order, modulus=m, route=route)


@settings(max_examples=150, deadline=None)
@given(
    _wide_quotients,
    st.integers(0, 60),
    st.sampled_from(_ROUTE_MODULI),
    st.sampled_from(ROUTES),
    st.booleans(),
)
def test_each_route_matches_naive_product(factors, order, m, route, dense):
    # over Z the plan never picks dense powering, but it must still be exact
    want = [c if m is None else c % m for c in naive_eta_quotient(factors, order)]
    assert list(forced_expansion(factors, order, m, route, dense).coeffs) == want


def reference_full_length_expansion(steps, order, m, dense):
    """The expansion loop as first written: ``(n, k, theta)`` steps by
    ascending subscript, each applied at full length, ``order + 1``
    coefficients, by the route ``dense`` names. A step's base is ``f(n)``,
    or ``phi(-q^n)`` when ``theta``."""
    coeffs = [1] + [0] * order
    for i, (n, k, theta) in enumerate(steps):
        terms = _factor_terms(n, order, theta)
        if dense:
            f = [1] + [0] * order
            for t, w in terms:
                f[t] = w
            power = Series(f, m) ** k
            coeffs = list((Series(coeffs, m) * power if i else power).coeffs)
            continue
        apply_pass = eta_module._times_f if k > 0 else _divide_sparse
        for _ in range(abs(k)):
            coeffs = apply_pass(coeffs, terms, m)
    return coeffs


# subscripts that share a factor, multiples of 2, 3 or 6 up to 72, so some
# lie above the order, mixed with f1
_shared_subscript_quotients = st.sampled_from([2, 3, 6]).flatmap(
    lambda d: st.lists(
        st.tuples(st.one_of(st.just(1), st.integers(1, 12).map(lambda j: d * j)),
                  st.integers(-12, 12)),
        max_size=4,
    )
)


@settings(max_examples=150, deadline=None)
@given(
    _shared_subscript_quotients,
    st.integers(0, 60),
    st.sampled_from([None, 4, 12, 97, 2**61 - 1, 10**1000 + 7]),
    st.sampled_from(ROUTES),
    st.booleans(),
)
def test_compressed_walk_matches_full_length_loop(factors, order, m, route, dense):
    # the walk in q^g against the naive product and against the loop that
    # applied every step to order + 1 coefficients, each route forced
    want = [c if m is None else c % m for c in naive_eta_quotient(factors, order)]
    normalized = _normalized_factors(EtaQuotient(factors), order, m)
    if route == "theta":
        steps = _theta_rewrite(normalized, order)
    else:
        steps = [(n, k, False) for n, k in normalized]
    assert reference_full_length_expansion(steps, order, m, dense) == want
    assert list(forced_expansion(factors, order, m, route, dense).coeffs) == want


def test_compressed_walk_steps():
    # f4^9/(f1^2*f2^17) by descending subscript: f4 walks a quarter of the
    # coefficients, f2 half, f1 all of them
    factors = [(1, -2), (2, -17), (4, 9)]
    assert list(eta_module._compressed_walk([(n, k, False) for n, k in factors], 548)) == [
        (4, 1, 9, 137, False), (2, 1, -17, 274, False), (1, 1, -2, 548, False),
    ]
    # its theta walk is 1/(phi(-q^2)^9 * phi(-q)): phi(-q^2) walks half
    assert list(eta_module._compressed_walk(_theta_rewrite(factors, 548), 548)) == [
        (2, 1, -9, 274, True), (1, 1, -1, 548, True),
    ]
    # f6 and f9 share 3: f9 is f3 in q^3, and f6 is f2 in q^3
    assert list(eta_module._compressed_walk([(6, 1, False), (9, -1, False)], 100)) == [
        (9, 1, -1, 11, False), (3, 2, 1, 33, False),
    ]


def test_theta_rewrite():
    # the overlined series f4^(c-1)/(f1^2*f2^(2c-3)) is
    # 1/(phi(-q) * phi(-q^2)^(c-1))
    for c in (1, 2, 3, 10, 35):
        factors = _normalized_factors(_colored_quotient(c, True), 1000, None)
        tail = [(2, 1 - c, True)] if c > 1 else []
        assert _theta_rewrite(factors, 1000) == [(1, -1, True)] + tail
    # an odd exponent stays an Euler factor, and a rewrite cascades: f2^-4
    # is phi(-q^2)^-2 * f4^-2, and f4^-2 is phi(-q^4)^-1 * f8^-1
    assert _theta_rewrite([(1, -1), (2, -4)], 100) == [
        (1, -1, False), (2, -2, True), (4, -1, True), (8, -1, False),
    ]
    # past the order f(2n) is 1, so f3^2 is phi(-q^3) alone
    assert _theta_rewrite([(3, 2)], 5) == [(3, 1, True)]


@pytest.mark.parametrize("m", [None, 4, 12, 97, 2**61 - 1, 10**1000 + 7])
@pytest.mark.parametrize(
    "quotient",
    [_colored_quotient(10, True), _colored_quotient(3, False), EtaQuotient([(1, -40), (3, 7)])],
)
def test_expansion_work_is_the_sum_of_the_plans_run(quotient, m, monkeypatch):
    # the steps the expansion runs, along the walk the plan picks and along
    # each walk named, are priced step by step by the plan, and their sum is
    # the price of the request
    order = 300
    for route in (None, *ROUTES):
        ran = []

        def recording_steps(*args):
            steps = _planned_steps(*args)
            ran.append(steps)
            return steps

        monkeypatch.setattr(eta_module, "_planned_steps", recording_steps)
        expand_eta_quotient(quotient, order, modulus=m, route=route)
        monkeypatch.undo()
        [steps] = ran
        for i, (_, step, k, top, theta, dense, price) in enumerate(steps):
            assert _factor_plan(step, k, top, m, not i, theta) == (dense, price)
        assert steps and _expansion_work(quotient, order, m, route) == sum(s[-1] for s in steps)


@settings(max_examples=150, deadline=None)
@given(
    _wide_quotients,
    st.integers(0, 3000),
    st.sampled_from(_ROUTE_MODULI + [10**1000 + 7]),
)
def test_theta_walk_never_raises_the_price(factors, order, m):
    # the plan runs the cheaper walk, so its price is never above that of
    # the Euler factors alone: a request priced under the CLI's work bound
    # by the pentagonal walk stays under it
    quotient = EtaQuotient(factors)
    pentagonal = _expansion_work(quotient, order, m, "pentagonal")
    theta = _expansion_work(quotient, order, m, "theta")
    assert _expansion_work(quotient, order, m) == min(pentagonal, theta)


def test_plan_prices_the_cheaper_route():
    # over Z only sparse passes are offered, whatever the exponent; a
    # division pass costs 26 updates per exponent on top of one per term,
    # a multiply pass one per term
    assert _DIVISION_EXPONENT_PRICE == 26
    terms = len(_factor_terms(2, 548))
    assert _factor_plan(2, -67, 548, None, True) == (False, 67 * 549 * (terms + 26))
    assert _factor_plan(2, 67, 548, None, True) == (False, 67 * 549 * terms)
    # the dense route's inverting walk runs the division kernel over
    # order // n + 1 exponents and is priced as a division pass
    theta_terms = len(_factor_terms(1, 274, True))
    width = _slot_width((11 * 11 * 275).bit_length())
    products = 6 + 2 - 1 - 1  # bits(34) + popcount(34) - 1, first step
    dense = 3 * 275 + 275 * (theta_terms + 26) + products * _kronecker_price(550, 275, width)
    assert _factor_plan(1, -34, 274, 12, True, True) == (True, dense)
    # a large exponent under a small modulus is powered densely
    assert _factor_plan(2, -67, 548, 12, False)[0]
    # under a 1000-digit modulus the packed slots are wide: the c = 10
    # overlined series takes sparse passes for every factor
    m = 10**1000 + 7
    c10 = _normalized_factors(_colored_quotient(10, True), 2000, m)
    assert not any(_factor_plan(n, k, 2000, m, not i)[0] for i, (n, k) in enumerate(c10))
    for n, k in [(1, -2), (2, -17), (4, 9), (1, 1), (36, -1)]:
        for m in (4, 12, 2**61 - 1):
            sparse_price = abs(k) * 549 * (len(_factor_terms(n, 548)) + 26 * (k < 0))
            later = _factor_plan(n, k, 548, m, False)
            first = _factor_plan(n, k, 548, m, True)
            assert later[1] <= sparse_price and later[0] == (later[1] < sparse_price)
            # the first factor's power needs no multiply into the product
            assert first[1] <= later[1] and (first[0] or not later[0])
    # the colored series takes the theta walk over Z and mod 4 and 12; mod
    # 12 at c = 35, 34 sparse passes of 1/phi(-q^2) would cost more than
    # powering it densely, and one sparse division by phi(-q) follows
    for c, m, dense in [(1, None, [False]), (10, 4, [False, False]), (35, 12, [True, False])]:
        factors = tuple(_normalized_factors(_colored_quotient(c, True), 548, m))
        steps = _planned_steps(factors, 548, m, None)
        assert [(s[4], s[5]) for s in steps] == [(True, d) for d in dense]


def test_phi_terms_match_naive_quotient():
    # phi(-q^n) = f(n)^2/f(2n), with the weights 2*(-1)^j at j^2*n
    for step in range(1, 5):
        naive = naive_eta_quotient([(step, 2), (2 * step, -1)], 300)
        for order in (0, 1, step, 4 * step, 299, 300):
            want = [(e, c) for e, c in enumerate(naive[1 : order + 1], 1) if c]
            assert list(_factor_terms(step, order, True)) == want


def test_each_euler_factor_is_walked_once_per_order(monkeypatch):
    # the proved and conjectured families expand many quotients over a few
    # subscripts at one order; each compressed step (n // g, order // g) of
    # each base, f(n) on the prime-power sides and phi(-q^n) on the
    # composite ones, is walked once
    walks = []
    real_walk = eta_module._theta_terms

    def counting_walk(spec, order):
        walks.append((spec, order))
        return real_walk(spec, order)

    monkeypatch.setattr(eta_module, "_theta_terms", counting_walk)
    _factor_terms.cache_clear()
    try:
        verify_proved_families(3, 60, 548)
        verify_conjectured_families(3, 60, 548)
    finally:
        _factor_terms.cache_clear()
    assert len(walks) == len(set(walks)) == 17
    assert isinstance(_factor_terms(1, 10), tuple)


def test_routes_give_equal_series():
    # one quotient, order and modulus along each walk, and with none named:
    # equal series; a walk that is not one of ROUTES is refused
    got = [
        expand_eta_quotient(_colored_quotient(10, True), 200, 12, route) for route in (*ROUTES, None)
    ]
    assert got[0] == got[1] == got[2]
    with pytest.raises(ValueError):
        expand_eta_quotient(_colored_quotient(10, True), 200, 12, "dense")


# -- grammar ---------------------------------------------------------------------


def test_parse_simple():
    assert parse_eta_quotient("f2/f1^2").factors == ((1, -2), (2, 1))


def test_parse_mixed_notation():
    # /fN^k and *fN^-k both mean division
    a = parse_eta_quotient("f4^1/f1^2*f2^-1")
    b = parse_eta_quotient("f4/f1^2/f2")
    assert a == b
    assert a.factors == ((1, -2), (2, -1), (4, 1))


def test_parse_zero_power():
    assert parse_eta_quotient("f1^0").factors == ()


@pytest.mark.parametrize(
    "text,pos",
    [("", 0), ("g2", 0), ("*f2", 0), ("f2//f1", 2), ("f2^", 2), ("f2 f3", 2), ("f2/x", 2),
     ("f1f2", 2)],
)
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(EtaQuotientParseError) as exc_info:
        parse_eta_quotient(text)
    assert exc_info.value.position == pos
    assert f"position {pos}" in str(exc_info.value)


def test_parse_f0_rejected():
    with pytest.raises(EtaQuotientParseError):
        parse_eta_quotient("f0^2")


# -- theta sums -------------------------------------------------------------------


def test_theta_triangular_exponents():
    got = theta_sum(PSI_SPEC, 10)
    assert got.coeffs == (1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1)


def test_theta_square_exponents():
    got = theta_sum(PHI_SPEC, 9)
    assert got.coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2)


def test_theta_spec_validation():
    with pytest.raises(ValueError):
        ThetaSpec(1, 0, 1, 0)
    with pytest.raises(ValueError):
        ThetaSpec(2, 1, 1, 3)
    with pytest.raises(ValueError):
        ThetaSpec(1, -1, 1, 3)


def test_theta_order_zero():
    assert theta_sum(PSI_SPEC, 0).coeffs == (1,)
    with pytest.raises(ValueError, match="non-negative"):
        theta_sum(PSI_SPEC, -1)


def test_psi_has_no_exponents_two_mod_three():
    # triangular numbers are never congruent to 2 mod 3
    assert psi(30).extract_progression(3, 2).is_zero()


def test_theta_bilateral_signs():
    # f(-q, q^2): exponents (3k^2 - k)/2, sign (-1)^(k(k+1)/2)
    got = theta_sum(F_MINUS_Q_Q2, 7)
    expected = [0] * 8
    for k in range(-3, 4):
        e = (3 * k * k - k) // 2
        if e <= 7:
            expected[e] += (-1) ** ((k * (k + 1) // 2) % 2)
    assert list(got.coeffs) == expected


# -- the theta walker ----------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [PSI_SPEC, PSI_NEG_SPEC, PHI_SPEC, F_MINUS_Q_Q2, F_Q3_Q6, ThetaSpec(1, 1, 1, 0)],
)
@pytest.mark.parametrize("order", [0, 1, 2, 37, 300])
def test_theta_terms_are_the_nonzero_coefficients_of_theta_sum(spec, order):
    coeffs = theta_sum(spec, order).coeffs
    assert _theta_terms(spec, order) == [(e, c) for e, c in enumerate(coeffs) if c]


def test_theta_terms_merge_colliding_exponents():
    # k = 0 and k = -1 of f(q, 1) both land on q^0
    assert _theta_terms(ThetaSpec(1, 1, 1, 0), 3) == [(0, 2), (1, 2), (3, 2)]
    # phi's k and -k share the exponent k^2
    assert _theta_terms(PHI_SPEC, 30) == [(0, 1)] + [(k * k, 2) for k in range(1, 6)]
    # in f(q, -q) they cancel for odd k, and no zero term is kept
    assert _theta_terms(ThetaSpec(1, 1, -1, 1), 40) == [(0, 1), (4, -2), (16, 2), (36, -2)]


@pytest.mark.parametrize("step", range(1, 8))
def test_euler_factor_terms_match_naive_product(step):
    # f(n) = f(-q^n, -q^(2n)); a truncated product is a prefix of a longer
    # one, so one naive product at order 300 serves every smaller order
    naive = naive_euler_power(step, 1, 300)
    spec = ThetaSpec(-1, step, -1, 2 * step)
    for order in range(301):
        terms = _theta_terms(spec, order)
        assert terms[0] == (0, 1)
        assert terms[1:] == [(e, c) for e, c in enumerate(naive[1 : order + 1], 1) if c]


# -- named quotients vs theta sums --------------------------------------------------


@pytest.mark.parametrize(
    "spec,quotient",
    [
        (PSI_SPEC, psi),
        (PSI_NEG_SPEC, psi_neg),
        (PHI_SPEC, phi),
    ],
)
def test_named_forms_agree_with_theta_sums(spec, quotient):
    order = 500
    assert theta_sum(spec, order) == quotient(order)


def test_f_neg_q_q2_product_sum_agreement():
    # the bilateral sum for f(-q, q^2) against its quotient form
    # phi(q^3)/chi(q), compared multiplied through by chi
    order = 500
    lhs = theta_sum(F_MINUS_Q_Q2, order) * chi(order)
    assert lhs == phi(order).substitute_power(3)


def test_psi_neg_is_sign_flip_of_psi():
    order = 120
    flipped = Series(
        [(-1) ** (n % 2) * c for n, c in enumerate(psi(order).coeffs)]
    )
    assert psi_neg(order) == flipped


def test_chi_times_f1_f4_is_f2_squared():
    order = 120
    lhs = chi(order) * (expand_f(1, 1, order) * expand_f(4, 1, order))
    assert lhs == expand_f(2, 2, order)


def test_f_neg_q_q2_identity_small():
    order = 100
    lhs = theta_sum(F_MINUS_Q_Q2, order) * chi(order)
    assert lhs == phi(order).substitute_power(3)


def test_psi_dissection_small():
    order = 90
    rhs = theta_sum(F_Q3_Q6, order) + psi(order).substitute_power(9).shift(1)
    assert psi(order) == rhs


# -- named generating functions ------------------------------------------------------


def test_gen_cubic_c1_is_partition_series():
    order = 30
    assert gen_cubic_gf(1, order) == expand_f(1, -1, order)


def test_gen_cubic_known_value():
    assert gen_cubic_gf(2, 6)[4] == 9


def test_gen_cubic_mod3_progression():
    series = gen_cubic_gf(2, 95)
    for n in range(31):
        assert series[3 * n + 2] % 3 == 0


def test_gen_overcubic_c1_is_overpartition_series():
    order = 40
    got = gen_overcubic_gf(1, order)
    assert got == expand_eta_quotient([(2, 1), (1, -2)], order)
    assert got[3] == 8
    for n in range(order + 1):
        assert got[n] == count_overpartitions(n)


def test_gen_overcubic_constant_term():
    for c in (1, 2, 5, 9):
        assert gen_overcubic_gf(c, 4)[0] == 1


def test_gen_overcubic_modulus_matches_reduction():
    order = 50
    for builder in (gen_overcubic_gf, gen_cubic_gf):
        for c in (1, 2, 3, 5):
            exact = builder(c, order)
            for m in (4, 6):
                assert builder(c, order, modulus=m) == exact.reduce_mod(m)


def test_gf_color_validation():
    with pytest.raises(ValueError):
        gen_cubic_gf(0, 5)
    with pytest.raises(ValueError):
        gen_overcubic_gf(0, 5)


# -- the 3-dissection of f2/(f1*f4) ---------------------------------------------------


def test_toh_constant_term():
    assert toh_rhs(10)[0] == 1


def test_toh_terms_have_disjoint_residue_support():
    order = 120
    for shift_by, term in enumerate(TOH_TERMS):
        expansion = term.expand(order).shift(shift_by)
        for r in range(3):
            piece = expansion.extract_progression(3, r)
            if r != shift_by:
                assert piece.is_zero()
    # in particular removing the residue-0 term leaves nothing at 3n
    total = toh_rhs(order) - TOH_TERMS[0].expand(order)
    assert total.extract_progression(3, 0).is_zero()


def test_toh_identity_small():
    order = 150
    assert toh_rhs(order) == expand_eta_quotient([(2, 1), (1, -1), (4, -1)], order)
