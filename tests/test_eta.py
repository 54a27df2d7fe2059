"""Tests for Euler products, eta quotients, and theta sums.

The independent oracle for every product expansion is a naive truncated
product computed with plain list arithmetic, with no code shared with the
package.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overcubic.eta as eta_module
from overcubic.counting import _factorize, count_overpartitions, count_partitions_brute
from overcubic.eta import (
    _DIVISION_EXPONENT_PRICE,
    _PAIR_PRICE,
    _colored_quotient,
    _expand_side,
    _expansion_work,
    _factor_plan,
    _factor_terms,
    _held_after,
    _log_majorant,
    _multiply_passes,
    _normalized_factors,
    _plan_price,
    _planned_steps,
    _prime_power_base,
    _run_steps,
    _side_plan,
    _theta_rewrite,
    _theta_terms,
    _walk,
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
import overcubic.series as series_module
from overcubic.series import (
    WORK_CAP, NonInvertibleError, Series, _divide_sparse, _kronecker_mod, _kronecker_price, _slot_width,
    _update_price,
)
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
    got = expand_eta_quotient(EtaQuotient([(2, 1), (1, -2)]), 3)
    assert got.coeffs == (1, 2, 4, 8)


def test_empty_quotient_is_one():
    assert expand_eta_quotient(EtaQuotient([]), 5) == Series.one(5)


def test_cancelling_quotient_is_one():
    assert expand_eta_quotient(EtaQuotient([(1, 1), (1, -1)]), 30) == Series.one(30)


def test_expand_with_modulus_matches_reduction():
    factors = [(4, 2), (1, -2), (2, -3)]
    order = 60
    exact = expand_eta_quotient(EtaQuotient(factors), order)
    for m in (2, 3, 4, 6, 12):
        assert expand_eta_quotient(EtaQuotient(factors), order, modulus=m) == exact.reduce_mod(m)


# -- the expansion engine against the naive product --------------------------------

_quotients = st.lists(
    st.tuples(st.integers(1, 12), st.integers(-12, 12)), max_size=4
)


@settings(max_examples=60, deadline=None)
@given(_quotients, st.integers(0, 60))
def test_expansion_matches_naive_product_over_z(factors, order):
    got = expand_eta_quotient(EtaQuotient(factors), order)
    assert list(got.coeffs) == naive_eta_quotient(factors, order)


@settings(max_examples=120, deadline=None)
@given(_quotients, st.integers(0, 60), st.sampled_from([2, 4, 8, 3, 9, 27, 25, 6, 12]))
def test_expansion_matches_naive_product_mod_m(factors, order, m):
    got = expand_eta_quotient(EtaQuotient(factors), order, modulus=m)
    assert list(got.coeffs) == [c % m for c in naive_eta_quotient(factors, order)]


@settings(max_examples=120, deadline=None)
@given(_quotients, st.integers(0, 80), st.sampled_from([2, 4, 8, 16, 3, 9, 27, 5, 25, 7, 49]))
def test_reduced_exponents_match_z_expansion(factors, order, pa):
    # under a prime power the exponents are rewritten before expanding
    exact = expand_eta_quotient(EtaQuotient(factors), order)
    assert expand_eta_quotient(EtaQuotient(factors), order, modulus=pa) == exact.reduce_mod(pa)


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
    assert expand_eta_quotient(EtaQuotient([(1, k)]), 60, modulus=m) == expand_f(1, k, 60).reduce_mod(m)


def test_large_prime_modulus_expands_promptly():
    # 2**61 - 1 is prime: factorizing it by trial division would not finish
    m = 2**61 - 1
    got = expand_eta_quotient(EtaQuotient([(2, 1), (1, -2)]), 30, modulus=m)
    assert got == expand_eta_quotient(EtaQuotient([(2, 1), (1, -2)]), 30).reduce_mod(m)
    # an exponent above m/2 makes normalization ask whether m is a prime
    # power: f1^(-2^61) is f1^-1 * f(m)^-1, and f(m) is 1 at order 30
    got = expand_eta_quotient(EtaQuotient([(1, -(2**61))]), 30, modulus=m)
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
    # a few quotients requested at several orders and moduli, each twice:
    # a power that one request left for a later one, under another order or
    # modulus, would show
    for idx, order, m in requests:
        factors = quotients[idx % len(quotients)]
        key = tuple(_normalized_factors(EtaQuotient(factors), order, m))
        fresh = _run_steps(_planned_steps(key, order, m, None), order, m, {})
        for _ in range(2):
            assert expand_eta_quotient(EtaQuotient(factors), order, modulus=m) == fresh


def test_moduli_stay_apart():
    # f2/f1^2 normalizes to the same factors over Z, mod 4 and mod 12: only
    # the modulus tells the requests apart, and each expands under its own
    exact = expand_eta_quotient(EtaQuotient([(2, 1), (1, -2)]), 60)
    mod12 = expand_eta_quotient(EtaQuotient([(2, 1), (1, -2)]), 60, modulus=12)
    mod4 = expand_eta_quotient(EtaQuotient([(2, 1), (1, -2)]), 60, modulus=4)
    assert (exact.modulus, mod12.modulus, mod4.modulus) == (None, 12, 4)
    assert mod4 == mod12.reduce_mod(4) == exact.reduce_mod(4)
    assert gen_overcubic_gf(1, 60, modulus=4) == mod4


# -- the dense power memo of a side ------------------------------------------------

_LADDER_MODULI = [3, 4, 6, 8, 9, 12, 2**61 - 1]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 12), st.integers(-8, 8)), min_size=1, max_size=3),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.integers(0, 600),
    st.sampled_from(_LADDER_MODULI),
    st.sampled_from(ROUTES),
)
def test_dense_powers_match_cold_and_naive(factors, shifts, order, m, route):
    # quotients over the same subscripts, with exponents shifted, share steps
    # and the rungs of their ladders; expanded as one side, the last of them
    # finds the powers the others built, and must equal it expanded cold, on
    # its own, and the naive product
    forms = [
        tuple(_normalized_factors(EtaQuotient([(n, k + shift) for n, k in factors]), order, m))
        for shift in shifts
    ]
    forms.append(tuple(_normalized_factors(EtaQuotient(factors), order, m)))
    warm = list(_expand_side(_side_plan(forms, order, m, route)[0], m))[-1]
    cold = expand_eta_quotient(EtaQuotient(factors), order, modulus=m, route=route)
    assert warm == cold
    assert list(cold.coeffs) == [c % m for c in naive_eta_quotient(factors, order)]


def test_dense_power_ladder_rungs():
    # f1^-13 = (f1^-6)^2 * f1^-1, f1^-6 = (f1^-3)^2, f1^-3 = (f1^-1)^2 * f1^-1;
    # the rungs of one base are kept under its (step, order, base) key
    powers = {}
    power = eta_module._dense_power(1, -13, 300, 12, False, powers)
    assert list(power.coeffs) == [c % 12 for c in naive_euler_power(1, -13, 300)]
    assert list(powers) == [(1, 300, False)]
    rungs = powers[1, 300, False]
    assert sorted(rungs) == [-13, -6, -3, -1, 1]
    # a repeat is served as it is and adds no rung, and f1^-12 = (f1^-6)^2
    # adds one
    assert eta_module._dense_power(1, -13, 300, 12, False, powers) is power
    assert len(rungs) == 5
    eta_module._dense_power(1, -12, 300, 12, False, powers)
    assert sorted(rungs) == [-13, -12, -6, -3, -1, 1]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-40, 40),
    st.sampled_from([None, 2, 3, 4, 12, 2**61 - 1]),
    st.lists(st.integers(-5, 5), min_size=0, max_size=30),
    st.sampled_from([-1, 1]),
    st.integers(1, 4),
    st.booleans(),
)
def test_one_ladder_powers_series_and_dense_steps(k, m, tail, unit, step, theta):
    # Series.__pow__ and _dense_power take their powers from one ladder:
    # a power equals repeated products of the series or of its inverse, a
    # non-unit constant term refuses a negative power, and every rung the
    # dense ladder keeps is the base to that power
    order = len(tail)
    base = Series([unit, *tail], m)
    factor = base if k >= 0 else base.invert()
    want = Series.one(order, m)
    for _ in range(abs(k)):
        want = want * factor
    assert base ** k == want
    if k < 0:
        for c0 in (0, 2) if m is None else [c for c in (0, 2, 3) if math.gcd(c, m) > 1]:
            with pytest.raises(NonInvertibleError):
                Series([c0, *tail], m) ** k
    if k:
        powers = {}
        power = eta_module._dense_power(step, k, order, m, theta, powers)
        [rungs] = powers.values()
        f = rungs[1]
        assert power is rungs[k] and power == f ** k
        assert all(rung == f ** j for j, rung in rungs.items())
        naive = naive_eta_quotient([(step, 2), (2 * step, -1)] if theta else [(step, 1)], order)
        assert list(f.coeffs) == [c if m is None else c % m for c in naive]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 2**70), st.integers(1, 12), st.integers(-1, 1), st.integers(1, 3000))
def test_product_price_packs_the_slots_of_kronecker_mod(m, nbytes, offset, spare):
    # the plan prices a product mod m at the slot width _kronecker_mod packs:
    # at counts where the bound (m-1)^2 * count crosses a byte, and at others
    edge = -(-(1 << (8 * nbytes)) // ((m - 1) ** 2))
    count = edge + offset if 1 <= edge + offset <= 3000 else spare
    widths = {}
    real_pack, real_price = series_module._pack, eta_module._kronecker_price

    def packing(values, width):
        widths.setdefault("packed", set()).add(width)
        return real_pack(values, width)

    def pricing(packed, read, width):
        widths["priced"] = width
        return real_price(packed, read, width)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "_pack", packing)
        mp.setattr(eta_module, "_kronecker_price", pricing)
        _kronecker_mod([m - 1] * count, [m - 1] * count, m)
        eta_module._product_price(count - 1, m)
    bound = ((m - 1) ** 2 * count).bit_length()
    assert widths == {"packed": {widths["priced"]}, "priced": max(1, -(-bound // 8))}


def test_mod12_sweep_leaves_no_power_for_its_prime_power_parts(monkeypatch):
    # the composite side of the mod-12 families powers phi(-q^n) mod 12 and
    # its parts power f(n) mod 3 and mod 4: each side takes its powers from
    # a dict of its own, which serves one modulus and no other side
    calls = []
    real = eta_module._dense_power

    def recording(step, k, top, m, theta, powers):
        calls.append((powers, m))
        return real(step, k, top, m, theta, powers)

    monkeypatch.setattr(eta_module, "_dense_power", recording)
    colors = range(2, 36, 3)
    sides = {}
    for m, route in ((12, "theta"), (3, "pentagonal"), (4, "pentagonal")):
        forms = [tuple(_normalized_factors(_colored_quotient(c, True), 548, m)) for c in colors]
        first = len(calls)
        sides[m] = list(_expand_side(_side_plan(forms, 548, m, route)[0], m))
        # the calls hold every dict, so no two of them share an id
        assert {id(powers) for powers, _ in calls[first:]} == {id(calls[first][0])}
        assert {seen for _, seen in calls[first:]} == {m}
    assert len({id(powers) for powers, _ in calls}) == 3
    for m in (3, 4):
        assert sides[m] == [whole.reduce_mod(m) for whole in sides[12]]


def test_dropped_expansions_are_not_kept_alive():
    # 32 expansions whose results are dropped at once: afterwards no new
    # series is alive, not even a dense power
    import gc

    def live_series():
        return {id(obj) for obj in gc.get_objects() if isinstance(obj, Series)}

    gc.collect()
    before = live_series()
    for k in range(1, 33):
        expand_eta_quotient(EtaQuotient([(2, k), (1, -1)]), 2000, modulus=97)
    gc.collect()
    assert live_series() <= before


def test_sweeps_in_threads_match_single_threaded():
    # more threads than cores run the same family sweeps at once, switching
    # every few microseconds; every report must match the single-threaded
    # one, which a power one thread's side served to another would break
    import sys
    import threading

    sweeps = [(verify_proved_families, 3, 40), (verify_conjectured_families, 3, 40),
              (verify_proved_families, 6, 10)]
    want = [sweep(i_max, n_max) for sweep, i_max, n_max in sweeps]
    failures = []

    def worker(offset):
        try:
            for i in range(2 * len(sweeps)):
                j = (i + offset) % len(sweeps)
                sweep, i_max, n_max = sweeps[j]
                if sweep(i_max, n_max) != want[j]:
                    failures.append(sweeps[j])
        except Exception as exc:  # reported below, not lost in the thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(j,)) for j in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


# -- the per-factor plan: routes and prices ---------------------------------------

_ROUTE_MODULI = [None, 2, 4, 6, 8, 12, 97, 2**61 - 1, 10**30 + 57]
_wide_quotients = st.lists(st.tuples(st.integers(1, 12), st.integers(-40, 40)), max_size=4)


def forced_expansion(factors, order, m, route, dense):
    """``expand_eta_quotient`` along the walk ``route`` names, every step
    by sparse passes or, under a modulus, by dense powering as ``dense``
    says, whichever the plan would pick. Sparse multiply steps run the
    passes term by term that :func:`_multiply_passes` splits off."""

    def forced_plan(n, k, order, m, nz, theta=False, held=frozenset()):
        terms = len(_factor_terms(n, order, theta))
        by_terms, _, after = (0, 0, order + 1) if k < 0 else _multiply_passes(k, nz, order, terms)
        # the dense route multiplies residues: over Z it is never taken
        forced = dense and m is not None
        return forced, 0, 0 if forced else by_terms, after

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eta_module, "_factor_plan", forced_plan)
        return expand_eta_quotient(EtaQuotient(factors), order, modulus=m, route=route)


@settings(max_examples=150, deadline=None)
@given(
    _wide_quotients,
    st.integers(0, 60),
    st.sampled_from(_ROUTE_MODULI),
    st.sampled_from(ROUTES),
    st.booleans(),
)
def test_each_route_matches_naive_product(factors, order, m, route, dense):
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


def test_theta_rewrite_mod_a_power_of_two():
    # mod 2^a each theta exponent is taken to its symmetric remainder mod
    # 2^(a-1), the positive one on a tie, and a step reduced to 0 is dropped;
    # the exponents pushed to 2n and the Euler steps stay as they are
    factors = [(1, -1), (2, -4), (3, 6), (5, 2)]
    over_z = _theta_rewrite(factors, 100)
    assert over_z == [(1, -1, False), (2, -2, True), (3, 3, True), (4, -1, True),
                      (5, 1, True), (6, 3, False), (8, -1, False), (10, 1, False)]
    assert _theta_rewrite(factors, 100, 2) == [(1, -1, False), (6, 3, False), (8, -1, False),
                                               (10, 1, False)]
    assert _theta_rewrite(factors, 100, 4) == [(1, -1, False), (3, 1, True), (4, 1, True),
                                               (5, 1, True), (6, 3, False), (8, -1, False),
                                               (10, 1, False)]
    assert _theta_rewrite(factors, 100, 8) == [(1, -1, False), (2, 2, True), (3, -1, True),
                                               (4, -1, True), (5, 1, True), (6, 3, False),
                                               (8, -1, False), (10, 1, False)]
    assert _theta_rewrite(factors, 100, 64) == over_z
    # no other modulus reduces anything
    for m in (3, 6, 12, 97):
        assert _theta_rewrite(factors, 100, m) == over_z
    # the overlined series is phi(-q) for odd c and phi(-q) * phi(-q^2) for
    # even c mod 4, and 1 mod 2
    for c in range(1, 12):
        factors = _normalized_factors(_colored_quotient(c, True), 1000, 4)
        tail = [(2, 1, True)] if c % 2 == 0 else []
        assert _theta_rewrite(factors, 1000, 4) == [(1, 1, True)] + tail
        mod2 = _normalized_factors(_colored_quotient(c, True), 1000, 2)
        assert _theta_rewrite(mod2, 1000, 2) == []


_even_heavy_quotients = st.lists(
    st.tuples(st.integers(1, 12), st.one_of(st.integers(-20, 20).map(lambda j: 2 * j),
                                            st.integers(-40, 40))),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(_even_heavy_quotients, st.integers(0, 400), st.sampled_from([2, 4, 8, 16, 32, 64]))
def test_theta_walk_mod_a_power_of_two_matches_pentagonal_and_z(factors, order, m):
    # mod 2^a the theta walk drops phi(-q^n)^(2^(a-1)) == 1; the pentagonal
    # walk keeps every Euler factor, and the expansion over Z is reduced only
    # at the end: all three must agree
    theta = expand_eta_quotient(EtaQuotient(factors), order, modulus=m, route="theta")
    assert theta == expand_eta_quotient(EtaQuotient(factors), order, modulus=m, route="pentagonal")
    assert theta == expand_eta_quotient(EtaQuotient(factors), order).reduce_mod(m)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.booleans(),
    st.integers(0, 300),
    st.integers(1, 5),
    st.sampled_from([None, 2, 4, 12, 97, 2**61 - 1]),
    st.lists(st.tuples(st.integers(0, 300), st.integers(-50, 50)), max_size=6),
)
def test_term_by_term_passes_match_slices_and_kronecker(step, theta, order, passes, m, seeds):
    # passes term by term against passes by slices and the Kronecker product
    # by the base's power, from a running product of a few nonzero
    # coefficients; after a pass or two most products are dense, and the
    # term-by-term pass must stay exact there too
    start = [1] + [0] * order
    for e, c in seeds:
        if e <= order:
            start[e] = c if m is None else c % m
    terms = _factor_terms(step, order, theta)
    base = [1] + [0] * order
    for t, w in terms:
        base[t] = w
    by_terms = by_slices = start
    for _ in range(passes):
        by_terms = eta_module._times_terms(by_terms, terms, m)
        by_slices = eta_module._times_f(by_slices, terms, m)
        assert by_terms == by_slices
    assert by_terms == list((Series(start, m) * Series(base, m) ** passes).coeffs)


def test_multiply_step_turns_to_slices_once_dense():
    # f1^5 over Z at order 300: two passes term by term take the product
    # from 1 to a bound of 28^2 > 301 nonzero coefficients, so the other
    # three run by slices; the expansion, running both, is exact
    terms = len(_factor_terms(1, 300))
    assert terms == 27
    assert _multiply_passes(5, 1, 300, terms)[0::2] == (2, 301)
    [step] = _planned_steps(((1, 5),), 300, None, "pentagonal")
    assert step[5:8] == (1, False, 2)
    assert list(expand_eta_quotient(EtaQuotient([(1, 5)]), 300).coeffs) == naive_eta_quotient([(1, 5)], 300)
    # a base with no term inside the order costs nothing and bounds nothing
    assert _multiply_passes(10**30, 1, 5, 0) == (0, 0, 1)


@pytest.mark.parametrize("m", [None, 4, 12, 97, 2**61 - 1, 10**1000 + 7])
@pytest.mark.parametrize(
    "quotient",
    [_colored_quotient(10, True), _colored_quotient(3, False), EtaQuotient([(1, -40), (3, 7)])],
)
def test_expansion_work_is_the_sum_of_the_plans_run(quotient, m, monkeypatch):
    # the steps the expansion runs, along the walk the plan picks and along
    # each walk named, are priced step by step by the plan, and their sum is
    # the price of the request; over Z at the price of an update on the
    # bits that bound the coefficients, the same for either walk. The
    # price comes with its plan, a side of one form: those very steps
    order = 300
    factors = _normalized_factors(quotient, order, m)
    bits = 1 if m is not None else _update_price(_log_majorant(factors, order) / math.log(2))
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
        # each step starts from the bound on nonzero coefficients that the
        # plan of the step before it leaves
        after = 1
        for _, step, k, top, theta, nz, dense, by_terms, price in steps:
            assert nz == after
            *planned, after = _factor_plan(step, k, top, m, nz, theta)
            assert planned == [dense, price, by_terms]
            terms = len(_factor_terms(step, top, theta))
            assert by_terms == (0 if dense or k < 0 else _multiply_passes(k, nz, top, terms)[0])
            assert after == (top + 1 if k < 0 else _multiply_passes(k, nz, top, terms)[2])
        price, ways = _expansion_work(quotient, order, m, route)
        assert steps and price == sum(s[-1] for s in steps) * bits
        assert ways == [("whole", order, steps)]


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
    pentagonal = _expansion_work(quotient, order, m, "pentagonal")[0]
    theta = _expansion_work(quotient, order, m, "theta")[0]
    assert _expansion_work(quotient, order, m)[0] == min(pentagonal, theta)


@pytest.mark.parametrize(
    "factors",
    [[(1, -1)], [(2, 1), (1, -2)], [(4, 9), (1, -2), (2, -17)], [(1, -40)],
     [(1, -2), (3, 2), (7, -3)], [(1, 5), (2, -3)]],
)
def test_majorant_bounds_every_coefficient(factors):
    # every coefficient up to the order, of the quotient and of each product
    # of its first factors, is at most the saddle-point bound on the
    # majorant prod f(n)^-|k|; where that majorant is the series itself the
    # bound is within a few bits
    for order in (0, 1, 10, 300, 2000):
        bound = _log_majorant(factors, order)
        for last in range(1, len(factors) + 1):
            coeffs = expand_eta_quotient(EtaQuotient(factors[:last]), order).coeffs
            assert math.log(max(map(abs, coeffs))) <= bound
    exact = math.log(expand_eta_quotient(EtaQuotient([(1, -40)]), 2000).coeffs[-1])
    assert _log_majorant([(1, -40)], 2000) <= exact + 16 * math.log(2)
    # an exponent past 2^64 is taken at 2^64, and stays in float range
    assert math.isfinite(_log_majorant([(1, -(10**5000))], 10))


def test_expansion_price_of_a_huge_order_is_immediate():
    # past WORK_CAP coefficients the factors' terms are not walked: at order
    # 10^20 the pentagonal terms alone number about 10^10, and nothing is
    # planned
    for m in (None, 4):
        assert _expansion_work(_colored_quotient(2, True), 10**20, m) == (10**20 + 1, None)
    assert _expansion_work(EtaQuotient([(1, -(10**5000))]), 10)[0] > WORK_CAP


def test_plan_prices_the_cheaper_route():
    # over Z only sparse passes are offered, whatever the exponent; a
    # division pass costs 26 updates per exponent on top of one per term,
    # a multiply pass on a dense running product one per term
    assert _DIVISION_EXPONENT_PRICE == 26
    terms = len(_factor_terms(2, 548))
    # a division leaves a dense product, as does a multiply on one
    assert _factor_plan(2, -67, 548, None, 1) == (False, 67 * 549 * (terms + 26), 0, 549)
    assert _factor_plan(2, 67, 548, None, 549) == (False, 67 * 549 * terms, 0, 549)
    # on a running product of 1 the first two passes run term by term, at 3
    # a pair and 1 a coefficient scanned; then it may be dense, and the
    # other 65 passes run by slices
    assert _PAIR_PRICE == 3
    pairs = (3 * terms + 549) + (3 * (terms + 1) * terms + 549)
    assert _multiply_passes(67, 1, 548, terms) == (2, pairs + 65 * 549 * terms, 549)
    assert _factor_plan(2, 67, 548, None, 1) == (False, pairs + 65 * 549 * terms, 2, 549)
    # the dense route's inverting walk runs the division kernel over
    # order // n + 1 exponents and is priced as a division pass
    theta_terms = len(_factor_terms(1, 274, True))
    width = _slot_width((11 * 11 * 275).bit_length())
    products = 6 + 2 - 1 - 1  # bits(34) + popcount(34) - 1, first step
    dense = 3 * 275 + 275 * (theta_terms + 26) + products * _kronecker_price(550, 275, width)
    assert _factor_plan(1, -34, 274, 12, 1, True) == (True, dense, 0, 275)
    # a large exponent under a small modulus is powered densely
    assert _factor_plan(2, -67, 548, 12, 549)[0]
    # under a 1000-digit modulus the packed slots are wide: the c = 10
    # overlined series takes sparse passes for every factor
    m = 10**1000 + 7
    c10 = _normalized_factors(_colored_quotient(10, True), 2000, m)
    nz = [1] + [2001] * (len(c10) - 1)
    assert not any(_factor_plan(n, k, 2000, m, z)[0] for (n, k), z in zip(c10, nz))
    for n, k in [(1, -2), (2, -17), (4, 9), (1, 1), (36, -1)]:
        for m in (4, 12, 2**61 - 1):
            # an update on 61-bit residues costs more than one on 2-4 bits
            update = _update_price((m - 1).bit_length())
            sparse_price = abs(k) * 549 * ((len(_factor_terms(n, 548)) + 26 * (k < 0)) * update)
            later = _factor_plan(n, k, 548, m, 549)
            first = _factor_plan(n, k, 548, m, 1)
            assert later[1] <= sparse_price and later[0] == (later[1] < sparse_price)
            # the first factor's power needs no multiply into the product,
            # and its multiply passes start term by term
            assert first[1] <= later[1]
            if k < 0:
                assert first[0] or not later[0]
    # the colored series takes the theta walk over Z and mod 4, 8 and 12;
    # mod 12 at c = 35, 34 sparse passes of 1/phi(-q^2) would cost more than
    # powering it densely, and one sparse division by phi(-q) follows. Mod
    # 2^a the theta exponents are reduced mod 2^(a-1): mod 4 c = 10 is
    # phi(-q^2) * phi(-q), two passes term by term, mod 8 it is
    # 1/(phi(-q^2) * phi(-q)), and mod 2 it is 1, with no step at all
    for c, m, want in [(1, None, [(-1, False)]), (10, 4, [(1, False), (1, False)]),
                       (10, 8, [(-1, False), (-1, False)]), (10, 2, []),
                       (35, 12, [(-34, True), (-1, False)])]:
        factors = tuple(_normalized_factors(_colored_quotient(c, True), 548, m))
        steps = _planned_steps(factors, 548, m, None)
        assert [(s[2], s[6]) for s in steps] == want
        assert all(s[4] for s in steps)


def cold_factor_plan(n, k, order, m, nz, theta):
    """The plan of a step as a cold ladder, every rung built: the terms of
    ``base^1``, the inverting walk to ``base^-1`` and the powering products;
    the sparse route's passes term by term, and the bound its passes leave
    on the nonzero coefficients, whichever route runs."""
    terms = len(_factor_terms(n, order, theta))
    update = 1 if m is None else _update_price((m - 1).bit_length())
    division = (terms + _DIVISION_EXPONENT_PRICE) * update
    if k > 0:
        by_terms, sparse, after = _multiply_passes(k, nz, order, terms)
        sparse *= update
    else:
        by_terms, sparse, after = 0, min(-k, 2**64) * (order + 1) * division, order + 1
    if m is None:
        return False, sparse, by_terms, after
    walk = (order // n + 1) * division if k < 0 else 0
    products = abs(k).bit_length() + bin(abs(k)).count("1") - 1 - (nz == 1)
    dense = 3 * (order + 1) + walk + products * eta_module._product_price(order, m)
    return (True, dense, 0, after) if dense < sparse else (False, sparse, by_terms, after)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12), st.integers(-40, 40).filter(bool), st.integers(0, 3000),
    st.sampled_from(_ROUTE_MODULI), st.integers(1, 3001), st.booleans(),
)
def test_plan_with_nothing_held_prices_a_cold_ladder(n, k, order, m, nz, theta):
    nz = min(nz, order + 1)
    want = cold_factor_plan(n, k, order, m, nz, theta)
    assert _factor_plan(n, k, order, m, nz, theta) == want
    assert _factor_plan(n, k, order, m, nz, theta, frozenset()) == want


def test_held_rungs_price_a_step_below_its_cold_price(monkeypatch):
    # mod 12 the base c = 14, 1/(phi(-q) * phi(-q^2)^13), powers phi(-q^2)
    # densely and leaves its rungs +-1 in the side's dict; planned after
    # it, phi(-q^2)^-1 = f4/f2^2 costs neither terms nor a walk and turns
    # dense, where cold one sparse division is cheaper. The run takes the
    # planned route: the rung, and no division
    order, m = 548, 12
    base = tuple(_normalized_factors(_colored_quotient(14, True), order, m))
    step = ((2, -2), (4, 1))
    ways, price = _side_plan([base], order, m, "theta", [(step, order)])
    [(_, _, steps), (_, _, plan)] = ways
    assert [way for way, _, _ in ways] == ["whole", "whole"]
    cold = _planned_steps(step, order, m, "theta")
    assert [s[6] for s in cold] == [False] and [s[6] for s in plan] == [True]
    assert _plan_price(plan) == 0 < _plan_price(cold)
    assert price == _plan_price(steps)
    held = {(1, 1, 274, True), (1, -1, 274, True)}
    assert _held_after(steps) == held
    dicts, divisions = [], []
    real = eta_module._dense_power

    def spying(step, k, top, m, theta, powers):
        dicts.append(powers)
        return real(step, k, top, m, theta, powers)

    def dividing(*args):
        divisions.append(args)
        return _divide_sparse(*args)

    monkeypatch.setattr(eta_module, "_dense_power", spying)
    runs = _expand_side(ways, m)
    series = next(runs)
    # the base leaves the rungs +-1 of phi(-q^2) in the side's one dict
    [powers] = {id(powers): powers for powers in dicts}.values()
    assert held <= {(s, j, t, th) for (s, t, th), rungs in powers.items() for j in rungs}
    monkeypatch.setattr(eta_module, "_divide_sparse", dividing)
    got = next(runs)
    assert divisions == []
    monkeypatch.undo()
    assert got == expand_eta_quotient(EtaQuotient(step), order, m)
    assert series == expand_eta_quotient(EtaQuotient(base), order, m, "theta")


def test_phi_terms_match_naive_quotient():
    # phi(-q^n) = f(n)^2/f(2n), with the weights 2*(-1)^j at j^2*n
    for step in range(1, 5):
        naive = naive_eta_quotient([(step, 2), (2 * step, -1)], 300)
        for order in (0, 1, step, 4 * step, 299, 300):
            want = [(e, c) for e, c in enumerate(naive[1 : order + 1], 1) if c]
            assert list(_factor_terms(step, order, True)) == want


def test_each_euler_factor_is_walked_once_per_order(monkeypatch):
    # the proved and conjectured families expand many quotients over a few
    # subscripts, at the sweep's order and their Steps at the least order
    # their progressions read; each compressed step (n // g, order // g) of
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
    assert len(walks) == len(set(walks)) == 16
    assert isinstance(_factor_terms(1, 10), tuple)


_SIDE_MODULI = [2, 3, 4, 6, 8, 9, 12, 27]


@settings(max_examples=120, deadline=None)
@given(
    st.sets(st.integers(1, 60), min_size=1, max_size=6),
    _wide_quotients,
    st.sampled_from(_SIDE_MODULI),
    st.sampled_from(ROUTES),
    st.sampled_from([0, 1, 2, 57, 200, 548]),
    st.sampled_from([None, 0.0, math.inf]),
)
def test_shared_side_matches_each_expansion(colors, extra, m, route, order, product):
    # a side's forms, the colored series times a common extra quotient, are
    # served in their order from one dict of powers and equal each form
    # expanded on its own. The product's price is left to the plan, or set
    # to 0 or past any form, so that each form is served by its whole walk
    # or as the form before it times their quotient
    forms = sorted({
        tuple(_normalized_factors(EtaQuotient(_colored_quotient(c, True).factors + tuple(extra)), order, m))
        for c in colors
    })
    with pytest.MonkeyPatch.context() as mp:
        if product is not None:
            mp.setattr(eta_module, "_product_price", lambda order, m: product)
        ways = _side_plan(forms, order, m, route)[0]
    got = list(_expand_side(ways, m))
    assert got == [expand_eta_quotient(EtaQuotient(form), order, m, route) for form in forms]


def cold_side_price(forms, order, m, route, later):
    """A side's price with every plan priced cold, as if its dict held no
    rung: each form by the cheaper of its whole walk and its quotient by
    the form before it plus one product, then each of ``later``."""
    product = eta_module._product_price(order, m)
    price = 0.0
    for k, form in enumerate(forms):
        cost = _plan_price(_planned_steps(form, order, m, route))
        if k:
            quotient = _normalized_factors(eta_module._quotient(form, forms[k - 1]), order, m)
            by_quotient = _plan_price(_planned_steps(quotient, order, m, route)) + product if quotient else 0
            cost = min(cost, by_quotient)
        price += cost
    return price + sum(_plan_price(_planned_steps(form, top, m, route)) for form, top in later)


@settings(max_examples=80, deadline=None)
@given(
    st.sets(st.integers(1, 60), min_size=1, max_size=6),
    st.sampled_from(_SIDE_MODULI),
    st.sampled_from(ROUTES),
    st.sampled_from([0, 57, 200, 548]),
    st.sampled_from([0, 3, 9, 18]),
)
def test_side_price_never_exceeds_its_cold_price(colors, m, route, order, e):
    # every plan of a side, its bases as well as its Steps, is priced given
    # the rungs the plans before it leave in the dict, which only lower a
    # price; a side of one base, and no Step, keeps its cold price
    forms = sorted({tuple(_normalized_factors(_colored_quotient(c, True), order, m)) for c in colors})
    later = [(tuple(_normalized_factors(EtaQuotient([(2, -2 * e), (4, e)]), order, m)), order)]
    assert _side_plan(forms, order, m, route, later)[1] <= cold_side_price(forms, order, m, route, later)
    assert _side_plan(forms[:1], order, m, route)[1] == cold_side_price(forms[:1], order, m, route, ())


def test_mod12_bases_are_priced_given_the_rungs_before_them():
    # mod 12 the base c = 14, 1/(phi(-q) * phi(-q^2)^13), powers phi(-q^2)
    # densely; the quotients of c = 17 and c = 23 by the base before them,
    # phi(-q^2)^-3 and phi(-q^2)^-6, find its rungs +-1 in the dict, and the
    # side is priced below its cold price with the same series
    order, m = 548, 12
    forms = [tuple(_normalized_factors(_colored_quotient(c, True), order, m)) for c in (14, 17, 23)]
    ways, price = _side_plan(forms, order, m, "theta")
    assert price < cold_side_price(forms, order, m, "theta", ())
    assert list(_expand_side(ways, m)) == [
        expand_eta_quotient(EtaQuotient(form), order, m, "theta") for form in forms
    ]


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
    assert got == expand_eta_quotient(EtaQuotient([(2, 1), (1, -2)]), order)
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
    assert toh_rhs(order) == expand_eta_quotient(EtaQuotient([(2, 1), (1, -1), (4, -1)]), order)
