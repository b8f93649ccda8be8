"""Field arithmetic tests.

Oracles come first and are deliberately naive (repeated addition, term-by-term
sums, brute-force polynomial fits); the expected values frozen below were
produced by those oracles, and each test re-derives them before comparing
against the library.
"""

import random

import pytest

from itstore.entropy import SeededEntropy
from itstore.errors import ConfigurationError, KeySupplyError
from itstore.field import (
    Polynomial,
    PrimeField,
    is_probable_prime,
    largest_prime_at_most,
    mod_exp,
    random_polynomial,
    zero_coefficients,
)
from itstore.harness import COMPARE_EXPONENT, COMPARE_GENERAL_Q
from itstore.keynet import KsaSource, NodeSpec
from itstore.renewal import TOY_GROUP
from oracles import bits_drawn, interpolate_at_zero, random_int

# ---------------------------------------------------------------- oracles

def mul_by_repeated_addition(a, b, q):
    acc = 0
    for _ in range(b):
        acc = (acc + a) % q
    return acc


def pow_by_repeated_multiplication(base, exp, q):
    acc = 1 % q
    for _ in range(exp):
        acc = acc * base % q
    return acc


def term_sum_eval(coeffs, x, q):
    """sum c_i * x^i with powers built by repeated multiplication."""
    total = 0
    for i, c in enumerate(coeffs):
        total = (total + c * pow_by_repeated_multiplication(x, i, q)) % q
    return total


def brute_force_fit_at_zero(points, q, degree):
    """Try every coefficient vector of the given degree; return f(0) of fits."""
    hits = []
    coeffs = [0] * (degree + 1)

    def rec(i):
        if i > degree:
            if all(term_sum_eval(coeffs, x, q) == y for x, y in points):
                hits.append(coeffs[0])
            return
        for v in range(q):
            coeffs[i] = v
            rec(i + 1)

    rec(0)
    return hits


# ---------------------------------------------------------------- poly_eval

def test_poly_eval_linear_example():
    # 3 + 2x at x = 4 over F_31; oracle: repeated addition
    q = 31
    expected = (3 + mul_by_repeated_addition(2, 4, q)) % q
    assert expected == 11
    f = PrimeField(q)
    p = Polynomial((3, 2), f)
    assert p.evaluate(4) == 11


def test_poly_eval_zero_polynomial():
    f = PrimeField(31)
    p = Polynomial((0,), f)
    for x in range(31):
        assert p.evaluate(x) == 0


def test_poly_eval_quadratic_example():
    q = 31
    expected = term_sum_eval([5, 2, 1], 3, q)
    assert expected == 20
    f = PrimeField(q)
    assert Polynomial((5, 2, 1), f).evaluate(3) == 20


def test_poly_eval_exhaustive_small_field():
    # every degree-<=2 coefficient vector and every point of F_7
    q = 7
    f = PrimeField(q)
    for c0 in range(q):
        for c1 in range(q):
            for c2 in range(q):
                for x in range(q):
                    got = f.poly_eval_int((c0, c1, c2), x)
                    assert got == term_sum_eval([c0, c1, c2], x, q)


def test_poly_eval_sampled_below_1024():
    q = largest_prime_at_most(1 << 10)
    assert q == 1021
    f = PrimeField(q)
    rng = random.Random(1021)
    for _ in range(2000):
        coeffs = [rng.randrange(q) for _ in range(rng.randrange(1, 6))]
        x = rng.randrange(q)
        assert f.poly_eval_int(coeffs, x) == term_sum_eval(coeffs, x, q)


# ---------------------------------------------------------------- lagrange

def test_lagrange_frozen_example():
    # points of 5 + 2x + x^2 over F_31; the brute-force fit is unique
    q = 31
    points = [(1, 8), (2, 13), (3, 20)]
    for x, y in points:
        assert term_sum_eval([5, 2, 1], x, q) == y
    fits = brute_force_fit_at_zero(points, q, degree=2)
    assert fits == [5]
    assert interpolate_at_zero(points, PrimeField(q)) == 5


def test_lagrange_single_point():
    assert interpolate_at_zero([(1, 17)], PrimeField(31)) == 17


def test_lagrange_zero_polynomial():
    pts = [(x, 0) for x in (1, 2, 3)]
    assert interpolate_at_zero(pts, PrimeField(31)) == 0


def test_lagrange_round_trip_small_and_mersenne():
    # random degree-d polynomial, evaluate at d+1 of the points 1..4,
    # interpolate back the constant; >= 10^3 instances per field
    for q in (31, (1 << 31) - 1):
        f = PrimeField(q)
        rng = random.Random(q)
        for trial in range(1000):
            d = rng.randrange(1, 4)
            coeffs = tuple(rng.randrange(q) for _ in range(d + 1))
            xs = rng.sample([1, 2, 3, 4], d + 1)
            pts = [(x, f.poly_eval_int(coeffs, x)) for x in xs]
            assert interpolate_at_zero(pts, f) == coeffs[0]


def test_zero_coefficient_weights_match_direct_interpolation():
    q = (1 << 31) - 1
    f = PrimeField(q)
    rng = random.Random(7)
    ws = zero_coefficients([1, 3, 4], f)
    for _ in range(200):
        coeffs = tuple(rng.randrange(q) for _ in range(3))
        total = 0
        for w, x in zip(ws, (1, 3, 4)):
            total = f.add(total, f.mul(w, f.poly_eval_int(coeffs, x)))
        assert total == coeffs[0]


# ---------------------------------------------------------------- mod_exp

def test_mod_exp_subgroup_examples():
    assert pow_by_repeated_multiplication(2, 11, 23) == 1
    assert mod_exp(2, 11, 23) == 1
    assert mod_exp(5, 0, 23) == 1
    assert pow_by_repeated_multiplication(2, 26, 23) == 16
    assert mod_exp(2, 26, 23) == 16


# ---------------------------------------------------------------- randomness

def test_random_polynomial_forced_constant():
    f = PrimeField(31)
    src = SeededEntropy(123, "poly")
    p = random_polynomial(2, 0, f, src)
    assert p.degree_bound == 2
    assert p.evaluate(0) == 0
    p2 = random_polynomial(1, 17, f, src)
    assert p2.degree_bound == 1
    assert p2.evaluate(0) == 17


def test_random_polynomial_distinct_draws():
    # disjoint randomness -> coefficient vectors collide with prob q^-degree
    f = PrimeField((1 << 31) - 1)
    src = SeededEntropy(5, "draws")
    seen = set()
    for _ in range(200):
        p = random_polynomial(2, 1, f, src)
        seen.add(p.coeffs)
    assert len(seen) == 200


def test_random_polynomial_exhausted_source():
    f = PrimeField((1 << 31) - 1)
    src = KsaSource(NodeSpec("A", initial_entropy_bits=40), b"tiny")
    with pytest.raises(KeySupplyError):
        random_polynomial(2, 1, f, src)


def test_rejection_sampling_uniform_range():
    f = PrimeField(31)
    src = SeededEntropy(9, "rej")
    counts = [0] * 31
    for _ in range(5000):
        counts[random_int(f, src)] += 1
    assert min(counts) > 0
    # crude uniformity: no value takes more than triple its fair share
    assert max(counts) < 3 * 5000 / 31


# ---------------------------------------------------------------- column kernels

# q just above 2^127: 128-bit draws, about half of them rejected
ABOVE_2_127 = PrimeField((1 << 127) + 29)


@pytest.mark.parametrize("field", [PrimeField.mersenne(127), ABOVE_2_127],
                         ids=["mersenne127", "2^127+29"])
@pytest.mark.parametrize("count", [0, 1, 2, 7, 300])
def test_random_ints_equals_sequential_random_int(field, count):
    one, many = SeededEntropy(7, "draws"), SeededEntropy(7, "draws")
    pool_one = KsaSource(NodeSpec("A"), b"kernel")
    pool_many = KsaSource(NodeSpec("A"), b"kernel")
    assert field.random_ints(many, count) == [random_int(field, one)
                                              for _ in range(count)]
    assert bits_drawn(many) == bits_drawn(one)
    assert field.random_ints(pool_many, count) == [random_int(field, pool_one)
                                                   for _ in range(count)]
    assert pool_many.consumed == pool_one.consumed
    assert pool_many._cursor == pool_one._cursor
    assert pool_many.available == pool_one.available


def test_random_ints_redraws_only_the_shortfall():
    field = ABOVE_2_127
    src = SeededEntropy(7, "draws")
    drawn = field.random_ints(src, 300)
    chunks = bits_drawn(src) // 128
    assert 450 < chunks < 750  # about half of all 128-bit chunks rejected
    stream = SeededEntropy(7, "draws")
    kept = [v for v in (stream.take_bits(128) for _ in range(chunks))
            if v < field.q]
    assert kept == drawn  # exactly the accepted chunks, none beyond the last


def test_random_ints_short_pool_raises_and_consumes_nothing():
    field = PrimeField.mersenne(127)
    pool = KsaSource(NodeSpec("A", initial_entropy_bits=1000), b"kernel")
    with pytest.raises(KeySupplyError):
        field.random_ints(pool, 8)  # 1016 bits, 16 more than the pool holds
    assert (pool.available, pool.consumed, pool._cursor) == (1000, 0, 0)
    assert len(field.random_ints(pool, 7)) == 7
    assert pool.consumed == 7 * 127


@pytest.mark.parametrize("field", [
    TOY_GROUP.share_field(), PrimeField.mersenne(127),
    PrimeField.mersenne(COMPARE_EXPONENT), PrimeField(COMPARE_GENERAL_Q)],
    ids=["toy", "mersenne127", "mersenne2203", "general2203"])
@pytest.mark.parametrize("degree", [0, 1, 2, 4])
def test_eval_columns_matches_polynomial_evaluate(field, degree):
    rng = random.Random(field.q.bit_length() * 10 + degree)
    polys = [Polynomial(tuple(rng.randrange(field.q) for _ in range(degree + 1)),
                        field) for _ in range(25)]
    columns = [[p.coeffs[i] for p in polys] for i in range(degree + 1)]
    for x in (1, 2, 3, 4, 5, 11, 1000):
        assert field.eval_columns(columns, x) == [p.evaluate(x) for p in polys]
    assert field.eval_columns([[] for _ in range(degree + 1)], 3) == []


# ---------------------------------------------------------------- reduction paths

def test_mersenne_and_general_reduction_agree():
    q = (1 << 31) - 1
    f = PrimeField(q)
    assert f.mersenne_exponent == 31
    rng = random.Random(42)
    for _ in range(10_000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert f.mul(a, b) == a * b % q


def test_mersenne_poly_eval_matches_general_path():
    qm = (1 << 31) - 1
    fm = PrimeField(qm)
    fg = PrimeField(qm)
    # force the general Horner path on the second instance
    fg.mersenne_exponent = None
    fg._mask = None
    rng = random.Random(17)
    for _ in range(2000):
        coeffs = tuple(rng.randrange(qm) for _ in range(4))
        x = rng.randrange(qm)
        assert fm.poly_eval_int(coeffs, x) == fg.poly_eval_int(coeffs, x)


def test_canonical_closure():
    for q in (31, (1 << 31) - 1):
        f = PrimeField(q)
        rng = random.Random(q + 1)
        for _ in range(2000):
            a, b = rng.randrange(q), rng.randrange(1, q)
            for r in (f.add(a, b), f.sub(a, b), f.mul(a, b),
                      f.mul(a, f.inv(b)), f.inv(b)):
                assert 0 <= r < q


# ---------------------------------------------------------------- primality

def test_is_probable_prime_known_values():
    assert is_probable_prime(2)
    assert is_probable_prime(31)
    assert is_probable_prime((1 << 31) - 1)
    assert is_probable_prime((1 << 127) - 1)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)      # Carmichael
    assert not is_probable_prime(1 << 31)


PRIMES = (2, 31, (1 << 61) - 1, (1 << 127) - 1, (1 << 127) + 29)
COMPOSITES = (
    561, 41041, 825265,  # Carmichael numbers
    3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
    (1 << 11) - 1,  # 23 * 89
)


def test_memoized_primality_agrees_with_the_plain_test():
    plain = is_probable_prime.__wrapped__
    for n in PRIMES + COMPOSITES:
        assert is_probable_prime(n) == plain(n) == (n in PRIMES), n


def test_prime_field_rejects_composite():
    with pytest.raises(ConfigurationError):
        PrimeField(15)


def test_mersenne_constructor():
    f = PrimeField.mersenne(127)
    assert f.q == (1 << 127) - 1
    assert f.mersenne_exponent == 127
    assert f.block_bits == 126
    assert f.byte_width == 16 and PrimeField.mersenne(31).byte_width == 4


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_largest_prime_at_most():
    # oracle: trial division over the scan range
    for bound, expected in (((1 << 8), 251), ((1 << 4), 13), ((1 << 2), 3)):
        c = bound
        while not trial_division_is_prime(c):
            c -= 1
        assert c == expected
        assert largest_prime_at_most(bound) == expected
    assert largest_prime_at_most(1 << 16) == 65521
    assert trial_division_is_prime(65521)


# ------------------------------------------------------------ refusals


def test_a_field_modulus_below_two_is_refused_as_not_prime():
    for q in (1, 0, -7):
        with pytest.raises(ConfigurationError) as info:
            PrimeField(q)
        assert str(info.value) == "field modulus %d is not prime" % q


def test_the_prime_scan_needs_an_odd_prime_below_its_bound():
    assert largest_prime_at_most(3) == 3
    for n in (2, 1, 0):
        with pytest.raises(ConfigurationError) as info:
            largest_prime_at_most(n)
        assert str(info.value) == "no odd prime <= %d" % n


def test_zero_has_no_inverse():
    f = PrimeField(31)
    for zero in (0, 31, -62):
        with pytest.raises(ZeroDivisionError) as info:
            f.inv(zero)
        assert str(info.value) == "inverse of zero in F_31"


def test_fields_hash_and_print_by_their_modulus():
    assert {PrimeField(31), PrimeField.mersenne(5), PrimeField(13)} == {
        PrimeField(31), PrimeField(13)}
    assert hash(PrimeField(31)) == hash(PrimeField.mersenne(5))
    assert repr(PrimeField.mersenne(5)) == "PrimeField(2^5 - 1)"
    assert repr(PrimeField(13)) == "PrimeField(13)"


def test_a_polynomial_needs_a_constant_term_and_field_coefficients():
    f = PrimeField(13)
    with pytest.raises(ConfigurationError) as info:
        Polynomial((), f)
    assert str(info.value) == "polynomial needs at least the constant term"
    for c in (13, -1):
        with pytest.raises(ConfigurationError) as info:
            Polynomial((1, c), f)
        assert str(info.value) == "coefficient %d out of field range" % c


def test_a_random_polynomial_of_negative_degree_draws_nothing():
    rng = SeededEntropy(b"negative-degree")
    with pytest.raises(ConfigurationError) as info:
        random_polynomial(-1, 0, PrimeField(13), rng)
    assert str(info.value) == "degree must be >= 0"
    assert bits_drawn(rng) == 0
