"""Prime-field arithmetic for the sharing and MAC layers.

Provides:

  PrimeField      -- field configuration plus int-level modular ops, and
                     the column kernels random_ints and eval_columns
  Polynomial      -- coefficient vector (constant term first) over a field
  random_polynomial, zero_coefficients, mod_exp
  is_probable_prime, largest_prime_at_most

Elements are plain ints in [0, q); zero_coefficients holds the one
Lagrange-at-zero implementation.

On moduli of the form 2^m - 1, `mul` reduces by folding ((x & q) +
(x >> m), congruence-preserving for any x), which is measurably faster
than `%` in CPython; everything else uses plain `%`. Both paths must
agree bit for bit, which the test suite checks on random inputs.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigurationError

__all__ = [
    "PrimeField",
    "Polynomial",
    "random_polynomial",
    "zero_coefficients",
    "mod_exp",
    "is_probable_prime",
    "largest_prime_at_most",
]

# Miller-Rabin round count: error probability < 4^-64 = 2^-128.
_MR_ROUNDS = 64


@functools.lru_cache(maxsize=256)
def is_probable_prime(n: int, rounds: int = _MR_ROUNDS) -> bool:
    """Miller-Rabin primality test with pseudorandom witnesses.

    Witnesses are drawn from a PRNG seeded by ``n`` so repeated runs agree.
    With the default round count the error probability is below 2^-128.
    The answer is a pure function of (n, rounds), so it is memoized: each
    modulus a process uses is tested once, however many fields and groups
    are built on it.
    """
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    for p in small:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(n % (1 << 64) ^ 0x9E3779B97F4A7C15)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def largest_prime_at_most(n: int) -> int:
    """Largest odd prime <= n, by downward scan over the odd numbers; the
    scan ends by 3 at the latest, so n must be at least 3."""
    if n < 3:
        raise ConfigurationError("no odd prime <= %d" % n)
    c = n if n % 2 else n - 1
    while not is_probable_prime(c):
        c -= 2
    return c


def mod_exp(base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus via square-and-multiply.

    Delegates to the built-in three-argument pow, which is the same
    left-to-right binary ladder in C. Every caller passes a validated
    group's p and a non-negative exponent reduced mod its q.
    """
    return pow(base, exponent, modulus)


class PrimeField:
    """A prime field F_q with int-level arithmetic helpers.

    The constructor verifies primality with is_probable_prime (error
    < 4^-64 = 2^-128); the test is memoized, so a modulus is tested once
    per process, not once per field.

    Attributes:
        q: the modulus.
        mersenne_exponent: m if q == 2^m - 1, else None.
        block_bits: how many message bits fit one field element with room
            to spare (bit_length - 1), used by the block-splitting layers.
        byte_width: serialized size of one element, big-endian.
    """

    __slots__ = ("q", "mersenne_exponent", "block_bits", "byte_width", "_mask")

    def __init__(self, q: int):
        if not is_probable_prime(q):
            raise ConfigurationError("field modulus %d is not prime" % q)
        self.q = q
        m = q.bit_length()
        self.mersenne_exponent = m if q == (1 << m) - 1 else None
        self.block_bits = max(m - 1, 1)
        self.byte_width = (m + 7) // 8
        self._mask = q if self.mersenne_exponent else None

    @classmethod
    def mersenne(cls, exponent: int) -> "PrimeField":
        return cls((1 << exponent) - 1)

    # -- int-level ops (hot paths work on plain ints) --

    def add(self, a: int, b: int) -> int:
        s = a + b
        return s - self.q if s >= self.q else s

    def sub(self, a: int, b: int) -> int:
        d = a - b
        return d + self.q if d < 0 else d

    def mul(self, a: int, b: int) -> int:
        if self._mask is not None:
            # one fold of a product of canonical operands lands below 2q
            q = self._mask
            t = a * b
            t = (t & q) + (t >> self.mersenne_exponent)
            return t - q if t >= q else t
        return a * b % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero in F_%d" % self.q)
        return pow(a, -1, self.q)

    def poly_eval_int(self, coeffs: Sequence[int], x: int) -> int:
        """Horner evaluation of sum coeffs[i] * x^i at x, canonical result;
        at holder indices, the only points used, `%` beats folding."""
        q = self.q
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % q
        return acc

    def random_ints(self, randomness, count: int) -> list:
        """count uniform elements of [0, q) by rejection sampling from a
        bit source, which must provide take_bits(n) -> int: the values and
        the bits of count draws, one after another, of n = bit_length(q)
        bits each, every draw >= q dropped and drawn again. For Mersenne
        moduli the only rejected draw is q itself; in general the
        acceptance rate is q / 2^n >= 1/2.

        Each pass draws the missing elements' n bits each with one
        take_bits call and cuts them into n-bit chunks, each read from a
        short slice of one byte string. Chunks >= q are dropped in order
        and only the shortfall is drawn again, which is sequential
        rejection sampling. A pass the source cannot supply raises (a
        KsaSource's KeySupplyError) before any bit of that pass is taken.
        """
        q = self.q
        n = q.bit_length()
        mask = (1 << n) - 1
        from_bytes = int.from_bytes
        out = []
        while len(out) < count:
            nbits = (count - len(out)) * n
            nbytes = (nbits + 7) // 8
            drawn = randomness.take_bits(nbits)
            raw = (drawn << (nbytes * 8 - nbits)).to_bytes(nbytes, "big")
            # the chunk ending at stream bit e spans bytes (e-n)//8 .. (e+7)//8
            out += [v for e in range(n, nbits + 1, n)
                    if (v := from_bytes(raw[(e - n) >> 3:(e + 7) >> 3], "big")
                        >> (-e & 7) & mask) < q]
        return out

    def eval_columns(self, columns: Sequence[Sequence[int]], x: int) -> list:
        """Many polynomials at one point: [sum_i columns[i][k] * x^i mod q
        for every k], where columns[i] lists the degree-i coefficients of
        all of them, constant column first.

        Horner's rule runs over whole columns and reduces each result once
        at the end, so it suits small x such as holder indices: the
        unreduced value of a degree-d polynomial is below q * (x+1)^d.
        """
        q = self.q
        if len(columns) == 1:
            return [c % q for c in columns[0]]
        acc = columns[-1]
        for col in columns[-2:0:-1]:
            acc = [a * x + c for a, c in zip(acc, col)]
        return [(a * x + c) % q for a, c in zip(acc, columns[0])]

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        if self.mersenne_exponent:
            return "PrimeField(2^%d - 1)" % self.mersenne_exponent
        return "PrimeField(%d)" % self.q


@dataclass(frozen=True)
class Polynomial:
    """Polynomial over a PrimeField, coefficients constant term first.

    degree_bound is the declared bound; trailing zero coefficients are kept
    so the declared bound is visible (sharing polynomials state their degree
    up front even when a random leading coefficient happens to be zero).
    """

    coeffs: tuple
    field: PrimeField

    def __post_init__(self):
        if not self.coeffs:
            raise ConfigurationError("polynomial needs at least the constant term")
        for c in self.coeffs:
            if not (0 <= c < self.field.q):
                raise ConfigurationError("coefficient %r out of field range" % (c,))

    @property
    def degree_bound(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x: int) -> int:
        return self.field.poly_eval_int(self.coeffs, x)


def random_polynomial(degree: int, constant: int, field: PrimeField,
                      randomness) -> Polynomial:
    """Fresh polynomial over field of declared degree with the given
    constant term, which must already lie in [0, q).

    The degree non-constant coefficients are uniform (so the effective
    degree may be lower; the declared bound is what matters to callers),
    drawn with one random_ints call. Raises KeySupplyError if the
    randomness source cannot supply them.
    """
    if degree < 0:
        raise ConfigurationError("degree must be >= 0")
    return Polynomial((constant, *field.random_ints(randomness, degree)),
                      field)


def zero_coefficients(indices: Sequence[int], field: PrimeField) -> list:
    """Lagrange-at-zero weights for the given x coordinates, distinct and
    nonzero, as spss.check_subset makes a subset's.

    Returns c_i with f(0) = sum c_i * y_i; lets hot loops interpolate many
    polynomials over the same index set without re-deriving the weights.
    """
    xs = list(indices)
    out = []
    for i, xi in enumerate(xs):
        num = 1
        den = 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = field.mul(num, xj)
            den = field.mul(den, field.sub(xj, xi))
        out.append(field.mul(num, field.inv(den)))
    return out

