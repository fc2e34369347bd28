"""Number-theoretic primitives backing the RSA implementation.

Everything here is textbook material implemented from scratch: extended
Euclid, modular inverse, Miller–Rabin primality (deterministic witness sets
for small inputs, random witnesses above), and prime generation.

Prime generation draws every candidate independently from :mod:`secrets`
and wastes as little Miller–Rabin work as it can without weakening the
test:

- each candidate has its top two bits set (FIPS 186-4 B.3.1 asks for
  p, q ≥ √2·2^(k−1)), so the product of two k-bit primes always has
  exactly 2k bits and no prime pair is ever thrown away for a short
  modulus;
- a sieve of a few ``gcd`` calls against products of the odd primes below
  10⁴ rejects about 88% of candidates before any modular exponentiation;
- primes ≡ 1 (mod 65537) are skipped, since they make the RSA public
  exponent non-invertible.

A surviving candidate still goes through the full :func:`is_probable_prime`
test with its default 40 random witnesses.  A 512-bit RSA key costs about
100 Miller–Rabin rounds: 2 × 40 on the primes, about 10 on composites that
pass the sieve.
"""

from __future__ import annotations

import math
import secrets

from repro.errors import CryptoError

# Miller–Rabin is deterministic for n < 3.317e24 with this witness set
# (Sorenson & Webster 2015).
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

# Trial division by small primes rejects most candidates cheaply.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
)

# The RSA public exponent (F4).  A prime p ≡ 1 (mod F4) has F4 | p − 1,
# so F4 would have no inverse modulo φ; random_prime never returns one.
PUBLIC_EXPONENT = 65537

# random_prime sieves candidates above this bound by every odd prime below
# it.  Raising it to 3·10⁴ removes about one composite Miller–Rabin round
# per 256-bit prime but costs more in gcd calls than it saves.
_SIEVE_LIMIT = 10_000


def _sieve_moduli(limit: int) -> tuple[int, ...]:
    """Products of the odd primes below ``limit``, smallest primes first.

    The first product is about 60 bits wide and each next one twice as wide
    as the one before, so the common rejections (factors 3..47) cost one
    short ``gcd`` and a full pass costs eight.
    """
    flags = bytearray([1]) * limit
    for i in range(3, math.isqrt(limit - 1) + 1, 2):
        if flags[i]:
            flags[i * i::2 * i] = bytes(len(range(i * i, limit, 2 * i)))
    moduli, product, width = [], 1, 60
    for p in range(3, limit, 2):
        if not flags[p]:
            continue
        if (product * p).bit_length() > width:
            moduli.append(product)
            product, width = 1, 2 * width
        product *= p
    moduli.append(product)
    return tuple(moduli)


_SIEVE_MODULI = _sieve_moduli(_SIEVE_LIMIT)


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``g = gcd(a, b)`` and ``a*x + b*y = g``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    return old_r, old_s, old_t


def modular_inverse(a: int, modulus: int) -> int:
    """The inverse of ``a`` modulo ``modulus``; raises when none exists."""
    g, x, _ = extended_gcd(a % modulus, modulus)
    if g != 1:
        raise CryptoError(f"{a} has no inverse modulo {modulus} (gcd={g})")
    return x % modulus


def _miller_rabin_round(n: int, witness: int, d: int, r: int) -> bool:
    """One Miller–Rabin round; True means 'probably prime survives'."""
    x = pow(witness, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = pow(x, 2, n)
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller–Rabin primality test.

    Deterministic below ``_DETERMINISTIC_BOUND``; above it, ``rounds``
    random witnesses give an error probability below 4^-rounds.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _DETERMINISTIC_BOUND:
        witnesses: tuple[int, ...] = _DETERMINISTIC_WITNESSES
        return all(
            _miller_rabin_round(n, w % n, d, r) for w in witnesses if w % n
        )
    for _ in range(rounds):
        witness = secrets.randbelow(n - 3) + 2
        if not _miller_rabin_round(n, witness, d, r):
            return False
    return True


def random_prime(bits: int) -> int:
    """A random prime of exactly ``bits`` bits whose top two bits are set.

    The product of two such primes has exactly the sum of their widths.
    The result is never ≡ 1 (mod :data:`PUBLIC_EXPONENT`).
    """
    if bits < 8:
        raise CryptoError("refusing to generate primes below 8 bits")
    top_bits = 3 << (bits - 2)
    while True:
        candidate = secrets.randbits(bits) | top_bits | 1
        # A candidate at or below the limit may be one of the sieve's own
        # primes; is_probable_prime is exact there.
        if candidate > _SIEVE_LIMIT and any(
                math.gcd(candidate % m, m) != 1 for m in _SIEVE_MODULI):
            continue
        if candidate % PUBLIC_EXPONENT == 1:
            continue
        if is_probable_prime(candidate):
            return candidate


def random_prime_pair(bits: int) -> tuple[int, int]:
    """Two distinct primes of ``bits`` bits each, for RSA moduli."""
    p = random_prime(bits)
    while True:
        q = random_prime(bits)
        if q != p:
            return p, q
