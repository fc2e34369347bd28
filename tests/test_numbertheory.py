"""Number-theory primitive tests."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto import numbertheory
from repro.crypto.numbertheory import (
    PUBLIC_EXPONENT,
    extended_gcd,
    is_probable_prime,
    modular_inverse,
    random_prime,
    random_prime_pair,
)
from repro.errors import CryptoError

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 101, 7919, 104729]
SMALL_COMPOSITES = [1, 0, 4, 9, 15, 100, 7917, 104730, 561, 41041]  # incl. Carmichael


def trial_division_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


class TestExtendedGcd:
    def test_bezout_identity(self):
        g, x, y = extended_gcd(240, 46)
        assert g == 2 and 240 * x + 46 * y == g

    def test_coprime(self):
        g, _, _ = extended_gcd(17, 31)
        assert g == 1

    def test_zero_cases(self):
        assert extended_gcd(0, 5)[0] == 5
        assert extended_gcd(5, 0)[0] == 5


class TestModularInverse:
    def test_inverse_roundtrip(self):
        inverse = modular_inverse(3, 11)
        assert (3 * inverse) % 11 == 1

    def test_no_inverse_raises(self):
        with pytest.raises(CryptoError):
            modular_inverse(6, 9)

    @given(st.integers(2, 10_000))
    def test_property_inverse_mod_prime(self, value):
        prime = 104729
        inverse = modular_inverse(value, prime)
        assert (value * inverse) % prime == 1


class TestMillerRabin:
    @pytest.mark.parametrize("prime", SMALL_PRIMES)
    def test_primes_accepted(self, prime):
        assert is_probable_prime(prime)

    @pytest.mark.parametrize("composite", SMALL_COMPOSITES)
    def test_composites_rejected(self, composite):
        assert not is_probable_prime(composite)

    def test_large_known_prime(self):
        assert is_probable_prime(2 ** 127 - 1)  # Mersenne

    def test_large_known_composite(self):
        assert not is_probable_prime(2 ** 128 + 1)

    @given(st.integers(2, 1000))
    def test_property_agrees_with_trial_division(self, n):
        assert is_probable_prime(n) == trial_division_prime(n)


class TestPrimeGeneration:
    def test_exact_bit_length(self):
        prime = random_prime(64)
        assert prime.bit_length() == 64
        assert is_probable_prime(prime)

    def test_prime_is_odd(self):
        assert random_prime(32) % 2 == 1

    def test_pair_is_distinct(self):
        p, q = random_prime_pair(48)
        assert p != q and is_probable_prime(p) and is_probable_prime(q)

    def test_tiny_bits_rejected(self):
        with pytest.raises(CryptoError):
            random_prime(4)

    @pytest.mark.parametrize("bits", [8, 16, 64, 256])
    def test_top_two_bits_set(self, bits):
        for _ in range(20):
            prime = random_prime(bits)
            assert 3 << (bits - 2) <= prime < 1 << bits

    def test_product_of_two_primes_has_full_width(self):
        for _ in range(20):
            p, q = random_prime_pair(64)
            assert (p * q).bit_length() == 128

    @pytest.mark.parametrize("bits", range(8, 21))
    def test_agrees_with_trial_division(self, bits):
        # Sizes 8..13 lie at or below the sieve limit, where a prime may be
        # one of the sieve's own factors; larger sizes go through the sieve.
        for _ in range(30):
            prime = random_prime(bits)
            assert trial_division_prime(prime)
            assert prime % PUBLIC_EXPONENT != 1

    def test_every_small_prime_is_reachable(self):
        # The 8-bit primes with the top two bits set: none may be sieved out.
        expected = {n for n in range(192, 256) if trial_division_prime(n)}
        seen = set()
        for _ in range(2000):
            seen.add(random_prime(8))
            if seen == expected:
                break
        assert seen == expected

    def test_sieve_keeps_primes_just_above_its_limit(self):
        limit = numbertheory._SIEVE_LIMIT
        primes = [n for n in range(limit + 1, limit + 2000)
                  if trial_division_prime(n)]
        for prime in primes:
            assert all(prime % m for m in numbertheory._SIEVE_MODULI)

    def test_skips_primes_congruent_to_one_mod_public_exponent(self, monkeypatch):
        # Feed a 20-bit prime p ≡ 1 (mod 65537) as the first draw.
        congruent = next(n for n in range(1, 1 << 20, PUBLIC_EXPONENT)
                         if n >= 3 << 18 and trial_division_prime(n))
        other = next(n for n in range(3 << 18 | 1, 1 << 20, 2)
                     if trial_division_prime(n))
        draws = iter([congruent, other])
        monkeypatch.setattr(numbertheory.secrets, "randbits",
                            lambda bits: next(draws))
        assert random_prime(20) == other

    def test_returned_prime_passed_full_miller_rabin(self, monkeypatch):
        tested = []
        real_round = numbertheory._miller_rabin_round

        def counting_round(n, witness, d, r):
            tested.append(n)
            return real_round(n, witness, d, r)

        monkeypatch.setattr(numbertheory, "_miller_rabin_round", counting_round)
        prime = random_prime(256)
        assert tested.count(prime) >= 40
