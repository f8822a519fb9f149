"""Property-based tests (hypothesis) for the number-theory substrate."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primes.crt import CongruenceSystem, solve_congruences, solve_congruences_euler
from repro.primes.euclid import extended_gcd, gcd, lcm, modular_inverse
from repro.primes.primality import is_prime, next_prime
from repro.primes.sieve import primes_first_n
from repro.primes.totient import totient

PRIMES_1K = primes_first_n(1000)


class TestEuclidProperties:
    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
    def test_gcd_matches_math(self, a, b):
        assert gcd(a, b) == math.gcd(a, b)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_bezout(self, a, b):
        g, x, y = extended_gcd(a, b)
        assert a * x + b * y == g == math.gcd(a, b)

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_lcm_matches_math(self, a, b):
        assert lcm(a, b) == math.lcm(a, b)

    @given(st.integers(1, 10**6), st.integers(2, 10**6))
    def test_modular_inverse(self, a, m):
        if math.gcd(a, m) == 1:
            inverse = modular_inverse(a, m)
            assert a * inverse % m == 1


class TestPrimalityProperties:
    @given(st.integers(2, 10**7))
    def test_is_prime_matches_trial_division(self, n):
        brute = all(n % d for d in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == brute

    @given(st.integers(0, 10**6))
    def test_next_prime_is_prime_and_minimal(self, n):
        p = next_prime(n)
        assert is_prime(p) and p > n
        assert not any(is_prime(q) for q in range(n + 1, p))


class TestTotientProperties:
    @given(st.integers(1, 5000))
    def test_totient_counts_coprimes(self, n):
        assert totient(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    @given(st.sampled_from(PRIMES_1K), st.integers(1, 5))
    def test_totient_of_prime_power(self, p, k):
        assert totient(p**k) == p**k - p ** (k - 1)


@st.composite
def coprime_congruences(draw):
    """Random systems with distinct prime moduli (always coprime)."""
    count = draw(st.integers(1, 6))
    moduli = draw(
        st.lists(st.sampled_from(PRIMES_1K), min_size=count, max_size=count, unique=True)
    )
    residues = [draw(st.integers(0, m - 1)) for m in moduli]
    return moduli, residues


class TestCrtProperties:
    @given(coprime_congruences())
    def test_solution_satisfies_all_congruences(self, system):
        moduli, residues = system
        x = solve_congruences(moduli, residues)
        assert all(x % m == r for m, r in zip(moduli, residues))
        product = math.prod(moduli)
        assert 0 <= x < product

    @given(coprime_congruences())
    @settings(max_examples=30)  # the Euler formula is deliberately slow
    def test_euler_formula_agrees(self, system):
        moduli, residues = system
        assert solve_congruences_euler(moduli, residues) == solve_congruences(
            moduli, residues
        )

    @given(coprime_congruences())
    def test_uniqueness_modulo_product(self, system):
        moduli, residues = system
        x = solve_congruences(moduli, residues)
        product = math.prod(moduli)
        # any other solution differs by a multiple of the product
        assert solve_congruences(moduli, [(x + product) % m for m in moduli]) == x

    @given(coprime_congruences(), st.data())
    def test_incremental_append_equals_batch_solve(self, system, data):
        moduli, residues = system
        extra_prime = data.draw(
            st.sampled_from([p for p in PRIMES_1K if p not in moduli])
        )
        extra_residue = data.draw(st.integers(0, extra_prime - 1))
        incremental = CongruenceSystem(moduli, residues)
        incremental.value  # force the cache so append takes the fast path
        incremental.append(extra_prime, extra_residue)
        batch = solve_congruences(
            list(moduli) + [extra_prime], list(residues) + [extra_residue]
        )
        assert incremental.value == batch

    @given(coprime_congruences(), st.data())
    def test_set_residues_consistent(self, system, data):
        moduli, residues = system
        updates = {
            m: data.draw(st.integers(0, m - 1))
            for m in data.draw(st.sets(st.sampled_from(moduli)))
        }
        live = CongruenceSystem(moduli, residues)
        live.set_residues(updates)
        assert live.check()
        for m, r in updates.items():
            assert live.value % m == r


class TestUniformShiftProperties:
    """``shift_residues(k)`` moves the value to ``(value + k) mod P``."""

    @given(coprime_congruences(), st.integers(0, 10**4), st.booleans())
    def test_shifted_value_equals_solve_of_shifted_residues(self, system, k, deferred):
        moduli, residues = system
        live = CongruenceSystem(moduli, residues)
        live.value  # cache it: the shift must maintain, not drop, the value
        if deferred:
            live.begin_deferred()
        live.shift_residues(k)
        shifted = [(r + k) % m for m, r in zip(moduli, residues)]
        assert live.solved
        assert [live.residue(m) for m in moduli] == shifted
        assert live.value == solve_congruences(moduli, shifted)
        assert live.check()
