import math

import pytest

from multiqf import classical as cl
from multiqf.errors import ParameterError


class TestBestTwoUser:
    def test_reference_point(self):
        # ceil(log(1e-5)/log(3/4)) = ceil(40.02) = 41 repetitions
        assert cl.best_two_user(1e6, 1e-5) == pytest.approx(82000.0)

    def test_unit_repetition(self):
        assert cl.best_two_user(100, 0.75) == pytest.approx(2 * 10.0)

    def test_sqrt_scaling(self):
        assert cl.best_two_user(4e6, 1e-5) == pytest.approx(2 * cl.best_two_user(1e6, 1e-5))


class TestBestKUser:
    def test_two_user_label_term(self):
        # 3N / ceil(3N/2) <= 2, so the label term is always 4 bits
        reps = math.ceil(math.log(1e-5) / math.log(1 - (1 - math.exp(-0.5)) / 9))
        for n in (1, 2, 3, 10, 101, 4096):
            block = -(-3 * n // 2)
            expect = reps * (8 * math.sqrt(2 * block) + 4)
            assert cl.best_k_user(2, n, 1e-5) == pytest.approx(expect)

    def test_repetition_factor(self):
        reps = math.ceil(math.log(1e-5) / math.log(1 - (1 - math.exp(-0.5)) / 9))
        assert reps == 258
        got = cl.best_k_user(3, 300, 1e-5)
        assert got % reps == pytest.approx(0.0, abs=1e-6) or got / reps > 0

    def test_decreasing_in_k_up_to_label_ripples(self):
        reps = math.ceil(math.log(1e-5) / math.log(1 - (1 - math.exp(-0.5)) / 9))
        costs = [cl.best_k_user(k, 10**6, 1e-5) for k in range(2, 65)]
        for a, b in zip(costs, costs[1:]):
            assert b <= a + 4 * reps + 1e-9


class TestClassicalLimit:
    def test_reference_point(self):
        expect = (1 - 2 * math.sqrt(1e-5)) * 1000 / (2 * math.sqrt(2 * math.log(2))) - 0.5
        got = cl.classical_limit(2, 1e6, 1e-5)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(421.47, abs=0.01)

    def test_boundary_validity(self):
        with pytest.raises(ParameterError):
            cl.classical_limit(2, 1e6, 0.25)
        # just inside the domain the sqrt(N) coefficient collapses
        assert cl.classical_limit(2, 1e6, 0.2499999999) < 1.0

    def test_below_best_known_on_grid(self):
        for k in (2, 3, 5, 10, 30, 100):
            for n in (1e4, 1e6, 1e8, 1e10, 1e12):
                assert cl.classical_limit(k, n, 1e-5) < cl.best_k_user(k, n, 1e-5)

    def test_sqrt_scaling_ratio(self):
        r = cl.classical_limit(4, 4e10, 1e-5) / cl.classical_limit(4, 1e10, 1e-5)
        assert r == pytest.approx(2.0, rel=0.01)


class TestClaimC1:
    def test_holds_above_limit(self):
        n = 1e6
        m = cl.classical_limit(2, n, 1e-5) * 1.1
        assert cl.claim_c1_check(n, n, m, m, 1e-5)

    def test_fails_at_zero(self):
        assert not cl.claim_c1_check(1, 1, 0, 0, 1e-5)

    def test_monotone_in_mb(self):
        n = 1e6
        m = cl.classical_limit(2, n, 1e-5) * 1.1
        assert cl.claim_c1_check(n, n, m, 10 * m, 1e-5)

    def test_derivation_consistency(self):
        # below ~sqrt of the pair bound the symmetric inequality must fail
        n = 1e8
        too_small = 0.2 * math.sqrt(n / (8 * math.log(2)))
        assert not cl.claim_c1_check(n, n, too_small, too_small, 1e-5)


class TestEnergyEquivalents:
    def test_photonic_limit_drops_1_over_k(self):
        lim = cl.classical_limit(50, 1e8, 1e-5)
        photons = cl.photonic_limit_photons(50, 1e8, 1e-5, eta=1.0)
        assert photons == pytest.approx(lim + 1 / 50, rel=1e-9)

    def test_photonic_limit_shares_the_p_error_domain(self):
        # at p_error >= 1/4 the sqrt(N) coefficient turns negative
        for p_error in (0.25, 0.3):
            for cost in (cl.classical_limit, lambda *a: cl.photonic_limit_photons(*a, 0.5)):
                with pytest.raises(ParameterError, match="classical limit needs p_error < 1/4"):
                    cost(4, 1e8, p_error)

    def test_eta_scaling(self):
        a = cl.photonic_limit_photons(10, 1e8, 1e-5, eta=0.5)
        b = cl.photonic_limit_photons(10, 1e8, 1e-5, eta=1.0)
        assert a == pytest.approx(2 * b)

    def test_costs_bundle_ordering(self):
        limit = cl.classical_limit(8, 1e8, 1e-5)
        assert limit < cl.best_k_user(8, 1e8, 1e-5)
        assert limit < cl.best_two_user(1e8, 1e-5)
        assert cl.photonic_limit_photons(8, 1e8, 1e-5, 0.5) > limit  # eta = 0.5 doubles it
