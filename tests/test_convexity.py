"""Sampled operator-inequality checks on finite p-norm spaces."""

import numpy as np
import pytest

from magrad.convexity import (
    LpSpace,
    check_umd_sampled,
    check_umq_sampled,
    _opnorm_upper,
)


class TestLpSpace:
    def test_exponents(self):
        assert LpSpace(4, 2.0).q == 2.0
        assert LpSpace(4, 3.0).q == 3.0
        assert LpSpace(4, 1.5).q == 3.0
        assert LpSpace(4, 3.0).q_prime == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            LpSpace(0, 2.0)
        with pytest.raises(ValueError):
            LpSpace(4, 1.0)


class TestCollapseCases:
    def test_equal_first_pair(self):
        rng = np.random.default_rng(0)
        X, Z, W = (rng.standard_normal((6, 6)) for _ in range(3))
        lhs = (X @ Z + X @ Z + X @ W - X @ W) / 4
        assert np.allclose(lhs, X @ Z / 2)
        # then the ratio against |X||Z|/2 is at most 1 trivially
        assert _opnorm_upper(lhs) <= _opnorm_upper(X) * _opnorm_upper(Z) / 2 + 1e-12

    def test_kleinian_collapse(self):
        rng = np.random.default_rng(1)
        S1, S3, S4 = (rng.standard_normal((5, 5)) for _ in range(3))
        M = (S1 @ S1 @ S3 @ S4 + S1 @ S1 @ S3 @ S4
             + S1 @ S1 @ S4 @ S3 - S1 @ S1 @ S4 @ S3) / 4
        assert np.allclose(M, S1 @ S1 @ S3 @ S4 / 2)

    def test_commuting_diagonal_case(self):
        rng = np.random.default_rng(2)
        diags = [np.diag(rng.uniform(-1, 1, size=6)) for _ in range(4)]
        S1, S2, S3, S4 = diags
        M = (S1 @ S2 @ S3 @ S4 + S2 @ S1 @ S3 @ S4
             + S1 @ S2 @ S4 @ S3 - S2 @ S1 @ S4 @ S3) / 4
        prod = S1 @ S2 @ S3 @ S4
        assert np.allclose(M, prod / 2)
        norms = np.prod([np.abs(np.diag(S)).max() for S in diags])
        assert np.abs(np.diag(M)).max() <= norms / 2 + 1e-12


class TestSampledChecks:
    def test_deterministic_per_seed(self):
        sp = LpSpace(8, 2.0)
        a = check_umd_sampled(sp, 200, seed=5)
        b = check_umd_sampled(sp, 200, seed=5)
        assert a.max_ratio == b.max_ratio
        c = check_umd_sampled(sp, 200, seed=6)
        assert c.max_ratio != a.max_ratio

    @pytest.mark.parametrize("p,n", [(2.0, 8), (3.0, 6), (1.5, 6)])
    def test_no_violations_smoke(self, p, n):
        sp = LpSpace(n, p)
        r1 = check_umd_sampled(sp, 500, seed=42)
        r2 = check_umq_sampled(sp, 500, seed=42)
        assert r1.passed and r2.passed
        assert 0 < r1.max_ratio <= 1 and 0 < r2.max_ratio <= 1

    def test_report_fields(self):
        r = check_umq_sampled(LpSpace(4, 2.0), 50, seed=0)
        data = r.to_jsonable()
        assert data["passed"] and data["trials"] == 50

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            check_umd_sampled(LpSpace(4, 2.0), 0)


# (check, n, p, seed, max_ratio.hex(), worst_trial, violations) of 200 trials,
# recorded from the two separate sampling loops before they were merged
PINNED = [
    ('umd', 8, 2.0, 0, '0x1.fcf917c93dd21p-4', 78, []),
    ('umq', 8, 2.0, 0, '0x1.0d7eec8fd40cep-6', 60, []),
    ('umd', 8, 2.0, 7, '0x1.3b7cca5570cb0p-3', 104, []),
    ('umq', 8, 2.0, 7, '0x1.03277347e78b7p-6', 194, []),
    ('umd', 8, 2.0, 42, '0x1.1c7fc4fce5db2p-3', 33, []),
    ('umq', 8, 2.0, 42, '0x1.c3b9945d31decp-7', 120, []),
    ('umd', 6, 3.0, 0, '0x1.4160dad1444e2p-3', 156, []),
    ('umq', 6, 3.0, 0, '0x1.5419b043c565cp-6', 110, []),
    ('umd', 6, 3.0, 7, '0x1.47af212321d9bp-3', 114, []),
    ('umq', 6, 3.0, 7, '0x1.3ee713a0884e7p-6', 60, []),
    ('umd', 6, 3.0, 42, '0x1.50fdbb8f43c46p-3', 133, []),
    ('umq', 6, 3.0, 42, '0x1.b74c1e4cde1d0p-6', 156, []),
    ('umd', 6, 1.5, 0, '0x1.3616ee2af0755p-3', 156, []),
    ('umq', 6, 1.5, 0, '0x1.526480aba2c97p-6', 190, []),
    ('umd', 6, 1.5, 7, '0x1.2bd1f3466526ep-3', 114, []),
    ('umq', 6, 1.5, 7, '0x1.7a55e50f1ceffp-6', 60, []),
    ('umd', 6, 1.5, 42, '0x1.7c213f7612797p-3', 133, []),
    ('umq', 6, 1.5, 42, '0x1.88e3a6f59cc9fp-6', 0, []),
    ('umd', 5, 4.0, 0, '0x1.7b7104ea64424p-3', 159, []),
    ('umq', 5, 4.0, 0, '0x1.377981c712c8ep-5', 17, []),
    ('umd', 5, 4.0, 7, '0x1.37c57d6944e38p-3', 106, []),
    ('umq', 5, 4.0, 7, '0x1.140177387e58ap-5', 119, []),
    ('umd', 5, 4.0, 42, '0x1.e17e242da1507p-3', 50, []),
    ('umq', 5, 4.0, 42, '0x1.1a57ef0eb0f2ap-5', 36, []),
]


class TestPinnedBits:
    @pytest.mark.parametrize("check,n,p,seed,ratio,worst,violations", PINNED)
    def test_sampled_report(self, check, n, p, seed, ratio, worst, violations):
        fn = check_umd_sampled if check == "umd" else check_umq_sampled
        r = fn(LpSpace(n, p), 200, seed=seed)
        assert (r.max_ratio.hex(), r.worst_trial, r.violations) == \
            (ratio, worst, violations)
