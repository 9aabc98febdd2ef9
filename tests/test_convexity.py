"""Sampled operator-inequality checks on finite p-norm spaces."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magrad.convexity import (
    LpSpace,
    check_umd_sampled,
    check_umq_sampled,
    _BLOCK,
    _opnorm_upper,
    _round_off,
    _row_sums,
    _sample,
    _trial_draws,
    _umd,
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

    @pytest.mark.parametrize("fn", [check_umd_sampled, check_umq_sampled])
    @pytest.mark.parametrize("trials,seed,name", [
        (10, -1, "seed"), (10, 2 ** 108, "seed"), (2 ** 20 + 1, 0, "trials")])
    def test_key_range_validated(self, fn, trials, seed, name):
        # keys (seed << 20) + t: trial 2**20 of seed s would be trial 0 of s+1
        with pytest.raises(ValueError, match=f"^{name} must"):
            fn(LpSpace(4, 2.0), trials, seed=seed)


# The one-trial-at-a-time loop the blocked sampler replaced, kept as its
# oracle: a fresh generator per trial, five separate draws, numpy scalars.
def _ref_pnorm(v, p):
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def _ref_opnorm(A):
    return max(np.abs(A).sum(axis=0).max(), np.abs(A).sum(axis=1).max())


def _ref_mean_power(a, b, r):
    return ((a ** r + b ** r) / 2.0) ** (1.0 / r)


def _ref_sample(space, trials, seed, draw):
    n, p = space.n, space.p
    scale = 2.0 ** (-1.0 / space.q)
    max_ratio, worst = 0.0, None
    violations = []
    for t in range(trials):
        rng = np.random.Generator(np.random.Philox(key=(seed << 20) + t))
        M, rhs = draw(rng, n, scale)
        v = rng.standard_normal(n)
        v = v / _ref_pnorm(v, p)
        ratio = _ref_pnorm(M @ v, p) / rhs
        if ratio > max_ratio:
            max_ratio, worst = ratio, t
        if ratio > 1.0 + _round_off(n):
            violations.append(t)
    return max_ratio.hex(), worst, violations


def _ref_umd(space):
    def draw(rng, n, scale):
        X, Y, Z, W = (rng.standard_normal((n, n)) for _ in range(4))
        M = (X @ Z + Y @ Z + X @ W - Y @ W) / 4.0
        r = space.q_prime
        return M, scale * _ref_mean_power(_ref_opnorm(X), _ref_opnorm(Y), r) \
            * _ref_mean_power(_ref_opnorm(Z), _ref_opnorm(W), r)
    return draw


def _ref_umq(space):
    def draw(rng, n, scale):
        S1, S2, S3, S4 = (rng.standard_normal((n, n)) for _ in range(4))
        M = (S1 @ S2 @ S3 @ S4 + S2 @ S1 @ S3 @ S4
             + S1 @ S2 @ S4 @ S3 - S2 @ S1 @ S4 @ S3) / 4.0
        for S in (S1, S2, S3, S4):
            scale *= _ref_opnorm(S)
        return M, scale
    return draw


def _bits(report):
    return report.max_ratio.hex(), report.worst_trial, report.violations


class TestBlockedSampler:
    # the benchmark's spaces 4..8, the short rows 1..3 and the row sums'
    # accumulator edges 8, 9, 15, 16, 17; trial counts that end a block
    # early, on its last row and one row into the next
    @pytest.mark.parametrize("n", [*range(1, 10), 15, 16, 17])
    @pytest.mark.parametrize("check", ["umd", "umq"])
    def test_matches_per_trial_loop(self, check, n):
        fn, ref = ((check_umd_sampled, _ref_umd) if check == "umd"
                   else (check_umq_sampled, _ref_umq))
        for p in (1.25, 1.5, 3.0, 4.0):
            sp = LpSpace(n, p)
            for trials in (1, _BLOCK, _BLOCK + 1):
                seed = 97 * n + trials
                assert _bits(fn(sp, trials, seed=seed)) == \
                    _ref_sample(sp, trials, seed, ref(sp)), (p, trials)

    def test_violations_and_worst_trial(self):
        # a right side shrunk eightfold: some trials violate, in trial order
        def ref_draw(rng, n, scale):
            X, Y, Z, W = (rng.standard_normal((n, n)) for _ in range(4))
            return X @ Z, scale * _ref_opnorm(X) * _ref_opnorm(Z) / 8.0

        def draw(mats, scale):
            X, Z = mats[:, 0], mats[:, 2]
            return X @ Z, scale * _opnorm_upper(X) * _opnorm_upper(Z) / 8.0

        sp = LpSpace(6, 3.0)
        for trials in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 33):
            got = _bits(_sample(sp, trials, 11, draw))
            assert got == _ref_sample(sp, trials, 11, ref_draw)
        assert 0 < len(got[2]) < trials and got[1] in got[2]

    @pytest.mark.parametrize("rhs", [1.0, np.nan])
    def test_no_positive_ratio_keeps_empty_report(self, rhs):
        # zero ratios never exceed the initial 0.0 and NaN ratios are ignored
        def draw(mats, scale):
            return np.zeros_like(mats[:, 0]), np.full(len(mats), rhs)

        assert _bits(_sample(LpSpace(4, 2.0), 40, 3, draw)) == \
            ((0.0).hex(), None, [])

    @pytest.mark.parametrize("seed", [0, 1, 2024, 2 ** 108 - 1])
    def test_rekeyed_stream_is_a_fresh_philox(self, seed):
        fill = _trial_draws(seed)
        rows = np.empty((3, 4 * 5 * 5 + 5))
        for start in (32, 0, 31, 2 ** 20 - 3):      # any order
            fill(rows, start)
            for i, row in enumerate(rows):
                rng = np.random.Generator(
                    np.random.Philox(key=(seed << 20) + start + i))
                # one draw of 4n^2 + n normals is the per-trial loop's five
                want = np.concatenate([rng.standard_normal((5, 5)).ravel()
                                       for _ in range(4)]
                                      + [rng.standard_normal(5)])
                assert row.tobytes() == want.tobytes()


def _awkward(rng, shape):
    """Signs and magnitudes from 1e-300 to 1e300, with +0.0 and subnormal
    entries."""
    A = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    A[rng.random(shape) < 0.2] = 0.0
    tiny = rng.random(shape) < 0.2
    A[tiny] = rng.integers(1, 2 ** 52, tiny.sum()) * 5e-324
    return A


# both sides of numpy's 128-term pairwise block
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 130), lead=st.sampled_from([(), (3,), (2, 5)]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=128, lead=(2, 5), seed=0)
@example(n=129, lead=(2, 5), seed=0)
def test_row_sums_are_numpys(n, lead, seed):
    A = _awkward(np.random.default_rng(seed), (*lead, n))
    assert _row_sums(A).tobytes() == A.sum(axis=-1).tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 17), lead=st.sampled_from([(), (3, 4)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_opnorm_upper_is_numpys(n, lead, seed):
    A = np.abs(_awkward(np.random.default_rng(seed), (*lead, n, n)))
    want = np.maximum(A.sum(axis=-2).max(axis=-1), A.sum(axis=-1).max(axis=-1))
    assert np.asarray(_opnorm_upper(A)).tobytes() == want.tobytes()


def _umd_equality(r, shrink=1.0):
    """UMD at X = I, Y = 0, Z = W = I in every trial, where it holds with
    equality, with the right side divided by shrink."""
    def draw(mats, scale):
        eq = np.zeros_like(mats)
        eq[:, [0, 2, 3]] = np.eye(mats.shape[-1])
        return _umd(eq, scale / shrink, r)
    return draw


class TestRoundOff:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_equality_case_passes(self, p):
        sp = LpSpace(6, p)
        r = _sample(sp, 300, 5, _umd_equality(sp.q_prime))
        assert r.passed and abs(r.max_ratio - 1.0) <= _round_off(6)
        # a plain ratio > 1 would flag round-off at p = 1.5 and 3
        assert (r.max_ratio > 1.0) == (p != 2.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_shrunk_right_side_is_caught(self, p):
        sp = LpSpace(6, p)
        r = _sample(sp, 300, 5, _umd_equality(sp.q_prime, shrink=1.01))
        assert r.violations == list(range(300))


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


# (check, n, p, max_ratio.hex(), worst_trial) of criterion 12's six reports,
# 10 000 trials with seed 2024, recorded from the per-trial loop
PINNED_CRITERION_12 = [
    ('umd', 8, 2.0, '0x1.42cd445d313a1p-3', 2339),
    ('umq', 8, 2.0, '0x1.5362c15aaff5dp-6', 3262),
    ('umd', 6, 3.0, '0x1.add914f2ec566p-3', 9095),
    ('umq', 6, 3.0, '0x1.03a4f5ec8df44p-5', 1471),
    ('umd', 6, 1.5, '0x1.c8b71cf63c75fp-3', 8886),
    ('umq', 6, 1.5, '0x1.18949773784efp-5', 7668),
]


class TestPinnedBits:
    @pytest.mark.parametrize("check,n,p,seed,ratio,worst,violations", PINNED)
    def test_sampled_report(self, check, n, p, seed, ratio, worst, violations):
        fn = check_umd_sampled if check == "umd" else check_umq_sampled
        r = fn(LpSpace(n, p), 200, seed=seed)
        assert (r.max_ratio.hex(), r.worst_trial, r.violations) == \
            (ratio, worst, violations)

    @pytest.mark.parametrize("check,n,p,ratio,worst", PINNED_CRITERION_12)
    def test_criterion_12_report(self, check, n, p, ratio, worst):
        fn = check_umd_sampled if check == "umd" else check_umq_sampled
        r = fn(LpSpace(n, p), 10_000, seed=2024)
        assert _bits(r) == (ratio, worst, [])
