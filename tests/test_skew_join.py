"""Skew-aware bucketed hash join (VERDICT r3 item 1).

A single Zipf-head key lands in ONE bucket task however large
num_buckets is; the skew path salts hot left rows across salt_buckets
consecutive buckets and replicates the hot keys' right rows into all
of them. These tests pin: detection of a planted hot key, exact result
equality (inner + left-outer, auto and explicit hot keys, including a
hot key absent from the right side), the outer-join guard, and the
headline property — a 50%-hot-key join completes in ~flat time vs the
unhandled plan on the same data.
"""

import time

import numpy as np
import pandas as pd
import pytest


def _skewed(n_left=4000, n_cold_keys=50, hot_key=0, hot_frac=0.5,
            right_per_key=3, seed=11, hot_in_right=True):
    rng = np.random.default_rng(seed)
    n_hot = int(n_left * hot_frac)
    cold = rng.integers(1, n_cold_keys + 1, n_left - n_hot)
    lk = np.concatenate([np.full(n_hot, hot_key), cold])
    rng.shuffle(lk)
    l = pd.DataFrame({"k": lk.astype(np.int64),
                      "x": np.arange(n_left, dtype=np.int64)})
    rkeys = np.repeat(np.arange(0 if hot_in_right else 1,
                                n_cold_keys + 1), right_per_key)
    r = pd.DataFrame({"k": rkeys.astype(np.int64),
                      "y": np.arange(len(rkeys), dtype=np.int64)})
    return l, r


def _norm(df, cols):
    return (df.sort_values(cols).reset_index(drop=True)[cols]
            .astype({c: np.float64 for c in cols}))


@pytest.mark.usefixtures("ray_session")
class TestSkewJoin:
    def test_detect_hot_keys_finds_planted(self):
        import ray.data as rd
        from tldr_ray.stages.joins import detect_hot_keys

        l, _ = _skewed()
        hot = detect_hot_keys(rd.from_pandas(l), "k", num_buckets=16)
        assert 0 in hot
        # no cold key holds > 1/16 of the mass
        assert all(h == 0 for h in hot)

    def test_inner_auto_equals_plain_and_pandas(self):
        import ray.data as rd
        from tldr_ray.stages.joins import bucketed_hash_join

        l, r = _skewed()
        want = l.merge(r, on="k", how="inner")
        plain = bucketed_hash_join(
            rd.from_pandas(l), rd.from_pandas(r), on="k",
            num_buckets=16).to_pandas()
        salted = bucketed_hash_join(
            rd.from_pandas(l), rd.from_pandas(r), on="k",
            num_buckets=16, skew=True, salt_buckets=8).to_pandas()
        cols = ["k", "x", "y"]
        pd.testing.assert_frame_equal(_norm(salted, cols),
                                      _norm(want, cols))
        pd.testing.assert_frame_equal(_norm(salted, cols),
                                      _norm(plain, cols))

    def test_left_outer_with_hot_key_missing_from_right(self):
        """Hot LEFT key absent from the right: every salted replica
        bucket null-fills, but each left row exists in exactly ONE
        bucket, so no duplicate null rows can appear."""
        import ray.data as rd
        from tldr_ray.stages.joins import bucketed_hash_join

        l, r = _skewed(hot_in_right=False)
        want = l.merge(r, on="k", how="left")
        got = bucketed_hash_join(
            rd.from_pandas(l), rd.from_pandas(r), on="k",
            num_buckets=16, how="left", skew=[0],
            salt_buckets=8).to_pandas()
        cols = ["k", "x", "y"]
        pd.testing.assert_frame_equal(_norm(got, cols),
                                      _norm(want, cols))

    def test_explicit_hot_keys_string_column(self):
        import ray.data as rd
        from tldr_ray.stages.joins import bucketed_hash_join

        rng = np.random.default_rng(3)
        l = pd.DataFrame({"k": np.where(rng.random(1000) < 0.6, "hot",
                                        rng.integers(0, 20, 1000)
                                        .astype(str)),
                          "x": np.arange(1000)})
        r = pd.DataFrame({"k": ["hot"] + [str(i) for i in range(20)],
                          "y": np.arange(21)})
        want = l.merge(r, on="k", how="inner")
        got = bucketed_hash_join(
            rd.from_pandas(l), rd.from_pandas(r), on="k",
            num_buckets=8, skew=["hot"], salt_buckets=4).to_pandas()
        key = ["k", "x", "y"]
        got = got.sort_values(["x"]).reset_index(drop=True)[key]
        want = want.sort_values(["x"]).reset_index(drop=True)[key]
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_skew_rejects_outer(self):
        import ray.data as rd
        from tldr_ray.stages.joins import bucketed_hash_join

        l = pd.DataFrame({"k": [1], "x": [1]})
        r = pd.DataFrame({"k": [1], "y": [1]})
        with pytest.raises(ValueError, match="skew"):
            bucketed_hash_join(rd.from_pandas(l), rd.from_pandas(r),
                               on="k", how="outer", skew=[1])

    def test_right_hot_key_inner_and_left_equal_pandas(self):
        """A key hot on the RIGHT side takes the mirror path (salted
        right rows, replicated left rows; inner-merge for the
        replicated rows under how='left') and stays exact."""
        import ray.data as rd
        from tldr_ray.stages.joins import bucketed_hash_join

        rng = np.random.default_rng(17)
        l = pd.DataFrame({
            "k": np.concatenate([np.zeros(40, np.int64),
                                 rng.integers(1, 30, 400),
                                 np.array([99, 98])]),  # unmatched keys
            "x": np.arange(442, dtype=np.int64)})
        # key 0 fans out 2000x on the right; cold keys 3x
        r = pd.DataFrame({
            "k": np.concatenate([np.zeros(2000, np.int64),
                                 np.repeat(np.arange(1, 30), 3)]),
            "y": np.arange(2087, dtype=np.int64)})
        cols = ["k", "x", "y"]
        for how in ("inner", "left"):
            want = l.merge(r, on="k", how=how)
            got = bucketed_hash_join(
                rd.from_pandas(l), rd.from_pandas(r), on="k",
                num_buckets=16, how=how,
                skew={"right": [0]}, salt_buckets=8).to_pandas()
            pd.testing.assert_frame_equal(_norm(got, cols),
                                          _norm(want, cols))

    def test_skew_true_detects_both_sides(self):
        """skew=True probes BOTH sides: a right-hot key is found and
        the join still equals pandas."""
        import ray.data as rd
        from tldr_ray.stages.joins import bucketed_hash_join, \
            detect_hot_keys

        l, r = _skewed(n_left=400, hot_frac=0.0)      # cold left
        hot_r = pd.DataFrame({
            "k": np.zeros(3000, np.int64),
            "y": np.arange(3000, dtype=np.int64) + 10_000})
        r = pd.concat([r, hot_r], ignore_index=True)
        assert 0 in detect_hot_keys(rd.from_pandas(r), "k",
                                    num_buckets=16)
        want = l.merge(r, on="k", how="inner")
        got = bucketed_hash_join(
            rd.from_pandas(l), rd.from_pandas(r), on="k",
            num_buckets=16, skew=True, salt_buckets=8).to_pandas()
        cols = ["k", "x", "y"]
        pd.testing.assert_frame_equal(_norm(got, cols),
                                      _norm(want, cols))

    def test_both_hot_key_stays_on_left_path(self):
        """A key hot on BOTH sides resolves to the left-hot path and
        stays exact (inner + left)."""
        import ray.data as rd
        from tldr_ray.stages.joins import bucketed_hash_join

        l = pd.DataFrame({"k": np.concatenate(
            [np.zeros(500, np.int64), np.arange(1, 51)]),
            "x": np.arange(550, dtype=np.int64)})
        r = pd.DataFrame({"k": np.concatenate(
            [np.zeros(500, np.int64), np.arange(1, 51)]),
            "y": np.arange(550, dtype=np.int64)})
        cols = ["k", "x", "y"]
        for how in ("inner", "left"):
            want = l.merge(r, on="k", how=how)
            got = bucketed_hash_join(
                rd.from_pandas(l), rd.from_pandas(r), on="k",
                num_buckets=16, how=how,
                skew={"left": [0], "right": [0]},
                salt_buckets=4).to_pandas()
            pd.testing.assert_frame_equal(_norm(got, cols),
                                          _norm(want, cols))

    def test_half_hot_right_key_flat_time(self):
        """One key holds 50% of the RIGHT rows: unhandled, one bucket
        task holds that key's whole right side; salted, the right rows
        spread over 16 sub-buckets. Min of 2 reps absorbs noise."""
        import ray.data as rd
        from tldr_ray.stages.joins import bucketed_hash_join

        rng = np.random.default_rng(9)
        # left: modest fan-in on the hot key (30x), cold keys uniform
        l = pd.DataFrame({
            "k": np.concatenate([np.zeros(30, np.int64),
                                 rng.integers(1, 1001, 6000)]),
            "x": np.arange(6030, dtype=np.int64)})
        # right: hot key 0 holds half the 400k rows
        r = pd.DataFrame({
            "k": np.concatenate([np.zeros(200_000, np.int64),
                                 rng.integers(1, 1001, 200_000)]),
            "y": np.arange(400_000, dtype=np.int64)})

        def run(skew):
            best = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                n = bucketed_hash_join(
                    rd.from_pandas(l), rd.from_pandas(r), on="k",
                    num_buckets=32, skew=skew,
                    salt_buckets=16).count()
                best = min(best, time.perf_counter() - t0)
            return n, best

        n_plain, t_plain = run(False)
        n_salt, t_salt = run({"right": [0]})
        assert n_salt == n_plain
        assert t_salt <= t_plain * 1.15, (t_salt, t_plain)

    def test_half_hot_key_flat_time(self):
        """One key holds 50% of the rows and fans out 30x on the right:
        unhandled, one bucket task materializes half the join output
        alone; salted, the same work spreads over 16 buckets. The reps
        alternate plain, salted, plain, ... and each plan keeps its
        min of 3, so a slow stretch of the box hits both plans alike."""
        import ray.data as rd
        from tldr_ray.stages.joins import bucketed_hash_join

        l, r = _skewed(n_left=200_000, n_cold_keys=1000,
                       right_per_key=30, seed=5)

        def run(skew):
            t0 = time.perf_counter()
            n = bucketed_hash_join(
                rd.from_pandas(l), rd.from_pandas(r), on="k",
                num_buckets=32, skew=skew, salt_buckets=16).count()
            return n, time.perf_counter() - t0

        reps = [(run(False), run([0])) for _ in range(3)]
        (n_plain, _), (n_salt, _) = reps[-1]
        t_plain = min(p[1] for p, _ in reps)
        t_salt = min(s[1] for _, s in reps)
        assert n_salt == n_plain
        # flat-time: the salted plan must not be slower than the
        # single-hot-bucket plan (generous 1.15 guard for noise)
        assert t_salt <= t_plain * 1.15, (t_salt, t_plain)
