"""partitions: thresholds, the extreme partition, closed-form minimality."""

import pytest

from fermatprod import partitions
from fermatprod.errors import InfeasibleSizeError
from fermatprod.partitions import (
    PARTITION_MAX_N,
    Partition,
    big_n,
    condition_witness,
    enumerate_partitions,
    extreme_partition,
    r_bound,
    verify_minimality,
)
from oracles import minimality_by_enumeration


def partition_count_oracle(limit):
    """p(0..limit) via the Euler pentagonal-number recurrence."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 else -1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


class TestClosedForms:
    def test_r_bound_values(self):
        assert r_bound(0, 3) == 5
        assert r_bound(3, 3) == 1
        assert r_bound(1, 2) == 2

    def test_r_bound_non_increasing_in_m(self):
        for n in range(1, 10):
            vals = [r_bound(m, n) for m in range(0, n + 3)]
            assert vals == sorted(vals, reverse=True), (n, vals)
            assert vals[-1] == 1

    def test_big_n_values(self):
        assert [big_n(n) for n in (1, 2, 3, 4, 5)] == [2, 5, 13, 33, 81]

    def test_extreme_partitions_verbatim(self):
        assert extreme_partition(1).parts == (1, 1)
        assert extreme_partition(2).parts == (3, 1, 1)
        assert extreme_partition(3).parts == (7, 3, 1, 1, 1)
        assert extreme_partition(4).parts == (15, 7, 3, 3, 1, 1, 1, 1, 1)
        assert extreme_partition(5).parts == (31, 15, 7, 7, 3, 3, 3, 3) + (1,) * 9

    def test_extreme_total_telescopes(self):
        for n in range(1, 17):
            ep = extreme_partition(n)
            assert ep.total == big_n(n), n
            assert len(ep) == (1 << (n - 1)) + 1


class TestCondition:
    def test_extreme_satisfies_only_at_last(self):
        for n in range(1, 7):
            ep = extreme_partition(n)
            assert condition_witness(ep, n) == len(ep)
            trunc = ep.parts[:-1]
            assert condition_witness(trunc, n) is None

    def test_known_examples(self):
        assert condition_witness([7, 3, 1, 1, 1], 3) == 5
        assert condition_witness([7, 3, 1, 1], 3) is None
        assert condition_witness([13], 3) == 1

    def test_thresholds_recorded(self):
        # floor(log2) = 2, 1, 0, 0 -> thresholds r_bound(m, 3) = 2, 3, 5, 5,
        # each above its index, so no index is a witness
        parts = [7, 3, 1, 1]
        assert [r_bound(k.bit_length() - 1, 3) for k in parts] == [2, 3, 5, 5]
        assert condition_witness(parts, 3) is None

    def test_appending_ones_never_unsatisfies(self):
        for n in (2, 3):
            for part in enumerate_partitions(big_n(n)):
                if condition_witness(part, n) is not None:
                    extended = part.parts + (1,) * 3
                    assert condition_witness(extended, n) is not None

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            condition_witness([1, 2], 3)  # increasing
        with pytest.raises(ValueError):
            condition_witness([3, 0], 3)  # nonpositive part


class TestEnumeration:
    def test_small_golden(self):
        assert [p.parts for p in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
        assert [p.parts for p in enumerate_partitions(5)] == [
            (5,),
            (4, 1),
            (3, 2),
            (3, 1, 1),
            (2, 2, 1),
            (2, 1, 1, 1),
            (1, 1, 1, 1, 1),
        ]

    def test_counts_match_pentagonal_recurrence(self):
        oracle = partition_count_oracle(33)
        for total in (5, 13, 20, 33):
            assert sum(1 for _ in enumerate_partitions(total)) == oracle[total]
        assert oracle[5] == 7 and oracle[13] == 101 and oracle[33] == 10143

    def test_reverse_lexicographic_and_unique(self):
        # with the recurrence counts above, this pins the whole listing
        for total in (8, 20, 33):
            seen = set()
            prev = None
            for p in enumerate_partitions(total):
                assert p.total == total
                assert p.parts not in seen
                seen.add(p.parts)
                if prev is not None:
                    assert p.parts < prev  # tuple order = lexicographic
                prev = p.parts

    def test_caps_small_golden(self):
        assert [p.parts for p in enumerate_partitions(5, (3, 2, 1))] == [
            (3, 2),
            (3, 1, 1),
            (2, 2, 1),
        ]
        assert [p.parts for p in enumerate_partitions(5, (9, 9, 0))] == [
            (5,),
            (4, 1),
            (3, 2),
        ]
        assert list(enumerate_partitions(7, (3, 2, 1))) == []
        assert list(enumerate_partitions(1, ())) == []

    def test_caps_must_be_non_increasing(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(4, (1, 2)))
        with pytest.raises(ValueError):
            list(enumerate_partitions(4, (3, -1)))

    def test_caps_match_filtered_listing(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            st.integers(1, 25),
            st.lists(st.integers(0, 30), max_size=30).map(lambda c: sorted(c, reverse=True)),
        )
        def check(total, caps):
            want = [
                p.parts
                for p in enumerate_partitions(total)
                if len(p) <= len(caps) and all(k <= c for k, c in zip(p.parts, caps))
            ]
            assert [p.parts for p in enumerate_partitions(total, caps)] == want

        check()


class TestMinimality:
    def test_exhaustive_small_n(self):
        for n in (1, 2, 3, 4):
            assert minimality_by_enumeration(n), n
            assert verify_minimality(n), n

    def test_size_cap(self):
        # test_cli proves n = 1..PARTITION_MAX_N minimal through the command line
        with pytest.raises(InfeasibleSizeError):
            verify_minimality(PARTITION_MAX_N + 1)
        with pytest.raises(InfeasibleSizeError):
            extreme_partition(PARTITION_MAX_N + 1)
        with pytest.raises(ValueError):
            verify_minimality(0)

    def test_wrong_forcing_total_is_rejected(self, monkeypatch):
        monkeypatch.setattr(partitions, "big_n", lambda n: n * (1 << (n - 1)) + 2)
        for n in (1, 2, 3, 4, 5):
            assert not verify_minimality(n), n

    def test_wrong_part_count_threshold_is_rejected(self, monkeypatch):
        # with r_bound(0, n) one higher the whole extreme partition fails too
        real = partitions.r_bound
        monkeypatch.setattr(partitions, "r_bound", lambda m, n: real(m, n) + (m == 0))
        for n in (1, 2, 3, 4, 5):
            assert not verify_minimality(n), n

    def test_extreme_is_pointwise_minimal(self):
        # any other partition of big_n(n) has more parts or a strictly bigger part
        for n in (2, 3, 4):
            ep = extreme_partition(n).parts
            for p in enumerate_partitions(big_n(n)):
                if p.parts == ep:
                    continue
                bigger_somewhere = any(
                    kp > ke for kp, ke in zip(p.parts, ep)
                )
                assert len(p) >= len(ep) or bigger_somewhere, (n, p.parts)

    def test_truncated_extreme_is_unique_maximal_failure(self):
        # big_n(n) - 1 is the largest total admitting an everywhere-failing
        # partition, and the truncated extreme partition is the only one
        for n in (2, 3, 4):
            failures = [
                p.parts
                for p in enumerate_partitions(big_n(n) - 1)
                if condition_witness(p, n) is None
            ]
            assert failures == [extreme_partition(n).parts[:-1]], (n, failures)

    @pytest.mark.long
    def test_minimality_n5(self):
        assert minimality_by_enumeration(5)
        assert verify_minimality(5)


class TestPartitionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition(())
        with pytest.raises(ValueError):
            Partition((2, 3))
        assert Partition((3, 1)).total == 4
