"""Sparse polynomial specs, vector lifts, exact determinants, omega."""

import itertools
import math
import random

import pytest

from eulab import polyprod
from eulab.factor import factor_rational
from eulab.polyprod import (
    IndependenceReport, SparsePolySpec, VectorSet, build_vectors,
    check_independence, integer_determinant, omega_product,
)
from oracles import leibniz_determinant

QUADRATIC = SparsePolySpec(3, (1, 1, 1), (2, 1))  # x^2 + x*y + y^2


def random_spec(rng, n_max=6):
    n = rng.randint(2, n_max)
    return SparsePolySpec(
        n,
        tuple(rng.randint(1, 9) for _ in range(n)),
        tuple(rng.randint(0, 5) for _ in range(n - 1)))


class TestSpec:
    def test_evaluate_example(self):
        assert QUADRATIC.evaluate(2, 3) == 19
        assert QUADRATIC.evaluate(1, 1) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SparsePolySpec(1, (1,), ())
        with pytest.raises(ValueError):
            SparsePolySpec(3, (1, 0, 1), (2, 1))
        with pytest.raises(ValueError):
            SparsePolySpec(3, (1, 1, 1), (2, -1))
        with pytest.raises(ValueError):
            SparsePolySpec(3, (1, 1), (2, 1))
        # integers only: no float, numeric string or bool is coerced
        for n, r, m in [(2.0, (1, 1), (1,)), (2, (1.5, 1), (1,)),
                        (2, (1, 1), (1.7,)), (2, ("1", 1), (1,)),
                        (2, (1, 1), (True,)), (True, (1,), ())]:
            with pytest.raises(ValueError):
                SparsePolySpec(n, r, m)


class TestBuildVectors:
    def test_example_rows(self):
        a_vecs, b_vecs = build_vectors(QUADRATIC, [2, 3, 5, 7], [1, 2, 3, 4])
        assert a_vecs.vectors[0] == (4, 2, 1)
        assert b_vecs.vectors[2] == (1, 3, 9)

    def test_smallest_case(self):
        spec = SparsePolySpec(2, (3, 5), (2,))
        a_vecs, b_vecs = build_vectors(spec, [2, 4], [1, 3])
        assert a_vecs.vectors == ((12, 1), (48, 1))
        assert b_vecs.vectors == ((1, 5), (1, 15))

    def test_size_precondition(self):
        with pytest.raises(ValueError):
            build_vectors(QUADRATIC, [1, 2, 3], [1, 2, 3])  # |B| < 2n-2
        with pytest.raises(ValueError):
            build_vectors(QUADRATIC, [1, 2, 3, 4], [1, 2, 3, 4, 5])

    def test_dot_identity_randomized(self):
        rng = random.Random(321)
        for _ in range(60):
            spec = random_spec(rng)
            size = 2 * spec.n - 2
            b = rng.sample(range(1, 51), size)
            a = rng.sample(range(1, 51), size)
            a_vecs, b_vecs = build_vectors(spec, a, b)
            for x, row_a in zip(sorted(set(a)), a_vecs.vectors):
                for y, row_b in zip(sorted(set(b)), b_vecs.vectors):
                    dot = sum(u * v for u, v in zip(row_a, row_b))
                    assert dot == spec.evaluate(x, y)

    def test_vector_set_length_check(self):
        with pytest.raises(ValueError):
            VectorSet(3, ((1, 2),))


class TestDeterminant:
    def test_known_values(self):
        assert integer_determinant([[2]]) == 2
        assert integer_determinant([[1, 2], [3, 4]]) == -2
        assert integer_determinant([[0, 1], [1, 0]]) == -1
        assert integer_determinant([[1, 2], [2, 4]]) == 0
        assert integer_determinant([]) == 1

    def test_matches_vandermonde(self):
        ys = [1, 2, 3]
        rows = [[1, y, y * y] for y in ys]
        expect = math.prod(ys[j] - ys[i]
                           for i in range(3) for j in range(i + 1, 3))
        assert integer_determinant(rows) == expect

    def test_random_against_permutation_expansion(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert integer_determinant(rows) == leibniz_determinant(rows)

    def test_every_sign_matrix(self):
        # many of these have a column with no nonzero entry on or below
        # the diagonal, where the elimination returns 0 early
        for entries in itertools.product((-1, 0, 1), repeat=9):
            rows = [list(entries[i:i + 3]) for i in (0, 3, 6)]
            assert integer_determinant(rows) == leibniz_determinant(rows)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            integer_determinant([[1, 2, 3], [4, 5, 6]])


class TestIndependence:
    def test_all_b_determinant_closed_form(self):
        spec = SparsePolySpec(3, (2, 3, 4), (1, 2))
        ys = [1, 2, 5, 9]
        _, b_vecs = build_vectors(spec, range(1, 5), ys)
        for subset in [(0, 1, 2), (0, 2, 3), (1, 2, 3)]:
            rows = [b_vecs.vectors[i] for i in subset]
            picked = [ys[i] for i in subset]
            vandermonde = math.prod(picked[j] - picked[i]
                                    for i in range(3) for j in range(i + 1, 3))
            assert integer_determinant(rows) == 4 * vandermonde

    def test_valid_specs_are_independent(self):
        rng = random.Random(99)
        for _ in range(20):
            spec = random_spec(rng, n_max=5)
            size = 2 * spec.n - 2
            b = rng.sample(range(1, 40), size)
            _, b_vecs = build_vectors(spec, range(1, size + 1), b)
            report = check_independence(b_vecs)
            assert report
            assert report.independent
            assert report.singular_subset is None
            assert report.subsets_checked == math.comb(size + 1, spec.n)

    @pytest.mark.parametrize("n,size", [(2, 3536), (3, 224), (10, 18),
                                        (11, 20)])
    def test_past_the_line_refused_before_any_determinant(
            self, monkeypatch, n, size):
        # the first |B| past 5 * 10^7 subsets times n^3 for n = 2, 3 and
        # 10; for n = 11 the smallest |B| = 2n - 2 is already past it
        def determinant(rows):
            raise AssertionError("a determinant was computed")

        monkeypatch.setattr(polyprod, "integer_determinant", determinant)
        rows = tuple(tuple(y ** j for j in range(n))
                     for y in range(1, size + 1))
        with pytest.raises(ValueError, match=f"of {math.comb(size + 1, n)} "
                           f"subsets of {n} rows is past the line"):
            check_independence(VectorSet(n, rows))

    def test_duplicate_row_is_caught(self):
        _, b_vecs = build_vectors(QUADRATIC, range(1, 5), [1, 2, 3, 4])
        rows = b_vecs.vectors + (b_vecs.vectors[1],)
        report = check_independence(VectorSet(3, rows))
        assert not report
        assert report.singular_subset is not None
        assert b_vecs.vectors[1] in report.singular_subset


class TestOmegaProduct:
    def test_example(self):
        assert omega_product(QUADRATIC, [1, 2, 3], [1, 2, 3]) == 5

    def test_single_pair(self):
        spec = SparsePolySpec(4, (2, 3, 4, 5), (1, 1, 1))
        om = omega_product(spec, [1], [1])
        assert om == len(factor_rational(2 + 3 + 4 + 5).factors)

    def test_monotone_in_a(self):
        b = [1, 2, 3, 4]
        small = omega_product(QUADRATIC, [1, 2, 4], b)
        large = omega_product(QUADRATIC, [1, 2, 4, 8, 16], b)
        assert large >= small

    def test_overflow_names_pair(self):
        spec = SparsePolySpec(2, (1, 1), (40,))
        with pytest.raises(ValueError, match=r"f\(3,1\)"):
            omega_product(spec, [3], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            omega_product(QUADRATIC, [], [1])

    def test_past_the_line_refused_before_any_factoring(self, monkeypatch):
        # 121 * 100 values is one row past the line of 12,000
        def factor(n):
            raise AssertionError("a value was factored")

        monkeypatch.setattr(polyprod, "factor_rational", factor)
        spec = SparsePolySpec(2, (1, 1), (1,))
        with pytest.raises(ValueError, match="omega of 12100 values of f is "
                           "past the line of 12000 values"):
            omega_product(spec, range(1, 122), range(1, 101))

    def test_line_counts_distinct_values(self):
        # at the line exactly, and with A listed twice: x + y over
        # 1..120 and 1..100 takes every prime up to 220
        spec = SparsePolySpec(2, (1, 1), (1,))
        a_set = [*range(1, 121), *range(1, 121)]
        assert polyprod._MAX_PRODUCT_VALUES == 120 * 100
        assert omega_product(spec, a_set, range(1, 101)) == \
            len([p for p in range(2, 221)
                 if all(p % d for d in range(2, p))])

    def test_integers_only(self):
        # no float, numeric string or bool is coerced, in A or in B
        for a_set, b_set in [([2.9, 3], [1]), (["7"], [1]), ([True], [1]),
                             ([2, 3], [1.0]), ([2, 3], [False, 1])]:
            with pytest.raises(ValueError):
                omega_product(QUADRATIC, a_set, b_set)
        with pytest.raises(ValueError):
            build_vectors(QUADRATIC, [1, 2, 3, 4.5], [1, 2, 3, 4])
