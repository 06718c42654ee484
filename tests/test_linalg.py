"""Sparse exact F_p linear algebra against a dense brute-force oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import dense_rank
from synto.linalg import Span, kernel_basis, vec_addmul, vec_scale


class TestVecOps:
    def test_addmul_cancels(self):
        assert vec_addmul(5, {0: 2, 1: 1}, {0: 1}, 3) == {1: 1}

    def test_scale_zero_empties(self):
        assert vec_scale(5, {0: 2, 3: 4}, 5) == {}
        assert vec_scale(5, {0: 2}, 2) == {0: 4}


class TestSpan:
    def test_insert_and_contains(self):
        s = Span(5)
        assert s.insert({0: 1, 1: 2}) == 0
        assert s.insert({1: 1}) == 1
        assert s.insert({0: 3, 1: 1}) is None
        assert s.dim == 2
        assert not s.reduce({0: 2, 1: 4})
        assert s.reduce({2: 1})

    def test_rref_rows_are_reduced(self):
        s = Span(7)
        s.insert({0: 2, 1: 1})
        s.insert({0: 1, 1: 1, 2: 1})
        for piv, row in s.rows.items():
            assert row[piv] == 1
            for other_piv in s.rows:
                if other_piv != piv:
                    assert other_piv not in row

    def test_empty_vector_is_dependent(self):
        assert Span(3).insert({}) is None

    def test_labels_express_a_vector(self):
        # vector i enters as v + e_{off+i}; a vector in the span reduces to
        # minus its coefficients over the labels
        s, off = Span(5), 10
        cols = [{0: 1, 1: 2}, {1: 1, 2: 3}]
        for i, v in enumerate(cols):
            assert s.insert({**v, off + i: 1}) < off
        target = vec_addmul(5, vec_scale(5, cols[0], 2), cols[1], 3)
        assert s.reduce(target) == {off: 3, off + 1: 2}
        assert min(s.reduce({3: 1})) < off

    def test_dependent_labelled_insert_pivots_past_off(self):
        s, off = Span(3), 5
        assert s.insert({0: 1, off: 1}) == 0
        assert s.insert({0: 2, off + 1: 1}) >= off


class TestKernel:
    def test_zero_column(self):
        ks = kernel_basis(3, [{}, {0: 1}])
        assert ks == [{0: 1}]

    def test_hand_example(self):
        # columns c0 = (1,0), c1 = (0,1), c2 = c0 + 2*c1 over F_5
        ks = kernel_basis(5, [{0: 1}, {1: 1}, {0: 1, 1: 2}])
        assert len(ks) == 1
        (k,) = ks
        assert k[2] == 1
        # check it really is a kernel vector
        acc = {}
        cols = [{0: 1}, {1: 1}, {0: 1, 1: 2}]
        for j, c in k.items():
            acc = vec_addmul(5, acc, cols[j], c)
        assert acc == {}


def random_cols(rng, p, ncols, nrows, density=0.5):
    cols = []
    for _ in range(ncols):
        col = {i: rng.randint(1, p - 1) for i in range(nrows)
               if rng.random() < density}
        cols.append(col)
    return cols


class TestAgainstDense:
    @pytest.mark.parametrize("seed", range(8))
    def test_rank_matches_dense(self, seed):
        rng = random.Random(seed)
        p = rng.choice((2, 3, 5, 7))
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        cols = random_cols(rng, p, ncols, nrows)
        assert Span(p, cols).dim == dense_rank(p, cols, nrows)

    @pytest.mark.parametrize("seed", range(8))
    def test_kernel_dimension_and_membership(self, seed):
        rng = random.Random(100 + seed)
        p = rng.choice((2, 3, 5))
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        cols = random_cols(rng, p, ncols, nrows)
        ks = kernel_basis(p, cols)
        assert len(ks) == ncols - dense_rank(p, cols, nrows)
        for k in ks:
            acc = {}
            for j, c in k.items():
                acc = vec_addmul(p, acc, cols[j], c)
            assert acc == {}
        # special solutions are linearly independent by construction
        span = Span(p)
        for k in ks:
            assert span.insert(k) is not None


vec_strategy = st.dictionaries(st.integers(0, 5), st.integers(1, 4),
                               max_size=5)


class TestCanonicity:
    @settings(max_examples=60)
    @given(st.lists(vec_strategy, max_size=6), st.randoms())
    def test_span_is_order_independent(self, vecs, rnd):
        a = Span(5, vecs)
        shuffled = list(vecs)
        rnd.shuffle(shuffled)
        b = Span(5, shuffled)
        assert a.rows == b.rows
