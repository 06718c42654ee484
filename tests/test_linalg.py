"""Sparse exact F_p linear algebra against a dense brute-force oracle."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import ScanSpan, dense_rank, support_index
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

    def test_reduce_returns_a_vector_that_meets_no_pivot(self):
        # vectors are values, so one that needs no reducing is not copied
        s = Span(5)
        for v in ({0: 1, 2: 3}, {1: 1, 2: 1}):
            s.insert(v)
        rows = {q: dict(row) for q, row in s.rows.items()}
        for v in ({2: 4, 3: 1}, {}):
            before = dict(v)
            assert s.reduce(v) is v
            assert v == before
        assert s.rows == rows
        # one that meets a pivot still comes back as a new vector
        v = {0: 1, 3: 1}
        assert s.reduce(v) == {2: 2, 3: 1} and v == {0: 1, 3: 1}

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


class TestIndex:
    """Span's coordinate -> rows index against the row scan it replaces."""

    @staticmethod
    def draw(seed):
        """A prime in {2, 3, 5} and a vector drawer over few coordinates, so
        that back-elimination often cancels an entry."""
        rng = random.Random(seed)
        p, n = (2, 3, 5)[seed % 3], rng.randint(3, 9)

        def vec():
            return {i: rng.randint(1, p - 1) for i in range(n)
                    if rng.random() < 0.45}
        return rng, p, vec

    @staticmethod
    def check(span, ref):
        assert span.rows == ref.rows
        assert span._holders is None or span._holders == support_index(span)

    @staticmethod
    def insert_both(span, ref, v):
        """Insert v into both; True if back-elimination removed an entry
        other than the new pivot from some row."""
        before = dict(ref.rows)
        piv = span.insert(v)
        assert piv == ref.insert(v)
        TestIndex.check(span, ref)
        if piv is not None:
            assert span._holders == support_index(span)
        return any(before[q].keys() - {piv} - ref.rows[q].keys()
                   for q in before)

    @pytest.mark.parametrize("seed", range(60))
    def test_rows_and_index_after_every_step(self, seed):
        rng, p, vec = self.draw(seed)
        span, ref = Span(p), ScanSpan(p)
        for _ in range(rng.randint(1, 6)):
            self.insert_both(span, ref, vec())
        kept = dict(span.rows)
        # a copy shares no index: inserts into it leave the original alone
        span2, ref2 = span.copy(), ScanSpan(p)
        ref2.rows = dict(ref.rows)
        assert span2._holders is None
        for _ in range(rng.randint(0, 4)):
            self.insert_both(span2, ref2, vec())
        assert span.rows == kept
        self.check(span, ref)
        cols = [vec() for _ in range(rng.randint(1, 6))]
        assert kernel_basis(p, cols, span2) == kernel_basis(p, cols, ref2)
        self.check(span2, ref2)
        assert span2._holders is None
        for _ in range(3):
            self.insert_both(span2, ref2, vec())

    def test_draws_remove_holders(self):
        # the draws above cancel entries, so the index loses holders too
        removed = 0
        for seed in range(60):
            rng, p, vec = self.draw(seed)
            span, ref = Span(p), ScanSpan(p)
            removed += any([self.insert_both(span, ref, vec())
                            for _ in range(rng.randint(1, 6))])
        assert removed >= 10

    def test_kernel_basis_reduces_each_column_once(self):
        span = Span(5)
        span.insert({0: 1, 2: 3})
        cols = [{0: 1, 1: 2}, {1: 1}, {0: 1, 1: 3}, {2: 4}]
        with mock.patch.object(Span, "reduce", autospec=True,
                               side_effect=Span.reduce) as reduce:
            kernel_basis(5, cols, span)
        assert reduce.call_count == len(cols)


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
        span = Span(p)
        for col in cols:
            span.insert(col)
        assert span.dim == dense_rank(p, cols, nrows)

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
        shuffled = list(vecs)
        rnd.shuffle(shuffled)
        a, b = Span(5), Span(5)
        for u, v in zip(vecs, shuffled):
            a.insert(u)
            b.insert(v)
        assert a.rows == b.rows
