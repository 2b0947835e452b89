"""Differential tests: the dense kernels against straightforward reference loops.

The references below are the plain fiber loop for the axis transform and
the plain pair loop for multiplication, kept here verbatim so that any
rewrite of the kernels in ``polyring`` is checked entry for entry.
"""

import pytest
from hypothesis import given, settings, strategies as st

from fpminpoly.formulas import _delta_list, _lowpass_list
from fpminpoly.oracle import delta_basis_rows
from fpminpoly.polyring import (Polynomial, PolyRing, apply_axis_transform,
                                vandermonde_rows)

#: Largest arity per modulus that keeps p^n small enough for a quick test.
MAX_ARITY = {2: 8, 3: 5, 5: 3, 7: 3, 11: 2, 13: 2}


def reference_axis_transform(vals, p, n, matrix):
    """The fiber loop: one length-p fiber at a time, in place."""
    size = len(vals)
    rows = [tuple(row) for row in matrix]
    stride = 1
    for _axis in range(n):
        period = stride * p
        for start in range(0, size, period):
            for off in range(start, start + stride):
                fiber = [vals[off + e * stride] for e in range(p)]
                for a in range(p):
                    acc = 0
                    row = rows[a]
                    for e in range(p):
                        acc += row[e] * fiber[e]
                    vals[off + a * stride] = acc % p
        stride = period


def reference_mul(f, g):
    """The pair loop: every nonzero pair, exponents added digit by digit."""
    ring = f.ring
    p = ring.p
    out = [0] * ring.size
    exps = ring.exponents
    for i, ca in enumerate(f.coeffs):
        if not ca:
            continue
        for j, cb in enumerate(g.coeffs):
            if not cb:
                continue
            k = 0
            for d1, d2, w in zip(exps[i], exps[j], ring.strides):
                d = d1 + d2
                if d >= p:
                    d -= p - 1
                k += d * w
            out[k] = (out[k] + ca * cb) % p
    return Polynomial(ring, out)


@st.composite
def ring_and_table(draw):
    p = draw(st.sampled_from(sorted(MAX_ARITY)))
    n = draw(st.integers(1, MAX_ARITY[p]))
    values = draw(st.lists(st.integers(0, p - 1), min_size=p**n, max_size=p**n))
    return p, n, values


@st.composite
def sparse_dense_pair(draw):
    """A dense random polynomial and a sparse one with few nonzero terms."""
    p, n, values = draw(ring_and_table())
    ring = PolyRing(p, n)
    positions = draw(st.lists(st.integers(0, ring.size - 1), min_size=0, max_size=6))
    sparse = [0] * ring.size
    for pos in positions:
        sparse[pos] = draw(st.integers(1, p - 1))
    return ring.from_coeffs(values), ring.from_coeffs(sparse)


class TestAxisTransform:
    @settings(max_examples=120, deadline=None)
    @given(ring_and_table(), st.sampled_from(["vandermonde", "delta"]))
    def test_matches_fiber_loop(self, case, which):
        p, n, values = case
        matrix = vandermonde_rows(p) if which == "vandermonde" else delta_basis_rows(p)
        expected = list(values)
        reference_axis_transform(expected, p, n, matrix)
        got = list(values)
        apply_axis_transform(got, p, n, matrix)
        assert got == expected

    def test_modifies_the_given_list_in_place(self):
        vals = [1, 2, 0, 1, 1, 2, 0, 0, 2]
        alias = vals
        expected = list(vals)
        reference_axis_transform(expected, 3, 2, vandermonde_rows(3))
        apply_axis_transform(vals, 3, 2, vandermonde_rows(3))
        assert alias is vals and vals == expected

    def test_unreduced_matrix_entries(self):
        vals = [2, 0, 1, 1, 2, 2, 0, 1, 0]
        matrix = ((4, 0, -1), (0, 0, 0), (1, 7, 3))
        expected = list(vals)
        reference_axis_transform(expected, 3, 2, matrix)
        apply_axis_transform(vals, 3, 2, matrix)
        assert vals == expected


class TestMultiply:
    @settings(max_examples=150, deadline=None)
    @given(sparse_dense_pair())
    def test_sparse_times_dense_matches_pair_loop(self, pair):
        dense, sparse = pair
        assert dense * sparse == reference_mul(dense, sparse)
        assert sparse * dense == reference_mul(sparse, dense)

    @settings(max_examples=60, deadline=None)
    @given(ring_and_table(), st.data())
    def test_dense_times_dense_matches_pair_loop(self, case, data):
        p, n, values = case
        ring = PolyRing(p, n)
        other = data.draw(st.lists(st.integers(0, p - 1),
                                   min_size=ring.size, max_size=ring.size))
        f, g = ring.from_coeffs(values), ring.from_coeffs(other)
        assert f * g == reference_mul(f, g)


class TestSingleVariablePieces:
    @pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 2), (7, 2), (11, 1), (13, 2)])
    def test_match_full_ring_expressions(self, p, n):
        ring = PolyRing(p, n)
        for i in range(n):
            x = ring.variable(i)
            deltas = [1 - (x - t) ** (p - 1) for t in range(p)]
            lows = [ring.zero()]
            for t in range(p):
                lows.append(lows[-1] + deltas[t])
            assert _delta_list(ring, i) == deltas
            assert _lowpass_list(ring, i) == lows

