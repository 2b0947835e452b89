import copy
from dataclasses import FrozenInstanceError
import itertools
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fpminpoly import oracle
from fpminpoly.ff import PrimeField
from fpminpoly.oracle import (FunctionSpec, TruthTable, argmax_digit_sem,
                              argmax_sem, argmin_sem, carry_sem, interpolate,
                              ismax_2bit_sem, ismax_sem, max_sem, min_sem,
                              nummax_count, nummax_digit_sem, point_at, tabulate)
from fpminpoly.formulas import CATALOG
from fpminpoly.polyring import PolyRing, SizeGuardError, lagrange_rows


def naive_interpolate(table):
    """Literal delta-product interpolation; the independent reference path.

    Builds sum over points of value * product of univariate indicators,
    entirely with ring operations (no basis-matrix transform involved).
    """
    ring = PolyRing(table.p, table.arity)
    acc = ring.zero()
    for idx, value in enumerate(table.values):
        if not value:
            continue
        point = point_at(table.p, table.arity, idx)
        term = ring.constant(value)
        for i, a in enumerate(point):
            term = term * (1 - (ring.variable(i) - a) ** (table.p - 1))
        acc = acc + term
    return acc


class TestSemantics:
    def test_max_min_examples(self):
        assert max_sem((1, 2)) == 2
        assert max_sem((0, 0, 0)) == 0
        assert min_sem((2, 1, 2)) == 1
        with pytest.raises(ValueError):
            max_sem(())

    def test_min_max_involution_duality(self):
        F = PrimeField(5)
        rng = random.Random(0)
        for _ in range(50):
            xs = [rng.randrange(5) for _ in range(4)]
            bar = [F.involute(v) for v in xs]
            assert F.involute(min_sem(xs)) == max_sem(bar)

    def test_argmax_least_index_tie_break(self):
        assert argmax_sem((2, 2, 0)) == 0
        assert argmax_sem((0, 1, 1)) == 1

    def test_argmax_digits(self):
        # first maximum at index 3 = binary 11
        xs = (0, 0, 0, 1, 0)
        assert argmax_digit_sem(xs, 0, 2) == 1
        assert argmax_digit_sem(xs, 1, 2) == 1
        assert argmax_digit_sem(xs, 2, 2) == 0

    def test_argmax_padding_invariance(self):
        # appending a zero input never changes the least maximizing index
        for n in range(1, 5):
            small_spec = FunctionSpec("argmax_digit", 2, n, 0)
            big_spec = FunctionSpec("argmax_digit", 2, n + 1, 0)
            for point_idx in range(2**n):
                point = point_at(2, n, point_idx)
                assert small_spec.evaluate(point) == big_spec.evaluate(point + (0,))

    def test_argmin_is_involuted_argmax(self):
        F = PrimeField(3)
        for xs in itertools.product(range(3), repeat=4):
            bar = tuple(F.involute(v) for v in xs)
            assert argmin_sem(xs) == argmax_sem(bar)

    def test_ismax_examples(self):
        assert ismax_sem(2, (0, 2)) == 1
        assert ismax_sem(0, (0, 0, 0)) == 1
        assert ismax_sem(1, (2, 0)) == 0

    def test_nummax_examples(self):
        assert nummax_count((1, 1, 0)) == 2
        assert nummax_digit_sem((1, 1, 0), 0, 2) == 0
        assert nummax_digit_sem((1, 1, 0), 1, 2) == 1
        assert nummax_digit_sem((4, 4, 4), 0, 5) == 3
        # a unique maximum means count 1: digit 0 is 1, higher digits 0
        assert nummax_digit_sem((0, 3, 1), 0, 5) == 1
        assert nummax_digit_sem((0, 3, 1), 1, 5) == 0

    def test_carry_examples(self):
        assert carry_sem(2, 2, 3) == 1
        assert carry_sem(0, 2, 3) == 0
        assert carry_sem(4, 1, 5) == 1

    def test_argmax_pair_is_carry_of_involution(self):
        F = PrimeField(5)
        for x0 in range(5):
            for x1 in range(5):
                assert (argmax_digit_sem((x0, x1), 0, 5)
                        == carry_sem(F.involute(x0), x1, 5))

    def test_ismax_2bit_examples(self):
        assert ismax_2bit_sem((1, 1), [(1, 1), (0, 1)]) == 1  # y=3, max(3,1)=3
        assert ismax_2bit_sem((0, 0), [(0, 0), (0, 0)]) == 1
        assert ismax_2bit_sem((1, 0), [(1, 1)]) == 0          # y=2 but max=3


class TestFunctionSpec:
    def test_arities(self):
        assert FunctionSpec("max", 3, 4).arity == 4
        assert FunctionSpec("ismax", 3, 4).arity == 5
        assert FunctionSpec("ismax_2bit", 2, 3).arity == 8
        assert FunctionSpec("carry", 5, 2).arity == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            FunctionSpec("maximum", 3, 2)
        with pytest.raises(ValueError):
            FunctionSpec("max", 4, 2)
        with pytest.raises(ValueError):
            FunctionSpec("max", 3, 0)
        with pytest.raises(ValueError):
            FunctionSpec("argmax_digit", 3, 2, -1)
        with pytest.raises(ValueError):
            FunctionSpec("carry", 3, 3)
        with pytest.raises(ValueError):
            FunctionSpec("ismax_2bit", 3, 2)

    @pytest.mark.parametrize("kind, n, r", [
        ("argmax_digit", 2, 1.5), ("max", True, 0), ("max", 2.0, 0), ("max", "2", 0),
        ("argmax_digit", 2, False), ("max", 2, None)])
    def test_non_int_count_or_digit_is_refused(self, kind, n, r):
        with pytest.raises(ValueError, match="must be an int"):
            FunctionSpec(kind, 3, n, r)


class TestTabulate:
    def test_max_p2_n1(self):
        assert tabulate(FunctionSpec("max", 2, 1)).values == bytes((0, 1))

    def test_argmax_digit_p2_n2(self):
        # points in order (0,0), (1,0), (0,1), (1,1); least-index tie-break
        # puts the single 1 at input (0,1).
        t = tabulate(FunctionSpec("argmax_digit", 2, 2, 0))
        assert t.values == bytes((0, 0, 1, 0))

    def test_ismax_p3_n2_length(self):
        assert len(tabulate(FunctionSpec("ismax", 3, 2)).values) == 27

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            tabulate(FunctionSpec("max", 2, 25))  # 2^25 > default cap
        with pytest.raises(SizeGuardError):
            tabulate(FunctionSpec("max", 2, 5), max_table_size=16)
        t = tabulate(FunctionSpec("max", 2, 5), max_table_size=32)
        assert len(t.values) == 32

    def test_truth_table_json_round_trip(self):
        t = tabulate(FunctionSpec("min", 3, 2))
        assert TruthTable.from_json(t.to_json()) == t

    def test_truth_table_validation(self):
        with pytest.raises(ValueError):
            TruthTable(3, 1, (0, 1))
        with pytest.raises(ValueError):
            TruthTable(3, 1, (0, 1, 3))
        with pytest.raises(ValueError):
            TruthTable(3, -1, (0,))
        with pytest.raises(ValueError, match=r"2\^30000000 values, got 1"):
            TruthTable(2, 30000000, (0,))
        with pytest.raises(ValueError, match="arity must be a nonnegative int, got True"):
            TruthTable(2, True, (0, 1))
        with pytest.raises(ValueError, match="must be an int, got True"):
            TruthTable(2, 1, [0, True])
        with pytest.raises(ValueError, match="must be an int, got 1.0"):
            TruthTable(2, 1, (0, 1.0))

    @pytest.mark.parametrize("p", [3, 131])
    def test_truth_table_from_list_tuple_or_bytes_is_one_table(self, p):
        vals = [v % p for v in range(p * p)]
        tables = [TruthTable(p, 2, form(vals)) for form in (list, tuple, bytes)]
        assert tables[0] == tables[1] == tables[2]
        assert len({hash(t) for t in tables}) == 1
        assert type(tables[0].values) is (bytes if p < 128 else tuple)

    def test_truth_table_keeps_no_reference_to_the_given_list(self):
        vals = [0, 1]
        t = TruthTable(2, 1, vals)
        vals[0] = 5
        assert t.values == bytes((0, 1))
        assert interpolate(t).coeffs == bytes((0, 1))
        assert hash(t) == hash(TruthTable(2, 1, (0, 1)))

    def test_truth_table_refuses_bytes_out_of_range_as_it_does_a_list(self):
        with pytest.raises(ValueError) as from_list:
            TruthTable(3, 2, [0, 1, 2, 0, 7, 1, 9, 0, 0])
        with pytest.raises(ValueError) as from_bytes:
            TruthTable(3, 2, bytes((0, 1, 2, 0, 7, 1, 9, 0, 0)))
        assert str(from_bytes.value) == str(from_list.value) == \
            "field element 7 out of range [0, 3)"

    def test_size_guard_message_does_not_format_the_size(self):
        with pytest.raises(SizeGuardError, match=r"2\^30000000 exceeds the cap of 100"):
            tabulate(FunctionSpec("max", 2, 30000000, 0), max_table_size=100)

    @pytest.mark.parametrize("spec", [FunctionSpec("max", 1021, 2),
                                      FunctionSpec("argmax_digit", 5, 8, 1),
                                      FunctionSpec("argmax_digit", 2, 20, 1),
                                      FunctionSpec("argmax_digit", 3, 12, 1)],
                             ids=["tuple-path", "bytes-path", "word-path", "plane-path"])
    def test_peak_memory_stays_near_the_table(self, spec):
        # The fold's rows and id tables are small beside the result; building
        # every row of the last axis at once would double the peak.
        tabulate(FunctionSpec(spec.kind, spec.p, 1, spec.r))  # warm caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = tabulate(spec)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        entries = spec.p ** spec.arity
        assert len(table.values) == entries
        if spec.p < 4:
            # Built as planes: the result is p - 1 bits an entry, and the
            # indicators of the live fold states (at most p * n of them here,
            # each at most a p-th of the table) are held beside it.  Decoding
            # the values would take a byte an entry more.
            assert peak - base <= 2 * entries, (size - base, peak - base)
        elif type(table.values) is tuple:
            assert peak - base <= 1.25 * (size - base), (size - base, peak - base)
        else:
            # A bytes result is 8x smaller than a tuple of it, and the previous
            # axis's id table (a p-th of the result) is held beside it: the
            # peak stays within a tuple result's 8 bytes an entry and within
            # 3x the packed result.
            assert peak - base <= 8 * entries, (size - base, peak - base)
            assert peak - base <= 3 * (size - base), (size - base, peak - base)

    def test_huge_digit_index_is_zero_without_exponentiating(self):
        t = tabulate(FunctionSpec("argmax_digit", 3, 2, 10**12))
        assert set(t.values) == {0}
        assert nummax_digit_sem((1, 1, 1), 10**12, 3) == 0


class TestLazyTruthTable:
    """At every p ``tabulate`` makes the stored form and ``values`` is
    decoded from it on first use: nothing visible may differ from a table
    given its values."""

    SPECS = [FunctionSpec("max", 2, 5), FunctionSpec("argmax_digit", 3, 4, 1),
             FunctionSpec("ismax", 3, 2), FunctionSpec("ismax_2bit", 2, 2),
             FunctionSpec("carry", 3, 2), FunctionSpec("max", 5, 3),
             FunctionSpec("argmax_digit", 131, 2, 1)]

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_tabulated_table_is_the_table_of_its_values(self, spec):
        made = tabulate(spec)
        given = TruthTable(spec.p, spec.arity, list(made.values))
        fresh = tabulate(spec)  # nothing read yet
        assert fresh == given and given == fresh and not fresh != given
        assert hash(tabulate(spec)) == hash(given)
        assert repr(tabulate(spec)) == repr(given)
        assert tabulate(spec).to_json() == given.to_json()
        assert tabulate(spec).to_dict() == given.to_dict()
        assert TruthTable.from_json(tabulate(spec).to_json()) == tabulate(spec)
        assert interpolate(tabulate(spec)) == interpolate(given)

    def test_repr_and_hash_are_the_dataclass_ones(self):
        t = tabulate(FunctionSpec("max", 3, 1))
        assert repr(t) == "TruthTable(p=3, arity=1, values=b'\\x00\\x01\\x02')"
        assert hash(t) == hash((3, 1, b"\x00\x01\x02"))

    def test_tables_differing_in_p_arity_or_values_differ(self):
        t = tabulate(FunctionSpec("max", 2, 2))
        assert t != tabulate(FunctionSpec("min", 2, 2))
        assert t != TruthTable(2, 1, (0, 1)) and t != TruthTable(3, 2, [0] * 9)
        assert t != (2, 2, t.values) and t != object()

    @pytest.mark.parametrize("p, n", [(2, 6), (3, 6), (5, 6), (131, 2)])
    def test_values_are_decoded_once_and_kept(self, p, n, monkeypatch):
        calls = []
        original = oracle._unstore

        def recorded(*args):
            calls.append(args[1:])
            return original(*args)

        monkeypatch.setattr(oracle, "_unstore", recorded)
        t = tabulate(FunctionSpec("argmax_digit", p, n, 1))
        assert t == tabulate(FunctionSpec("argmax_digit", p, n, 1)) and calls == []
        first = t.values
        assert t.values is first and calls == [(p, p ** n)]
        hash(t), repr(t), t.to_json()
        assert calls == [(p, p ** n)]
        assert TruthTable(p, n, first).values is not None and calls == [(p, p ** n)]

    def test_table_is_immutable(self):
        t = tabulate(FunctionSpec("max", 2, 3))
        for name in ("p", "arity", "values", "_stored"):
            with pytest.raises(FrozenInstanceError):
                setattr(t, name, 0)
            with pytest.raises(FrozenInstanceError):
                delattr(t, name)
        assert t == TruthTable(2, 3, (0,) + (1,) * 7)

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_copies_and_pickles_are_equal(self, spec):
        t = tabulate(spec)
        for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert other == t and hash(other) == hash(t) and other.values == t.values


def automaton_train(spec, change=None):
    """``PolyRing.train`` of the coefficient cores read off
    ``oracle._automaton(spec)``.

    Core k takes state a to state b by the sum of the delta rows (the
    columns of ``lagrange_rows(p)``) of the x with ``rows[x][a] == b``, or
    by no step; the last core takes state a to the one end state by
    sum_x value * delta_x.  ``change = (a, x, v)`` sets the value of state
    a at x on the last axis to v first.
    """
    p = spec.p
    deltas = list(zip(*lagrange_rows(p)))
    *levels, (value_rows, _) = oracle._automaton(spec)
    cores = []
    for rows, width in levels:
        core = [[()] * width for _ in rows[0]]
        for delta, row in zip(deltas, rows):
            for a, b in enumerate(row):
                core[a][b] = tuple((u + v) % p for u, v in zip(core[a][b] or (0,) * p, delta))
        cores.append(core)
    value_rows = [list(row) for row in value_rows]
    if change is not None:
        a, x, v = change
        value_rows[x][a] = v
    cores.append([[tuple(sum(row[a] * delta[e] for row, delta in zip(value_rows, deltas)) % p
                         for e in range(p))] for a in range(len(value_rows[0]))])
    return PolyRing(p, spec.arity).train(cores)


class TestAutomaton:
    """The automaton is also the oracle as a tensor train: its cores,
    contracted, give the interpolated truth table.  ``tabulate`` and
    ``interpolate`` stay the arbiter; this reading is checked here only."""

    GRID = [entry.spec_of(p, n, r)
            for entry in CATALOG.values() for p, n, r in entry.verify_grid]

    def test_train_of_the_cores_is_the_interpolated_table(self):
        for spec in self.GRID:
            assert automaton_train(spec) == interpolate(tabulate(spec)), spec

    @pytest.mark.parametrize("spec", [FunctionSpec("argmax_digit", 3, 12, 1),
                                      FunctionSpec("nummax_digit", 2, 20, 2),
                                      FunctionSpec("max", 5, 8), FunctionSpec("ismax", 17, 3)],
                             ids=repr)
    def test_train_of_the_cores_is_the_interpolated_table_at_size(self, spec):
        assert automaton_train(spec) == interpolate(tabulate(spec))

    @pytest.mark.parametrize("spec", [FunctionSpec("argmax_digit", 3, 5, 1),
                                      FunctionSpec("max", 2, 4), FunctionSpec("carry", 5, 2),
                                      FunctionSpec("ismax", 17, 1)], ids=repr)
    def test_one_changed_value_changes_the_train(self, spec):
        oracle_poly = interpolate(tabulate(spec))
        *_, (value_rows, _) = oracle._automaton(spec)
        for x, row in enumerate(value_rows):
            for a, v in enumerate(row):
                changed = automaton_train(spec, (a, x, (v + 1) % spec.p))
                assert changed != oracle_poly, (a, x)

    def test_levels_step_each_reached_state(self):
        # rows[x][s] ids a state of the next level, one id per distinct
        # state, and every id is reached.
        spec = FunctionSpec("nummax_digit", 3, 5, 1)
        start, step, finish = spec.fold()
        states = [start]
        *levels, (value_rows, bound) = oracle._automaton(spec)
        for k, (rows, width) in enumerate(levels):
            assert len(rows) == spec.p and all(len(row) == len(states) for row in rows)
            assert {b for row in rows for b in row} == set(range(width))
            nxt = [None] * width
            for x, row in enumerate(rows):
                for s, b in zip(states, row):
                    assert nxt[b] in (None, step(s, k, x))
                    nxt[b] = step(s, k, x)
            assert len(set(nxt)) == width
            states = nxt
        assert bound == spec.p
        assert [list(row) for row in value_rows] == [
            [finish(step(s, spec.arity - 1, x)) for s in states] for x in range(spec.p)]


class TestInterpolate:
    def test_argmax_p2_n2_gives_printed_form(self):
        t = tabulate(FunctionSpec("argmax_digit", 2, 2, 0))
        f = interpolate(t)
        ring = f.ring
        assert f == (1 + ring.variable(0)) * ring.variable(1)

    def test_argmax_p3_n2_gives_printed_form(self):
        t = tabulate(FunctionSpec("argmax_digit", 3, 2, 0))
        f = interpolate(t)
        ring = f.ring
        x0, x1 = ring.variable(0), ring.variable(1)
        assert f == -((x0 + 1) * (x0 - x1) * x1)

    def test_constant_zero_table(self):
        t = TruthTable(3, 2, (0,) * 9)
        assert interpolate(t) == PolyRing(3, 2).zero()

    def test_matches_naive_delta_product_sum(self):
        rng = random.Random(11)
        for p, n in ((2, 3), (3, 2), (5, 1)):
            for _ in range(3):
                t = TruthTable(p, n, tuple(rng.randrange(p) for _ in range(p**n)))
                assert interpolate(t) == naive_interpolate(t)

    def test_round_trip_for_every_kind(self):
        specs = [
            FunctionSpec("max", 3, 2), FunctionSpec("min", 3, 2),
            FunctionSpec("argmax_digit", 2, 3, 0), FunctionSpec("argmax_digit", 3, 2, 1),
            FunctionSpec("argmin_digit", 3, 2, 0), FunctionSpec("ismax", 2, 2),
            FunctionSpec("nummax_digit", 2, 3, 1), FunctionSpec("carry", 5, 2),
            FunctionSpec("ismax_2bit", 2, 2),
        ]
        for spec in specs:
            t = tabulate(spec)
            f = interpolate(t)
            assert f.values() == t.values, spec
            assert f.is_minimal_form(), spec

    def test_uniqueness_round_trip_on_random_tables(self):
        rng = random.Random(12)
        for p, n in ((2, 4), (3, 3), (3, 6)):
            size = p**n
            t = TruthTable(p, n, tuple(rng.randrange(p) for _ in range(size)))
            f = interpolate(t)
            assert f.values() == t.values
            assert interpolate(TruthTable(p, n, f.values())) == f

    @given(st.sampled_from([(2, 3), (3, 2)]), st.data())
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, pn, data):
        p, n = pn
        size = p**n
        cells = st.integers(0, p - 1)
        v1 = data.draw(st.lists(cells, min_size=size, max_size=size))
        v2 = data.draw(st.lists(cells, min_size=size, max_size=size))
        t1 = TruthTable(p, n, tuple(v1))
        t2 = TruthTable(p, n, tuple(v2))
        tsum = TruthTable(p, n, tuple((a + b) % p for a, b in zip(v1, v2)))
        assert interpolate(tsum) == interpolate(t1) + interpolate(t2)

    def test_min_is_involution_conjugate_of_max(self):
        from fpminpoly.formulas import involution_conjugate

        for p in (2, 3, 5):
            for n in (1, 2, 3):
                max_poly = interpolate(tabulate(FunctionSpec("max", p, n)))
                min_poly = interpolate(tabulate(FunctionSpec("min", p, n)))
                assert involution_conjugate(max_poly) == min_poly
