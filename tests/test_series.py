import json
import os
import random
import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import thetaforms.series as series
from thetaforms.series import (Series, _big_multiply, _layout, _pair_loop,
                               _row_kernel, alternate_sign, compose_power,
                               invert, is_nonnegative, packed_sum, sift,
                               sift_product)
from thetaforms.theta import euler, euler_power, general_theta, named_function
from oracles import schoolbook

ROOT = Path(__file__).resolve().parents[1]

# every product kernel; the packed ones need a nonzero in each operand
KERNELS = (_pair_loop, _row_kernel, _big_multiply)


def run_kernel(kernel, a, b, n_out):
    """The coefficients of kernel(a, b, n_out), handed the supports below
    n_out that series._convolve lists for it: one list for a square (a is
    b).  A packed kernel's sign report must say whether one is negative."""
    if kernel is _pair_loop:
        ia = series._nonzero(a[:n_out])
        return kernel(a, b, n_out, ia,
                      ia if a is b else series._nonzero(b[:n_out]))
    if kernel is _big_multiply:
        coeffs, negative = kernel(a, b, n_out)
    else:
        coeffs, negative = kernel(a, b, n_out, series._nonzero(a[:n_out]))
    assert negative == any(c < 0 for c in coeffs)
    return coeffs


coeff_lists = st.lists(st.integers(min_value=-40, max_value=40),
                       min_size=1, max_size=24)


@st.composite
def long_coeffs(draw, min_size=200, max_size=2000):
    """Several hundred to a few thousand coefficients: all zero, a single
    nonzero, sparse or dense, with magnitudes up to 1, 40 or 2**70."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    kind = draw(st.sampled_from(("zero", "single", "sparse", "dense")))
    bound = draw(st.sampled_from((1, 40, 2 ** 70)))
    rng = draw(st.randoms(use_true_random=False))
    out = [0] * n
    if kind == "single":
        out[rng.randrange(n)] = rng.choice((-1, 1)) * rng.randint(1, bound)
    elif kind != "zero":
        count = rng.randint(1, 3 * isqrt(n)) if kind == "sparse" else n
        for i in rng.sample(range(n), count):
            out[i] = rng.randint(-bound, bound)
    return out


WIDTH_EDGE_BITS = [7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 201]


def width_edge_cases(bits):
    """(m, b, cases): for each a in cases, a * b at 40 terms has largest
    |coefficient| m, of the given bit length (2**200 for 201).

    The output bound min(sum|a| * max|b|, sum|b| * max|a|) is m too, and
    the outputs reach -m and m, so both signs reach the top byte of a slot
    on either side of each width change.
    """
    m = 2 ** bits - 1 if bits != 201 else 2 ** 200
    n = 40
    b = [(-1) ** j for j in range(n)]
    cases = ([-m] + [0] * (n - 1),
             [-(m - 1), 1] + [0] * (n - 2),
             [m - 1, 0, 0, -1] + [0] * (n - 4))
    return m, b, cases


def brute_partitions(n):
    # partition counts by dynamic programming over part sizes
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table


class TestConstruction:
    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError):
            Series([1.0, 2.0])

    def test_immutable(self):
        s = Series([1, 2, 3])
        with pytest.raises(AttributeError):
            s.coeffs = (0,)

    def test_truncate(self):
        s = Series([1, 2, 3])
        assert s.truncate(2) == Series([1, 2])
        assert s.truncate(0) == Series([])
        for n in (-1, -3, 4):
            with pytest.raises(ValueError):
                s.truncate(n)

    def test_getitem_outside_truncation(self):
        s = Series([1, 2, 3])
        assert s[2] == 3
        with pytest.raises(IndexError):
            s[3]

    def test_len_is_the_truncation(self):
        assert len(Series([0, 5, 0, 0])) == 4

    def test_negative_exponents_are_refused(self):
        with pytest.raises(ValueError,
                           match="^monomial exponent must be >= 0$"):
            Series.monomial(-1, 3)
        with pytest.raises(ValueError, match="^series exponent must be a "
                                             "nonnegative integer$"):
            Series([1, 2, 3]) ** -1

    @pytest.mark.parametrize("coeffs", [[], [1, 2], [0, -3, 0, 0, 5, 0, 0, 7]])
    def test_short_repr_round_trips(self, coeffs):
        s = Series(coeffs)
        assert repr(s) == f"Series({coeffs})"
        assert eval(repr(s), {"Series": Series}) == s

    def test_long_repr_shows_head_and_length(self):
        assert (repr(Series(range(-1, 9)))
                == "<Series of 10 terms: -1, 0, 1, 2, 3, 4, 5, 6, ...>")


class TestAdd:
    def test_additive_identity(self):
        a = Series([1, 1, 0])
        assert a + Series.zero(3) == a

    def test_coefficientwise(self):
        assert Series([1, 2]) + Series([1, 1]) == Series([2, 3])

    def test_min_truncation(self):
        out = Series([1, 0, 0, 0, 0]) + Series([0, 1, 0])
        assert out.truncation == 3

    def test_sub_min_truncation(self):
        assert Series([5, 1, 2]) - Series([3, 4]) == Series([2, -3])
        assert Series([3, 4]) - Series([5, 1, 2]) == Series([-2, 3])

    @pytest.mark.parametrize("op, symbol, other", [
        (lambda s, x: s + x, "+", 1), (lambda s, x: s - x, "-", 1),
        (lambda s, x: s * x, "*", 1.5)], ids=["add", "sub", "mul"])
    def test_other_operand_is_type_error(self, op, symbol, other):
        # the operator returns NotImplemented, so Python names both types
        with pytest.raises(TypeError) as info:
            op(Series([1, 2]), other)
        assert str(info.value) == (f"unsupported operand type(s) for "
                                   f"{symbol}: 'Series' and "
                                   f"'{type(other).__name__}'")


class TestMul:
    def test_multiplicative_identity(self):
        a = Series([3, -1, 4, 1])
        assert a * Series.one(4) == a

    def test_small_product(self):
        out = Series([1, 1, 0]) * Series([1, -1, 0])
        assert out == Series([1, 0, -1])

    def test_psi_square_equals_phi_times_shifted_psi(self):
        n = 200
        psi = named_function("psi", n)
        assert psi * psi == (named_function("phi", n)
                             * named_function("psi", n, 2))

    def test_long_product_matches_schoolbook(self):
        # exercise the packed big-integer path against the double loop
        rng = random.Random(7)
        a = [rng.randrange(-50, 50) for _ in range(300)]
        b = [rng.randrange(-50, 50) for _ in range(300)]
        expected = schoolbook(a, b, 300)
        assert (Series(a) * Series(b)).coeffs == tuple(expected)


class TestProductPaths:
    """Long products against the schoolbook loop, through each kernel and
    through the selection between them."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(long_coeffs(), long_coeffs())
    def test_mul_matches_schoolbook(self, a, b):
        n = min(len(a), len(b))
        expected = schoolbook(a, b, n)
        assert (Series(a) * Series(b)).coeffs == tuple(expected)
        for kernel in KERNELS if any(a) and any(b) else (_pair_loop,):
            assert list(run_kernel(kernel, a, b, n)) == expected
            assert list(run_kernel(kernel, b, a, n)) == expected

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(long_coeffs(max_size=800), st.sampled_from((1, -1)))
    def test_invert_matches_schoolbook(self, a, unit):
        a[0] = unit
        inv = invert(Series(a))
        assert schoolbook(a, list(inv.coeffs), len(a)) == [1] + [0] * (len(a) - 1)

    def test_theta_factors_match_schoolbook(self):
        n = 4000
        phi = named_function("phi", n).coeffs
        psi = named_function("psi", n).coeffs
        expected = schoolbook(psi, phi, n)
        assert (Series(psi) * Series(phi)).coeffs == tuple(expected)
        for kernel in KERNELS:
            assert list(run_kernel(kernel, psi, phi, n)) == expected

    def test_output_beyond_operand_lengths(self):
        a, b = [3, -1, 2 ** 80], [-5, 7]
        expected = schoolbook(a, b, 6)
        for kernel in KERNELS:
            assert list(run_kernel(kernel, a, b, 6)) == expected
            assert list(run_kernel(kernel, b, a, 6)) == expected

    @pytest.mark.parametrize("bound, width", [
        (0, 1), (1, 1), (2 ** 7 - 1, 1), (2 ** 7, 2), (2 ** 8 - 1, 2),
        (2 ** 15 - 1, 2), (2 ** 15, 4), (2 ** 16 - 1, 4), (2 ** 23, 4),
        (2 ** 31 - 1, 4), (2 ** 31, 8), (2 ** 32 - 1, 8), (2 ** 63 - 1, 8),
        (2 ** 63, 9), (2 ** 64 - 1, 9), (2 ** 127 - 1, 16), (2 ** 127, 17),
        (2 ** 128 - 1, 17), (2 ** 200, 26),
    ])
    def test_layout(self, bound, width):
        # one coefficient +-bound on one side and +-1 on the other
        assert _layout([bound], [1]) == width
        assert _layout([1], [-bound]) == width

    @pytest.mark.parametrize("bits", WIDTH_EDGE_BITS)
    def test_slot_width_edges(self, bits):
        m, b, cases = width_edge_cases(bits)
        n = len(b)
        for a in cases:
            expected = schoolbook(a, b, n)
            assert max(map(abs, expected)) == m
            assert min(expected) < 0
            for kernel in KERNELS:
                assert list(run_kernel(kernel, a, b, n)) == expected
                assert list(run_kernel(kernel, b, a, n)) == expected

    @pytest.mark.parametrize("bits", WIDTH_EDGE_BITS)
    def test_truncation_edges(self, bits):
        # The row kernel packs b in reverse and drops what a right shift
        # takes past n_out: rows at and past n_out, a b shorter than n_out,
        # and a first row above exponent 0, at odd and even n_out, at each
        # slot width of test_slot_width_edges.
        _, b, cases = width_edge_cases(bits)
        n = len(b)
        for a in cases:
            for n_out in (n - 1, n):
                for x, y in ((a + [7, -9], b), (a, b[:n // 2]),
                             ([0] * 5 + a[:n - 5], b[:n - 3])):
                    expected = schoolbook(x, y, n_out)
                    for kernel in KERNELS:
                        for u, v in ((x, y), (y, x)):
                            assert list(run_kernel(kernel, u, v, n_out)) \
                                == expected

    @pytest.mark.parametrize("psi_step, s", [(1, 7), (2, 3)])
    def test_positivity_shape_takes_row_kernel(self, psi_step, s,
                                               monkeypatch):
        # psi(q^psi_step) * (phi(q)^2 - phi(q^s)^2) at 40 000 terms, the
        # shape of the long positivity checks (entries 1.13 and 2.12)
        n = 40000
        phi = named_function("phi", n)
        phis = named_function("phi", n, s)
        psi = named_function("psi", n, psi_step)
        dense = phi * phi - phis * phis
        expected = run_kernel(_big_multiply, psi.coeffs, dense.coeffs, n)
        assert tuple(run_kernel(_pair_loop, psi.coeffs, dense.coeffs, n)) \
            == expected

        def refuse(*args):
            raise AssertionError("a kernel other than the row kernel ran")

        monkeypatch.setattr(series, "_big_multiply", refuse)
        monkeypatch.setattr(series, "_pair_loop", refuse)
        assert (psi * dense).coeffs == tuple(expected)
        assert (dense * psi).coeffs == tuple(expected)


# row coefficients of the sparser operand: unit rows, a few repeated
# values, every row distinct, and values near 2**40 with units among them
GROUPS = {
    "units": (1, -1),
    "mixed": (1, -1, 2, -3, 2, 1, -3),
    "distinct": None,
    "wide": (2 ** 40, -(2 ** 40) + 1, 1, 2 ** 40, -1, 2 ** 40 + 3),
}


def grouped_rows(kind, seed, length=300, count=60):
    """A sparse operand of count rows at random exponents below length,
    with coefficients cycling through one of the GROUPS kinds, or each
    row its own for "distinct"."""
    rng = random.Random(seed)
    values = GROUPS[kind]
    out = [0] * length
    for k, i in enumerate(sorted(rng.sample(range(length), count))):
        out[i] = (-1) ** k * (k + 4) if values is None \
            else values[k % len(values)]
    return out


class TestGroupedRows:
    """The row kernel sums the rows of each distinct coefficient and
    multiplies once per coefficient; the product is still exactly the
    schoolbook one."""

    @pytest.mark.parametrize("kind", sorted(GROUPS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_schoolbook(self, kind, seed):
        a = grouped_rows(kind, seed)
        rng = random.Random(-seed)
        top = 2 ** 40 if kind == "wide" else 5
        b = [rng.randint(-top, top) for _ in range(257)]
        if kind == "wide":
            # slots past struct's 8 bytes
            assert _layout(a, b) > 8
        for n_out in (256, 257, 258, 299, 300, 301):
            expected = schoolbook(a, b, n_out)
            for x, y in ((a, b), (b, a)):
                assert list(run_kernel(_row_kernel, x, y, n_out)) == expected

    @pytest.mark.parametrize("kind", sorted(GROUPS))
    def test_rows_at_and_past_n_out(self, kind):
        # rows at exponent 0 and at the top of the operand, cut by n_out
        a = grouped_rows(kind, 4, length=64, count=64)
        b = [(-1) ** j * (j % 7) for j in range(40)]
        for n_out in (1, 39, 40, 41, 63, 64, 65):
            expected = schoolbook(a, b, n_out)
            for x, y in ((a, b), (b, a)):
                assert list(run_kernel(_row_kernel, x, y, n_out)) == expected


class TestCodec:
    """The packed kernels' one codec at each slot width: struct's 1, 2, 4
    and 8 bytes and a wider slot of one to_bytes/from_bytes call each.
    Each a has one nonzero, +-1, so the slot bound of both kernels is m."""

    @pytest.mark.parametrize("m, width", [
        pytest.param(m, width, id=f"width-{width}") for m, width in (
            (100, 1), (2 ** 14, 2), (2 ** 30, 4), (2 ** 62, 8), (2 ** 63, 9),
            (2 ** 100, 13))])
    def test_kernels_match_schoolbook(self, m, width):
        b = [m, -3, 0, -m, 1, 0, 7]
        assert _layout([-1], b) == width
        cases = [
            ([0, 0, -1], b, 12),                    # b shorter than n_out
            ([1, 0, 0, 0], [-m] * 9, 9),            # all-negative b
            ([0, 1], [-m, -1, -m], 9),
            ([-1], [m, 5], 1),                      # n_out = 1
            ([1], [-m], 1),
            ([0] * 6 + [-1], b, 7),                 # one row at n_out - 1
            ([0] * 11 + [1], [-m] * 12, 12),
            ([1], [-1] + [0] * 8 + [m], 10),        # one negative, first
            ([1, 0, 0], [m] + [0] * 8 + [-1], 10),  # one negative, last
        ]
        for a, y, n_out in cases:
            expected = schoolbook(a, y, n_out)
            for kernel in (_row_kernel, _big_multiply):
                assert run_kernel(kernel, a, y, n_out) == tuple(expected)
                assert run_kernel(kernel, y, a, n_out) == tuple(expected)


class TestSlotBound:
    """Both packed kernels size their slots by sum|a| * max|b|.  For each
    pair below, with a the sparser, that bound lies one slot class above
    min(sum|a| * max|b|, sum|b| * max|a|), so the two orders of a pair
    pack in different classes."""

    @pytest.mark.parametrize("m, narrow, wide", [
        (2 ** 62 + 2 ** 61, 8, 9), (2 ** 70 + 2 ** 69, 9, 10)])
    def test_products_across_slot_classes(self, m, narrow, wide):
        a = [1, 0, -1, 0, 0, 0, 0]
        b = [-m, 1, 1, 0, 0, 0, 0]
        assert sum(map(abs, b)) * max(map(abs, a)) == m + 2
        assert _layout(a, b) == wide and _layout(b, a) == narrow
        assert _layout([m + 2], [1]) == narrow
        for n_out in (3, 5, 7):
            expected = schoolbook(a, b, n_out)
            for kernel in (_row_kernel, _big_multiply):
                assert run_kernel(kernel, a, b, n_out) == tuple(expected)
                assert run_kernel(kernel, b, a, n_out) == tuple(expected)


class TestPackedSum:
    """`packed_sum` against a plain double loop, on two parts of two
    weights each with several shifts per weight.  Where every shift lies
    below n and the coefficients are constant, the last output is the
    slot bound, taken on either side of each step of the width; the
    bound sums c once per shift (34 here, against 13 once per c), and
    the first part may hold the smaller coefficients."""

    # shifts reduced mod n, so each lies below n
    INSIDE = ({1: [0, 5, 39], 3: [1, 2]}, {2: [0, 17], 7: [4, 9, 39]})
    TERMS = 34

    @staticmethod
    def plain(parts, n):
        out = [0] * n
        for coeffs, weights in parts:
            for c, shifts in weights.items():
                for s in shifts:
                    for j in range(n - s):
                        out[j + s] += c * coeffs[j]
        return tuple(out)

    @staticmethod
    def edges(n):
        """Shifts at 0, n - 1, n and past n."""
        return ({1: [0, n - 1, n], 3: [n + 1, 0]},
                {2: [n - 1, 2 * n + 7], 5: [0, 0, n]})

    def check(self, first, second, n):
        inside = tuple({c: [s % n for s in shifts]
                        for c, shifts in weights.items()}
                       for weights in self.INSIDE)
        for weights in (inside, self.edges(n)):
            parts = list(zip((first, second), weights))
            assert packed_sum(parts, n) == self.plain(parts, n), (
                n, weights, max(first), max(second))

    def test_slot_widths(self):
        rng = random.Random(20261021)
        widths = set()
        for bits in (7, 15, 31, 63, 71, 103):
            for m in ((2 ** bits - 1) // self.TERMS,
                      -(-2 ** bits // self.TERMS)):
                widths.add(_layout([1] * self.TERMS, [m]))
                for n in (1, 2, 40):
                    for low in (m, 1):
                        self.check([low] * n, [m] * n, n)
                        self.check([rng.randint(0, low) for _ in range(n)],
                                   [rng.randint(0, m) for _ in range(n)], n)
        assert {1, 2, 4, 8} <= widths and max(widths) > 8

    def test_no_terms(self):
        assert packed_sum([((), {1: [0]}), ((5,), {2: [0, 3]})], 0) == ()

    def test_coefficients_move_by_each_shift(self):
        n = 40
        parts = [(list(range(1, n + 1)), {1: [0, 39], 4: [3, 40, 41]}),
                 (list(range(n, 0, -1)), {9: [1, 38], 2: [0]})]
        assert packed_sum(parts, n) == self.plain(parts, n)
        assert packed_sum(parts, 1) == (1 + 2 * n,)


class TestSquares:
    """a * a with one object on both sides: the pair loop walks each
    unordered pair once and the big multiply packs once.  An equal but
    distinct operand takes the general path, to the same result."""

    @pytest.mark.parametrize("n_out", [9, 10, 40, 41])
    def test_nonzeros_around_half_and_end(self, n_out):
        # nonzeros below, at and past n_out / 2 and n_out, so the last
        # diagonal term lands just inside n_out (odd) or just past (even)
        half = n_out // 2
        a = [0] * (n_out + 3)
        for i, c in zip((0, half - 1, half, half + 1, n_out - 1, n_out,
                         n_out + 2), (3, -1, 2 ** 70, -5, 1, 7, -2)):
            a[i] = c
        a = tuple(a)
        twin = tuple(list(a))
        assert twin == a and twin is not a
        expected = schoolbook(a, a, n_out)
        for kernel in KERNELS:
            assert list(run_kernel(kernel, a, a, n_out)) == expected
            assert list(run_kernel(kernel, a, twin, n_out)) == expected
        x = Series._raw(a)
        assert list(series._convolve(x, x, n_out).coeffs) == expected
        assert list(series._convolve(x, Series._raw(twin), n_out).coeffs) \
            == expected

    def test_square_reaches_its_kernel_as_one_object(self, monkeypatch):
        seen = []
        for name, out in (("_pair_loop", []), ("_row_kernel", ([], False)),
                          ("_big_multiply", ([], False))):
            monkeypatch.setattr(series, name, lambda a, b, n_out, *supports,
                                out=out: seen.append(a is b) or out)
        x = Series._raw(tuple(range(1, 50)))
        series._convolve(x, x, 30)  # the slices of x are two new tuples
        series._convolve(x, Series._raw(tuple(list(x.coeffs))), 30)
        assert seen == [True, False]

    def test_square_scans_and_packs_once(self, monkeypatch):
        calls = []

        def counted(name):
            inner = getattr(series, name)
            return lambda *args: calls.append(name) or inner(*args)

        for name in ("_nonzero", "_pack"):
            monkeypatch.setattr(series, name, counted(name))
        a = (3, 0, -1, 2, 0, 5) + (0,) * 34
        x = Series._raw(a)
        assert kernel_of(x, x) == "pair"
        assert list(run_kernel(_big_multiply, a, a, 40)) \
            == schoolbook(a, a, 40)
        assert calls == ["_nonzero", "_pack"]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(long_coeffs(min_size=1, max_size=600), st.data())
    def test_square_matches_schoolbook(self, coeffs, data):
        a = tuple(coeffs)
        twin = tuple(coeffs)
        n_out = data.draw(st.integers(min_value=1, max_value=len(a) + 3))
        expected = schoolbook(a, a, n_out)
        for kernel in KERNELS if any(a) else (_pair_loop,):
            assert list(run_kernel(kernel, a, a, n_out)) == expected
            assert list(run_kernel(kernel, a, twin, n_out)) == expected
        x = Series(a)
        square = tuple(schoolbook(a, a, len(a)))
        assert (x * x).coeffs == square
        assert (x * Series(twin)).coeffs == square
        assert (x ** 2).coeffs == square


def kernel_of(a: Series, b: Series) -> str:
    """The one kernel that a * b ran, read from series.kernel_calls."""
    before = dict(series.kernel_calls)
    a * b
    ran = [k for k, v in series.kernel_calls.items() if v != before[k]]
    assert len(ran) == 1 and series.kernel_calls[ran[0]] == before[ran[0]] + 1
    return ran[0]


def spread(n, count, values=(1, -1)):
    """count nonzeros at evenly spaced exponents below n, cycling values."""
    out = [0] * n
    for i in range(count):
        out[i * n // count] = values[i % len(values)]
    return Series._raw(out)


def dense_operand(n):
    """phi(q)^2 - phi(q^7)^2, about 0.3 n nonzeros."""
    phi, phi7 = named_function("phi", n), named_function("phi", n, 7)
    return phi * phi - phi7 * phi7


class TestKernelSelection:
    """The kernel that each product shape takes, on each side of the two
    fitted boundaries of the module docstring's table."""

    @pytest.mark.parametrize("n, b_kind, nza, kernel", [
        # pair loop / row kernel: nza * nzb * 32 <= n * (64 + nza)
        (500, "dense", 5, "pair"), (500, "dense", 6, "row"),
        (4000, "n/16", 64, "pair"), (4000, "n/16", 65, "row"),
        (40000, "n/16", 64, "pair"), (40000, "n/16", 65, "row"),
        # row kernel / big multiply: nza**3 <= 2 * n**2
        (500, "dense", 79, "row"), (500, "dense", 80, "big"),
        (4000, "dense", 317, "row"), (4000, "dense", 318, "big"),
        (40000, "dense", 1473, "row"), (40000, "dense", 1474, "big"),
    ])
    def test_boundary_rows(self, n, b_kind, nza, kernel):
        if b_kind == "dense":
            b = dense_operand(n)
        else:
            b = spread(n, n // 16, (1, -2, 3))
        a = spread(n, nza)
        assert kernel_of(a, b) == kernel
        assert kernel_of(b, a) == kernel

    def test_split_ternary_takes_row_kernel(self):
        # theta(5 z^2) * theta(2 x^2 + 3 y^2) at Mmax + 1 = 10 001 terms, a
        # unary times a binary factor of forms._theta_ternary
        n = 10001
        unary = named_function("phi", n, 5)
        binary = named_function("phi", n, 2) * named_function("phi", n, 3)
        assert n - unary.coeffs.count(0) == 45
        assert n - binary.coeffs.count(0) == 2066
        assert kernel_of(unary, binary) == "row"

    def test_two_sparse_factors_take_pair_loop(self):
        n = 40000
        assert kernel_of(spread(n, 200), spread(n, 200, (2, 1))) == "pair"

    @pytest.mark.parametrize("psi_step, s", [(1, 7), (2, 3)])
    def test_positivity_shape_counts_row_kernel(self, psi_step, s):
        n = 40000
        phi, phis = named_function("phi", n), named_function("phi", n, s)
        psi = named_function("psi", n, psi_step)
        assert kernel_of(psi, phi * phi - phis * phis) == "row"

    def test_theta_squares_take_pair_loop(self):
        # phi(q)^2 at 40 000 terms, as the positivity entries square it
        phi = named_function("phi", 40000)
        assert kernel_of(phi, phi) == "pair"

    def test_long_dense_product_takes_big_multiply(self):
        n = 40000
        assert kernel_of(spread(n, n // 8), dense_operand(n)) == "big"

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_shapes_at_each_boundary_match_schoolbook(self, data):
        n = data.draw(st.integers(min_value=40, max_value=1200))
        if data.draw(st.booleans()):
            # the pair loop / row kernel boundary, for a b sparse enough
            # that the row kernel's shifted adds cost less than its rows
            nzb = data.draw(st.integers(min_value=n // 16, max_value=n))
            steps = series._SLOTS_PER_STEP
            edge = n * series._PACK_STEPS * steps // (nzb * steps - n)
        else:
            # the row kernel / big multiply boundary, for a dense b
            nzb = n
            edge = 1
            while (edge + 1) ** 3 <= series._ROW_CUBE * n * n:
                edge += 1
        nza = min(max(1, edge + data.draw(st.integers(-3, 3))), nzb)
        bound = data.draw(st.sampled_from((1, 40, 2 ** 70)))
        rng = data.draw(st.randoms(use_true_random=False))

        def operand(count):
            out = [0] * n
            for i in rng.sample(range(n), count):
                out[i] = rng.choice((-1, 1)) * rng.randint(1, bound)
            return out

        a, b = operand(nza), operand(nzb)
        expected = tuple(schoolbook(a, b, n))
        assert (Series(a) * Series(b)).coeffs == expected
        assert (Series(b) * Series(a)).coeffs == expected


class TestSupport:
    """The support of a series, its sorted nonzero exponents, is scanned
    once per object and read by the kernel choice and the kernels."""

    def made(self):
        base = Series([0, 3, 0, -1, 0, 0, 2, 0, 5, 0, 0, 1])
        raw = Series._raw([4, 0, 0, 7, -7, 0, 0, 0, 1, 0, 0, 0])
        yield "constructor", base
        yield "raw", raw
        yield "empty", Series([])
        yield "zero", Series.zero(9)
        yield "monomial", Series.monomial(4, 9, -2)
        yield "product", base * raw
        yield "square", base * base
        yield "power", raw ** 3
        yield "scalar", 3 * base
        yield "sum", base + raw
        yield "compose_power", compose_power(base, 3, 30)
        yield "sift", sift(base, 3, 2)
        yield "alternate_sign", alternate_sign(raw)
        yield "truncate", base.truncate(5)
        yield "invert", invert(Series([1, -1, 2, 0, 3, 0, 0, 1]))
        yield "named_function", named_function("psi", 300, 3, True)
        yield "general_theta", general_theta(1, 5, 300)
        yield "euler_power", euler_power(2, 300)

    def test_support_is_the_scan_however_made(self):
        for how, x in self.made():
            support = x._nonzeros()
            assert support == series._nonzero(x.coeffs), how
            assert support == [i for i, c in enumerate(x.coeffs) if c], how
            assert x._nonzeros() is support, how

    def test_support_stays_out_of_eq_hash_and_repr(self):
        for how, x in self.made():
            twin = Series(list(x.coeffs))
            x._nonzeros()
            assert twin._support is None
            assert x == twin and twin == x, how
            assert hash(x) == hash(twin), how
            assert repr(x) == repr(twin), how

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(long_coeffs(min_size=1, max_size=900),
           long_coeffs(min_size=1, max_size=900), st.data())
    def test_cached_operands_match_schoolbook(self, a, b, data):
        # operands of unequal truncations, so one runs past n_out, with
        # the support filled on neither, one or both sides
        x, y = Series(a), Series(b)
        for operand in (x, y):
            if data.draw(st.booleans()):
                operand._nonzeros()
        n = min(len(a), len(b))
        expected = tuple(schoolbook(a, b, n))
        assert (x * y).coeffs == expected
        assert (y * x).coeffs == expected

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(long_coeffs(min_size=1, max_size=900), st.booleans())
    def test_cached_squares_match_schoolbook(self, a, filled):
        x = Series(a)
        twin = Series(list(a))
        if filled:
            x._nonzeros()
        square = tuple(schoolbook(a, a, len(a)))
        assert (x * x).coeffs == square
        assert (x * twin).coeffs == square
        assert (twin * x).coeffs == square
        assert (x ** 2).coeffs == square

    def test_longer_cached_operand_is_cut_at_n_out(self):
        # the cached support of the longer operand runs past n_out, on
        # each side of each kernel's choice
        for n, count in ((500, 4), (500, 40), (4000, 600)):
            long = spread(3 * n, 3 * count, (2, -1, 3))
            long._nonzeros()
            for short in (spread(n, count), dense_operand(n)):
                expected = tuple(schoolbook(long.coeffs, short.coeffs, n))
                assert (long * short).coeffs == expected
                assert (short * long).coeffs == expected

    def test_all_zero_operands(self):
        zero = Series.zero(50)
        zero._nonzeros()
        one = named_function("phi", 60)
        for x, y in ((zero, one), (one, zero), (zero, zero),
                     (zero, Series.zero(70))):
            assert x * y == Series.zero(50)
        # a nonzero only at n_out and past it counts as zero
        tail = Series._raw([0] * 50 + [5, -2])
        tail._nonzeros()
        for y in (one, dense_operand(60)):
            assert tail * y.truncate(50) == Series.zero(50)
            assert y.truncate(50) * tail == Series.zero(50)
        assert tail * tail == Series.zero(52)

    def test_cached_factor_is_never_scanned(self, monkeypatch):
        # a length no other test asks the theta caches for
        n = 12347
        scanned = []
        scan = series._nonzero
        monkeypatch.setattr(series, "_nonzero",
                            lambda cs: scanned.append(cs) or scan(cs))
        phi = named_function("phi", n)
        psi = named_function("psi", n)
        phi7 = named_function("phi", n, 7)
        before = dict(series.kernel_calls)
        for _ in range(3):
            dense = phi * phi - phi7 * phi7
            product = psi * dense
        assert {k: v - before[k] for k, v in series.kernel_calls.items()} \
            == {"pair": 6, "row": 3, "big": 0}
        # general_theta hands each factor its support, which the squares
        # and psi's rows read; the dense operands are never scanned either
        assert scanned == []
        for factor in (phi, psi, phi7):
            assert factor._support == scan(factor.coeffs)
        assert dense._support is None
        assert product.coeffs == tuple(schoolbook(psi.coeffs, dense.coeffs, n))


_KERNEL_PIN = """
import contextlib, io, json, sys
from thetaforms import cli, identities, series
registry = identities.load_default_registry()
if sys.argv[1] == "suite":
    cfg = cli.Config()
    identities.run_suite(registry, cfg.terms, cfg.mmax, cfg.limit)
else:
    for name in sorted(registry):
        if registry[name].mode == "positivity":
            identities.verify_entry(registry[name], limit=40000)
    for s in (3, 5, 7, 15):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["positivity", "--s", str(s), "--limit", "40000"])
print(json.dumps(series.kernel_calls))
"""


_OPERAND_PIN = """
import json
from thetaforms import identities, series
convolve = series._convolve
kinds = []
series._convolve = lambda sa, sb, n_out: (
    kinds.append((type(sa).__name__, type(sb).__name__))
    or convolve(sa, sb, n_out))
registry = identities.load_default_registry()
identities.run_suite({name: spec for name, spec in registry.items()
                      if spec.mode in ("series", "sift")})
print(json.dumps([len(kinds), sorted(set(kinds))]))
"""


def test_cold_suite_multiplies_series_only():
    # every product of a cold pass over the shipped series and sift entries
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _OPERAND_PIN], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    count, kinds = json.loads(proc.stdout.splitlines()[-1])
    assert count > 100
    assert kinds == [["Series", "Series"]]


class TestKernelChoicePin:
    """The kernels that one cold pass takes, product by product, so that a
    change to the kernel choice or to what feeds it shows here."""

    @pytest.mark.parametrize("run, calls", [
        ("suite", {"pair": 401, "row": 150, "big": 29}),
        ("positivity", {"pair": 18, "row": 10, "big": 0}),
    ])
    def test_cold_pass_kernel_calls(self, run, calls):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", _KERNEL_PIN, run],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == calls


class TestComposePower:
    def test_basic(self):
        assert compose_power(Series([1, 1, 0, 0]), 2) == Series([1, 0, 1, 0])

    def test_identity_power(self):
        a = Series([5, 4, 3])
        assert compose_power(a, 1) == a

    def test_phi_cubed_support(self):
        phi = named_function("phi", 10)
        out = compose_power(phi, 3)
        assert out.truncation == 10
        support = [i for i, c in enumerate(out.coeffs) if c]
        assert support == [0, 3]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            compose_power(Series([1]), 0)

    def test_longer_truncation(self):
        out = compose_power(Series([1, 2, 3]), 3, 9)
        assert out == Series([1, 0, 0, 2, 0, 0, 3, 0, 0])

    def test_truncation_past_known_terms(self):
        with pytest.raises(ValueError):
            compose_power(Series([1, 2, 3]), 3, 10)


class TestInvert:
    def test_geometric(self):
        assert invert(Series([1, -1, 0, 0])) == Series([1, 1, 1, 1])

    def test_one(self):
        assert invert(Series.one(5)) == Series.one(5)

    def test_partition_generating_function(self):
        n = 30
        inv = invert(euler(n))
        assert list(inv.coeffs) == brute_partitions(n - 1)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            invert(Series([2, 1]))

    @pytest.mark.parametrize("unit", [1, -1])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 63, 64, 65, 511, 512, 513])
    def test_newton_boundary_lengths(self, n, unit):
        # one length either side of each doubling 1, 2, 4, 64 and 512
        a = [unit] + [(-1) ** i * (i % 7) for i in range(1, n)]
        inv = invert(Series(a))
        assert inv.truncation == n
        assert schoolbook(a, list(inv.coeffs), n) == [1] + [0] * (n - 1)

    def test_wide_slots(self, monkeypatch):
        # the inverse of 1 - 2^40 q - 3 q^2 has coefficients near 2^(40 k),
        # so the packed kernels take slots of one to_bytes call each
        widths = []
        pack = series._pack
        monkeypatch.setattr(series, "_pack", lambda coeffs, width, count: (
            widths.append(width) or pack(coeffs, width, count)))
        a = [1, -2 ** 40, -3] + [0] * 297
        inv = invert(Series(a))
        assert schoolbook(a, list(inv.coeffs), 300) == [1] + [0] * 299
        assert max(widths) > 8

    def test_every_product_is_a_series_product(self, monkeypatch):
        operands = []
        convolve = series._convolve
        monkeypatch.setattr(series, "_convolve", lambda sa, sb, n_out: (
            operands.append((sa, sb)) or convolve(sa, sb, n_out)))
        for a in ([1, -1, 2, 0, 3], [-1] + [5, 0, -2] * 200):
            invert(Series(a))
        assert len(operands) > 10
        assert all(isinstance(x, Series) for pair in operands for x in pair)


class TestSift:
    def test_odd_squares(self):
        phi = named_function("phi", 40)
        out = sift(phi, 2, 1)
        assert out.coeffs[:5] == (2, 0, 0, 0, 2)

    def test_identity_sift(self):
        a = Series([4, 5, 6])
        assert sift(a, 1, 0) == a

    def test_scaled_cube_relation(self):
        # 3 * S_{8,1}(phi * phi(q^8)^2) = S_{8,1}(phi^3), termwise
        n = 400
        phi = named_function("phi", n)
        phi8 = named_function("phi", n, 8)
        lhs = 3 * sift(phi * (phi8 * phi8), 8, 1)
        rhs = sift(phi * (phi * phi), 8, 1)
        assert lhs == rhs

    def test_rejects_bad_residue(self):
        with pytest.raises(ValueError):
            sift(Series([1, 2, 3]), 2, 2)

    def test_output_truncation(self):
        out = sift(Series(list(range(17))), 5, 2)
        assert out.truncation == (17 - 1 - 2) // 5 + 1
        assert out.coeffs == (2, 7, 12)


@st.composite
def sift_operands(draw, max_size=400):
    """Up to a few hundred coefficients: empty, all zero, sparse or dense."""
    kind = draw(st.sampled_from(("empty", "zero", "sparse", "dense")))
    if kind == "empty":
        return []
    n = draw(st.integers(min_value=1, max_value=max_size))
    rng = draw(st.randoms(use_true_random=False))
    out = [0] * n
    if kind != "zero":
        count = rng.randint(1, isqrt(n) + 1) if kind == "sparse" else n
        for i in rng.sample(range(n), count):
            out[i] = rng.randint(-40, 40)
    return out


class TestSiftProduct:
    """sift_product(a, b, t, s) against sift(a * b, t, s)."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(sift_operands(), sift_operands(), st.integers(1, 60), st.data())
    def test_matches_sift_of_product(self, a, b, t, data):
        s = data.draw(st.integers(0, t - 1))
        expected = sift(Series(a) * Series(b), t, s)
        assert sift_product(Series(a), Series(b), t, s) == expected

    @pytest.mark.parametrize("t", [1, 2, 3, 8, 24, 40, 56, 60])
    def test_every_residue_of_theta_factors(self, t):
        phi = named_function("phi", 700)
        psi2 = named_function("psi", 650, 2)
        dense = phi * psi2
        for s in range(t):
            for a, b in ((phi, psi2), (dense, phi), (psi2, dense)):
                assert sift_product(a, b, t, s) == sift(a * b, t, s)

    def test_unequal_truncations(self):
        a = Series([3, -1, 4, 1, -5, 9, 2, -6, 5, 3, 5])
        b = Series([2, 7, -1, 8])
        for t in range(1, 6):
            for s in range(t):
                assert sift_product(a, b, t, s) == sift(a * b, t, s)
                assert sift_product(b, a, t, s) == sift(a * b, t, s)

    def test_output_shorter_than_residue(self):
        out = sift_product(Series([1, 2]), Series([1, 1, 1]), 5, 3)
        assert out == Series([])

    def test_rejects_bad_residue(self):
        with pytest.raises(ValueError):
            sift_product(Series([1, 2]), Series([1, 2]), 3, 3)


class TestAlternateSign:
    def test_basic(self):
        assert alternate_sign(Series([1, 1, 1])) == Series([1, -1, 1])

    def test_involution(self):
        a = Series([3, -2, 7, 0, 5])
        assert alternate_sign(alternate_sign(a)) == a

    def test_euler_at_negated_argument(self):
        from thetaforms.theta import euler_power
        n = 200
        lhs = alternate_sign(euler(n))
        rhs = euler_power(2, n) ** 3 * invert(euler_power(4, n)
                                              * euler_power(1, n))
        assert lhs == rhs


class TestNonnegativity:
    def test_phi_is_nonnegative(self):
        ok, witness = is_nonnegative(named_function("phi", 100))
        assert ok and witness is None

    def test_difference_of_squares_fails(self):
        n = 100
        phi = named_function("phi", n)
        phi7 = named_function("phi", n, 7)
        ok, witness = is_nonnegative(phi * phi - phi7 * phi7)
        assert not ok
        assert witness == 7

    def test_first_negative_exponent(self):
        assert is_nonnegative(Series([])) == (True, None)
        assert is_nonnegative(Series([0, 3, 0])) == (True, None)
        assert is_nonnegative(Series([2, 0, -1, 5, -7])) == (False, 2)
        assert is_nonnegative(Series([-1])) == (False, 0)

    def test_psi_weighted_difference_passes(self):
        n = 1000
        psi = named_function("psi", n)
        phi = named_function("phi", n)
        phi7 = named_function("phi", n, 7)
        ok, _ = is_nonnegative(psi * (phi * phi - phi7 * phi7))
        assert ok


class TestSignReport:
    """The packed kernels report whether their product has a negative
    coefficient, and the product keeps the report, which is_nonnegative
    reads in place of a scan."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(long_coeffs(min_size=1, max_size=500),
           long_coeffs(min_size=1, max_size=500),
           st.sampled_from(("signed", "nonnegative")), st.data())
    def test_report_matches_schoolbook(self, a, b, signs, data):
        if signs == "nonnegative":
            a, b = [abs(c) for c in a], [abs(c) for c in b]
        if any(a) and any(b):
            n_out = data.draw(st.integers(min_value=1,
                                          max_value=max(len(a), len(b)) + 3))
            expected = schoolbook(a, b, n_out)
            rows = series._nonzero(a[:n_out])
            for coeffs, negative in (_row_kernel(a, b, n_out, rows),
                                     _big_multiply(a, b, n_out)):
                assert list(coeffs) == expected
                assert (not negative) == (min(expected) >= 0)
        # the product through Series keeps the report of its kernel
        product = Series(a) * Series(b)
        expected = schoolbook(a, b, min(len(a), len(b)))
        assert list(product.coeffs) == expected
        assert product._negative in (None, min(expected) < 0)
        first = next((i for i, c in enumerate(expected) if c < 0), None)
        assert is_nonnegative(product) == (first is None, first)

    @pytest.mark.parametrize("psi_step, s", [(1, 7), (2, 3)])
    def test_positivity_products_carry_the_report(self, psi_step, s,
                                                  monkeypatch):
        # psi(q^psi_step) * (phi(q)^2 - phi(q^s)^2) at 40 000 terms: the
        # row kernel's report is read, and no scan of the product runs
        n = 40000
        phi, phis = named_function("phi", n), named_function("phi", n, s)
        product = named_function("psi", n, psi_step) * (phi * phi
                                                        - phis * phis)
        assert product._negative is False
        assert min(product.coeffs) >= 0
        monkeypatch.setattr(series, "min", lambda *args: pytest.fail(
            "the product was scanned"), raising=False)
        assert is_nonnegative(product) == (True, None)


class TestRingAxioms:
    @settings(derandomize=True)
    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_mul_associative(self, a, b, c):
        sa, sb, sc = Series(a), Series(b), Series(c)
        assert (sa * sb) * sc == sa * (sb * sc)

    @settings(derandomize=True)
    @given(coeff_lists, coeff_lists)
    def test_mul_commutative(self, a, b):
        sa, sb = Series(a), Series(b)
        assert sa * sb == sb * sa

    @settings(derandomize=True)
    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_distributive(self, a, b, c):
        sa, sb, sc = Series(a), Series(b), Series(c)
        n = min(len(a), len(b), len(c))
        lhs = (sa * (sb + sc)).truncate(n)
        rhs = (sa * sb + sa * sc).truncate(n)
        assert lhs == rhs

    @settings(derandomize=True)
    @given(coeff_lists, st.integers(min_value=0, max_value=7))
    def test_pow_is_repeated_product(self, a, k):
        s = Series(a)
        expected = Series.one(len(a))
        for _ in range(k):
            expected = expected * s
        assert s ** k == expected

    def test_pow_of_empty_series(self):
        for k in range(4):
            assert Series([]) ** k == Series([])

    @settings(derandomize=True)
    @given(coeff_lists, st.integers(min_value=1, max_value=6))
    def test_sift_reconstruction(self, a, t):
        s = Series(a)
        pieces = [sift(s, t, r) for r in range(t)]
        rebuilt = [0] * len(a)
        for r, piece in enumerate(pieces):
            for k, c in enumerate(piece.coeffs):
                rebuilt[t * k + r] = c
        assert rebuilt == list(a)

    @settings(derandomize=True)
    @given(coeff_lists, st.integers(min_value=1, max_value=5))
    def test_compose_then_sift_roundtrip(self, a, k):
        s = Series(a)
        out = sift(compose_power(s, k), k, 0)
        assert out.coeffs == s.coeffs[:out.truncation]

    @settings(derandomize=True)
    @given(coeff_lists)
    def test_invert_two_sided(self, a):
        a = [1] + a
        s = Series(a)
        inv = invert(s)
        assert s * inv == Series.one(len(a))
        assert inv * s == Series.one(len(a))
