"""Character table checks: known tables, classical identities, orthogonality.

A class of S(N) is its cycle type, the weakly decreasing tuple of its cycle
lengths; the table is built here from oracle.character, diagrams in basis
order by rows and the classes of spectral.cycle_types by columns."""

import math
from collections import Counter

import pytest

from dpbt.diagrams import _row_tuples, enumerate_diagrams
from dpbt.oracle import _add_box, character
from dpbt.spectral import cycle_label, cycle_types


def parity(cycle: tuple[int, ...]) -> int:
    """Sign of any permutation in the class: product of (-1)^(l-1) per cycle."""
    return (-1) ** sum(length - 1 for length in cycle)


def class_size(cycle: tuple[int, ...]) -> int:
    """Number of permutations in the class: N! / prod(l^m * m!)."""
    return math.factorial(sum(cycle)) // math.prod(
        length**m * math.factorial(m) for length, m in Counter(cycle).items()
    )


def character_table(n: int) -> tuple[tuple[int, ...], ...]:
    """chi_mu(C) over the diagrams mu of n (rows) and the classes C (columns)."""
    classes = cycle_types(n)
    return tuple(tuple(character(mu, c) for c in classes) for mu in _row_tuples(enumerate_diagrams(n, n)))


def column(table, j):
    return tuple(row[j] for row in table)


def induced_sum(alpha: tuple[int, ...], cycle: tuple[int, ...]) -> int:
    """Character at `cycle` of the S(N) representation induced from the rows
    alpha of N-1, by the branching rule: the sum of the characters of its
    children."""
    return sum(character(mu, cycle) for mu in _add_box(alpha, sum(alpha) + 1))


class TestCycleTypes:
    def test_examples(self):
        assert cycle_types(3) == [(1, 1, 1), (2, 1), (3,)]
        assert len(cycle_types(4)) == 5
        assert cycle_types(1) == [(1,)]

    def test_order_fixed_points_then_lex(self):
        assert cycle_types(4) == [
            (1, 1, 1, 1),
            (2, 1, 1),
            (3, 1),
            (2, 2),
            (4,),
        ]

    def test_fields(self):
        assert cycle_label((2, 1, 1)) == "1^2 2^1"
        assert cycle_label((3, 3, 2)) == "2^1 3^2"
        assert cycle_label((4,)) == "4^1"
        assert cycle_label((1, 1, 1)) == "1^3"
        for n in range(1, 8):
            fixed = [c.count(1) for c in cycle_types(n)]
            assert fixed == sorted(fixed, reverse=True) and fixed[0] == n
            for c, k in zip(cycle_types(n), fixed):
                # the label lists each length with its multiplicity, ascending;
                # the fixed points lead it
                counts = {int(a): int(b) for a, b in (x.split("^") for x in cycle_label(c).split())}
                assert counts == Counter(c) and list(counts) == sorted(counts)
                assert counts.get(1, 0) == k

    def test_class_sizes_sum_to_group_order(self):
        for n in range(1, 8):
            assert sum(class_size(c) for c in cycle_types(n)) == math.factorial(n)


class TestCharacter:
    def test_trivial_irrep(self):
        for n in range(1, 7):
            for c in cycle_types(n):
                assert character((n,), c) == 1

    def test_sign_irrep_is_parity(self):
        # single-column diagram carries the sign representation
        for n in range(1, 7):
            mu = (1,) * n
            for c in cycle_types(n):
                assert character(mu, c) == parity(c)

    def test_standard_irrep_is_fixed_points_minus_one(self):
        for n in range(2, 8):
            mu = (n - 1, 1)
            for c in cycle_types(n):
                assert character(mu, c) == c.count(1) - 1

    def test_spot_values(self):
        assert character((1, 1, 1), (3,)) == 1
        assert character((2, 1), (2, 1)) == 0
        assert character((2, 1), (3,)) == -1

    def test_box_count_mismatch(self):
        with pytest.raises(ValueError, match="3 boxes but class permutes 2"):
            character((2, 1), (2,))
        with pytest.raises(ValueError, match="2 boxes but class permutes 3"):
            character((2,), (3,))

    @pytest.mark.parametrize(
        "parts, fault",
        [((1, 2), "weakly decreasing"), ((1, 1, 2), "weakly decreasing"), ((2, 0), "positive"), ((3, -1), "positive")],
    )
    def test_rejects_parts_that_are_no_cycle_type(self, parts, fault):
        # the class must be a cycle type: positive lengths, weakly decreasing
        with pytest.raises(ValueError, match=f"row lengths must be {fault}"):
            character((1,) * sum(parts), parts)

    def test_s3_table(self):
        # rows (3), (2,1), (1,1,1); columns 1^3, (2,1), (3)
        assert character_table(3) == ((1, 1, 1), (2, 0, -1), (1, -1, 1))

    def test_s4_identity_column(self):
        assert column(character_table(4), 0) == (1, 3, 2, 3, 1)


class TestCharacterMatrix:
    def test_n1_n2(self):
        assert character_table(1) == ((1,),)
        assert character_table(2) == ((1, 1), (1, -1))

    def test_n3_identity_column(self):
        assert column(character_table(3), 0) == (1, 2, 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_identity_column_is_dims(self, n):
        assert cycle_types(n)[0] == (1,) * n
        assert column(character_table(n), 0) == tuple(enumerate_diagrams(n, n).numbers[0].tolist())

    @pytest.mark.parametrize("n", range(1, 8))
    def test_column_orthogonality(self, n):
        table = character_table(n)
        classes = cycle_types(n)
        for j1, c1 in enumerate(classes):
            for j2, c2 in enumerate(classes):
                dot = sum(row[j1] * row[j2] for row in table) * class_size(c1)
                assert dot == (math.factorial(n) if j1 == j2 else 0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_row_orthogonality(self, n):
        table = character_table(n)
        sizes = [class_size(c) for c in cycle_types(n)]
        for i1, row1 in enumerate(table):
            for i2, row2 in enumerate(table):
                dot = sum(s * a * b for s, a, b in zip(sizes, row1, row2))
                assert dot == (math.factorial(n) if i1 == i2 else 0)


class TestInducedCharacter:
    """Frobenius reciprocity: inducing alpha from S(N-1) gives the sum of the
    characters of its children, which vanishes off the classes with a fixed
    point and is k times chi_alpha on the class minus one of its k fixed
    points."""

    def test_examples(self):
        assert induced_sum((1,), (1, 1)) == 2
        assert induced_sum((2,), (3,)) == 0
        assert induced_sum((1, 1), (2, 1)) == -1

    def test_identity_is_n_times_dim(self):
        for n in range(2, 8):
            identity = (1,) * n
            parents = enumerate_diagrams(n - 1, n)
            for alpha, dim in zip(_row_tuples(parents), parents.numbers[0].tolist()):
                assert induced_sum(alpha, identity) == n * dim

    @pytest.mark.parametrize("n", range(2, 8))
    def test_branching_consistency(self, n):
        for alpha in _row_tuples(enumerate_diagrams(n - 1, n)):
            for c in cycle_types(n):
                # parts are decreasing, so a fixed point comes last
                k = c.count(1)
                want = k * character(alpha, c[:-1]) if k else 0
                assert induced_sum(alpha, c) == want
