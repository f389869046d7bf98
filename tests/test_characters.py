"""Character table checks: known tables, classical identities, orthogonality."""

import math

import pytest

from dpbt.characters import CycleType, character, character_matrix, cycle_types
from dpbt.diagrams import YoungDiagram, add_box, enumerate_diagrams, irrep_dim


def parity(cycle: CycleType) -> int:
    """Sign of any permutation in the class: product of (-1)^(l-1) per cycle."""
    return (-1) ** sum(length - 1 for length in cycle.parts)


def class_size(cycle: CycleType) -> int:
    """Number of permutations in the class: N! / prod(l^m * m!)."""
    return math.factorial(cycle.n) // math.prod(
        length**m * math.factorial(m) for length, m in cycle.counts.items()
    )


def column(table, j):
    return tuple(row[j] for row in table.entries)


def induced_sum(alpha: YoungDiagram, cycle: CycleType) -> int:
    """Character at `cycle` of the S(N) representation induced from alpha of
    N-1, by the branching rule: the sum of the characters of its children."""
    return sum(character(mu, cycle) for mu in add_box(alpha))


class TestCycleTypes:
    def test_examples(self):
        assert [c.parts for c in cycle_types(3)] == [(1, 1, 1), (2, 1), (3,)]
        assert len(cycle_types(4)) == 5
        assert [c.parts for c in cycle_types(1)] == [(1,)]

    def test_order_fixed_points_then_lex(self):
        assert [c.parts for c in cycle_types(4)] == [
            (1, 1, 1, 1),
            (2, 1, 1),
            (3, 1),
            (2, 2),
            (4,),
        ]

    def test_fields(self):
        c = CycleType((2, 1, 1))
        assert c.n == 4
        assert c.fixed_points == 2
        assert c.counts == {1: 2, 2: 1}
        assert c.label() == "1^2 2^1"

    def test_class_sizes_sum_to_group_order(self):
        for n in range(1, 8):
            assert sum(class_size(c) for c in cycle_types(n)) == math.factorial(n)


class TestCharacter:
    def test_trivial_irrep(self):
        for n in range(1, 7):
            for c in cycle_types(n):
                assert character(YoungDiagram((n,)), c) == 1

    def test_sign_irrep_is_parity(self):
        # single-column diagram carries the sign representation
        for n in range(1, 7):
            mu = YoungDiagram((1,) * n)
            for c in cycle_types(n):
                assert character(mu, c) == parity(c)

    def test_standard_irrep_is_fixed_points_minus_one(self):
        for n in range(2, 8):
            mu = YoungDiagram((n - 1, 1))
            for c in cycle_types(n):
                assert character(mu, c) == c.fixed_points - 1

    def test_spot_values(self):
        assert character(YoungDiagram((1, 1, 1)), CycleType((3,))) == 1
        assert character(YoungDiagram((2, 1)), CycleType((2, 1))) == 0
        assert character(YoungDiagram((2, 1)), CycleType((3,))) == -1

    def test_box_count_mismatch(self):
        with pytest.raises(ValueError):
            character(YoungDiagram((2,)), CycleType((3,)))

    def test_s3_table(self):
        table = character_matrix(3)
        # rows (3), (2,1), (1,1,1); columns 1^3, (2,1), (3)
        assert table.entries == ((1, 1, 1), (2, 0, -1), (1, -1, 1))

    def test_s4_identity_column(self):
        table = character_matrix(4)
        assert column(table, 0) == (1, 3, 2, 3, 1)


class TestCharacterMatrix:
    def test_n1_n2(self):
        assert character_matrix(1).entries == ((1,),)
        assert character_matrix(2).entries == ((1, 1), (1, -1))

    def test_n3_identity_column(self):
        assert column(character_matrix(3), 0) == (1, 2, 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_identity_column_is_dims(self, n):
        table = character_matrix(n)
        assert table.classes[0].fixed_points == n
        assert column(table, 0) == tuple(irrep_dim(mu) for mu in table.basis)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_column_orthogonality(self, n):
        table = character_matrix(n)
        classes = table.classes
        for j1, c1 in enumerate(classes):
            for j2, c2 in enumerate(classes):
                dot = sum(row[j1] * row[j2] for row in table.entries) * class_size(c1)
                assert dot == (math.factorial(n) if j1 == j2 else 0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_row_orthogonality(self, n):
        table = character_matrix(n)
        sizes = [class_size(c) for c in table.classes]
        for i1, row1 in enumerate(table.entries):
            for i2, row2 in enumerate(table.entries):
                dot = sum(s * a * b for s, a, b in zip(sizes, row1, row2))
                assert dot == (math.factorial(n) if i1 == i2 else 0)


class TestInducedCharacter:
    """Frobenius reciprocity: inducing alpha from S(N-1) gives the sum of the
    characters of its children, which vanishes off the classes with a fixed
    point and is k times chi_alpha on the class minus one of its k fixed
    points."""

    def test_examples(self):
        assert induced_sum(YoungDiagram((1,)), CycleType((1, 1))) == 2
        assert induced_sum(YoungDiagram((2,)), CycleType((3,))) == 0
        assert induced_sum(YoungDiagram((1, 1)), CycleType((2, 1))) == -1

    def test_identity_is_n_times_dim(self):
        for n in range(2, 8):
            identity = CycleType((1,) * n)
            for alpha in enumerate_diagrams(n - 1):
                assert induced_sum(alpha, identity) == n * irrep_dim(alpha)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_branching_consistency(self, n):
        for alpha in enumerate_diagrams(n - 1):
            for c in cycle_types(n):
                # parts are decreasing, so a fixed point comes last
                k = c.fixed_points
                want = k * character(alpha, CycleType(c.parts[:-1])) if k else 0
                assert induced_sum(alpha, c) == want
