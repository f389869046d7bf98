"""Dense-operator oracle: constructions and formula checks by direct algebra."""

import dataclasses
import functools
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from dpbt import diagrams, oracle, protocol
from dpbt.diagrams import _row_tuples, enumerate_diagrams
from dpbt.oracle import (
    CapExceededError,
    character,
    character_spectrum,
    dense_cell,
    direct_fidelity,
    dual_witness_check,
    primal_constraint_check,
    run_checks,
    transposition,
)
from dpbt.protocol import optimal_fidelity, sqrt_measurement_fidelity
from dpbt.telemat import incidence_edges

GOLDEN = math.cos(math.pi / 5) ** 2


@pytest.fixture
def port_operator(dense):
    """The port operator of the cell (N, d), expanded: d^N times the sum of
    its port states, as run_checks builds it."""
    return lambda n, d: dense(d**n * dense_cell(n, d).ports)


def digit_permutation_matrix(perm, d):
    """V(perm) entry by entry: input digit string x goes to the row whose
    digit i is x[perm^-1(i)], most significant factor first."""
    k = len(perm)
    inv = [perm.index(i) for i in range(k)]
    mat = np.zeros((d**k, d**k))
    for col, digits in enumerate(itertools.product(range(d), repeat=k)):
        row = sum(digits[inv[i]] * d ** (k - 1 - i) for i in range(k))
        mat[row, col] = 1.0
    return mat


def ptilde_plus(d):
    """The unnormalised maximally entangled projector sum_ij |ii><jj|."""
    flat = np.eye(d).ravel()
    return np.outer(flat, flat)


def perm_index(perm, d):
    """The index map of V(perm): V @ x == x[perm_index(perm, d)]."""
    return oracle._perm_indices(np.array([perm]), d)[0]


def class_sum_projector(mu, d):
    """The Young projector of mu, summed over the class sums of S(|mu|)."""
    return oracle._young_projector(mu, d, oracle._perm_table(sum(mu), d))


def cycle_type(perm):
    """The cycle type of a permutation: its cycle lengths, weakly decreasing."""
    seen, parts = set(), []
    for i in range(len(perm)):
        j, length = i, 0
        while j not in seen:
            seen.add(j)
            j, length = perm[j], length + 1
        if length:
            parts.append(length)
    return tuple(sorted(parts, reverse=True))


def dense_young_projector(mu, d):
    """(d_mu / N!) sum_s chi_mu(s) V(s), one dense permutation matrix per s."""
    n = sum(mu)
    acc = np.zeros((d**n, d**n))
    for perm in itertools.permutations(range(n)):
        acc += character(mu, cycle_type(perm)) * digit_permutation_matrix(perm, d)
    return acc * character(mu, (1,) * n) / math.factorial(n)


def dense_port_state(n, d, a):
    """sigma_a = V(a,N) (1 x Ptilde+) V(a,N) / d^N on N+1 factors, V(a,N) the
    swap of port a with the last port."""
    v = digit_permutation_matrix(transposition(a, n - 1, n + 1), d)
    return v @ np.kron(np.eye(d ** (n - 1)), ptilde_plus(d)) @ v / d**n


def dense_f_operator(cell, alpha, mu, dense):
    """(1/gamma) (P_mu x 1) [sum_a V(a,N) (P_alpha x Ptilde+) V(a,N)] (P_mu x 1)
    by dense matmuls, V(a,N) the swap of port a with the last port."""
    n, d = cell.n, cell.d
    (dim_a, mult_a), (dim_m, mult_m) = cell.numbers[alpha], cell.numbers[mu]
    gamma = n * mult_m * dim_a / (mult_a * dim_m)
    core = np.kron(dense(cell.projectors[alpha]), ptilde_plus(d))
    acc = sum(
        v @ core @ v
        for v in (digit_permutation_matrix(transposition(a, n - 1, n + 1), d) for a in range(n))
    )
    p_mu = np.kron(dense(cell.projectors[mu]), np.eye(d))
    return p_mu @ acc @ p_mu / gamma


def dense_povm(cell, dense):
    """sum p_mu(alpha) F_mu(alpha) over the dense reference F."""
    coeffs = dict(zip(cell.pairs, cell.solution.p_coeffs.tolist()))
    return sum(coeffs[key] * dense_f_operator(cell, *key, dense) for key in cell.family if key in coeffs)


def dense_inverse_sqrt(mat, threshold=1e-10):
    """Inverse square root on the support by one dense eigh."""
    w, v = np.linalg.eigh(mat)
    inv = np.where(w > threshold, 1.0 / np.sqrt(np.maximum(w, threshold)), 0.0)
    return (v * inv) @ v.T


class TestPermutationOperator:
    """The factor permutations as index maps, the only form the oracle
    builds them in."""

    @pytest.mark.parametrize("k,d", [(2, 2), (4, 3), (5, 2)])
    def test_matches_digit_reference(self, k, d):
        # the single 1 of row i of V(perm) sits at column idx[i]
        perms = list(itertools.permutations(range(k)))
        rows = np.arange(d**k)
        for perm, idx in zip(perms, oracle._perm_indices(np.array(perms), d), strict=True):
            want = digit_permutation_matrix(perm, d)
            got = np.zeros_like(want)
            got[rows, idx] = 1.0
            assert np.array_equal(got, want), perm

    def test_identity(self):
        assert np.array_equal(perm_index((0, 1, 2), 2), np.arange(8))

    def test_swap(self):
        # |01> and |10> trade places, |00> and |11> stay
        assert perm_index((1, 0), 2).tolist() == [0, 2, 1, 3]

    def test_composition_three_cycle(self):
        # applying (2 3) then (1 2) equals the 3-cycle 1->2->3->1, and
        # V(s) V(t) x = x[idx_t][idx_s]
        s = (1, 0, 2)
        t = (0, 2, 1)
        st = tuple(s[t[i]] for i in range(3))
        assert st == (1, 2, 0)
        assert np.array_equal(perm_index(t, 2)[perm_index(s, 2)], perm_index(st, 2))

    def test_unitary_and_inverse(self):
        # a bijection of the 27 states, whose inverse is the map of perm^-1
        perm = (2, 0, 1)
        idx = perm_index(perm, 3)
        assert np.array_equal(np.sort(idx), np.arange(27))
        inverse = tuple(perm.index(i) for i in range(3))
        assert np.array_equal(np.argsort(idx), perm_index(inverse, 3))

    def test_float64(self):
        assert all(k.data.dtype == np.float64 for k in oracle._perm_table(3, 3).values())


class TestYoungProjector:
    def test_symmetric_and_antisymmetric_qubits(self, dense):
        sym = dense(class_sum_projector((2,), 2))
        anti = dense(class_sum_projector((1, 1), 2))
        assert abs(np.trace(sym) - 3) < 1e-12
        assert abs(np.trace(anti) - 1) < 1e-12
        assert np.allclose(sym + anti, np.eye(4), atol=1e-12)
        singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
        assert np.allclose(anti, np.outer(singlet, singlet), atol=1e-12)

    def test_resolution_with_vanishing_projector(self, dense):
        # the height-3 diagram contributes the zero operator at d=2
        total = sum(
            class_sum_projector(mu, 2) for mu in _row_tuples(enumerate_diagrams(3, 3))
        )
        assert np.allclose(dense(total), np.eye(8), atol=1e-12)
        tall = class_sum_projector((1, 1, 1), 2)
        assert np.allclose(dense(tall), 0, atol=1e-12)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_idempotent_hermitian_trace(self, dense, n, d, hook_dim, hook_mult):
        for mu in _row_tuples(enumerate_diagrams(n, n)):
            p = dense(class_sum_projector(mu, d))
            assert np.allclose(p @ p, p, atol=1e-10)
            assert np.allclose(p, p.T, atol=1e-12)
            assert abs(np.trace(p) - hook_dim(mu) * hook_mult(mu, d)) < 1e-10

    def test_empty_diagram(self, dense):
        p = dense(class_sum_projector((), 3))
        assert p.shape == (1, 1) and p[0, 0] == 1


class TestEtaOperator:
    def test_two_ports_qubits(self, port_operator):
        eta = port_operator(2, 2)
        assert eta.shape == (8, 8)
        assert abs(np.trace(eta) - 8) < 1e-12
        eigs = np.linalg.eigvalsh(eta)
        top = sorted(eigs, reverse=True)
        assert np.allclose(top[:4], [3, 3, 1, 1], atol=1e-10)
        assert np.allclose(top[4:], 0, atol=1e-10)

    def test_single_port(self, port_operator):
        eta = port_operator(1, 2)
        eigs = sorted(np.linalg.eigvalsh(eta), reverse=True)
        assert np.allclose(eigs, [2, 0, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3)])
    def test_psd_and_hermitian(self, port_operator, n, d):
        eta = port_operator(n, d)
        assert np.allclose(eta, eta.T, atol=1e-12)
        assert np.linalg.eigvalsh(eta).min() > -1e-10

    def test_eigenvalues_match_gamma_with_multiplicity(
        self, port_operator, gamma_table, hook_dim, hook_mult
    ):
        n, d = 3, 2
        eta = port_operator(n, d)
        expected = []
        for (alpha, mu), gamma in gamma_table(n, d).items():
            expected += [float(gamma)] * (hook_dim(mu) * hook_mult(alpha, d))
        expected += [0.0] * (2**4 - len(expected))
        actual = sorted(np.linalg.eigvalsh(eta), reverse=True)
        assert np.allclose(actual, sorted(expected, reverse=True), atol=1e-8)


class TestFProjector:
    """The eigenprojector family F_mu(alpha) of a dense cell."""

    def test_two_ports_symmetric(self, dense, port_operator):
        f = dense(dense_cell(2, 2).family[((1,), (2,))])
        assert abs(np.trace(f) - 2) < 1e-10  # d_mu * m_alpha = 1 * 2
        eta = port_operator(2, 2)
        assert np.allclose(eta @ f, 3 * f, atol=1e-10)

    def test_family_orthogonal_projectors(self, dense, gamma_table):
        n, d = 3, 2
        fams = {key: dense(f) for key, f in dense_cell(n, d).family.items()}
        assert fams.keys() == gamma_table(n, d).keys()
        keys = list(fams)
        for i, k1 in enumerate(keys):
            f1 = fams[k1]
            assert np.allclose(f1 @ f1, f1, atol=1e-10)
            for k2 in keys[i + 1 :]:
                assert np.allclose(f1 @ fams[k2], 0, atol=1e-10)

    def test_reconstruction(self, dense, gamma_table):
        for n, d in [(2, 2), (3, 2), (2, 3)]:
            cell = dense_cell(n, d)
            eta = dense(d**n * cell.ports)
            recon = np.zeros_like(eta)
            for key, gamma in gamma_table(n, d).items():
                recon += float(gamma) * dense(cell.family[key])
            assert np.abs(recon - eta).max() < 1e-9

    def test_inner_product_identity(self, dense, hook_mult):
        # sandwiching by P_alpha (x) P+ rescales the projector by m_mu/(d m_alpha)
        n, d = 2, 2
        cell = dense_cell(n, d)
        for (alpha, mu), f in cell.family.items():
            p_alpha = dense(cell.projectors[alpha])
            p_plus = np.zeros((4, 4))
            for i in range(2):
                for j in range(2):
                    p_plus[i * 2 + i, j * 2 + j] = 0.5
            wall = np.kron(p_alpha, p_plus)
            lhs = wall @ dense(f) @ wall
            ratio = hook_mult(mu, d) / (d * hook_mult(alpha, d))
            assert np.abs(lhs - ratio * wall).max() < 1e-10


class TestDenseCell:
    @pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (2, 3), (3, 3)])
    def test_operators_are_float64_and_symmetric(self, dense, n, d):
        cell = dense_cell(n, d)
        sigmas = [oracle._port_state(n, d, a) for a in range(n)]
        ops = [*cell.projectors.values(), *cell.family.values(), *sigmas, cell.ports, cell.povm]
        for op in ops:
            assert op.data.dtype == np.float64
            full = dense(op)
            assert np.abs(full - full.T).max() <= 1e-12


class TestDirectFidelity:
    def test_sqrt_measurement_values(self):
        got = direct_fidelity(dense_cell(2, 2), "sqrt_measurement")
        assert abs(got - (math.sqrt(3) + 1) ** 2 / 16) < 1e-8
        got32 = direct_fidelity(dense_cell(3, 2), "sqrt_measurement")
        assert abs(got32 - sqrt_measurement_fidelity(incidence_edges(3, 2))) < 1e-8

    def test_optimal_values(self):
        assert abs(direct_fidelity(dense_cell(2, 2), "optimal") - 0.5) < 1e-8
        assert abs(direct_fidelity(dense_cell(3, 2), "optimal") - GOLDEN) < 1e-8

    def test_single_port_degenerate(self):
        for d in (2, 3):
            assert abs(direct_fidelity(dense_cell(1, d), "sqrt_measurement") - 1 / d**2) < 1e-8

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            direct_fidelity(dense_cell(2, 2), "bogus")


class TestSdpChecks:
    def test_primal_2_2(self):
        res = primal_constraint_check(dense_cell(2, 2))
        assert res["min_eig"] >= -1e-8
        assert abs(res["trace_XA"] - 4) < 1e-8

    def test_primal_3_2_and_3_3(self):
        res = primal_constraint_check(dense_cell(3, 2))
        assert res["min_eig"] >= -1e-8
        assert abs(res["trace_XA"] - 8) < 1e-8
        res33 = primal_constraint_check(dense_cell(3, 3))
        assert abs(res33["trace_XA"] - 27) < 1e-8

    def test_dual_values(self):
        res = dual_witness_check(dense_cell(2, 2))
        assert res["min_slack"] >= -1e-8
        assert abs(res["objective"] - 0.5) < 1e-8
        res32 = dual_witness_check(dense_cell(3, 2))
        assert abs(res32["objective"] - GOLDEN) < 1e-8
        res33 = dual_witness_check(dense_cell(3, 3))
        assert abs(res33["objective"] - 1 / 3) < 1e-8

    def test_strong_duality_triangle_small(self):
        for n, d in [(2, 2), (2, 3)]:
            cell = dense_cell(n, d)
            primal = direct_fidelity(cell, "optimal")
            dual = dual_witness_check(cell)["objective"]
            radius = optimal_fidelity(incidence_edges(n, d))
            assert abs(primal - radius) < 1e-8
            assert abs(dual - radius) < 1e-8


class TestWeightSectors:
    def test_layout_at_3_4(self):
        groups = oracle._sectors(4, 4, -1)
        assert sum(len(g) for g in groups) == 50
        assert max(g.shape[1] for g in groups) == 18
        assert sorted(np.concatenate([g.ravel() for g in groups])) == list(range(4**4))

    @pytest.mark.parametrize("k,d", [(1, 2), (2, 3), (3, 4), (4, 3), (5, 2), (4, 5), (2, 40)])
    def test_sectors_are_the_weights(self, k, d):
        # states share a sector iff they share the digit counts over the first
        # k - 1 factors plus `last` times the count of the last digit
        digits = np.array(list(itertools.product(range(d), repeat=k)))
        for last in (1, -1):
            layout = oracle._layout(k, d, last)
            weights = {}
            for state, row in enumerate(digits):
                counts = np.bincount(row[:-1], minlength=d) + last * np.bincount(row[-1:], minlength=d)
                weights.setdefault(tuple(counts), []).append(state)
            sectors = sorted(map(sorted, weights.values()))
            assert sorted(sorted(r) for g in layout.groups for r in g.tolist()) == sectors
            sizes = [g.shape[1] for g in layout.groups]
            assert sizes == sorted(set(sizes))
            assert layout.size == sum(len(s) ** 2 for s in sectors) == oracle._entry_count(k, d)

    @pytest.mark.parametrize("n,d", [(3, 4), (4, 3), (7, 2)])
    def test_sector_spectra_match_dense(self, dense, monkeypatch, n, d):
        # eta, the primal operator, each dual slack and the dual partial trace
        solved = []
        real = oracle._eigvalsh

        def record(op):
            w = real(op)
            solved.append((op, w))
            return w

        monkeypatch.setattr(oracle, "_eigvalsh", record)
        assert all(r.passed for r in run_checks(n, d))
        assert len(solved) == n + 3
        for op, w in solved:
            want = np.linalg.eigvalsh(dense(op))
            assert np.abs(w - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n,d", [(3, 4), (5, 3), (7, 2), (5, 2), (4, 3), (6, 2)])
    def test_operators_stay_in_their_sectors(self, dense, n, d):
        # the dense reference builds of the port operator, every F and the
        # POVM have no entry outside the weight sectors
        cell = dense_cell(n, d)
        groups = oracle._layout(n + 1, d, -1).groups
        eta = d**n * sum(dense_port_state(n, d, a) for a in range(n))
        fams = {key: dense_f_operator(cell, *key, dense) for key in cell.family}
        coeffs = zip(cell.pairs, cell.solution.p_coeffs.tolist())
        povm = sum(p * fams[key] for key, p in coeffs if key in fams)
        for op in [eta, povm, *fams.values()]:
            off = op.copy()
            for g in groups:
                off[g[:, :, None], g[:, None, :]] = 0.0
            assert not off.any()

    def test_index_map_leaving_its_sector_is_an_error(self):
        # |0000> and |0001> differ only in the last digit, so in weight
        layout = oracle._layout(4, 2, -1)
        with pytest.raises(ArithmeticError, match="leaves its weight sectors"):
            oracle._index(layout, np.array([0]), np.array([1]))
        # the swap of port 0 with the last factor keeps the digit counts of
        # all four factors, but not the weights
        swap = perm_index(transposition(0, 3, 4), 2)
        with pytest.raises(ArithmeticError, match="leaves its weight sectors"):
            oracle._index(layout, np.arange(16), swap)
        oracle._index(oracle._layout(4, 2, 1), np.arange(16), swap)

    def test_off_sector_entry_is_an_error(self, monkeypatch):
        # a permutation index map shifted by one state places entries of the
        # class sums outside their sectors
        real = oracle._perm_indices
        monkeypatch.setattr(oracle, "_perm_indices", lambda perms, d: (real(perms, d) + 1) % d ** perms.shape[1])
        with pytest.raises(ArithmeticError, match="leaves its weight sectors"):
            oracle._perm_table(3, 2)

    def test_asymmetric_block_is_an_error(self):
        eta = 2**3 * dense_cell(3, 2).ports
        group = next(i for i, g in enumerate(eta.layout.groups) if g.shape[1] > 1)
        eta.blocks()[group][0, 0, 1] += 1e-6
        with pytest.raises(ArithmeticError, match="not Hermitian"):
            oracle._eigvalsh(eta)


class TestStructuredForms:
    """Each block-stored operator against the dense formula it replaced,
    expanded in the test only."""

    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(1, 5) for d in (2, 3)] + [(3, 4)]
    )
    def test_class_sum_projectors(self, dense, n, d):
        table = oracle._perm_table(n, d)
        for mu in _row_tuples(enumerate_diagrams(n, n)):
            want = dense_young_projector(mu, d)
            got = oracle._young_projector(mu, d, table)
            assert np.abs(dense(got) - want).max() <= 1e-12

    @pytest.mark.parametrize("n,d", [(4, 3), (5, 2)])
    def test_class_sums_match_each_permutation(self, dense, n, d):
        want = {}
        for perm in itertools.permutations(range(n)):
            ctype = cycle_type(perm)
            want[ctype] = want.get(ctype, 0) + digit_permutation_matrix(perm, d)
        table = oracle._perm_table(n, d)
        assert table.keys() == want.keys()
        for ctype, k in table.items():
            assert np.array_equal(dense(k), want[ctype]), ctype

    @pytest.mark.parametrize("n,d", [(3, 3), (3, 4), (4, 2)])
    def test_f_operator(self, dense, n, d):
        cell = dense_cell(n, d)
        for (alpha, mu), f in cell.family.items():
            assert np.abs(dense(f) - dense_f_operator(cell, alpha, mu, dense)).max() <= 1e-12

    @pytest.mark.parametrize("n,d", [(1, 3), (3, 3), (3, 4), (4, 2), (4, 4)])
    def test_port_states_and_povm(self, dense, n, d):
        cell = dense_cell(n, d)
        sigmas = [dense_port_state(n, d, a) for a in range(n)]
        for a, sigma in enumerate(sigmas):
            assert np.array_equal(dense(oracle._port_state(n, d, a)), sigma)
        assert np.array_equal(dense(cell.ports), sum(sigmas))
        if d**n <= 64:
            assert np.abs(dense(cell.povm) - dense_povm(cell, dense)).max() <= 1e-12

    @pytest.mark.parametrize("n,d", [(1, 3), (3, 3), (3, 4), (4, 2)])
    def test_port_contractions(self, dense, n, d):
        # E_a^T A E_a and E_a P E_a^T for operators A and P with random blocks,
        # E_a built digit by digit: |r> -> sum_i |r with i put at port a, then i>
        layout = oracle._layout(n + 1, d, -1)
        rng = np.random.default_rng(n * d)
        a_op = oracle.SectorOperator(layout, rng.normal(size=layout.size))
        small = oracle._layout(n - 1, d, 1)
        p_op = oracle.SectorOperator(small, rng.normal(size=small.size))
        for a in range(n):
            e = np.zeros((d ** (n + 1), d ** (n - 1)))
            for r, digits in enumerate(itertools.product(range(d), repeat=n - 1)):
                for i in range(d):
                    state = [*digits[:a], i, *digits[a:], i]
                    e[sum(x * d ** (n - j) for j, x in enumerate(state)), r] = 1
            index = oracle._port_index(n, d, a)
            assert np.unique(index).size == index.size  # the scatter places each entry once
            k = oracle._gather(a_op, small, index)
            assert np.abs(dense(k) - e.T @ dense(a_op) @ e).max() <= 1e-12
            spread = oracle._spread(p_op, n, d, a)
            assert spread.layout is layout
            assert np.array_equal(dense(spread), e @ dense(p_op) @ e.T)

    @pytest.mark.parametrize("n,d", [(1, 3), (3, 3), (3, 4), (4, 2)])
    def test_partial_trace_is_the_adjoint_of_the_lift(self, dense, n, d):
        # the trace over the last factor of an operator A, and P (x) 1 for an
        # operator P, both with random blocks
        layout, small = oracle._layout(n + 1, d, -1), oracle._layout(n, d, 1)
        rng = np.random.default_rng(n * d)
        a_op = oracle.SectorOperator(layout, rng.normal(size=layout.size))
        p_op = oracle.SectorOperator(small, rng.normal(size=small.size))
        index = oracle._lift_index(n, d)
        assert np.unique(index).size == index.size  # the scatter places each entry once
        want = dense(a_op).reshape(d**n, d, d**n, d).trace(axis1=1, axis2=3)
        got = oracle._partial_trace(a_op, n, d)
        assert got.layout is small
        assert np.abs(dense(got) - want).max() <= 1e-12
        lifted = oracle._lift(p_op, n, d)
        assert lifted.layout is layout
        assert np.array_equal(dense(lifted), np.kron(dense(p_op), np.eye(d)))

    @pytest.mark.parametrize("n,d", [(3, 3), (3, 4), (4, 2)])
    def test_pair_sandwich(self, dense, n, d):
        cell = dense_cell(n, d)
        for (alpha, _), f in cell.family.items():
            wall = np.kron(dense(cell.projectors[alpha]), ptilde_plus(d) / d)
            q = dense(oracle._pair_sandwich(cell.projectors[alpha], f))
            assert np.abs(np.kron(q, ptilde_plus(d)) - wall @ dense(f) @ wall).max() <= 1e-12

    @pytest.mark.parametrize("n,d", [(3, 3), (3, 4), (4, 2)])
    def test_port_products(self, dense, monkeypatch, n, d):
        cell = dense_cell(n, d)
        eta = d**n * cell.ports
        for f in cell.family.values():
            assert np.abs(dense(eta @ f) - dense(eta) @ dense(f)).max() <= 1e-12
        # the operator the primal check solves
        solved = []
        monkeypatch.setattr(oracle, "_eigvalsh", lambda op: solved.append(op) or [0.0])
        primal_constraint_check(cell)
        sol = cell.solution
        x_a = sum(c * dense(cell.projectors[mu]) for mu, c in zip(_row_tuples(sol.basis), sol.c_coeffs.tolist()))
        povm = dense(cell.povm)
        want = np.kron(x_a, np.eye(d)) - povm @ dense(cell.ports) @ povm
        assert np.abs(dense(solved[0]) - want).max() <= 1e-12

    @pytest.mark.parametrize("n,d", [(3, 3), (3, 4), (4, 2)])
    def test_dual_operators(self, dense, monkeypatch, n, d):
        # every slack omega - sigma_a and the partial trace of omega, against
        # omega summed from the expanded family
        cell = dense_cell(n, d)
        solved = []
        monkeypatch.setattr(oracle, "_eigvalsh", lambda op: solved.append(op) or np.zeros(1))
        dual_witness_check(cell)
        t = dict(zip(_row_tuples(cell.solution.basis), cell.solution.v.tolist()))
        mult = {mu: m for mu, (_, m) in cell.numbers.items()}
        omega = 0.0
        for (alpha, mu), f in cell.family.items():
            kids = [nu for (a, nu) in cell.family if a == alpha]
            weight = math.fsum(t[nu] for nu in kids) * mult[mu] / (mult[alpha] * t[mu] * d**n)
            omega = omega + weight * dense(f)
        *slacks, reduced = solved
        assert len(slacks) == n
        for a, s in enumerate(slacks):
            assert np.abs(dense(s) - (omega - dense_port_state(n, d, a))).max() <= 1e-12
        partial = omega.reshape(d**n, d, d**n, d).trace(axis1=1, axis2=3)
        assert np.abs(dense(reduced) - partial).max() <= 1e-12

    @pytest.mark.parametrize("n,d", [(3, 3), (3, 4), (4, 2)])
    def test_direct_fidelity(self, dense, n, d):
        cell = dense_cell(n, d)
        sigmas = [dense_port_state(n, d, a) for a in range(n)]
        inverse_sqrt = dense_inverse_sqrt(sum(sigmas))
        assert np.abs(dense(oracle._pseudo_inverse_sqrt(cell.ports)) - inverse_sqrt).max() <= 1e-12
        walls = {"sqrt_measurement": inverse_sqrt, "optimal": dense(cell.povm)}
        for spec, wall in walls.items():
            ws = [wall @ s for s in sigmas]
            want = math.fsum(float(np.sum(w * w.T)) for w in ws) / d**2
            assert abs(direct_fidelity(cell, spec) - want) <= 1e-12


class TestRunChecks:
    def test_all_pass_at_2_2(self):
        results = run_checks(2, 2)
        assert results, "battery must not be empty"
        failures = [r for r in results if not r.passed]
        assert not failures, failures

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_all_pass_at_one_port(self, d):
        # the k = 0 layout: no factors left after the port and the last one
        results = run_checks(1, d)
        assert len(results) == 26
        failures = [r for r in results if not r.passed]
        assert not failures, failures

    def test_check_names(self):
        assert [r.name for r in run_checks(3, 2)] == [
            "young_resolution", "young_idempotent", "young_hermitian", "young_trace", "young_commute",
            "eta_hermitian", "eta_psd", "eta_eigenvalues", "edge_pairs",
            "f_idempotent", "f_hermitian", "f_trace", "f_eigen", "f_orthogonal", "f_inner_product",
            "eta_reconstruction", "f_support_rank",
            "fidelity_sqrt_direct", "fidelity_povm_family", "fidelity_optimal_direct",
            "primal_min_eig", "primal_trace", "dual_min_slack", "dual_objective", "duality_gap",
            "character_spectrum",
        ]

    @pytest.mark.parametrize("n,d", [(1, 2), (3, 3), (4, 2)])
    def test_layouts_built(self, monkeypatch, n, d):
        # a fresh cache over _Layout records each (k, d, last) a cell builds:
        # the class sums of S(N-1) and S(N), and the operators on N+1 factors
        built = set()

        def record(k, d, last):
            built.add((k, d, last))
            return oracle._Layout(k, d, last)

        monkeypatch.setattr(oracle, "_layout", functools.lru_cache(maxsize=None)(record))
        assert all(r.passed for r in run_checks(n, d))
        assert built == {(n - 1, d, 1), (n, d, 1), (n + 1, d, -1)}

    def test_cap_respected(self):
        with pytest.raises(CapExceededError):
            run_checks(10, 2)

    @pytest.mark.parametrize(
        "n,d,bound",
        [(10, 2, "MAX_SCATTER"), (9, 3, "MAX_SCATTER"), (6, 4, "MAX_ENTRIES"), (8, 3, "MAX_ENTRIES"),
         (1, 10**6, "MAX_ENTRIES"), (3, 2**511, "MAX_SCATTER"), (10**6, 10**6, "MAX_SCATTER")],
    )
    def test_cap_refuses_before_building(self, monkeypatch, n, d, bound):
        monkeypatch.setattr(oracle, "incidence_edges", None)  # nothing is built
        with pytest.raises(CapExceededError, match=bound):
            dense_cell(n, d)

    @pytest.mark.parametrize("n,d", [(9, 2), (5, 4), (6, 3), (7, 3), (5, 5), (3, 9)])
    def test_cap_admits(self, n, d):
        oracle._require_cell(n, d)

    @pytest.mark.parametrize("n,d", [(3, 3), (4, 2)])
    def test_each_operator_built_once(self, monkeypatch, n, d):
        calls = Counter()

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("_perm_table", "_young_projector", "_spread", "_f_operator", "optimal_solution"):
            count(oracle, name)
        # the exact d_mu, m_mu kernel, behind every basis.numbers
        count(diagrams, "_frobenius_weyl")
        # the fast path's edge builds and Perron solves, at every binding the
        # oracle can reach them through
        for module in (oracle, protocol):
            for name in ("incidence_edges", "dominant_eigenpair"):
                if hasattr(module, name):
                    count(module, name)
        run_checks(n, d)
        parents = enumerate_diagrams(n - 1, d)
        assert calls == {
            "_perm_table": 2,
            # the diagrams of the edge list's two bases, none taller than d
            "_young_projector": len(enumerate_diagrams(n, d)) + len(parents),
            # N per parent for its S_alpha, shared by its children; N for the
            # cell's port-state sum and N for the dual slacks
            "_spread": n * (len(parents) + 2),
            "_f_operator": sum(len(oracle._add_box(alpha, d)) for alpha in _row_tuples(parents)),
            "optimal_solution": 1,
            "incidence_edges": 1,
            # one solve per cell: optimal_solution's, which the optimality
            # checks read too
            "dominant_eigenpair": 1,
            # one per basis, however many diagrams: the edge list's parents
            # and children
            "_frobenius_weyl": 2,
        }

    def test_edge_list_disagreement_is_a_failed_check(self, monkeypatch):
        # the fast edge list loses its first edge, and the cell's pairs with it,
        # so pairs and gammas stay aligned and the walk has one pair more
        real = oracle.dense_cell

        def short(n, d):
            cell = real(n, d)
            e = cell.edges
            edges = dataclasses.replace(e, parent=e.parent[1:], child=e.child[1:])
            return dataclasses.replace(cell, edges=edges, pairs=cell.pairs[1:])

        monkeypatch.setattr(oracle, "dense_cell", short)
        results = {r.name: r for r in run_checks(3, 2)}
        assert len(results) == 26
        assert results["edge_pairs"].residual == 1 and not results["edge_pairs"].passed
        assert results["f_idempotent"].passed and results["dual_objective"].passed


    def test_overlapping_family_fails_f_orthogonal(self, monkeypatch):
        # adding one member into another keeps every member a symmetric
        # projector, so only the check on the sum can see the overlap
        real = oracle.dense_cell

        def overlapping(n, d):
            cell = real(n, d)
            (_, f1), (k2, f2), *_ = cell.family.items()
            return dataclasses.replace(cell, family={**cell.family, k2: f1 + f2})

        monkeypatch.setattr(oracle, "dense_cell", overlapping)
        results = {r.name: r for r in run_checks(3, 2)}
        assert len(results) == 26
        assert not results["f_orthogonal"].passed
        assert results["f_idempotent"].passed and results["f_hermitian"].passed

    def test_missing_projector_fails_young_resolution(self, monkeypatch):
        # the zero operator is a symmetric projector that commutes with every
        # permutation, so of the checks on one projector at a time only
        # young_trace can tell that it is missing; their sum must tell too
        real = oracle.dense_cell

        def missing(n, d):
            cell = real(n, d)
            mu = _row_tuples(cell.edges.col_basis)[-1]
            zero = 0.0 * cell.projectors[mu]
            return dataclasses.replace(cell, projectors={**cell.projectors, mu: zero})

        monkeypatch.setattr(oracle, "dense_cell", missing)
        results = {r.name: r for r in run_checks(4, 2)}
        assert len(results) == 26
        assert not results["young_resolution"].passed
        assert results["edge_pairs"].passed
        assert results["young_idempotent"].passed and results["young_hermitian"].passed


class TestCharacterSpectrum:
    def test_broken_walk_is_a_hard_error(self, monkeypatch):
        # a walk that never lengthens the first row gives a wrong M_F
        real = oracle._add_box

        def walk(alpha, d):
            return [mu for mu in real(alpha, d) if mu[0] == alpha[0]]

        monkeypatch.setattr(oracle, "_add_box", walk)
        with pytest.raises(ArithmeticError, match="not eigenvectors at N=3"):
            character_spectrum(3)
