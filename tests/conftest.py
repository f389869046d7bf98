"""Fixtures shared by the test modules."""

import io
import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from dpbt.cli import run
from dpbt.diagrams import _row_tuples
from dpbt.protocol import protocol_eigenvalues
from dpbt.telemat import gram_H, incidence_edges, teleportation_matrix


@pytest.fixture(scope="session")
def verify_oracle():
    """(exit code, stdout, stderr) of one `dpbt verify --oracle` run over the
    default cells, shared by every test that needs the whole battery."""
    out, err = io.StringIO(), io.StringIO()
    code = run(["verify", "--oracle"], out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _recursion_defect(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """H(n,d) minus the diagonal correction minus the teleportation matrix of n-1.

    A parent of height < d keeps its add-a-new-row child under the height cap
    and picks up one extra unit on the Gram diagonal; a parent of height d
    loses exactly that child.  The correction is therefore the identity on the
    rows of height < d, and the difference must vanish identically.
    """
    if n < 2:
        raise ValueError("recursion needs n >= 2")
    e, below = incidence_edges(n, d), incidence_edges(n - 1, d)
    if _row_tuples(e.row_basis) != _row_tuples(below.col_basis):
        raise AssertionError("basis mismatch between H and the stepped-down matrix")
    h, mf = gram_H(e).tolist(), teleportation_matrix(below).tolist()
    out = []
    for i, alpha in enumerate(_row_tuples(e.row_basis)):
        row = []
        for j in range(len(e.row_basis)):
            v = h[i][j] - mf[i][j]
            if i == j and len(alpha) < d:
                v -= 1
            row.append(v)
        out.append(tuple(row))
    return tuple(out)


@pytest.fixture(scope="session")
def recursion_defect():
    """The recursion defect as a function of (n, d), shared by the telemat
    and acceptance tests."""
    return _recursion_defect


def _gamma_table(n: int, d: int) -> dict:
    """{(alpha, mu): gamma} over the edges of incidence_edges(n, d), alpha and
    mu the row tuples of the diagrams, each port-operator eigenvalue an exact
    Fraction."""
    e = incidence_edges(n, d)
    num, den = protocol_eigenvalues(e)
    alphas, mus = _row_tuples(e.row_basis), _row_tuples(e.col_basis)
    return {
        (alphas[i], mus[j]): Fraction(p, q)
        for i, j, p, q in zip(e.parent.tolist(), e.child.tolist(), num.tolist(), den.tolist())
    }


@pytest.fixture(scope="session")
def gamma_table():
    """The port-operator eigenvalues keyed by row-tuple pair, as a function of
    (n, d), shared by the protocol, oracle, CLI and acceptance tests."""
    return _gamma_table


def _hook_product(rows):
    """Product of the hook lengths rows[i] - j + cols[j] - i - 1 of the boxes
    (i, j), a row at a time, with cols the conjugate partition."""
    cols = []
    for i in range(len(rows), 0, -1):
        cols.extend([i] * (rows[i - 1] - len(cols)))
    return math.prod(
        math.prod(map(operator.add, cols[:r], range(r - i - 1, -i - 1, -1)))
        for i, r in enumerate(rows)
    )


def _hook_dim(rows):
    """Hook length formula: N! over the hook product."""
    return math.factorial(sum(rows)) // _hook_product(rows)


def _hook_mult(rows, d):
    """Hook content formula: the product of the d + j - i of the boxes (i, j)
    over the hook product; 0 for a diagram taller than d."""
    if len(rows) > d:
        return 0
    contents = math.prod(math.prod(range(d - i, d - i + r)) for i, r in enumerate(rows))
    return contents // _hook_product(rows)


def _eigenvalues_above(m, x):
    """(count, eigen): how many eigenvalues of the symmetric integer matrix m
    lie above the float x, and whether x is one of them, in exact rationals.

    By Sylvester's law of inertia the count is the number of negative pivots
    of the LDL^T of x I - m, taken in Fractions.  A zero pivot whose column
    below it is zero splits off a zero eigenvalue of x I - m, so x is an
    eigenvalue of m; any other zero pivot is an error.
    """
    a = [[Fraction(-v) for v in row] for row in m.tolist()]
    for i, row in enumerate(a):
        row[i] += Fraction(x)
    count, eigen = 0, False
    for k in range(len(a)):
        pivot = a[k][k]
        below = [i for i in range(k + 1, len(a)) if a[i][k]]
        if pivot == 0:
            if below:
                raise ArithmeticError(f"zero pivot {k} with a nonzero column")
            eigen = True
        count += pivot < 0
        for i in below:
            scale = a[i][k] / pivot
            for j in range(k + 1, len(a)):
                a[i][j] -= scale * a[k][j]
    return count, eigen


@pytest.fixture(scope="session")
def eigenvalues_above():
    """The exact eigenvalue count of an integer matrix above a float, a
    referee that needs no eigensolver and no rounding analysis."""
    return _eigenvalues_above


def _dense(op):
    """The d^k-square array of a sector-stored oracle operator, its blocks
    scattered back into place; the tests' only way from blocks to a matrix."""
    out = np.zeros((op.layout.dim,) * 2)
    for g, blocks in zip(op.layout.groups, op.blocks()):
        out[g[:, :, None], g[:, None, :]] = blocks
    return out


@pytest.fixture(scope="session")
def dense():
    """The expansion of an oracle SectorOperator to a dense array, so that the
    dense reference formulas of the tests can be compared with it."""
    return _dense


@pytest.fixture(scope="session")
def hook_dim():
    """The S(N) irrep dimension d_mu of a diagram's rows by the hook length
    formula: the one reference for the package's exact kernel, which shares
    no arithmetic with it."""
    return _hook_dim


@pytest.fixture(scope="session")
def hook_mult():
    """The Schur-Weyl multiplicity m_mu of a diagram's rows at local
    dimension d by the hook content formula, the kernel's other reference."""
    return _hook_mult
