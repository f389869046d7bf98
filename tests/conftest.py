"""Fixtures shared by the test modules."""

import io

import pytest

from dpbt.cli import run
from dpbt.telemat import gram_H, incidence_edges, teleportation_matrix


@pytest.fixture(scope="session")
def verify_oracle():
    """(exit code, stdout, stderr) of one `dpbt verify --oracle` run over the
    default cells, shared by every test that needs the whole battery."""
    out, err = io.StringIO(), io.StringIO()
    code = run(["verify", "--oracle"], out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _recursion_defect(n: int, d: int | None = None) -> tuple[tuple[int, ...], ...]:
    """H(n,d) minus the diagonal correction minus the teleportation matrix of n-1.

    A parent of height < d keeps its add-a-new-row child under the height cap
    and picks up one extra unit on the Gram diagonal; a parent of height d
    loses exactly that child.  The correction is therefore the identity on the
    rows of height < d, and the difference must vanish identically.
    """
    if n < 2:
        raise ValueError("recursion needs n >= 2")
    e, below = incidence_edges(n, d), incidence_edges(n - 1, d)
    if e.row_basis.entries != below.col_basis.entries:
        raise AssertionError("basis mismatch between H and the stepped-down matrix")
    h, mf = gram_H(e).tolist(), teleportation_matrix(below).tolist()
    out = []
    for i, alpha in enumerate(e.row_basis):
        row = []
        for j in range(len(e.row_basis)):
            v = h[i][j] - mf[i][j]
            if i == j and (d is None or alpha.height < d):
                v -= 1
            row.append(v)
        out.append(tuple(row))
    return tuple(out)


@pytest.fixture(scope="session")
def recursion_defect():
    """The recursion defect as a function of (n, d), shared by the telemat
    and acceptance tests."""
    return _recursion_defect
