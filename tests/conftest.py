"""Fixtures shared by the test modules."""

import io

import pytest

from dpbt.cli import run


@pytest.fixture(scope="session")
def verify_oracle():
    """(exit code, stdout, stderr) of one `dpbt verify --oracle` run over the
    default cells, shared by every test that needs the whole battery."""
    out, err = io.StringIO(), io.StringIO()
    code = run(["verify", "--oracle"], out=out, err=err)
    return code, out.getvalue(), err.getvalue()
