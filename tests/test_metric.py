import numpy as np
import pytest

from spinlift import (
    InvalidMetricError,
    Metric,
    inner,
    make_metric,
)
from spinlift.metric import SIGNATURES

E = np.eye(4)


def test_signature_matrices():
    assert np.array_equal(make_metric("pmmm").matrix, np.diag([1.0, -1.0, -1.0, -1.0]))
    assert np.array_equal(make_metric("mppp").matrix, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_default_signature_is_pmmm():
    assert make_metric().signature == "pmmm"


@pytest.mark.parametrize("tag", ["pmmm", "mppp"])
def test_metric_determinant(tag):
    assert np.linalg.det(make_metric(tag).matrix) == pytest.approx(-1.0, abs=1e-14)


def test_unknown_signature_rejected():
    with pytest.raises(InvalidMetricError):
        make_metric("ppmm")


def test_inner_basis_values():
    g = make_metric()
    assert inner(g, E[0], E[0]) == 1.0
    assert inner(g, E[1], E[1]) == -1.0
    assert inner(g, E[0], E[1]) == 0.0


def test_inner_symmetric_random():
    g = make_metric()
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = rng.uniform(-1.0, 1.0, 4)
        v = rng.uniform(-1.0, 1.0, 4)
        assert inner(g, u, v) == pytest.approx(inner(g, v, u), abs=1e-15)


def test_metric_is_one_of_two():
    for tag in ("pmmm", "mppp"):
        g = Metric(tag)
        assert g.matrix.tobytes() == np.diag(SIGNATURES[tag]).tobytes()
        assert not g.matrix.flags.writeable


@pytest.mark.parametrize("signature", ["general", "ppmm", "PMMM", "", None])
def test_metric_refuses_other_signatures(signature):
    with pytest.raises(InvalidMetricError):
        Metric(signature)


def test_metric_takes_no_matrix():
    # The signature fixes the matrix; there is no other one to pass.
    with pytest.raises(TypeError):
        Metric("pmmm", np.diag(SIGNATURES["pmmm"]))
    with pytest.raises(TypeError):
        Metric(matrix=np.diag(SIGNATURES["pmmm"]), signature="pmmm")
