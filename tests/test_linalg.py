import numpy as np
import pytest
import scipy.linalg

from gate_energetics.linalg import expm_hermitian

from conftest import op_distance
from reference import IDENTITY_2, PROJ_1, SIGMA_X, SIGMA_Z, eigh_hermitian, tensor


def random_hermitian(rng, n=4):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def test_tensor_sigma_z_identity():
    assert np.array_equal(tensor(SIGMA_Z, IDENTITY_2), np.diag([-1, -1, 1, 1]).astype(complex))


def test_tensor_identity_identity():
    assert np.array_equal(tensor(IDENTITY_2, IDENTITY_2), np.eye(4, dtype=complex))


def test_tensor_proj1_sigma_x_hits_lower_block_only():
    m = tensor(PROJ_1, SIGMA_X)
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 3] = expected[3, 2] = 1.0
    assert np.array_equal(m, expected)


def test_tensor_index_convention():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = tensor(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert m[2 * i + k, 2 * j + l] == pytest.approx(a[i, j] * b[k, l])


def test_tensor_bilinear():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert op_distance(tensor(a + a2, b), tensor(a, b) + tensor(a2, b)) <= 1e-14


def test_expm_diagonal():
    d = np.array([-1.5, 0.25, 1.0, 3.0])
    out = expm_hermitian(np.diag(d), 0.7)
    assert op_distance(out, np.diag(np.exp(1j * 0.7 * d))) <= 1e-14


def test_expm_zero_scale_is_identity():
    rng = np.random.default_rng(13)
    h = random_hermitian(rng)
    assert op_distance(expm_hermitian(h, 0.0), np.eye(4)) <= 1e-14


def test_expm_unitary_for_random_hermitian():
    rng = np.random.default_rng(14)
    for _ in range(50):
        u = expm_hermitian(random_hermitian(rng), rng.normal())
        assert op_distance(u.conj().T @ u, np.eye(4)) <= 1e-10


def test_expm_matches_scipy():
    rng = np.random.default_rng(15)
    for _ in range(10):
        h = random_hermitian(rng)
        s = rng.normal()
        assert op_distance(expm_hermitian(h, s), scipy.linalg.expm(1j * s * h)) <= 1e-10


def test_expm_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        expm_hermitian(bad, 1.0)


def test_eigh_reconstruction():
    rng = np.random.default_rng(16)
    for _ in range(50):
        h = random_hermitian(rng)
        w, v = eigh_hermitian(h)
        assert op_distance((v * w) @ v.conj().T, h) <= 1e-10


def test_op_distance_zero_for_equal():
    assert op_distance(SIGMA_X, SIGMA_X) == 0.0


def test_op_distance_identity_vs_zero():
    assert op_distance(np.eye(4), np.zeros((4, 4))) == 1.0
