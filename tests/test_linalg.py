import numpy as np
import pytest
import scipy.linalg

from gate_energetics.linalg import (
    IDENTITY_2,
    PROJ_1,
    SIGMA_X,
    SIGMA_Z,
    UNITARY_TOL,
    eigh_hermitian,
    expm_hermitian,
    is_unitary,
    op_distance,
    tensor,
    validate_density,
)


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


def test_validate_density_accepts_maximally_mixed():
    validate_density(np.eye(4) / 4)


def test_validate_density_accepts_diagonal():
    validate_density(np.diag([0.8, 0.2, 0.0, 0.0]).astype(complex))


def test_validate_density_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_density(np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex))


def test_validate_density_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        validate_density(np.diag([0.5, 0.4, 0.0, 0.0]).astype(complex))


def test_validate_density_rejects_non_hermitian():
    r = np.eye(4, dtype=complex) / 4
    r[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density(r)


def test_op_distance_zero_for_equal():
    assert op_distance(SIGMA_X, SIGMA_X) == 0.0


def test_op_distance_identity_vs_zero():
    assert op_distance(np.eye(4), np.zeros((4, 4))) == 1.0


def test_is_unitary():
    assert is_unitary(np.eye(4))
    assert not is_unitary(np.diag([1.0, 1.0, 1.0, 0.5]))


def _off_by(u, kind, deviation):
    """u changed so that the largest entry of U^dag U - 1 is ``deviation``,
    on the diagonal (a scaled u) or off it (u times 1 + a real shear)."""
    if kind == "diagonal":
        return u * np.sqrt(1.0 + deviation)
    shear = np.eye(len(u))
    shear[0, 1] = shear[1, 0] = deviation / 2  # off-diagonal entries 2 * (d/2)
    return u @ shear


def _unitary_stack(rng, tables, n):
    a = rng.normal(size=(tables, n, n)) + 1j * rng.normal(size=(tables, n, n))
    return np.linalg.qr(a)[0]


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("kind", ["diagonal", "off-diagonal"])
@pytest.mark.parametrize("where", [0, 5, 10])
def test_stacked_is_unitary_equals_every_table(n, kind, where):
    """A stack is unitary iff each of its tables is, with one table just
    inside the tolerance and another just outside it, first, in the middle
    and last."""
    rng = np.random.default_rng(100 * n + where)
    stack = _unitary_stack(rng, 11, n)
    inside = (where + 3) % len(stack)
    stack[inside] = _off_by(stack[inside], kind, 0.9 * UNITARY_TOL)
    assert is_unitary(stack)
    assert all(is_unitary(u) for u in stack)
    stack[where] = _off_by(stack[where], kind, 1.1 * UNITARY_TOL)
    assert not is_unitary(stack)
    assert [is_unitary(u) for u in stack] == [i != where for i in range(len(stack))]
