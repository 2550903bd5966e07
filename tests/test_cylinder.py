"""Ridge test functions: derivatives derived from the profile."""
import numpy as np
import pytest

from ouelliptic import cylinder

CONSTRUCTORS = {
    "constant": lambda n: cylinder.constant(1.5),
    "from_scalar": lambda n: cylinder.from_scalar(
        lambda t: t ** 3, lambda t: 3.0 * t ** 2, lambda t: 6.0 * t,
        coord=n - 1),
    "coordinate": lambda n: cylinder.coordinate(n - 1),
    "hermite": lambda n: cylinder.hermite(3, coord=n - 1),
    "tanh_coord": lambda n: cylinder.tanh_coord(0.7, coord=n // 2),
    "smoothed_indicator": lambda n: cylinder.smoothed_indicator(
        0.2, 0.5, coord=n - 1),
    "cos_linear": lambda n: cylinder.cos_linear(np.linspace(1.0, -0.4, n)),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_ridge_derivatives(name, n):
    """hessian_diag is the diagonal of hessian bit for bit, gradient and
    Hessian match central differences of value, and active_dim is one
    past the last coordinate the gradient reads."""
    f = CONSTRUCTORS[name](n)
    x = np.random.default_rng(n).standard_normal((6, n))
    g = f.gradient(x)
    assert not g[:, f.active_dim:].any()
    assert f.active_dim == 0 or g[:, f.active_dim - 1].any()
    h = f.hessian(x)
    assert h.shape == (6, n, n)
    assert np.array_equal(f.hessian_diag(x), np.diagonal(h, axis1=-2, axis2=-1))

    step = 1e-4
    e = step * np.eye(n)
    fd_grad = np.stack([(f(x + e[i]) - f(x - e[i])) / (2 * step)
                        for i in range(n)], axis=-1)
    np.testing.assert_allclose(g, fd_grad, rtol=0, atol=1e-6)
    fd_hess = np.stack([np.stack(
        [(f(x + e[i] + e[j]) - f(x + e[i] - e[j]) - f(x - e[i] + e[j])
          + f(x - e[i] - e[j])) / (4 * step ** 2) for j in range(n)], -1)
        for i in range(n)], axis=-2)
    np.testing.assert_allclose(h, fd_hess, rtol=0, atol=1e-5)
