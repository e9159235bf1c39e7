"""Independent reference implementations, and the claims' outcome tables
written out, used only by the tests.

Everything here goes through numpy's own linear algebra (eigh, vectorized
einsum) rather than the package's hand-rolled solver and loops, so agreement
between the two is evidence, not tautology.
"""

import numpy as np


def dag(a):
    return np.conj(a.T)


def entropy(rho_matrix):
    lam = np.clip(np.linalg.eigvalsh(rho_matrix), 0.0, 1.0)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))


def log_psd(matrix):
    w, u = np.linalg.eigh(matrix)
    return u @ np.diag(np.log(w)) @ dag(u)


def free_energy_matrix(rho_matrix, h_matrix, beta):
    return h_matrix + log_psd(rho_matrix) / beta


def generator(h_matrix, channels, rho_matrix):
    """channels: iterable of (rate, L). Returns the GKSL right-hand side."""
    out = -1j * (h_matrix @ rho_matrix - rho_matrix @ h_matrix)
    for rate, l in channels:
        ldl = dag(l) @ l
        out = out + rate * (l @ rho_matrix @ dag(l)
                            - 0.5 * (ldl @ rho_matrix + rho_matrix @ ldl))
    return out


def theta(rho_matrix, h_matrix, beta, l):
    """<|[dF, L]|^2> computed end to end with numpy only."""
    f = free_energy_matrix(rho_matrix, h_matrix, beta)
    mean = np.trace(f @ rho_matrix).real
    df = f - mean * np.eye(f.shape[0])
    c = df @ l - l @ df
    return float(np.trace(rho_matrix @ c @ dag(c)).real)


def theta_index_einsum(w, rho_c, l_c):
    """Vectorized triple sum: weights (w_i - w_l)(w_i - w_k), axes [i, k, l]."""
    w = np.asarray(w, dtype=float)
    weight = (w[:, None, None] - w[None, None, :]) * (w[:, None, None] - w[None, :, None])
    return float(np.real(np.einsum("lk,ki,li,ikl->", rho_c, l_c, np.conj(l_c), weight)))


def sorted_phased(values, v):
    """The eigensolver's finish for one matrix with diagonal `values` and
    eigenvectors v: values in stable ascending order, and the matching columns
    of v, each times conj(pivot)/|pivot|, where its pivot is the lowest-index
    entry of largest magnitude."""
    order = np.argsort(values, kind="stable")
    vectors = v[:, order]
    pivots = np.array([column[np.abs(column).argmax()] for column in vectors.T])
    return values[order], vectors * (np.conj(pivots) / np.abs(pivots))


def abs_sq_loops(a):
    d = a.shape[0]
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                out[i, j] += a[i, k] * np.conj(a[j, k])
    return out


def random_hermitian(rng, d, scale=1.0):
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    return scale * 0.5 * (g + dag(g))


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d, floor=0.05):
    """Full-rank density matrix; smallest eigenvalue >= floor / (d (1 + floor))."""
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    m = g @ dag(g) + floor * np.eye(d)
    return m / np.trace(m).real


def random_ginibre(rng, d):
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)


# The claims' outcome rules over every pair of classes ("zero", "nonzero",
# "straddle"), written out.  An implication "premise zero => conclusion zero"
# is vacuous when its premise is cleanly nonzero, and inconclusive when either
# side straddles a cut.
IMPLICATION_OUTCOMES = {
    ("zero", "zero"): "supporting",
    ("zero", "nonzero"): "counterexample",
    ("zero", "straddle"): "inconclusive",
    ("nonzero", "zero"): "vacuous",
    ("nonzero", "nonzero"): "vacuous",
    ("nonzero", "straddle"): "vacuous",
    ("straddle", "zero"): "inconclusive",
    ("straddle", "nonzero"): "inconclusive",
    ("straddle", "straddle"): "inconclusive",
}

# "condition holds <=> all Thetas vanish", by (condition, class of the Thetas)
BICONDITIONAL_OUTCOMES = {
    (True, "zero"): "supporting",
    (True, "nonzero"): "counterexample",
    (True, "straddle"): "inconclusive",
    (False, "zero"): "counterexample",
    (False, "nonzero"): "supporting",
    (False, "straddle"): "inconclusive",
}
