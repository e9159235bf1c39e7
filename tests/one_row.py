"""One-state calls of the library's stacked cores, used only by the tests.

Every evaluation in qbattery takes a stack of states and a linalg._Rows that
its checks cut.  A test about one state passes one-row stacks through
_Rows.single, which raises that row's failure: each function here is that call
of the stacked function of its name, taking and returning one state's values.
"""

from typing import NamedTuple

import numpy as np

from qbattery import dynamics, free_energy, linalg
from qbattery.linalg import _Rows
from qbattery.tolerances import DEFAULT_TOLERANCES


class Decomposition(NamedTuple):
    """free_energy_operator's row of one state."""

    log_rho: np.ndarray
    f_op: np.ndarray
    delta_f: np.ndarray
    mean: float


def von_neumann_entropy(rho) -> float:
    return float(dynamics.von_neumann_entropy(rho.spectrum.eigenvalues[None])[0])


def liouvillian(model, rho, tol=DEFAULT_TOLERANCES) -> np.ndarray:
    return _Rows.single(dynamics.liouvillian, model, rho.matrix[None], tol)[0]


def mean_free_energy(rho, ctx) -> float:
    """<F> = tr(rho H) - S/beta."""
    return float(free_energy.mean_free_energy(rho.matrix[None], rho.spectrum.eigenvalues[None],
                                              ctx)[2][0])


def free_energy_operator(rho, ctx, tol=DEFAULT_TOLERANCES) -> Decomposition:
    spectrum = rho.spectrum
    log_rho, f_op, delta_f, mean = _Rows.single(
        free_energy.free_energy_operator, rho.matrix[None], spectrum.eigenvalues[None],
        spectrum.eigenvectors[None], np.array([mean_free_energy(rho, ctx)]), ctx, tol)
    return Decomposition(log_rho[0], f_op[0], delta_f[0], float(mean[0]))


def power_analytic(rate, f_op, tol=DEFAULT_TOLERANCES) -> float:
    return float(_Rows.single(free_energy.power_analytic, rate[None], f_op[None], tol)[0])


def theta_operator_form(delta_f, rho, l, tol=DEFAULT_TOLERANCES) -> float:
    return float(_Rows.single(free_energy.theta_operator_form, delta_f[None], rho.matrix[None],
                              np.asarray(l, dtype=complex), tol)[0])


def theta_index_form(w, rho_c, l_c, tol=DEFAULT_TOLERANCES) -> float:
    return float(_Rows.single(free_energy.theta_index_form, np.asarray(w, dtype=float)[None],
                              np.asarray(rho_c, dtype=complex)[None],
                              np.asarray(l_c, dtype=complex)[None], tol)[0])


def compute_theta_report(decomp, f_spectrum, rho, model, tol=DEFAULT_TOLERANCES):
    """(operator, index) Theta of each channel, from F's spectrum `f_spectrum`."""
    forms = _Rows.single(free_energy.compute_theta_report, decomp.delta_f[None], rho.matrix[None],
                         (f_spectrum.eigenvalues - decomp.mean)[None],
                         f_spectrum.eigenvectors[None], model, tol)
    return [(float(t_op[0]), float(t_ix[0])) for t_op, t_ix in forms]


def matrix_function(spectrum, f, tol=DEFAULT_TOLERANCES) -> np.ndarray:
    return _Rows.single(linalg.matrix_function, spectrum.eigenvalues[None],
                        spectrum.eigenvectors[None], f, tol)[0]


def abs_sq(a, tol=DEFAULT_TOLERANCES) -> np.ndarray:
    return _Rows.single(linalg.abs_sq, np.asarray(a, dtype=complex)[None], tol)[0]
