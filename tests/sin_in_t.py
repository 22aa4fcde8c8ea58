"""Example 5.3 with data nonlinear in t, for the property tests.

The registered time-dependent examples have the exact state (x^2 +
cos(pi y)) t, linear in t, on which implicit Euler's time error all but
vanishes.  Here the state is u = (x^2 + cos(pi y)) sin t, the one of
test_parabolic's time-order test, with the source f = u_t - Delta u, the
Robin data g of 5.3's coefficient, no flux and u0 = 0; everything else
is 5.3's.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from robinrecon import experiments as ex


def u_exact(x, y, t):
    return (x ** 2 + np.cos(np.pi * y)) * np.sin(t)


def f(x, y, t):
    return ((x ** 2 + np.cos(np.pi * y)) * np.cos(t)
            + (np.pi ** 2 * np.cos(np.pi * y) - 2.0) * np.sin(t))


def example(nx: int, ny: int, nt: int) -> ex.Example:
    """5.3 on an nx-by-ny mesh with nt steps and the data above."""
    registered = ex.make_example("5.3", nx=nx, ny=ny, nt=nt)
    gamma_star = registered.gamma_star

    def g(x, y, t):
        return (2.0 + (1.0 + np.cos(np.pi * y)) * gamma_star(y)) * np.sin(t)

    problem = dataclasses.replace(registered.problem, f=f, g=g)
    return dataclasses.replace(registered, problem=problem, u_exact=u_exact)
