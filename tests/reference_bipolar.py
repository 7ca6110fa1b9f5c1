"""Test-side oracle for the signed bipolar preference vector.

The package works with the whole (m, m, n) tensor of signed preferences
(``bipolar.bipolar_preference_tensor``). This is the per-pair definition,
written as a plain loop over criteria on the scalar ramp degree, so the
tests can check the tensor and the compiled statement rows against it.
"""

import numpy as np

from conftest import ramp_degree


def bipolar_preference_vector(table, a, b):
    """Signed per-criterion preference of ``a`` over ``b``.

    Componentwise: the preference degree of a over b when positive,
    otherwise minus the degree of b over a. At most one of the two degrees
    is nonzero for any criterion.
    """
    out = []
    for crit in table.criteria:
        forward = ramp_degree(table.difference(crit.name, a, b), crit.q, crit.p)
        backward = ramp_degree(table.difference(crit.name, b, a), crit.q, crit.p)
        out.append(forward if forward > 0.0 else -backward)
    return np.array(out)
