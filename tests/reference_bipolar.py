"""Test-side oracles for the signed bipolar preference vector and flows.

The package works with the whole (m, m, n) tensor of signed preferences
(``bipolar.bipolar_preference_tensor``) and reads flows off coefficient
rows. These are the per-pair definitions, written as plain loops over
criteria on the scalar ramp degree and over ordered pairs of
alternatives, so the tests can check the tensor, the flows and the
compiled statement rows against them.
"""

import numpy as np

from smaa_promethee.bipolar import GeneralBicapacity, bipolar_choquet_general
from smaa_promethee.promethee import Flows

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


def definitional_flows(table, params):
    """Bipolar flows from the definition: for each ordered pair (a, b), the
    level-set integral of a's signed preference over b against the tabulated
    bicapacity, averaged over the m - 1 opponents of a."""
    bicap = GeneralBicapacity.from_params(params)
    labels = table.alternatives
    pos = np.zeros(len(labels))
    neg = np.zeros(len(labels))
    for i, a in enumerate(labels):
        for b in labels:
            if b != a:
                part = bipolar_choquet_general(bipolar_preference_vector(table, a, b), bicap)
                pos[i] += part.positive
                neg[i] += part.negative
    pos /= len(labels) - 1
    neg /= len(labels) - 1
    return Flows(positive=pos, negative=neg, net=pos - neg)
