"""Inputs the public API rejects by name, with a ValueError raised by the
object or function that owns the contract, rather than a bare
ZeroDivisionError, OverflowError or IndexError from the arithmetic below it."""

from dataclasses import replace

import numpy as np
import pytest

import inflatonlab as il
from inflatonlab import toymodel as tm
from inflatonlab.horizon import CosmoConstants
from inflatonlab.variance import preset_air_mip

ONE = tm.two_level_model()
TWO = tm.random_model(seed=8, dim=3, n_obs=2)
ZERO_DURATION = ((1.0, (1.0,)), (0.0, (1.0,)))
NO_WEIGHTS = ((1.0, ()),)
ZERO_DURATION_NAMED = r"slice 1 is \(0\.0, \(1\.0,\)\): it needs a positive duration"
NO_WEIGHTS_NAMED = r"slice 0 is \(1\.0, \(\)\): it needs a positive duration and 1 weight"
GRID = [np.arange(-32, 32) * 0.25]
MU_NAMED = r"mu must be nonnegative, with mu\^4 a finite float"


def _air(dEdx):
    return replace(preset_air_mip(), dEdx=dEdx)


CASES = {
    "z_L at -1": (lambda: CosmoConstants.from_physical(z_L=-1.0), "z_L must exceed -1"),
    "sigma2 at dEdx^2 below the normal range":
        (lambda: il.sigma2_per_mu4(_air(1e-200)), r"dEdx\^2 must be a normal float"),
    "sigma2 at dEdx^2 past the float range":
        (lambda: il.sigma2_per_mu4(_air(1e200)), r"dEdx\^2 must be a normal float"),
    "mu bound at dEdx^2 below the normal range":
        (lambda: il.mu_bound(_air(1e-200), 1e-3), r"dEdx\^2 must be a normal float"),
    "mu bound at dEdx^2 past the float range":
        (lambda: il.mu_bound(_air(1e200), 1e-3), r"dEdx\^2 must be a normal float"),
    "toy model with a negative mu": (lambda: replace(ONE, mu=-0.5), MU_NAMED),
    "toy model with mu^4 past the float range": (lambda: replace(ONE, mu=1e80), MU_NAMED),
    "classical variance with a negative mu":
        (lambda: il.classical_variance_00(-0.5, il.WeightFunction()), MU_NAMED),
    "covariance with mu^4 past the float range":
        (lambda: il.covariance_matrix(1e80, [il.WeightFunction()]), MU_NAMED),
    "k-grid with a zero-duration slice":
        (lambda: tm.auto_k_grid(ONE, ZERO_DURATION), ZERO_DURATION_NAMED),
    "k-grid with a slice of no weights":
        (lambda: tm.auto_k_grid(ONE, NO_WEIGHTS), NO_WEIGHTS_NAMED),
    "Phi with a zero-duration slice":
        (lambda: tm.characteristic_fn(ONE, ZERO_DURATION, GRID), ZERO_DURATION_NAMED),
    "Phi with a slice of no weights":
        (lambda: tm.characteristic_fn(ONE, NO_WEIGHTS, GRID), NO_WEIGHTS_NAMED),
    "reduction with a zero-duration slice":
        (lambda: tm.reduce_state(ONE, ZERO_DURATION, [0.0]), ZERO_DURATION_NAMED),
    "reduction with a slice of no weights":
        (lambda: tm.reduce_state(ONE, NO_WEIGHTS, [0.0]), NO_WEIGHTS_NAMED),
    "evolution with a short weight row":
        (lambda: tm.evolve_density(TWO, ((1.0, (1.0,)),), [0.1, 0.2], TWO.initial_state),
         r"slice 0 is \(1\.0, \(1\.0,\)\): .* and 2 weight"),
    "evolution with a long weight row":
        (lambda: tm.evolve_density(TWO, ((1.0, (1.0, 1.0, 1.0)),), [0.1, 0.2],
                                   TWO.initial_state),
         r"slice 0 is \(1\.0, \(1\.0, 1\.0, 1\.0\)\): .* and 2 weight"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_a_broken_contract_raises_a_named_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
