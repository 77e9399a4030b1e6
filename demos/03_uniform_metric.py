"""
The uniform metric of the randomization group, three ways
=========================================================

A pair (f, T) acts on point-valued step functions by shuffling the domain
with T and then applying f's value pointwise.  The uniform metric is the
supremum of displacements over all test functions; over the discrete
naturals it collapses to an exact moving-set formula, in general it is
sandwiched between explicit bounds, and one explicit witness test function
already attains the formula.
"""

import random
from fractions import Fraction as F

from randlab import (
    StepFn,
    TildeElement,
    lu_bounds,
    lu_estimate,
    lu_exact_discrete,
    nbhd_product_to_pointwise,
    pointwise_metric,
    tilde_act,
    tilde_identity,
)
from randlab.dyadic import DyadicMPT
from randlab.groups import E, parse_cycles
from randlab.corpus import rand_tilde_perm

# %% The action: a swap of 0 and 1 on the left half relabels the points
# there; a rotation shuffles the blocks.

swap_left = StepFn.two_valued(F(1, 2), parse_cycles("(0 1)"), E)
element = TildeElement(swap_left, DyadicMPT.shift(1))
alpha = StepFn(1, (0, 1))
print("acted:", tilde_act(element, alpha).values)

# %% The exact discrete formula: fiber nontrivial on the last quarter,
# transformation moving the first half, union measure 3/4.

level = 2
fiber = StepFn(level, (E, E, E, parse_cycles("(0 1)")))
mover = DyadicMPT.from_cycles(level, [[0, 1]])
pair = TildeElement(fiber, mover)
identity = tilde_identity(E, level)
print("uniform distance:", lu_exact_discrete(pair, identity))

# %% The witness reaches the formula exactly, and the sandwich bounds
# bracket it.

estimate = lu_estimate(pair, identity)
bounds = lu_bounds(pair, identity)
print("witness estimate:", estimate.value)
print("sandwich:", bounds.lower, "<=", estimate.value, "<=", bounds.upper)

# %% The same machinery on seeded random pairs: the estimate is always a
# lower bound and here it is exact.

rng = random.Random(7)
for _ in range(3):
    a, b = rand_tilde_perm(rng, 4, 6), rand_tilde_perm(rng, 4, 6)
    print(
        "exact", lu_exact_discrete(a, b),
        "estimate", lu_estimate(a, b).value,
        "pointwise", pointwise_metric(a, b, budget=20),
    )

# %% Neighborhood calculators: a product-form box sitting inside the
# pointwise ball at a test function.  Every member of the box passes the
# pointwise membership test.

center = rand_tilde_perm(rng, 2, 4)
box = nbhd_product_to_pointwise(center, StepFn(2, (0, 0, 1, 1)), F(1, 2))
print("box bounds per factor:", [str(b) for _, b in box.value_conditions])
