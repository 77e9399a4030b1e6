"""
Random group elements as step functions
=======================================

A step function with permutation values is the finite surrogate of a random
group element.  Integrating a base-group metric over [0, 1) gives the two
randomized metrics: the pointwise one from d_p and the uniform one from the
discrete d_u.  The uniform metric is lower semicontinuous against the
pointwise one, which the probe below demonstrates, and conjugating toward a
constant function is an explicit per-interval matching.
"""

import random
from fractions import Fraction as F

from randlab import StepFn, constant_generic_conjugator, dhat, generic_surrogate, lsc_probe
from randlab.groups import E, parse_cycles, perm_dp, perm_du
from randlab.corpus import rand_step_perm, rand_window_perm

# %% Two random elements and their integrated distances.

rng = random.Random(2024)
f = rand_step_perm(rng, 3, 6)
h = rand_step_perm(rng, 3, 6)
print("dhat   (pointwise):", dhat(f, h, perm_dp))
print("dhat_u (uniform):  ", dhat(f, h, perm_du))

# %% Lower semicontinuity: corrupt f on sets of measure 2**-k with a value
# that no represented permutation touches.  The corrupted sequence converges
# to f pointwise while its uniform distance to h never dips below the limit.

fresh = parse_cycles("(40 41)")
sequence = []
for k in range(1, 4):
    values = list(f.values)
    for i in range(2 ** 3 // 2 ** k):
        values[i] = fresh
    sequence.append(StepFn(3, tuple(values)))
report = lsc_probe(f, h, sequence, perm_dp, perm_du)
print("pointwise distances to f:", [str(d) for d in report.seq_dhat])
print("uniform distances to h:  ", [str(d) for d in report.seq_dhat_u])
print("lower semicontinuity held:", report.holds)

# %% Conjugating toward a constant.  Take a generic element g (two spare
# cycles of every length up to 5), scatter random conjugates of it across
# the interval, and recover a conjugating step function interval by
# interval; the uniform integral distance collapses to zero.

g = generic_surrogate(5, 2).realized
pieces = tuple(g.conj(rand_window_perm(rng, 10)) for _ in range(4))
scattered = StepFn(2, pieces)
from randlab.groups import format_cycles

conjugator, achieved = constant_generic_conjugator(g, scattered, 5, F(0))
print("achieved distance:", achieved)
print("conjugator values:", [format_cycles(v) for v in conjugator.values])
