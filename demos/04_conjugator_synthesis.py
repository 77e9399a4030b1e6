"""
Conjugator synthesis over towers and the density experiments
============================================================

The constructive heart of the library: move the constant pair
(C_sigma, S) into a prescribed neighborhood by synthesizing a group-valued
step function column by column over a tower.  Each column reduces to a
single window-matching problem for sigma's height-th power; the step and
loop conditions are then certified by direct evaluation at every tower
interval.
"""

import random
from fractions import Fraction as F

from randlab import (
    ProductNbhd,
    StepFn,
    SynthesisTask,
    approx_conjugate_constant,
    conjugate_into_neighborhood,
    cycle_pack,
    synthesize_conjugator,
)
from randlab.dyadic import DyadicSet
from randlab.corpus import rand_aperiodic_mpt, rand_cycle_type, rand_step_perm, rand_window_perm

# %% A synthesis run: random aperiodic S at level 9, random simple target,
# window 4, tower height 8.  The budget for sigma is sized automatically.

rng = random.Random(31)
s = rand_aperiodic_mpt(rng, 9, 8)
h = rand_step_perm(rng, 4, 8)
task = SynthesisTask(sigma=None, s=s, h=h, k=4, eps=F(1, 4), height=8)
result = synthesize_conjugator(task)
print("level:", result.g.level, "height:", result.height)
print("tower columns:", len(result.tower.columns), "agreement:", result.agreement)
print("all certificates hold:", result.all_ok())

# %% Conjugating into a product neighborhood: first match the
# transformation factor, then solve the fiber along each cycle of the
# matched map.  Membership of the conjugated element is checked exactly.

g_base = cycle_pack({32 * j: 1 for j in range(1, 6)})
t_generic = rand_cycle_type(rng, 8, [32] * 8)
t_center = rand_cycle_type(rng, 8, [32] * 8)
conjugates = tuple(g_base.conj(rand_window_perm(rng, 6)) for _ in range(4))
target = ProductNbhd(
    center_f=StepFn(2, conjugates),
    center_t=t_center,
    value_conditions=((0, F(1, 16)), (1, F(1, 16))),
    set_conditions=((DyadicSet(2, frozenset({0, 3})), F(1, 16)),),
)
outcome = conjugate_into_neighborhood(g_base, t_generic, target)
print("membership:", outcome.member)
print("fiber residuals:", [str(r) for r in outcome.fiber_residuals])

# %% Constant fibers are blind to transformation conjugation, so moving
# (C_h, T) next to (C_h, S) only needs the interval matcher; the uniform
# distance of the result is certified exactly.

h_elem = rand_window_perm(rng, 6)
t1 = rand_cycle_type(rng, 9, [64] * 8)
t2 = rand_cycle_type(rng, 9, [64] * 8)
const = approx_conjugate_constant(h_elem, t1, t2, F(1, 16))
print("constant-fiber distance:", const.lu_value, "certified:", const.certified)
