"""Structural classification of t-norms and fixed points of negations.

An element x is idempotent when f(x, x) = x, nilpotent when f(x, x) = 0,
and a zero divisor when some positive y makes f(x, y) vanish.  A
negation's equilibrium is the value it leaves fixed; each parameter
label has at most one.
"""

from fuzzysoft import (
    CheckConfig,
    builtin,
    classify_elements,
    find_equilibria,
    lift_negation,
)

cfg = CheckConfig(grid_steps=10)  # a coarse grid keeps the listing readable

for name in ("minimum", "product", "lukasiewicz"):
    report = classify_elements(builtin(name), cfg)
    print(f"{name}:")
    print(f"  idempotents:   {report.idempotents}")
    print(f"  nilpotents:    {report.nilpotents}")
    print(f"  zero divisors: {[(z.value, z.witness) for z in report.zero_divisors]}")
    print()

# For the bounded difference, 0.8 is a zero divisor (0.8 + 0.1 <= 1
# annihilates) yet not nilpotent, since f(0.8, 0.8) = 0.6: zero divisors
# need not be nilpotent, although every non-zero nilpotent is a zero
# divisor.
luk = classify_elements(builtin("lukasiewicz"), cfg)
assert 0.8 in luk.zero_divisor_values and 0.8 not in luk.nilpotents
print("0.8 under the bounded difference: zero divisor yes, nilpotent no")
print()

# Equilibria by bisection on n(x) - x.  The standard negation crosses at
# 0.5; the sugeno(1) negation (1 - x)/(1 + x) at sqrt(2) - 1.
family = lift_negation({
    "a1": builtin("standard-negation"),
    "a2": builtin("sugeno(1)"),
})
result = find_equilibria(family, ["a1", "a2"])
for entry in result.entries:
    print(f"equilibrium at {entry.label}: {entry.value:.12f} "
          f"(residual {entry.residual:.2e})")
print(f"count: {result.count} (never more than the number of labels)")
