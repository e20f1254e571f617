from quasident.errors import capped_power


def test_capped_power_compares_with_the_budget_as_the_uncapped_power():
    budgets = [0, 1, 2, 3, 7, 8, 9, 100, 1023, 1024, 200_000, 276_661_792, 10**18, 2**64 - 1, 2**64]
    for base in range(6):
        for e in range(81):
            for budget in budgets:
                assert (capped_power(base, e, budget) > budget) == (base ** e > budget), (base, e, budget)
