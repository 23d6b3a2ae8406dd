import random

from goedellab import formulas as F


def random_term(
    rng: random.Random, depth: int, max_var: int = 3, allow_num: bool = True
) -> F.Term:
    """Random term.  With allow_num, numeral literals above the chain
    limit may appear, also under S, which folds S(Num(n)) to Num(n + 1)."""
    if depth <= 0:
        leaves = [F.ZERO, F.Var(rng.randrange(max_var))]
        if allow_num:
            leaves.append(F.Num(1001 + rng.randrange(999)))
        return rng.choice(leaves)
    kind = rng.randrange(5)
    if kind == 0:
        return F.Succ(random_term(rng, depth - 1, max_var, allow_num))
    if kind == 1:
        return F.Sub(
            random_term(rng, depth - 1, max_var, allow_num),
            random_term(rng, depth - 1, max_var, allow_num),
        )
    if kind == 2:
        return F.Diag(random_term(rng, depth - 1, max_var, allow_num))
    if kind == 3:
        return F.Var(rng.randrange(max_var))
    return F.ZERO


def random_formula(
    rng: random.Random, depth: int, max_var: int = 3, allow_num: bool = True
) -> F.Formula:
    if depth <= 0:
        return rng.choice(
            [
                F.Eq(
                    random_term(rng, 0, max_var, allow_num),
                    random_term(rng, 0, max_var, allow_num),
                ),
                F.Dem(random_term(rng, 0, max_var, allow_num)),
            ]
        )
    kind = rng.randrange(5)
    if kind == 0:
        return F.Not(random_formula(rng, depth - 1, max_var, allow_num))
    if kind == 1:
        return F.Implies(
            random_formula(rng, depth - 1, max_var, allow_num),
            random_formula(rng, depth - 1, max_var, allow_num),
        )
    if kind == 2:
        return F.ForAll(
            rng.randrange(max_var), random_formula(rng, depth - 1, max_var, allow_num)
        )
    if kind == 3:
        return F.Eq(
            random_term(rng, depth - 1, max_var, allow_num),
            random_term(rng, depth - 1, max_var, allow_num),
        )
    return F.Dem(random_term(rng, depth - 1, max_var, allow_num))
