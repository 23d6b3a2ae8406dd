import random

from goedellab import formulas as F
from goedellab import meta as M
from goedellab import modal as Md


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


def random_modal(rng: random.Random, depth: int) -> Md.ModalFormula:
    kind = rng.randrange(4 if depth > 0 else 1)
    if kind == 0:
        return Md.Atom(rng.choice("pq"))
    if kind == 1:
        return Md.Neg(random_modal(rng, depth - 1))
    if kind == 2:
        return Md.Box(random_modal(rng, depth - 1))
    return Md.Imp(random_modal(rng, depth - 1), random_modal(rng, depth - 1))


def random_iterm(rng: random.Random) -> M.IndexTerm:
    return rng.choice([M.Q, M.Const(rng.randrange(2)), M.MetaVar(rng.choice("nm"))])


def random_desig(rng: random.Random, depth: int) -> M.Designator:
    kind = rng.randrange(4 if depth > 0 else 3)
    if kind == 0:
        return M.App(random_iterm(rng), random_iterm(rng))
    if kind == 1:
        return M.InE(random_iterm(rng))
    if kind == 2:
        return M.DVar(rng.choice(["d*", "e*"]))
    return M.NegD(random_desig(rng, depth - 1))


def random_meta(rng: random.Random, depth: int) -> M.MetaFormula:
    """Random meta formula.  `MNot` and `NegD` fold as they are built, so
    it is in the one form that parsing its printed text also gives."""
    kind = rng.randrange(6 if depth > 0 else 2)
    if kind == 0:
        return M.Assert(random_desig(rng, depth))
    if kind == 1:
        return M.DemOf(random_desig(rng, depth))
    if kind == 2:
        return M.MNot(random_meta(rng, depth - 1))
    if kind == 3:
        return M.MImplies(random_meta(rng, depth - 1), random_meta(rng, depth - 1))
    if kind == 4:
        return M.MIff(random_meta(rng, depth - 1), random_meta(rng, depth - 1))
    return M.ForAllIndex(rng.choice("nm"), random_meta(rng, depth - 1))
