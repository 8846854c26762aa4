"""Exception types shared across the package."""


class HPError(Exception):
    """Base class for all package errors."""


class NotSquarefree(HPError):
    pass


class ZeroElement(HPError):
    pass


class ZeroIdeal(HPError):
    pass


class NotDivisible(HPError):
    pass


class NotInvertible(HPError):
    pass


class NotIntegral(HPError):
    pass


class BudgetExceeded(HPError):
    """An enumeration or search budget was hit; never a silent truncation."""

    def __init__(self, msg, budget=None):
        super().__init__(msg if budget is None else f"{msg} (budget={budget})")
        self.budget = budget


class MembershipViolated(HPError):
    pass


class PreconditionViolated(HPError):
    pass
