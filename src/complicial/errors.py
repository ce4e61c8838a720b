"""Exception types shared across the library."""


class ComplicialError(Exception):
    """Base class for all library errors."""


class NonMonotone(ComplicialError):
    pass


class OutOfRange(ComplicialError):
    pass


class Mismatch(ComplicialError):
    pass


class UnknownCell(ComplicialError):
    pass


class ZeroDimensional(ComplicialError):
    pass


class BadInterval(ComplicialError):
    pass


class LawViolation(ComplicialError):
    pass


class CapExceeded(ComplicialError):
    pass


class IllFormedCategory(ComplicialError):
    pass


class StepViolation(ComplicialError):
    def __init__(self, index, reason):
        super().__init__(f"step {index}: {reason}")
        self.index = index
        self.reason = reason


class ParseError(ComplicialError):
    pass


class BadParams(ComplicialError):
    pass
