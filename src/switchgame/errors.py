"""Exception hierarchy shared across the package."""

import copyreg


class SwitchgameError(Exception):
    """Base class for all package-specific errors."""

    def __reduce__(self):
        # subclasses build their message from other arguments than they keep
        # in args, so unpickling restores args and attributes without
        # calling __init__ again
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ExpressionSyntaxError(SwitchgameError):
    """Raised when a coefficient expression fails to parse."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected one of: {', '.join(expected)})"
        super().__init__(detail)


class ExpressionDomainError(SwitchgameError):
    """Raised when evaluating an expression would produce a non-finite value."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


class SpecificationError(SwitchgameError):
    """Raised when a problem description is structurally malformed."""


class PreconditionError(SwitchgameError):
    """Raised when an operation is invoked on a problem that fails its entry checks."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class ConvergenceError(SwitchgameError):
    """Raised when a nonlinear fixed point does not settle within its iteration budget."""

    def __init__(self, message: str, residual: float):
        self.message = message
        self.residual = residual
        super().__init__(f"{message} (residual {residual:.3e})")


class AdmissibilityError(SwitchgameError):
    """Raised when a switching strategy exceeds the hard switch cap on some path."""

    def __init__(self, message: str, path_index: int):
        self.path_index = path_index
        super().__init__(f"{message} (path {path_index})")


class ConfigError(SwitchgameError):
    """Raised on malformed run configuration documents."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")
