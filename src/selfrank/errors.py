"""Exception types shared across the library."""


class InvalidInputError(ValueError):
    """Arguments violate a documented precondition (shape, range, membership)."""


class CapacityError(ValueError):
    """Problem size exceeds what an exact/enumerative routine is rated for."""


class NumericalError(RuntimeError):
    """A numerical factorization or decomposition failed beyond recovery."""


class DivergenceError(RuntimeError):
    """An iterative solver produced a non-finite iterate."""

    def __init__(self, iterate: int):
        self.iterate = iterate
        super().__init__(f"non-finite objective at iterate {iterate}")


class RatingsParseError(ValueError):
    """A ratings file line could not be parsed or accepted."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class DuplicateRatingError(RatingsParseError):
    """A ratings source line repeats an earlier line's (user, item) pair."""


class ConfigError(ValueError):
    """A run configuration is malformed, incomplete, or references missing paths."""
