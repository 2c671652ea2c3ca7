"""Exception types shared across the package."""


class ZeroDenominator(ValueError):
    """A rational was constructed or parsed with denominator zero."""


class ParseError(ValueError):
    """Malformed input text (rational grammar, decimal grammar, moment file)."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}" + (
                f", column {column})" if column is not None else ")"
            )
        super().__init__(message)


class IndexOutOfRange(IndexError):
    """A fixed moment sequence was asked for an index it does not hold.

    Drivers may attach the ``records`` they produced before running out.
    """

    def __init__(self, requested, available):
        self.requested = requested
        self.available = available
        self.records = None
        super().__init__(
            f"moment index {requested} out of range: only {available} moments available"
        )


class NonPositiveQ(ArithmeticError):
    """A shifted Hankel determinant Q_n came out <= 0.

    The positivity hypothesis fails for this moment sequence; expected for
    some custom inputs, a bug for the built-in families.
    """

    def __init__(self, n, value):
        self.n = n
        self.value = value
        self.records = None
        super().__init__(f"Q_{n} = {value} is not positive")


class PositivityViolation(ArithmeticError):
    """The moment bilinear form stopped being positive definite.

    ``index`` is the first failing polynomial degree. Drivers may attach
    the ``records`` they produced so far, so callers can report how far the
    sequence stayed positive definite.
    """

    def __init__(self, index, value):
        self.index = index
        self.value = value
        self.records = None
        super().__init__(
            f"positive definiteness fails at degree {index}: squared norm {value} <= 0"
        )


class EngineMismatch(RuntimeError):
    """The determinant and orthogonal-polynomial paths disagreed."""

    def __init__(self, n, det_value, ortho_value):
        self.n = n
        self.det_value = det_value
        self.ortho_value = ortho_value
        self.records = None
        super().__init__(
            f"engines disagree at n={n}: determinant path {det_value}, "
            f"recurrence path {ortho_value}"
        )


class OrthogonalityLost(RuntimeError):
    """The recurrence produced q_degree not orthogonal to q_other.

    ``residual`` is <q_degree, q_other>. Drivers may attach the ``records``
    they produced before the failure.
    """

    def __init__(self, degree, other, residual):
        self.degree = degree
        self.other = other
        self.residual = residual
        self.records = None
        super().__init__(
            f"orthogonality lost: <q_{degree}, q_{other}> = {residual}"
        )
