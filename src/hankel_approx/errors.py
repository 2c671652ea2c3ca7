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
    """The paths disagreed at n: ``det_pair`` is the determinants' (P_n, Q_n),
    ``ortho_pair`` the recurrence's (A_n N_n, N_n) with N_n = t_0 ... t_n."""

    def __init__(self, n, det_pair, ortho_pair):
        self.n = n
        self.det_pair = det_pair
        self.ortho_pair = ortho_pair
        self.records = None
        super().__init__(
            f"engines disagree at n={n}: determinant path (P_n, Q_n) = "
            f"({det_pair[0]}, {det_pair[1]}), recurrence path (A_n N_n, N_n) = "
            f"({ortho_pair[0]}, {ortho_pair[1]})"
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
