"""Exception types shared across the package, and the CLI's exit codes."""

EXIT_VALIDATION = 2
EXIT_POSITIVITY = 3
EXIT_IO = 4


def _brief(text, length=None) -> str:
    """str(text), or past 42 characters its first 40 and ``length`` (by
    default its own): a moment file's tokens, and the exact values computed
    from them, may run to thousands of digits."""
    text = str(text)
    if len(text) <= 42:
        return text
    return f"{text[:40]}... ({len(text) if length is None else length} characters)"


class ParseError(ValueError):
    """Malformed input text (rational grammar, decimal grammar, moment file)."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:  # every caller passes both or neither
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class RunStopped(Exception):
    """A walk over n = 0, 1, ... stopped after the rows it yielded.
    ``exit_code`` is the CLI's exit code for this kind of stop."""

    exit_code: int


class IndexOutOfRange(RunStopped, IndexError):
    """A fixed moment sequence was asked for an index it does not hold."""

    exit_code = EXIT_IO

    def __init__(self, requested, available):
        self.requested = requested
        self.available = available
        super().__init__(f"moment index {requested} out of range: only {available} "
                         f"moment{'' if available == 1 else 's'} available")


class PositivityViolation(RunStopped, ArithmeticError):
    """The moment bilinear form stopped being positive definite at degree ``index``."""

    exit_code = EXIT_POSITIVITY

    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(
            f"positive definiteness fails at degree {index}: squared norm {_brief(value)} <= 0"
        )


class NonPositiveQ(PositivityViolation):
    """The determinant sweep's PositivityViolation: Q_n <= 0 at n = ``index``,
    with ``value`` the squared norm Q_n / Q_{n-1} (Q_{-1} = 1). Where the
    recurrence passed that degree first, only a wrong table can raise it,
    and ``validate`` tells the two apart by this class."""


class EngineMismatch(RunStopped, RuntimeError):
    """The paths disagreed at n: ``det_pair`` is the determinants' (P_n, Q_n),
    ``ortho_pair`` the recurrence's (A_n N_n, N_n) with N_n = t_0 ... t_n.

    With a ``modulus`` p both pairs are residues mod p (None for a value
    whose denominator p divides); without one they are exact.
    """

    exit_code = EXIT_VALIDATION

    def __init__(self, n, det_pair, ortho_pair, modulus=None):
        self.n = n
        self.det_pair = det_pair
        self.ortho_pair = ortho_pair
        self.modulus = modulus
        det, ortho = (_brief(f"({a}, {b})") for a, b in (det_pair, ortho_pair))
        residues = "" if modulus is None else f", both mod {modulus}"
        super().__init__(
            f"engines disagree at n={n}: determinant path (P_n, Q_n) = {det}, "
            f"recurrence path (A_n N_n, N_n) = {ortho}{residues}"
        )


class OrthogonalityLost(RunStopped, RuntimeError):
    """The recurrence produced q_degree not orthogonal to q_other;
    ``residual`` is <q_degree, q_other>."""

    exit_code = EXIT_VALIDATION

    def __init__(self, degree, other, residual):
        self.degree = degree
        self.other = other
        self.residual = residual
        super().__init__(
            f"orthogonality lost: <q_{degree}, q_{other}> = {_brief(residual)}"
        )
