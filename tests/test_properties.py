"""Property tests: the recurrence and the determinant sweep against the
per-n determinant route, and the driver's walk on each route against the
others.

Inputs are short random rational sequences, which are mostly not positive
definite, and the moments a_j = sum_i w_i x_i^j of random discrete
measures, which are positive definite below the number of nodes when every
weight is positive and nonzero nodes are distinct. The sweep also gets
symmetric measures, whose odd moments vanish and put zero divisors in its
condensation table, and so does the walk. Each sequence holds exactly the
moments a_1 .. a_{2N+2} that n = 0 .. N need.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from hankel_approx.driver import _walk
from hankel_approx.errors import NonPositiveQ, PositivityViolation
from hankel_approx.hankel import hankel_P, hankel_Q, hankel_sweep
from hankel_approx.moments import custom_sequence
from hankel_approx.orthopoly import ortho_states

small_rationals = st.fractions(min_value=-12, max_value=12, max_denominator=5)


@st.composite
def random_sequences(draw):
    n_max = draw(st.integers(0, 4))
    a = draw(st.lists(small_rationals, min_size=2 * n_max + 2, max_size=2 * n_max + 2))
    return custom_sequence("random", a), n_max


@st.composite
def measure_moments(draw):
    nodes = draw(st.lists(small_rationals, min_size=1, max_size=5))
    magnitudes = st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4)
    signs = st.sampled_from((1, 1, 1, -1))  # mostly positive measures
    weights = [draw(magnitudes) * draw(signs) for _ in nodes]
    n_max = draw(st.integers(0, 6))
    a = [sum(w * x**j for w, x in zip(weights, nodes)) for j in range(1, 2 * n_max + 3)]
    return custom_sequence("measure", a), n_max


@st.composite
def symmetric_measures(draw):
    """Weight w at both x and -x: a_3 = 0 is a divisor from n = 2 on."""
    nodes = draw(st.lists(
        st.fractions(min_value=Fraction(1, 4), max_value=12, max_denominator=5),
        min_size=1, max_size=4))
    magnitudes = st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4)
    weights = [draw(magnitudes) for _ in nodes]
    n_max = draw(st.integers(2, 6))
    a = [sum(w * (x**j + (-x) ** j) for w, x in zip(weights, nodes))
         for j in range(1, 2 * n_max + 3)]
    return custom_sequence("symmetric", a), n_max


sequences = st.one_of(random_sequences(), measure_moments())
small_and_fast = settings(max_examples=150, deadline=None)


def recurrence_run(seq, n_max):
    """The states yielded, and the degree of the positivity failure or None."""
    states = []
    try:
        for state in ortho_states(seq, n_max):
            states.append(state)
    except PositivityViolation as exc:
        return states, exc.index
    return states, None


@small_and_fast
@given(sequences)
def test_partial_sums_equal_determinant_ratio(case):
    seq, n_max = case
    for state in recurrence_run(seq, n_max)[0]:
        assert state.partial_sum == hankel_P(seq, state.m) / hankel_Q(seq, state.m)


@small_and_fast
@given(sequences)
def test_norm_product_equals_hankel_Q(case):
    seq, n_max = case
    for state in recurrence_run(seq, n_max)[0]:
        assert prod(state.t) == hankel_Q(seq, state.m)


@small_and_fast
@given(sequences)
def test_positivity_violation_at_first_nonpositive_Q(case):
    seq, n_max = case
    states, failed_at = recurrence_run(seq, n_max)
    first_bad = None
    for n in range(n_max + 1):
        try:
            hankel_Q(seq, n)
        except NonPositiveQ:
            first_bad = n
            break
    assert failed_at == first_bad
    assert len(states) == (n_max + 1 if failed_at is None else failed_at)


def determinant_run(rows):
    """The (P_n, Q_n) rows taken from an iterator, and the n of NonPositiveQ or None."""
    taken = []
    try:
        for row in rows:
            taken.append(row)
    except NonPositiveQ as exc:
        return taken, exc.n
    return taken, None


def per_index_rows(seq, n_max):
    for n in range(n_max + 1):
        yield hankel_P(seq, n), hankel_Q(seq, n)


@small_and_fast
@given(st.one_of(random_sequences(), measure_moments(), symmetric_measures()))
def test_sweep_equals_per_index_determinants(case):
    seq, n_max = case
    rows, failed_at = determinant_run(hankel_sweep(seq, n_max))
    expected, first_bad = determinant_run(per_index_rows(seq, n_max))
    assert failed_at == first_bad
    assert rows == expected


def walk_run(seq, n_max, method):
    """The driver walk's (n, P, Q, value) rows, and the n it stopped at or None."""
    try:
        records, stop = _walk(seq, n_max, method), None
    except PositivityViolation as exc:
        records, stop = exc.records, exc.index
    except NonPositiveQ as exc:
        records, stop = exc.records, exc.n
    return [(r.n, r.P, r.Q, r.value) for r in records], stop


@small_and_fast
@given(st.one_of(random_sequences(), measure_moments(), symmetric_measures()))
def test_walk_gives_the_same_rows_on_every_route(case):
    seq, n_max = case
    det, ortho, both = (walk_run(seq, n_max, method) for method in ("det", "ortho", "both"))
    assert det == ortho == both
