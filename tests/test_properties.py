"""Property tests: the recurrence against the per-n determinant route.

Inputs are short random rational sequences, which are mostly not positive
definite, and the moments a_j = sum_i w_i x_i^j of random discrete
measures, which are positive definite below the number of nodes when every
weight is positive and nonzero nodes are distinct. Each sequence holds
exactly the moments a_1 .. a_{2N+2} that n = 0 .. N need.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hankel_approx.errors import NonPositiveQ, PositivityViolation
from hankel_approx.hankel import hankel_P, hankel_Q
from hankel_approx.moments import custom_sequence
from hankel_approx.orthopoly import norm_product, ortho_states

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
        assert norm_product(state) == hankel_Q(seq, state.m)


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
