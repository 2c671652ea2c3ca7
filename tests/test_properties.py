"""Property tests: the recurrence against the determinant sweep's pairs,
the determinant sweep against one bordered elimination, the elimination
against cofactor expansion, and the driver's walk on each method against
the recurrence read directly.

Inputs are short random rational sequences, which are mostly not positive
definite, and the moments a_j = sum_i w_i x_i^j of random discrete
measures, which are positive definite below the number of nodes when every
weight is positive and nonzero nodes are distinct. The sweep also gets
symmetric measures, whose odd moments vanish and put zero divisors in its
condensation table, and so does the walk. Integer sequences, mixed
sequences and symmetric measures with integer nodes and weights hold the
sweep and the elimination to cofactor expansion where the exact route
keeps its entries as ints. Each sequence holds exactly the moments
a_1 .. a_{2N+2} that n = 0 .. N need.
"""

from __future__ import annotations

from fractions import Fraction
from operator import truediv

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hankel_approx import driver, hankel
from hankel_approx.driver import CHECK_PRIME, walk
from hankel_approx.errors import EngineMismatch, NonPositiveQ, PositivityViolation
from hankel_approx.hankel import hankel_residues, hankel_sweep
from hankel_approx.moments import MomentSequence
from hankel_approx.orthopoly import ortho_sweep

from .conftest import collect, exact_table, moment_list, ortho_records, skew_rows
from .oracles import cofactor_det, hankel_matrix

small_rationals = st.fractions(min_value=-12, max_value=12, max_denominator=5)


@st.composite
def random_sequences(draw):
    n_max = draw(st.integers(0, 4))
    a = draw(st.lists(small_rationals, min_size=2 * n_max + 2, max_size=2 * n_max + 2))
    return MomentSequence("random", values=a), n_max


@st.composite
def measure_moments(draw):
    nodes = draw(st.lists(small_rationals, min_size=1, max_size=5))
    magnitudes = st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4)
    signs = st.sampled_from((1, 1, 1, -1))  # mostly positive measures
    weights = [draw(magnitudes) * draw(signs) for _ in nodes]
    n_max = draw(st.integers(0, 6))
    a = [sum(w * x**j for w, x in zip(weights, nodes)) for j in range(1, 2 * n_max + 3)]
    return MomentSequence("measure", values=a), n_max


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
    return MomentSequence("symmetric", values=a), n_max


@st.composite
def integer_sequences(draw):
    """Integer moments: the exact route stays on ints throughout."""
    n_max = draw(st.integers(0, 4))
    a = draw(st.lists(st.integers(-12, 12), min_size=2 * n_max + 2, max_size=2 * n_max + 2))
    return MomentSequence("integer", values=[Fraction(v) for v in a]), n_max


@st.composite
def mixed_sequences(draw):
    """Some moments integral, some not, so ints and Fractions meet."""
    n_max = draw(st.integers(0, 4))
    entries = st.one_of(st.integers(-12, 12).map(Fraction), small_rationals)
    a = draw(st.lists(entries, min_size=2 * n_max + 2, max_size=2 * n_max + 2))
    return MomentSequence("mixed", values=a), n_max


@st.composite
def integer_symmetric_measures(draw):
    """Integer weights at integer nodes +-x: the odd moments are 0, so the
    sweep reaches the bordered elimination with every entry an int."""
    nodes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
    weights = [draw(st.integers(1, 6)) for _ in nodes]
    n_max = draw(st.integers(2, 4))
    a = [Fraction(sum(w * (x**j + (-x) ** j) for w, x in zip(weights, nodes)))
         for j in range(1, 2 * n_max + 3)]
    return MomentSequence("integer symmetric", values=a), n_max


sequences = st.one_of(random_sequences(), measure_moments())
integral_sequences = st.one_of(integer_sequences(), mixed_sequences(),
                               integer_symmetric_measures())
small_and_fast = settings(max_examples=150, deadline=None)


def recurrence_run(seq, n_max):
    """The (A_n N_n, N_n) pairs yielded, and the degree of the positivity
    failure or None."""
    pairs = []
    try:
        for pair in ortho_sweep(seq, n_max):
            pairs.append(pair)
    except PositivityViolation as exc:
        return pairs, exc.index
    return pairs, None


def determinant_run(rows):
    """The (P_n, Q_n) rows taken from an iterator, and the n of NonPositiveQ or None."""
    taken = []
    try:
        for row in rows:
            taken.append(row)
    except NonPositiveQ as exc:
        return taken, exc.index
    return taken, None


@small_and_fast
@given(sequences)
def test_partial_sums_equal_determinant_ratio(case):
    seq, n_max = case
    pairs = recurrence_run(seq, n_max)[0]
    dets = determinant_run(hankel_sweep(seq, n_max))[0]
    assert len(dets) >= len(pairs)
    for (P, Q), (P_det, Q_det) in zip(pairs, dets):
        assert P / Q == P_det / Q_det


@small_and_fast
@given(sequences)
def test_product_of_squared_norms_equals_hankel_Q(case):
    seq, n_max = case
    pairs = recurrence_run(seq, n_max)[0]
    dets = determinant_run(hankel_sweep(seq, n_max))[0]
    assert len(dets) >= len(pairs)
    for (_, norm), (_, Q) in zip(pairs, dets):
        assert norm == Q


@small_and_fast
@given(sequences)
def test_positivity_violation_at_first_nonpositive_Q(case):
    seq, n_max = case
    pairs, failed_at = recurrence_run(seq, n_max)
    assert failed_at == determinant_run(hankel_sweep(seq, n_max))[1]
    assert len(pairs) == (n_max + 1 if failed_at is None else failed_at)


@small_and_fast
@given(st.one_of(random_sequences(), measure_moments(), symmetric_measures()))
def test_sweep_equals_per_index_determinants(case):
    # One bordered elimination over Fractions gives every (P_n, Q_n); the
    # sweep must give the same rows and stop at its first Q_n <= 0.
    seq, n_max = case
    rows, failed_at = determinant_run(hankel_sweep(seq, n_max))
    expected = list(hankel._eliminate(moment_list(seq, n_max), truediv))
    first_bad = next((n for n, (_, Q) in enumerate(expected) if Q <= 0), None)
    assert failed_at == first_bad
    assert rows == expected[:first_bad]


@small_and_fast
@given(st.one_of(random_sequences(), measure_moments(), symmetric_measures()))
def test_elimination_matches_cofactor_expansion(case):
    # Every pair the bordered elimination yields is exact; it stops only
    # after a pivot Q_n = 0.
    seq, n_max = case
    n_max = min(n_max, 4)
    pairs = list(hankel._eliminate(moment_list(seq, n_max), truediv))
    expected = [(-cofactor_det(hankel_matrix(seq, 0, n + 2)),
                 cofactor_det(hankel_matrix(seq, 2, n + 1))) for n in range(n_max + 1)]
    stop = next((n + 1 for n, (_, Q) in enumerate(expected) if Q == 0), n_max + 1)
    assert pairs == expected[:stop]


def cofactor_pairs(seq, n_max):
    """(P_n, Q_n) for n = 0 .. n_max by cofactor expansion."""
    return [(-cofactor_det(hankel_matrix(seq, 0, n + 2)),
             cofactor_det(hankel_matrix(seq, 2, n + 1))) for n in range(n_max + 1)]


@small_and_fast
@given(integral_sequences)
def test_sweep_matches_cofactor_expansion_on_integral_moments(case):
    # The sweep yields every pair up to the first Q_n <= 0, then raises;
    # each as Fractions, though the table holds ints inside.
    seq, n_max = case
    rows, failed_at = determinant_run(hankel_sweep(seq, n_max))
    expected = cofactor_pairs(seq, n_max)
    stop = next((n for n, (_, Q) in enumerate(expected) if Q <= 0), None)
    assert failed_at == stop
    assert rows == expected[:stop]
    assert all(type(x) is Fraction for row in rows for x in row)


@small_and_fast
@given(integral_sequences)
def test_integer_elimination_matches_cofactor_expansion(case):
    # The bordered elimination as the exact route runs it: ints and // on
    # integer moments, Fractions and / otherwise.
    seq, n_max = case
    pairs = list(hankel._eliminate(*exact_table(seq, n_max)))
    expected = cofactor_pairs(seq, n_max)
    stop = next((n + 1 for n, (_, Q) in enumerate(expected) if Q == 0), n_max + 1)
    assert pairs == expected[:stop]


def walk_run(seq, n_max, route):
    """The (n, P, Q, value) rows of the driver walk by ``route`` ("det" or
    "both"), or of ``ortho_sweep`` read directly ("ortho"), and the
    positivity stop as (degree, squared norm, message) or None."""
    records = []
    try:
        collect(ortho_records(seq, n_max) if route == "ortho" else walk(seq, n_max, route),
                records)
        stop = None
    except PositivityViolation as exc:
        stop = exc.index, exc.value, str(exc)
    return [(r.n, r.P, r.Q, r.value) for r in records], stop


all_sequences = st.one_of(random_sequences(), measure_moments(), symmetric_measures())


@small_and_fast
@given(all_sequences)
def test_walk_gives_the_same_rows_on_every_route(case):
    seq, n_max = case
    det, ortho, both = (walk_run(seq, n_max, route) for route in ("det", "ortho", "both"))
    assert det == ortho == both


@small_and_fast
@given(all_sequences)
def test_walk_gives_the_same_rows_when_the_check_prime_is_small(case):
    # Mod 7 many moment denominators and table divisors vanish, so the
    # default walk often switches to the exact sweep part way through.
    seq, n_max = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "CHECK_PRIME", 7)
        det, ortho, both = (walk_run(seq, n_max, route) for route in ("det", "ortho", "both"))
    assert det == ortho == both


@small_and_fast
@given(all_sequences, st.data())
def test_default_walk_catches_a_one_entry_change_of_either_route(case, data):
    seq, n_max = case
    rows, _ = walk_run(seq, n_max, "both")
    formed = len(list(hankel_residues(seq, n_max, CHECK_PRIME)))  # later rows are exact
    route = data.draw(st.sampled_from(("ortho_sweep", "hankel_residues")))
    reach = len(rows) if route == "ortho_sweep" else min(len(rows), formed)
    assume(reach > 0)
    bad_n = data.draw(st.integers(0, reach - 1), label="bad_n")
    entry = data.draw(st.sampled_from((0, 1)), label="entry")  # P_n or Q_n

    def change(*pair):
        changed = pair[entry] + 1
        if route == "hankel_residues":
            changed %= CHECK_PRIME
        return pair[:entry] + (changed,) + pair[entry + 1:]

    with pytest.MonkeyPatch.context() as mp:
        skew_rows(mp, route, bad_n, change)
        partial = []
        with pytest.raises(EngineMismatch) as excinfo:
            collect(walk(seq, n_max), partial)
    assert excinfo.value.n == bad_n
    assert excinfo.value.modulus == (CHECK_PRIME if bad_n < formed else None)
    assert [(r.n, r.P, r.Q, r.value) for r in partial] == rows[:bad_n]
