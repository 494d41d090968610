"""Schur complements, the B transform, trace ledgers and certification."""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    LEVEL_SEARCH_FAULT,
    random_fraction_matrix,
    random_invertible,
    random_matrix,
    random_p_matrix,
    random_spd_matrix,
    row_dominant_matrix,
)
from oracle import schur_complement, sylvester_check
from reference import (
    eliminated_integer_form,
    fraction_inverse,
    node_trace_ledger,
    per_minor_hurwitz_minors,
)
from pstab import ExactMatrix, det, inverse, minor, principal_submatrix, trace
from pstab.certificate import (
    LevelEvidence,
    NestCertificate,
    Stabilizer,
    _integer_b,
    _trace_ledger,
    block_traces,
    build_B,
    exact_certificate,
    hurwitz_minors,
    nonpositive_values,
    verify_nest,
)
from pstab.compound import compound, diag_generalized_compound
from pstab.classify import (
    MinorWitness,
    OrderSumWitness,
    classify_full,
    is_p,
    is_q2,
)
from pstab.errors import (
    HypothesisError,
    MatrixArgumentError,
    SingularMatrixError,
    StabilizerInconclusiveError,
)
from pstab.exactmat import cleared, lagrange_operator
from pstab.fixtures import DEMO_A, DEMO_CHAIN
from pstab.nests import find_q2_nest
from pstab.spectra import Spectrum
from pstab.stabilize import build_stabilizer, certify_stability


def _search(a):
    """:func:`build_stabilizer` on A with its class report and Q^2 nest."""
    return build_stabilizer(a, classify_full(a), find_q2_nest(a))


def _integer_diagonal(eps):
    """(D', delta) with diag(eps) = D' / delta on integers."""
    delta = math.lcm(*(Fraction(e).denominator for e in eps))
    return [int(e * delta) for e in eps], delta


def _orders(b, eps):
    """The orders :func:`_trace_ledger` yields for diag(eps) over an
    invertible B."""
    return _trace_ledger(eliminated_integer_form(b), *_integer_diagonal(eps))


def _ledger(b, eps, top=None):
    """The ledger of diag(eps) over an invertible B, its orders read up to
    ``top`` (default n)."""
    orders = itertools.islice(_orders(b, eps), top)
    return {key: v for order in orders for key, v in order.items()}


def _first_violations(b, eps):
    """:func:`nonpositive_values` of the first order read that has any, as
    the search reads them; empty when the complete ledger is positive."""
    return next(filter(None, map(nonpositive_values, _orders(b, eps))), [])


def _minors(m):
    """:func:`hurwitz_minors` of an ExactMatrix."""
    return hurwitz_minors(*cleared(m))


def test_schur_complement_two_by_two():
    m = ExactMatrix([[2, 4], [6, 10]])
    assert schur_complement(m, 1) == ExactMatrix([[10 - 6 * 4 / Fraction(2)]])


def test_schur_complement_entries_are_bordered_minor_ratios():
    rng = random.Random(40)
    for _ in range(10):
        n = rng.choice([3, 4])
        m = random_invertible(rng, n)
        for k in range(1, n):
            head = tuple(range(1, k + 1))
            pivot = minor(m, head, head)
            if pivot == 0:
                continue
            s = schur_complement(m, k)
            for l in range(1, n - k + 1):
                for r in range(1, n - k + 1):
                    expected = minor(m, head + (l + k,), head + (r + k,)) / pivot
                    assert s.entry(l, r) == expected


def test_schur_inverse_identity():
    rng = random.Random(41)
    for _ in range(10):
        m = random_invertible(rng, 4)
        mi = inverse(m)
        for k in range(1, 4):
            if minor(m, tuple(range(1, k + 1)), tuple(range(1, k + 1))) == 0:
                continue
            tail = tuple(range(k + 1, 5))
            assert inverse(schur_complement(m, k)) == principal_submatrix(mi, tail)


def test_schur_complement_argument_errors():
    m = ExactMatrix.identity(3)
    with pytest.raises(MatrixArgumentError):
        schur_complement(m, 0)
    with pytest.raises(MatrixArgumentError):
        schur_complement(m, 3)
    with pytest.raises(SingularMatrixError):
        schur_complement(ExactMatrix([[0, 1], [1, 1]]), 1)


def test_sylvester_identity_holds_on_random_matrices():
    rng = random.Random(42)
    for _ in range(10):
        n = rng.choice([3, 4, 5])
        m = random_matrix(rng, n, -4, 4)
        k = rng.randint(1, n - 1)
        pivot_rows = tuple(sorted(rng.sample(range(1, n + 1), k)))
        pivot_cols = tuple(sorted(rng.sample(range(1, n + 1), k)))
        for p in range(1, n - k + 1):
            assert sylvester_check(m, pivot_rows, pivot_cols, p) is None


def test_sylvester_check_argument_errors():
    m = ExactMatrix.identity(4)
    with pytest.raises(MatrixArgumentError):
        sylvester_check(m, (1, 2), (1,), 1)
    with pytest.raises(MatrixArgumentError):
        sylvester_check(m, (1,), (1,), 4)


def test_build_B_demo():
    nest = find_q2_nest(DEMO_A)
    b = build_B(DEMO_A, nest)
    assert isinstance(b, ExactMatrix)
    # tau = (4, 3, 2, 1) makes theta the identity permutation, so B = A^{-1}
    assert nest.theta == (1, 2, 3, 4)
    assert b == inverse(DEMO_A)


def test_build_B_applies_the_permutation():
    # B is the inverse of A~, which carries entry (i, j) of A at position
    # (theta(i), theta(j)), and B' = beta B with beta the lcm of B's
    # denominators.  build_B reads only the nest's permutation, so beside
    # one SPD input with its found nest, any invertible A on a seeded chain
    # serves: fraction entries, a negative determinant and a zero leading
    # entry of A~, which makes the elimination swap rows, included
    rng = random.Random(43)
    spd = random_spd_matrix(rng, 3)
    cases = [(spd, find_q2_nest(spd))]
    for n in range(1, 7):
        for make in (random_invertible, random_invertible, random_fraction_matrix):
            a = make(rng, n, -3, 3)
            while det(a) == 0:
                a = make(rng, n, -3, 3)
            tau = rng.sample(range(1, n + 1), n)
            chain = [tuple(sorted(tau[:k])) for k in range(1, n + 1)]
            cases.append((a, NestCertificate(tuple(
                LevelEvidence(level, (), ()) for level in chain
            ))))
    seen = set()
    for a, nest in cases:
        theta, b = nest.theta, build_B(a, nest)
        order = [theta.index(r) for r in range(1, a.n + 1)]
        a_tilde = ExactMatrix([[a.rows[i][j] for j in order] for i in order])
        for i in range(1, a.n + 1):
            for j in range(1, a.n + 1):
                assert a_tilde.entry(theta[i - 1], theta[j - 1]) == a.entry(i, j)
        assert b == fraction_inverse(a_tilde)
        beta = math.lcm(*(x.denominator for row in b.rows for x in row))
        form = _integer_b(a, nest)
        assert (form.b, form.beta) == (b, beta)
        assert form.rows == [[int(beta * x) for x in row] for row in b.rows]
        seen.update(
            name for name, holds in (
                ("fraction", cleared(a)[1] > 1),
                ("negative determinant", det(a) < 0),
                ("row swap", a_tilde.rows[0][0] == 0),
            ) if holds
        )
    assert seen == {"fraction", "negative determinant", "row swap"}


def test_block_traces_demo_all_positive():
    nest = find_q2_nest(DEMO_A)
    b = build_B(DEMO_A, nest)
    values = block_traces(nest)
    assert set(values) == {(j, m) for j in range(1, 5) for m in range(1, j + 1)}
    assert all(v > 0 for v in values.values())
    # the (j, j) block trace is the squared leading j-minor
    head = (1, 2, 3)
    assert values[(3, 3)] == minor(b, head, head) ** 2


def test_block_traces_match_compound_blocks():
    # the leading C(n-m, j-m) block of B^(j) is the one on the index sets
    # containing {1..m}; block_traces reads its squared trace off the chain
    demo_rng, spd_rng = random.Random(3), random.Random(47)
    inputs = [LEVEL_SEARCH_FAULT]
    inputs += [_demo_permuted(demo_rng) for _ in range(4)]
    inputs += [random_spd_matrix(spd_rng, n) for n in (2, 3, 4, 5, 6)]
    permuted = 0
    for a in inputs:
        n = a.n
        nest = find_q2_nest(a)
        b = build_B(a, nest)
        permuted += nest.theta != tuple(range(1, n + 1))
        # B inherits P and Q^2 from A, so build_B does not test them
        assert is_p(b)[0] and is_q2(b)[0]
        values = block_traces(nest)
        for j in range(1, n + 1):
            cj = compound(b, j)
            for m in range(1, j + 1):
                size = math.comb(n - m, j - m)
                block = ExactMatrix([row[:size] for row in cj.rows[:size]])
                assert values[(j, m)] == trace(block * block)
        # the Schur complement of B's leading m-block inverts onto the
        # trailing block of the permuted A, which holds chain level n - m
        a_tilde = inverse(b)
        for m in range(1, n):
            tail = tuple(range(m + 1, n + 1))
            assert inverse(schur_complement(b, m)) == principal_submatrix(a_tilde, tail)
    assert permuted >= 2  # the fault and one permuted embedding


@st.composite
def nested_p_matrices(draw):
    """The first of :func:`_nested_p_matrices` at a drawn seed, and up to
    eight orders to read chains off."""
    m = next(_nested_p_matrices(draw(st.integers(0, 2**32))))
    orders = st.permutations(range(1, m.n + 1))
    return m, draw(st.lists(orders, min_size=1, max_size=8))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(nested_p_matrices())
def test_block_traces_of_every_accepted_nest_are_positive(case):
    # nothing checks a block trace's sign: each is E_(n-j)(A[S_(n-m)]^2) /
    # det(A)^2 of a level that find_q2_nest or verify_nest proved Q^2
    a, orders = case
    accepted = [find_q2_nest(a)]
    for order in orders:
        chain = [tuple(sorted(order[:k])) for k in range(1, a.n + 1)]
        try:
            accepted.append(verify_nest(a, chain))
        except MatrixArgumentError:
            pass  # a level of the chain is not Q^2
    assert None not in accepted
    for nest in accepted:
        assert all(v > 0 for v in block_traces(nest).values())


def test_stabilizer_validation():
    Stabilizer(eps=(Fraction(1), Fraction(1, 2)))
    with pytest.raises(MatrixArgumentError):
        Stabilizer(eps=(Fraction(2), Fraction(1)))
    with pytest.raises(MatrixArgumentError):
        Stabilizer(eps=(Fraction(1), Fraction(1)))
    with pytest.raises(MatrixArgumentError):
        Stabilizer(eps=(Fraction(1), Fraction(-1, 2)))
    with pytest.raises(MatrixArgumentError):
        Stabilizer(())
    with pytest.raises(MatrixArgumentError):
        Stabilizer(eps=(Fraction(1), "1/2"))
    with pytest.raises(MatrixArgumentError):
        Stabilizer((1.0,))
    with pytest.raises(MatrixArgumentError):
        Stabilizer((1.0, Fraction(1, 2)))
    with pytest.raises(MatrixArgumentError):
        Stabilizer(5)


@pytest.mark.parametrize("steps", [-3, "x", 1.0, None, True])
def test_stabilizer_refuses_identity_steps_that_are_not_a_count(steps):
    # the diagonal is the record's one field: a count is not stated beside
    # it, whatever its value
    assert Stabilizer._fields == ("eps",)
    for args, kwargs in ((steps,), {}), ((), {"identity_steps": steps}):
        with pytest.raises(TypeError):
            Stabilizer((Fraction(1), Fraction(1, 2)), *args, **kwargs)


@pytest.mark.parametrize("steps", [0, 5])
def test_stabilizer_keeps_a_count_of_identity_steps(steps):
    # the count is read off e_n of the diagonal the search tries after
    # ``steps`` halvings of I - D from the geometric start, at every n
    for n in range(1, 6):
        delta = 2 ** (n - 1 + steps)
        eps = tuple(
            Fraction(delta - 2 ** (n - 1) + 2 ** (n - 1 - i), delta) for i in range(n)
        )
        assert Stabilizer(eps).identity_steps == (steps if n > 1 else 0)


@pytest.mark.parametrize(
    "eps", [(1, Fraction(1, 3)), (1, Fraction(3, 4), Fraction(1, 2)), (1, Fraction(2, 3))]
)
def test_identity_steps_of_a_diagonal_the_search_never_tries_is_at_least_0(eps):
    # the bits of e_n's denominator, less n, would be 0, -1 and 0
    assert Stabilizer(eps).identity_steps == 0


def test_records_are_immutable_values():
    cert = certify_stability(DEMO_A)
    records = [
        (MinorWitness(order=1, rows=(1,), cols=(2,), value=Fraction(-2)), "value"),
        (OrderSumWitness(order=2, value=Fraction(-1)), "order"),
        (cert.report, "is_p"),
        (cert.nest.levels[0], "subset"),
        (cert.nest, "levels"),
        (cert.nest, "chain"),
        (cert.spectrum, "method"),
        (cert.stabilizer, "eps"),
        (cert, "matrix"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.unknown_field = None
        assert repr(record).startswith(f"{type(record).__name__}({record._fields[0]}=")
    for record, _ in records:
        copy = type(record)(*record)
        assert copy == record
        if type(record).__name__ not in ("ClassReport", "StabilityCertificate"):
            assert hash(copy) == hash(record)  # the other two hold dicts


def test_records_keep_positional_construction_and_defaults():
    spectrum = Spectrum((1 + 0j, 2 + 0j), "lapack-geev")
    assert spectrum.eigenvalues == (1 + 0j, 2 + 0j)
    assert spectrum.method == "lapack-geev"
    stabilizer = Stabilizer((Fraction(1), Fraction(1, 2)))
    assert stabilizer.eps == (Fraction(1), Fraction(1, 2))
    assert stabilizer == Stabilizer(eps=(Fraction(1), Fraction(1, 2)))
    cert = certify_stability(DEMO_A)
    exact = cert[:7]
    bare = type(cert)(*exact)
    assert bare[:7] == exact
    assert (
        bare.spectrum, bare.wedge_margin, bare.spectrum_reason, bare.disagreement,
    ) == (None,) * 4


def test_trace_ledger_violation_reporting():
    assert nonpositive_values({(1, 1, 1): Fraction(2)}) == []
    bad = {(2, 1, 1): Fraction(1), (1, 1, 1): Fraction(0)}
    assert nonpositive_values(bad) == [((1, 1, 1), Fraction(0))]


def _ledger_cases(seed):
    """(B, eps) pairs for the ledger's compound-product oracle tests."""
    rng = random.Random(seed)
    demo_b = build_B(DEMO_A, find_q2_nest(DEMO_A))
    return [
        (random_spd_matrix(rng, 3), [Fraction(1), Fraction(1, 3), Fraction(1, 7)]),
        (random_matrix(rng, 5, -5, 5), [Fraction(1, 2**i) for i in range(5)]),
        (
            demo_b,
            [Fraction(1), Fraction(4081, 4096), Fraction(8161, 8192),
             Fraction(16321, 16384)],
        ),
    ]


def test_homotopy_certificate_matches_direct_products():
    for b, eps in _ledger_cases(44):
        n = b.n
        ledger = _ledger(b, eps)
        entries = {key: v for key, v in ledger.items() if key[1]}
        for (j, k, m), value in entries.items():
            cj = compound(b, j)
            dk = diag_generalized_compound(eps, j, k)
            dm = diag_generalized_compound(eps, j, m)
            assert value == trace(dk * cj * dm * cj)
        assert set(entries) == {
            (j, k, m)
            for j in range(1, n + 1)
            for k in range(1, j + 1)
            for m in range(1, j + 1)
        }


def test_cross_terms_match_direct_products():
    for b, eps in _ledger_cases(45):
        n = b.n
        cross_terms = {key: v for key, v in _ledger(b, eps).items() if not key[1]}
        assert set(cross_terms) == {
            (j, 0, m) for j in range(1, n + 1) for m in range(1, j + 1)
        }
        for (j, _, m), value in cross_terms.items():
            cj = compound(b, j)
            dm = diag_generalized_compound(eps, j, m)
            assert value == trace(cj * dm * cj)
            assert value == trace(dm * cj * cj)  # L(j,0,m) = L(j,m,0)


def test_ledger_is_the_expansion_of_the_homotopy_square():
    # E_j(M_t^2) = sum_{0 <= k,m <= j} t^(2j-k-m) (1-t)^(k+m) L(j,k,m) with
    # M_t = (tI + (1-t)D) B, L(j,0,0) = E_j(B^2) and L(j,m,0) = L(j,0,m)
    rng = random.Random(46)
    b = random_matrix(rng, 4, -5, 5)
    eps = [Fraction(1), Fraction(2, 3), Fraction(1, 5), Fraction(1, 9)]
    ledger = _ledger(b, eps)
    _, square_sums = is_q2(b)[1:3]

    def value(j, k, m):
        if k == m == 0:
            return square_sums[j - 1]
        if k == 0 or m == 0:
            return ledger[(j, 0, max(k, m))]
        return ledger[(j, k, m)]

    for t in (Fraction(0), Fraction(1, 3), Fraction(5, 7), Fraction(1)):
        m_t = b.scale_rows([t + (1 - t) * e for e in eps])
        _, sums = is_q2(m_t)[1:3]
        for j in range(1, 5):
            expansion = sum(
                t ** (2 * j - k - m) * (1 - t) ** (k + m) * value(j, k, m)
                for k in range(j + 1)
                for m in range(j + 1)
            )
            assert sums[j - 1] == expansion


def test_demo_cross_term_refutes_the_former_stabilizer():
    # the stabilizer the float-spectrum search used to return for the demo:
    # its 1 <= k, m ledger is positive, its k = 0 cross term is not
    b = build_B(DEMO_A, find_q2_nest(DEMO_A))
    eps = [Fraction(1), Fraction(1, 64), Fraction(1, 128), Fraction(1, 256)]
    ledger = _ledger(b, eps)
    assert all(v > 0 for (_, k, _), v in ledger.items() if k)
    assert nonpositive_values(ledger) == [
        ((1, 0, 1), Fraction(-49683389, 3859338368))
    ]


FRACTIONS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
POSITIVE = st.builds(Fraction, st.integers(1, 30), st.integers(1, 9))


@st.composite
def ledger_cases(draw, max_n=5, entries=FRACTIONS):
    """(B, eps): a rational matrix, n = 1..max_n, and a positive diagonal."""
    n = draw(st.integers(1, max_n))
    row = st.lists(entries, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    eps = draw(st.lists(POSITIVE, min_size=n, max_size=n))
    return ExactMatrix(rows), eps


def _invertible(case):
    """Whether B is invertible, as every B from build_B is."""
    return det(case[0]) != 0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ledger_cases().filter(_invertible))
def test_screen_is_the_ledger_cut_off_at_order_two(case):
    # the orders read, up to order 2 or any other, are a prefix of the
    # complete ledger in key order, one order per step
    b, eps = case
    full = _ledger(b, eps)
    assert list(full) == sorted(full)
    for top in range(b.n + 1):
        prefix = _ledger(b, eps, top)
        assert prefix == {k: v for k, v in full.items() if k[0] <= top}
        assert list(prefix) == [k for k in full if k[0] <= top]
    assert [{k[0] for k in order} for order in _orders(b, eps)] == [
        {j} for j in range(1, b.n + 1)
    ]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    ledger_cases(
        max_n=7, entries=st.one_of(FRACTIONS, st.integers(-1, 1).map(Fraction))
    ).filter(_invertible),
    st.one_of(st.none(), st.integers(1, 7)),
)
def test_ledger_matches_the_node_ledger(case, top):
    # orders 1, n - 1 and n by the Gram rule, the same exact values as an
    # interpolation of every order from nodes; every B that build_B
    # returns is invertible
    b, eps = case
    assert _ledger(b, eps, top) == node_trace_ledger(b, eps, top)


DECREASING = st.lists(POSITIVE, min_size=7, max_size=7, unique=True).map(
    lambda values: sorted(values, reverse=True)
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    ledger_cases(
        max_n=7, entries=st.one_of(FRACTIONS, st.integers(-9, 9).map(Fraction))
    ).filter(_invertible),
    DECREASING,
)
def test_the_first_violation_read_is_the_complete_ledgers(case, eps):
    # the search reads the orders in turn and stops at the first with a
    # nonpositive value: it accepts the diagonals whose complete ledger is
    # positive, and names the same first violation, since ledger keys
    # sort by order
    b, eps = case[0], eps[: case[0].n]
    complete = nonpositive_values(_ledger(b, eps))
    read = _first_violations(b, eps)
    assert bool(read) == bool(complete)
    assert read[:1] == complete[:1]


@pytest.mark.parametrize(
    "a", [DEMO_A, LEVEL_SEARCH_FAULT, row_dominant_matrix(7)],
    ids=["demo", "fault", "dominant7"],
)
def test_order_one_screen_forms_no_product_and_no_char_poly(monkeypatch, a):
    # reading order 1 forms no char-poly and no n-by-n product: it is
    # P_1^T H P_1 with the n-by-2 coefficient matrix P_1 of the polynomials
    # delta + x d'_i, and H is read off the integer form.  Reading order 2
    # next makes six node char-polys, each read to order 2 with no power
    import pstab.exactmat
    import pstab.certificate

    form = _integer_b(a, find_q2_nest(a))
    calls = []
    product, kernel = pstab.certificate.integer_product, pstab.certificate.integer_minor_sums
    monkeypatch.setattr(
        pstab.certificate, "integer_product",
        lambda x, y: calls.append(("integer_product", len(x), len(y[0])))
        or product(x, y),
    )
    monkeypatch.setattr(
        pstab.certificate, "integer_minor_sums",
        lambda m: calls.append("integer_minor_sums") or kernel(m),
    )
    power = pstab.exactmat.integer_product  # the kernel's own binding
    monkeypatch.setattr(
        pstab.exactmat, "integer_product",
        lambda x, y: calls.append("power") or power(x, y),
    )
    n = a.n
    for steps in (0, 3):
        delta = 2 ** (n - 1 + steps)
        d_int = [delta - 2 ** (n - 1) + 2 ** (n - 1 - i) for i in range(n)]
        orders = _trace_ledger(form, d_int, delta)
        assert set(next(orders)) == {(1, 0, 1), (1, 1, 1)}
    assert calls == [("integer_product", 2, n), ("integer_product", 2, 2)] * 2
    calls.clear()
    assert {k[0] for k in next(orders)} == {2}
    assert calls.count("integer_minor_sums") == 6 and "power" not in calls


def _nested_p_matrices(seed=47):
    """Seeded P-matrices with a Q^2 nest, n = 1..7, integer and fraction."""
    rng = random.Random(seed)
    while True:
        m = random_p_matrix(rng, rng.randint(1, 7))
        if rng.random() < 0.3:
            m = m * Fraction(rng.randint(1, 9), rng.randint(2, 9))
        if find_q2_nest(m) is not None:
            yield m


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32).map(lambda seed: next(_nested_p_matrices(seed))))
@example(DEMO_A)
@example(LEVEL_SEARCH_FAULT)
def test_identity_steps_counts_the_diagonals_the_search_rejected(a):
    # every diagonal the search tries gets one ledger derivation, and all
    # but the last are rejected, at a ledger order or a Hurwitz minor
    import pstab.stabilize

    ledger, tried = pstab.stabilize._trace_ledger, []

    def counted(*args):
        tried.append(args)
        return ledger(*args)

    with mock.patch.object(pstab.stabilize, "_trace_ledger", counted):
        stabilizer = _search(a).stabilizer
    assert stabilizer.identity_steps == len(tried) - 1


def test_adjugate_read_off_a_tilde_is_the_eliminated_one():
    # the Gram matrices of the integer form, built from adj(B') and det(B')
    # read off A~, equal those of a fraction-free elimination of B', which
    # fixes adj(B') and det(B') up to one shared sign
    for a, _ in zip(_nested_p_matrices(), range(40)):
        nest = find_q2_nest(a)
        form = _integer_b(a, nest)
        assert form.b == build_B(a, nest)
        assert form == eliminated_integer_form(form.b)
        assert form.grams[a.n][0] == [[(det(form.b) * form.beta**a.n) ** 2]]


@pytest.mark.parametrize("n", range(1, 8))
def test_complete_ledger_takes_n_choose_two_char_polys(monkeypatch, n):
    # nodes s <= t in {0..n-2} for an invertible B at n >= 4; none at
    # n <= 3, where the orders n - 1, n and 1 are all closed
    import pstab.certificate

    calls = []
    kernel = pstab.certificate.integer_minor_sums

    def counted(a):
        calls.append(len(a))
        return kernel(a)

    monkeypatch.setattr(pstab.certificate, "integer_minor_sums", counted)
    b = random_spd_matrix(random.Random(n), n)
    _ledger(b, [Fraction(1, 2**i) for i in range(n)])
    assert len(calls) == (n * (n - 1) // 2 if n >= 4 else 0)


def test_top_order_of_a_one_by_one_ledger():
    # L(1,k,m) = e^(k+m) b^2, the closed form with no node at all
    ledger = _ledger(ExactMatrix([[Fraction(-3, 2)]]), [Fraction(2, 5)])
    assert ledger == {
        (1, 0, 1): Fraction(2, 5) * Fraction(9, 4),
        (1, 1, 1): Fraction(4, 25) * Fraction(9, 4),
    }


@pytest.mark.parametrize("a", [DEMO_A, LEVEL_SEARCH_FAULT], ids=["demo", "fault"])
def test_screen_reports_the_violation_of_the_full_ledger(a):
    # every diagonal the search rejects fails at order 1 or 2, and the
    # orders read name the value the full ledger would name first
    cert = _search(a)
    b, stab = cert.b_matrix, cert.stabilizer
    gaps = [1 - Fraction(1, 2**i) for i in range(b.n)]
    for steps in range(stab.identity_steps):
        eps = [1 - gap / 2**steps for gap in gaps]
        violations = _first_violations(b, eps)
        assert violations and violations[0][0][0] <= 2
        assert violations[0] == nonpositive_values(_ledger(b, eps))[0]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    ledger_cases(
        max_n=6, entries=st.one_of(FRACTIONS, st.integers(-1, 1).map(Fraction))
    ).map(lambda case: case[0])
)
@example(ExactMatrix.diagonal([1, 1, -2]))
def test_hurwitz_minors_match_a_determinant_per_minor(m):
    # entries in {-1, 0, 1} give zero pivots, and minors after them; a
    # zero trace makes the Hurwitz matrix's first pivot zero, so the
    # minors after it need a row swap and its sign: (0, 2, -4) here
    assert _minors(m) == per_minor_hurwitz_minors(m)


def test_hurwitz_minors_decide_positive_stability():
    assert all(v > 0 for v in _minors(DEMO_A))
    assert all(v > 0 for v in _minors(ExactMatrix.identity(3)))
    # eigenvalues -1 and 2: not positively stable
    assert not all(v > 0 for v in _minors(ExactMatrix.diagonal([-1, 2])))
    # eigenvalues 1 +- 2i and 0 +- i (a pure imaginary pair) in block form
    rotation = ExactMatrix(
        [[1, -2, 0, 0], [2, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    )
    assert not all(v > 0 for v in _minors(rotation))
    # eigenvalues 1 +- i and 1 +- 3i
    stable = ExactMatrix([[1, -1, 0, 0], [1, 1, 0, 0], [0, 0, 1, -3], [0, 0, 3, 1]])
    assert all(v > 0 for v in _minors(stable))


# Q^2 with a Q^2 nest but not P, A(1,3; 1,3) = 0; eigenvalues 1 and 3 +- i
NOT_P_STABLE = ExactMatrix([[2, -1, -2], [-2, 3, -3], [-2, 2, 2]])
# Q^2 with a Q^2 nest, not P and not positively stable: a search that
# skipped the endpoint Hurwitz minors would accept it after 4 halvings
NOT_P_UNSTABLE = ExactMatrix(
    [[3, -4, 0, 1], [-3, 4, 5, 2], [-5, -1, -3, -6], [-1, 0, 0, 4]]
)


def _accepted(a):
    """The certificate :func:`build_stabilizer` accepts for A, or None
    when A is not Q^2, has no Q^2 nest or the search is inconclusive."""
    report = classify_full(a)
    nest = find_q2_nest(a) if report.is_q2 else None
    if nest is None:
        return None
    try:
        return build_stabilizer(a, report, nest)
    except StabilizerInconclusiveError:
        return None


def test_every_certificate_the_search_accepts_is_of_a_stable_matrix():
    # the proof rests on A's Q^2, the ledger and the endpoint Hurwitz
    # minors, not on P: every certificate the search accepts, for a P input
    # or not, is of a positively stable A, judged by A's own Hurwitz
    # minors, one cofactor determinant each, with no float
    rng = random.Random(31)
    draws = [NOT_P_STABLE, NOT_P_UNSTABLE]
    for _ in range(400):
        n = rng.randint(3, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        diagonal = ExactMatrix.diagonal([rng.randint(0, 12) for _ in range(n)])
        draws.append(ExactMatrix(rows) + diagonal)
    certified = {True: 0, False: 0}  # by whether A is P
    for a in draws:
        cert = _accepted(a)
        if cert is not None:
            assert all(v > 0 for v in per_minor_hurwitz_minors(a)), a.rows
            certified[cert.report.is_p] += 1
    assert not _accepted(NOT_P_STABLE).report.is_p
    assert not all(v > 0 for v in per_minor_hurwitz_minors(NOT_P_UNSTABLE))
    assert find_q2_nest(NOT_P_UNSTABLE) is not None
    assert _accepted(NOT_P_UNSTABLE) is None
    assert sum(certified.values()) >= 100 and certified[False] >= 10, certified


def test_nonpositive_values_order():
    # the ledger in key order, then the Hurwitz minors
    good = {(1, 1, 1): Fraction(1), (1, 0, 1): Fraction(1)}
    assert nonpositive_values(good, (Fraction(1), Fraction(2))) == []
    assert nonpositive_values(good, (Fraction(1), Fraction(0))) == [
        (("hurwitz", 2), Fraction(0))
    ]
    bad = {(2, 1, 1): Fraction(-2), (1, 1, 1): Fraction(1), (1, 0, 1): Fraction(-1)}
    assert nonpositive_values(bad, (Fraction(-1),)) == [
        ((1, 0, 1), Fraction(-1)),
        ((2, 1, 1), Fraction(-2)),
        (("hurwitz", 1), Fraction(-1)),
    ]


def test_build_stabilizer_demo():
    cert = _search(DEMO_A)
    b, stab = cert.b_matrix, cert.stabilizer
    assert stab.eps[0] == 1
    assert all(x > y for x, y in zip(stab.eps, stab.eps[1:]))
    assert nonpositive_values(_ledger(b, stab.eps)) == []


def test_build_stabilizer_demo_passes_both_exact_checks():
    cert = _search(DEMO_A)
    b, stab = cert.b_matrix, cert.stabilizer
    cross_terms = [v for (_, k, _), v in _ledger(b, stab.eps).items() if not k]
    assert cross_terms and all(v > 0 for v in cross_terms)
    assert all(v > 0 for v in _minors(b.scale_rows(stab.eps)))
    # the demo needs D close to I: the cross term (1,0,1) is negative for
    # the geometric start diag(1, 1/2, 1/4, 1/8)
    assert stab.identity_steps > 0
    assert all(e > Fraction(99, 100) for e in stab.eps)


def test_build_stabilizer_shrink_cap(monkeypatch):
    # at the cap of 64, with every last Hurwitz minor made -1, and at a
    # patched cap of 1, where the demo's diagonals are still rejected
    import pstab.certificate
    import pstab.stabilize

    minors = pstab.certificate.hurwitz_minors
    with monkeypatch.context() as patch:
        patch.setattr(
            pstab.certificate, "hurwitz_minors",
            lambda m, c: (*minors(m, c)[:-1], Fraction(-1)),
        )
        with pytest.raises(StabilizerInconclusiveError) as exc:
            _search(DEMO_A)
    assert str(exc.value) == (
        "stabilizer search gave up after 64 halvings of I - D; "
        "last violation ('hurwitz', 4) = -1"
    )
    monkeypatch.setattr(pstab.stabilize, "MAX_HALVINGS", 1)
    with pytest.raises(StabilizerInconclusiveError):
        _search(DEMO_A)


def test_every_eps_the_search_can_write_is_within_the_digit_cap():
    # eps = D' / 2^(n-1+s) with s <= MAX_HALVINGS and 0 < D' <= 2^(n-1+s):
    # for every n <= 3,258 the largest of those, "(2^k - 1)/2^k", is read by
    # verify's digit cap.  Raising the halving cap past it fails here.
    from pstab.certificate import _fraction
    from pstab.exactmat import MAX_LITERAL_DIGITS
    from pstab.stabilize import MAX_HALVINGS

    for n in range(1, 3259):
        k = n - 1 + MAX_HALVINGS
        assert len(str(2**k)) <= MAX_LITERAL_DIGITS, n
    assert _fraction(f"{2**k - 1}/{2**k}") == 1 - Fraction(1, 2**k)


def test_build_stabilizer_demo_halves_from_the_geometric_start():
    stab = _search(DEMO_A).stabilizer
    # eight halvings of I - diag(1, 1/2, 1/4, 1/8)
    assert stab.identity_steps == 8
    assert stab.eps == (
        Fraction(1), Fraction(511, 512), Fraction(1021, 1024), Fraction(2041, 2048)
    )


def test_shrink_cap_message_names_halvings_and_last_violation(monkeypatch):
    import pstab.stabilize

    monkeypatch.setattr(pstab.stabilize, "MAX_HALVINGS", 1)
    with pytest.raises(StabilizerInconclusiveError) as exc:
        _search(DEMO_A)
    key, value = exc.value.last_violation
    assert value <= 0
    assert str(exc.value) == (
        f"stabilizer search gave up after 1 halvings of I - D; "
        f"last violation {key} = {value}"
    )


@pytest.mark.parametrize(
    "a,order_two_reads,char_polys",
    [(DEMO_A, 1, 7), (LEVEL_SEARCH_FAULT, 4, 34)],
    ids=["demo", "fault"],
)
def test_build_stabilizer_computes_one_ledger_per_diagonal(
    monkeypatch, a, order_two_reads, char_polys
):
    # each diagonal tried gets one derivation of its ledger, read order by
    # order up to the first order with a nonpositive value, order 1 or 2
    # here; only the accepted one is read to order n and gets the Hurwitz
    # minors.  A diagonal rejected at order 2 makes six node char-polys and
    # forms no power of any node; the accepted one makes n(n - 1)/2 node
    # char-polys and the Hurwitz minors one
    import pstab.certificate
    import pstab.exactmat
    import pstab.stabilize

    ledger, minors = pstab.stabilize._trace_ledger, pstab.certificate.hurwitz_minors
    kernel, power = pstab.certificate.integer_minor_sums, pstab.exactmat.integer_product
    report, nest = classify_full(a), find_q2_nest(a)
    diagonals = []  # per diagonal tried, the orders read and the kernel calls

    def counted(form, d_int, delta):
        diagonals.append([])
        for order in ledger(form, d_int, delta):
            diagonals[-1].append(min(order)[0])
            yield order

    def counted_minors(m, c):
        diagonals[-1].append("hurwitz")
        return minors(m, c)

    monkeypatch.setattr(pstab.stabilize, "_trace_ledger", counted)
    monkeypatch.setattr(pstab.certificate, "hurwitz_minors", counted_minors)
    monkeypatch.setattr(
        pstab.certificate, "integer_minor_sums",
        lambda m: diagonals[-1].append("char_poly") or kernel(m),
    )
    monkeypatch.setattr(
        pstab.exactmat, "integer_product",
        lambda x, y: diagonals[-1].append("power") or power(x, y),
    )
    stab = build_stabilizer(a, report, nest).stabilizer
    n = a.n
    *rejected, accepted = diagonals
    def reads(events):
        return [e for e in events if e not in ("char_poly", "power")]

    assert stab.identity_steps == len(rejected) > 0
    assert reads(accepted) == [*range(1, n + 1), "hurwitz"]
    for events in rejected:
        assert reads(events) in ([1], [1, 2])
        assert events.count("char_poly") == 6 * (reads(events) == [1, 2])
        assert "power" not in events
    assert accepted.count("char_poly") == n * (n - 1) // 2 + 1
    assert sum(2 in events for events in diagonals) == order_two_reads
    assert sum(events.count("char_poly") for events in diagonals) == char_polys


def test_certify_stability_level_search_fault():
    cert = certify_stability(LEVEL_SEARCH_FAULT)
    assert cert.stabilizer.identity_steps == 3
    assert nonpositive_values(cert.trace_ledger) == []
    assert all(v > 0 for v in cert.endpoint_hurwitz)


def _nested_p_q2(m):
    return is_p(m)[0] and is_q2(m)[0] and find_q2_nest(m) is not None


def _boosted(rng):
    """Random [-4, 4] 6x6 matrix, diagonal raised to the least P-making
    shift, redrawn until it is Q^2 with a nest."""
    while True:
        m = random_p_matrix(rng, 6)
        if _nested_p_q2(m):
            return m


def _demo_last(rng):
    """DEMO_A on indices 3..6 after a diagonally dominant 2-block, coupled
    by entries in [-1, 1]."""
    def entry(i, j):
        if i > 2 and j > 2:
            return DEMO_A.entry(i - 2, j - 2)
        return rng.randint(8, 12) if i == j else rng.randint(-1, 1)

    while True:
        m = ExactMatrix([[entry(i, j) for j in range(1, 7)] for i in range(1, 7)])
        if _nested_p_q2(m):
            return m


def _demo_permuted(rng):
    """:func:`_demo_last` under a random symmetric permutation."""
    m = _demo_last(rng)
    perm = rng.sample(range(1, 7), 6)
    return ExactMatrix([[m.entry(i, j) for j in perm] for i in perm])


@pytest.mark.parametrize(
    "draw,count,seed",
    [(_boosted, 12, 1), (_demo_last, 4, 2), (_demo_permuted, 4, 3)],
    ids=["boosted", "demo-last", "demo-permuted"],
)
def test_certify_stability_nested_family(draw, count, seed):
    # P and Q^2 with a nest, so the theorem covers every input; each group
    # holds inputs on which a level-by-level stabilizer search gives up
    rng = random.Random(seed)
    for _ in range(count):
        a = draw(rng)
        cert = certify_stability(a)
        assert nonpositive_values(cert.trace_ledger) == []


def test_certify_stability_demo_certificate():
    cert = certify_stability(DEMO_A)
    assert cert.nest.chain == DEMO_CHAIN
    assert sorted(cert.nest.theta) == [1, 2, 3, 4]
    assert cert.b_matrix == inverse(DEMO_A)
    assert nonpositive_values(cert.trace_ledger) == []
    assert all(v > 0 for v in block_traces(cert.nest).values())
    assert cert.wedge_margin > 0
    assert all(v.real > 0 for v in cert.spectrum.eigenvalues)
    assert det(cert.matrix) == 5491


def test_build_stabilizer_rejects_a_screened_diagonal_whose_certificate_fails(
    monkeypatch,
):
    # the search accepts a diagonal on its whole exact certificate, not on
    # the screen: the demo's first screened diagonal (8 halvings) is turned
    # down when one of its Hurwitz minors is made nonpositive
    import pstab.certificate

    minors = pstab.certificate.hurwitz_minors
    calls = []

    def first_fails(m, c):
        calls.append((m, c))
        values = minors(m, c)
        return (-values[0], *values[1:]) if len(calls) == 1 else values

    monkeypatch.setattr(pstab.certificate, "hurwitz_minors", first_fails)
    cert = _search(DEMO_A)
    assert len(calls) == 2
    assert cert.stabilizer.identity_steps == 9
    assert cert.endpoint_hurwitz == minors(*calls[-1])
    assert nonpositive_values(cert.trace_ledger, cert.endpoint_hurwitz) == []


@pytest.mark.parametrize(
    "a",
    [
        DEMO_A,
        LEVEL_SEARCH_FAULT,
        *(random_spd_matrix(random.Random(n), n) for n in range(3, 7)),
        *(row_dominant_matrix(n) for n in range(3, 7)),
    ],
    ids=["demo", "fault", *(f"{kind}{n}" for kind in ("spd", "dominant")
                            for n in range(3, 7))],
)
def test_certify_stability_is_the_exact_certificate_of_its_witnesses(a):
    # verify rebuilds a certificate from its nest and diagonal alone, so
    # every exact field certify writes must be the one exact_certificate
    # derives from them
    cert = certify_stability(a)
    exact = exact_certificate(a, cert.report, cert.nest, cert.stabilizer)
    assert exact == cert._replace(
        spectrum=None, wedge_margin=None, spectrum_reason=None, disagreement=None,
    )
    assert exact.b_matrix == build_B(a, cert.nest)


def test_certify_stability_demo_exact_fields_positive():
    cert = certify_stability(DEMO_A)
    assert all(v > 0 for (_, k, _), v in cert.trace_ledger.items() if not k)
    assert len(cert.endpoint_hurwitz) == 4
    assert all(v > 0 for v in cert.endpoint_hurwitz)
    endpoint = cert.b_matrix.scale_rows(cert.stabilizer.eps)
    assert cert.endpoint_hurwitz == _minors(endpoint)
    assert cert.trace_ledger == _ledger(cert.b_matrix, cert.stabilizer.eps)


def test_certify_stability_hypothesis_failures():
    with pytest.raises(HypothesisError) as exc:
        certify_stability(ExactMatrix([[1, 0], [0, -1]]))
    assert exc.value.kind == "not-P"
    # P but the square's trace is negative: refuted as not Q^2
    with pytest.raises(HypothesisError) as exc:
        certify_stability(ExactMatrix([[6, -30], [1, 2]]))
    assert exc.value.kind == "not-Q2"


def test_certify_stability_no_nest(monkeypatch):
    import pstab.nests

    monkeypatch.setattr(pstab.nests, "find_q2_nest", lambda a, *_: None)
    with pytest.raises(HypothesisError) as exc:
        certify_stability(DEMO_A)
    assert exc.value.kind == "no-nest"


@pytest.mark.parametrize("n", range(1, 11))
def test_lagrange_operator_inverts_the_vandermonde_matrix(n):
    vandermonde = [[s**k for k in range(n + 1)] for s in range(n + 1)]
    w = lagrange_operator(n)
    product = [
        [sum(w[i][s] * vandermonde[s][j] for s in range(n + 1)) for j in range(n + 1)]
        for i in range(n + 1)
    ]
    factorial = math.factorial(n)
    assert product == [
        [factorial if i == j else 0 for j in range(n + 1)] for i in range(n + 1)
    ]
