import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permres.perm import (
    ParseError,
    Perm,
    format_permutation,
    iter_alt_gens,
    iter_sym_gens,
    parse_permutation,
    read_generator_file,
    write_generator_file,
)


def test_identity_and_apply():
    p = Perm.identity(5)
    assert p.is_identity()
    assert [p.apply(i) for i in range(5)] == [0, 1, 2, 3, 4]


def test_composition_is_left_to_right():
    # p then q: (p * q)(x) = q(p(x))
    p = Perm.from_cycles([(0, 1)], 3)
    q = Perm.from_cycles([(1, 2)], 3)
    assert (p * q).apply(0) == 2
    assert (q * p).apply(0) == 1


def test_inverse_and_pow():
    p = Perm.from_cycles([(0, 1, 2, 3)], 5)
    assert (p * p.inv()).is_identity()
    assert p ** 4 == Perm.identity(5)
    assert p ** -1 == p.inv()
    assert p ** 2 == p * p
    assert p ** 0 == Perm.identity(5)


# degrees 0 and 1 are the edge cases of the itemgetter kernel; 36 and 360
# are the degrees the benchmark times
KERNEL_DEGREES = (0, 1, 2, 36, 360)


@st.composite
def perm_pairs(draw):
    n = draw(st.sampled_from(KERNEL_DEGREES))
    perm = st.one_of(st.just(list(range(n))), st.permutations(range(n)))
    return Perm(draw(perm)), Perm(draw(perm))


@settings(max_examples=200, deadline=None)
@given(perm_pairs())
def test_kernel_matches_reference(pair):
    p, q = pair
    n = p.degree
    assert (p * q).images == tuple(q.images[p.images[i]] for i in range(n))
    inv = [0] * n
    for i in range(n):
        inv[p.images[i]] = i
    assert p.inv().images == tuple(inv)
    assert p.is_identity() == all(p.images[i] == i for i in range(n))
    assert (p * p.inv()).is_identity()
    assert Perm.identity(n) * Perm.identity(n) == Perm.identity(n)


def test_conj():
    p = Perm.from_cycles([(0, 1)], 4)
    g = Perm.from_cycles([(0, 2), (1, 3)], 4)
    assert p.conj(g) == Perm.from_cycles([(2, 3)], 4)


@pytest.mark.parametrize(
    "cycles,degree,ctype,order",
    [
        ([(0, 1, 2)], 5, (1, 1, 3), 3),
        ([(0, 1), (2, 3, 4)], 5, (2, 3), 6),
        ([], 4, (1, 1, 1, 1), 1),
        ([(0, 1, 2, 3, 4, 5)], 6, (6,), 6),
    ],
)
def test_cycle_type_and_order(cycles, degree, ctype, order):
    p = Perm.from_cycles(cycles, degree)
    assert p.cycle_type() == ctype
    assert p.order() == order


def test_parity():
    assert Perm.from_cycles([(0, 1, 2)], 4).is_even()
    assert not Perm.from_cycles([(0, 1)], 4).is_even()
    assert Perm.from_cycles([(0, 1), (2, 3)], 4).is_even()


def test_moved():
    p = Perm.from_cycles([(1, 3)], 6)
    assert p.moved() == [1, 3]
    assert p.min_moved() == 1
    assert Perm.identity(3).min_moved() is None


def test_format_one_based():
    p = Perm.from_cycles([(0, 1, 2)], 4)
    assert format_permutation(p) == "(1 2 3)"
    assert format_permutation(Perm.identity(4)) == "()"


def test_parse_cycles_round_trip():
    for text in ["(1 2 3)(4 5)", "(1 5)(2 3)", "()"]:
        p = parse_permutation(text, 6)
        assert parse_permutation(format_permutation(p), 6) == p


def test_parse_image_list():
    p = parse_permutation("[2 1 3]", 3)
    assert p == Perm.from_cycles([(0, 1)], 3)
    assert parse_permutation("[2, 1, 3]", 3) == p


@pytest.mark.parametrize(
    "bad",
    ["(1 2", "(1 2)(2 3)", "(0 1)", "(1 7)", "[1 1 2]", "[1 2]", "(a b)"],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_permutation(bad, 3)


def test_parse_error_carries_position():
    try:
        parse_permutation("(1 2)(2 3)", 4)
    except ParseError as e:
        assert "position" in str(e)
    else:
        raise AssertionError("expected ParseError")


def test_generator_file_round_trip():
    from permres.stabchain import PermGroup

    gens = list(iter_sym_gens(4))
    text = write_generator_file(4, gens, label="sym4")
    degree, back, label = read_generator_file(text)
    assert degree == 4
    assert back == gens
    assert label == "sym4"


def test_generator_file_comments_and_errors():
    degree, gens, label = read_generator_file("# comment\ndegree 3\n(1 2)\n\n(2 3)\n")
    assert degree == 3
    assert len(gens) == 2
    assert label is None
    with pytest.raises(ParseError):
        read_generator_file("(1 2)\n")
    with pytest.raises(ParseError):
        read_generator_file("degree 3\n(1 4)\n")


def _closure_size(degree, gens):
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    mats = [g.images for g in gens]
    while frontier:
        nxt = []
        for t in frontier:
            for m in mats:
                u = tuple(m[v] for v in t)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return len(seen)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_sym_gens(m):
    import math

    assert _closure_size(m, list(iter_sym_gens(m))) == math.factorial(m)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_alt_gens(m):
    import math

    gens = list(iter_alt_gens(m))
    assert all(g.is_even() for g in gens)
    assert _closure_size(m, gens) == math.factorial(m) // 2
