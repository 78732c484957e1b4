import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permres.perm import Perm, format_permutation, iter_alt_gens, iter_sym_gens


def test_identity_and_apply():
    p = Perm.identity(5)
    assert p.is_identity()
    assert [p.images[i] for i in range(5)] == [0, 1, 2, 3, 4]


def test_composition_is_left_to_right():
    # p then q: (p * q)(x) = q(p(x))
    p = Perm.from_cycles([(0, 1)], 3)
    q = Perm.from_cycles([(1, 2)], 3)
    assert (p * q).images[0] == 2
    assert (q * p).images[0] == 1


def test_inverse_and_pow():
    p = Perm.from_cycles([(0, 1, 2, 3)], 5)
    assert (p * p.inv()).is_identity()


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
    # g^-1 * p * g, as normal_closure forms conjugates, relabels p's cycles by g
    p = Perm.from_cycles([(0, 1)], 4)
    g = Perm.from_cycles([(0, 2), (1, 3)], 4)
    assert g.inv() * p * g == Perm.from_cycles([(2, 3)], 4)


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
    assert tuple(sorted(map(len, p.cycles(include_fixed=True)))) == ctype
    assert p.order() == order


def test_moved():
    p = Perm.from_cycles([(1, 3)], 6)
    assert p.moved() == [1, 3]
    assert Perm.identity(3).moved() == []


def test_format_one_based():
    p = Perm.from_cycles([(0, 1, 2)], 4)
    assert format_permutation(p) == "(1 2 3)"
    assert format_permutation(Perm.identity(4)) == "()"
    assert format_permutation(Perm.from_cycles([(4, 0), (2, 1)], 6)) == "(1 5)(2 3)"


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
    # a cycle of length k is a product of k - 1 transpositions
    assert all(sum(len(c) - 1 for c in g.cycles()) % 2 == 0 for g in gens)
    assert _closure_size(m, gens) == math.factorial(m) // 2
