import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permres.perm import Perm, _from_images, format_permutation, iter_alt_gens, iter_sym_gens, left, table


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


# degrees 0 and 1 are the edge cases of the bytes kernel, 256 its last
# degree and 257 the first on tuples and itemgetter; 36 and 360 are the
# degrees the benchmark times
KERNEL_DEGREES = (0, 1, 2, 36, 255, 256, 257, 360)


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
    assert tuple((p * q).images) == tuple(q.images[p.images[i]] for i in range(n))
    assert left(p.images)(table(q.images)) == (p * q).images
    inv = [0] * n
    for i in range(n):
        inv[p.images[i]] = i
    assert tuple(p.inv().images) == tuple(inv)
    assert p.is_identity() == all(p.images[i] == i for i in range(n))
    assert (p * p.inv()).is_identity()
    assert Perm.identity(n) * Perm.identity(n) == Perm.identity(n)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(KERNEL_DEGREES).flatmap(lambda n: st.permutations(range(n))))
def test_every_constructor_stores_the_same_perm(images):
    built = [Perm(images), Perm(tuple(images)), _from_images(tuple(images))]
    if len(images) <= 256:
        built.append(Perm(bytes(images)))
    assert all(p == built[0] and hash(p) == hash(built[0]) for p in built)
    assert tuple(built[0].images) == tuple(images)


@pytest.mark.parametrize("m,n", [(3, 4), (4, 3), (36, 35)])
def test_composing_across_degrees_raises(m, n):
    with pytest.raises(ValueError):
        Perm.identity(m) * Perm.identity(n)


def test_a_bool_is_no_image():
    with pytest.raises(ValueError):
        Perm([True, 0])


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


def test_only_perm_chooses_the_image_storage():
    # the bytes-or-tuple choice, and the kernels on each, live in perm.py
    # alone: other modules compose raw images through left and table
    from pathlib import Path

    import permres.perm

    found = []
    for path in sorted(Path(permres.perm.__file__).parent.glob("*.py")):
        if path.name == "perm.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for word in ("itemgetter(*", ".translate(", "maketrans", "is bytes", "is tuple"):
                if word in line:
                    found.append(f"{path.name}:{lineno} {word}")
    assert not found, found
