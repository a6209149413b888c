"""Finite-field contexts and element arithmetic."""

import itertools
import random

import pytest

from sparsefact.errors import NotPrime, DivByZero, CtxMismatch, ShapeMismatch
from sparsefact.field import (make_field, is_prime, extensions,
                              _polymul_mod_p, _polydivmod_mod_p)


def test_prime_field_context():
    ctx = make_field(7)
    assert ctx.p == 7 and ctx.ell == 1 and ctx.q == 7


def test_f8_modulus_is_lex_smallest_irreducible():
    # ascending coefficients: z^3 + z + 1
    ctx = make_field(2, 3)
    assert ctx.q == 8
    assert tuple(ctx.modulus) == (1, 1, 0, 1)


def test_composite_characteristic_rejected():
    with pytest.raises(NotPrime):
        make_field(4)
    with pytest.raises(NotPrime):
        make_field(1)


def test_desk_scale_cap():
    with pytest.raises(Exception):
        make_field(2, 17)  # 2^17 > 2^16


def test_extensions_of_prime_fields_only():
    # the lift targets of both factoring engines, smallest first
    assert [e.q for e in itertools.islice(extensions(make_field(2)), 3)] == [
        4, 8, 16]
    assert [(e.p, e.ell) for e in extensions(make_field(101))] == [(101, 2)]
    assert list(extensions(make_field(257))) == []  # 257^2 > 2^16
    assert list(extensions(make_field(3, 2))) == []


def test_prime_field_add_mul():
    ctx = make_field(7)
    a, b = ctx.elem(3), ctx.elem(5)
    assert (a + b).serialize() == 1
    assert (a * b).serialize() == 1
    assert (a - b).serialize() == 5
    assert (-a).serialize() == 4


def test_f8_z_times_z_squared():
    # z * z^2 = z^3 = z + 1 mod (z^3 + z + 1)
    ctx = make_field(2, 3)
    z = ctx.elem((0, 1, 0))
    z2 = ctx.elem((0, 0, 1))
    assert (z * z2).serialize() == [1, 1, 0]


def test_inverse_examples():
    ctx = make_field(7)
    assert ctx.elem(3).inverse().serialize() == 5
    assert ctx.elem(1).inverse().serialize() == 1
    with pytest.raises(DivByZero):
        ctx.zero().inverse()


def test_ctx_mismatch():
    a = make_field(7).elem(1)
    b = make_field(11).elem(1)
    with pytest.raises(CtxMismatch):
        a + b
    with pytest.raises(TypeError):
        a + 1


@pytest.mark.parametrize("p,ell", [(2, 1), (3, 1), (5, 1), (7, 1),
                                   (2, 2), (3, 2), (2, 3), (2, 4), (13, 1)])
def test_inverse_exhaustive(p, ell):
    ctx = make_field(p, ell)
    one = ctx.one()
    for a in ctx.elements():
        if a.is_zero():
            continue
        assert a * a.inverse() == one


@pytest.mark.parametrize("p,ell", [(2, 1), (3, 1), (2, 2), (5, 1),
                                   (7, 1), (2, 3), (3, 2), (13, 1)])
def test_field_axioms_exhaustive(p, ell):
    ctx = make_field(p, ell)
    if ctx.q > 16:
        els = list(itertools.islice(ctx.elements(), 5))
    else:
        els = list(ctx.elements())
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            for c in els:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_enumeration_order_is_lex_and_indexed():
    ctx = make_field(3, 2)
    els = list(ctx.elements())
    assert [e.serialize() for e in els[:4]] == [[0, 0], [0, 1], [0, 2], [1, 0]]
    for i, e in enumerate(els):
        assert e.index() == i
        assert ctx.from_index(i) == e


@pytest.mark.parametrize("p,ell", [(7, 1), (3, 2)])
def test_from_index_rejects_indices_outside_the_field(p, ell):
    # over F_7 an index of 7 once gave 0 and -1 gave 6; over F_9, 9 gave 0
    ctx = make_field(p, ell)
    assert ctx.from_index(0).is_zero()
    assert ctx.from_index(ctx.q - 1).index() == ctx.q - 1
    for i in (-1, ctx.q, ctx.q + 1, -ctx.q):
        with pytest.raises(IndexError):
            ctx.from_index(i)


def test_pth_root_inverts_frobenius():
    for p, ell in [(2, 3), (3, 2), (5, 1)]:
        ctx = make_field(p, ell)
        for a in ctx.elements():
            assert a.pth_root() ** p == a


def test_elem_coefficient_sequence_length():
    # shorter sequences are zero-padded; longer ones are an error
    ctx = make_field(7, 2)
    assert ctx.elem([3]) == ctx.elem((3, 0)) and ctx.elem(()) == ctx.zero()
    assert ctx.elem([1, 9]).coeffs == (1, 2)
    with pytest.raises(ShapeMismatch):
        ctx.elem((1, 2, 3))
    with pytest.raises(ShapeMismatch):
        make_field(7).elem([1, 2])


def test_pow_and_division():
    ctx = make_field(11)
    a = ctx.elem(7)
    assert a ** 0 == ctx.one()
    assert a ** 10 == ctx.one()           # Fermat
    assert a ** -1 == a.inverse()
    assert (a / a) == ctx.one()


def test_serialization_forms():
    assert make_field(7).elem(3).serialize() == 3
    assert make_field(2, 2).elem((1, 1)).serialize() == [1, 1]


def test_make_field_is_cached():
    assert make_field(7) is make_field(7)
    assert make_field(2, 3) is make_field(2, 3)


# -- log/Zech tables against schoolbook polynomial arithmetic -----------------

def _ref_mul(ctx, a, b):
    prod = _polymul_mod_p(a, b, ctx.p)
    if len(prod) >= len(ctx.modulus):
        _, prod = _polydivmod_mod_p(prod, list(ctx.modulus), ctx.p)
    return tuple(prod) + (0,) * (ctx.ell - len(prod))


def _ref_pow(ctx, a, e):
    result = (1,) + (0,) * (ctx.ell - 1)
    while e:
        if e & 1:
            result = _ref_mul(ctx, result, a)
        a = _ref_mul(ctx, a, a)
        e >>= 1
    return result


SMALL_FIELDS = ([(p, 1) for p in range(2, 62) if is_prime(p)]
                + [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3),
                   (5, 2), (7, 2)])


@pytest.mark.parametrize("p,ell", SMALL_FIELDS)
def test_tables_match_schoolbook(p, ell):
    ctx = make_field(p, ell)
    q = ctx.q
    els = list(ctx.elements())
    one = ctx.one().coeffs
    for a in els:
        A = a.coeffs
        assert ctx.elem(A) is a and ctx.exp[a.log] is a
        assert (-a).coeffs == tuple((-x) % p for x in A)
        assert _ref_pow(ctx, a.pth_root().coeffs, p) == A
        for e in (0, 1, 2, 3, p, q - 2, q - 1, q, 2 * q + 1):
            assert (a ** e).coeffs == _ref_pow(ctx, A, e)
        if a.is_zero():
            assert (a ** 0).coeffs == one  # 0^0 = 1
            with pytest.raises(DivByZero):
                a.inverse()
            with pytest.raises(DivByZero):
                a ** -1
        else:
            inv = a.inverse().coeffs
            assert _ref_mul(ctx, A, inv) == one
            for e in (1, 2, 3, q):
                assert (a ** -e).coeffs == _ref_pow(ctx, inv, e)
        for b in els:
            B = b.coeffs
            assert (a * b).coeffs == _ref_mul(ctx, A, B)
            assert (a + b).coeffs == tuple((x + y) % p for x, y in zip(A, B))
            assert (a - b).coeffs == tuple((x - y) % p for x, y in zip(A, B))
            if not b.is_zero():
                assert _ref_mul(ctx, (a / b).coeffs, B) == A


@pytest.mark.parametrize("p,ell", [(2, 16), (65521, 1)])
def test_largest_fields(p, ell):
    ctx = make_field(p, ell)
    assert ctx.q == p ** ell
    one = ctx.one()
    rng = random.Random(p ** ell)
    els = [ctx.from_index(rng.randrange(ctx.q)) for _ in range(200)]
    for a, b in zip(els, els[1:] + els[:1]):
        if not a.is_zero():
            assert a * a.inverse() == one
        assert (a + b) - b == a
        assert (a * b).coeffs == _ref_mul(ctx, a.coeffs, b.coeffs)
