import pytest

from dualgroth.groth import c_coeff
from dualgroth.partitions import (_between, _box, a_statistic, as_partition,
                                  column_count, contains,
                                  format_partition, format_skew,
                                  horizontal_strip_additions, interval,
                                  is_horizontal_strip, is_vertical_strip,
                                  partitions_of,
                                  partitions_of_containing, partitions_up_to,
                                  size, skew_half_turn, skew_normal_form,
                                  skew_pieces, sort_key, subpartitions,
                                  transpose, vertical_strip_removals)
from dualgroth.schur import _branching
from mobius_oracle import mobius
from rpp_oracle import cells


def test_as_partition_normalizes():
    assert as_partition([3, 2, 1, 0, 0]) == (3, 2, 1)
    assert as_partition([]) == ()
    with pytest.raises(ValueError):
        as_partition([1, 2])
    with pytest.raises(ValueError):
        as_partition([2, -1])


@pytest.mark.parametrize("call", [
    lambda: as_partition([2.7, 1]),
    lambda: as_partition(['3', ' 2']),
    lambda: c_coeff((2.9, 1), (1,), (1.5,)),
], ids=["float-part", "string-parts", "c_coeff-float-shapes"])
def test_a_part_that_is_not_an_integer_is_refused(call):
    # a float part is not truncated and a string part is not parsed
    with pytest.raises(ValueError, match="must be integers"):
        call()


def test_contains_examples():
    assert contains((1,), (3, 2, 1))
    assert not contains((2, 2), (3, 1))
    assert contains((), (5, 5, 5))
    assert contains((), ())


def test_transpose_examples():
    assert transpose((3, 1)) == (2, 1, 1)
    assert transpose(()) == ()
    assert transpose((2, 2)) == (2, 2)


def test_transpose_involution_up_to_10():
    for la in partitions_up_to(10):
        assert transpose(transpose(la)) == la


def test_contains_respects_transpose_up_to_8():
    parts = partitions_up_to(8)
    for mu in parts:
        for la in parts:
            assert contains(mu, la) == contains(transpose(mu), transpose(la))


def test_column_count_examples():
    assert column_count((3, 2, 1), (1,)) == 3
    assert column_count((2, 2), (1, 1)) == 1
    assert column_count((2, 1), (2, 1)) == 0
    assert column_count((3, 1)) == 3


def _normal_form_by_cells(outer, inner):
    return _normalize_cells(cells(outer, inner))


def _normalize_cells(shape):
    # delete the empty rows and columns of the cell set and reindex
    rows = {r: i for i, r in enumerate(sorted({r for r, c in shape}))}
    cols = {c: j for j, c in enumerate(sorted({c for r, c in shape}))}
    out, inn = [0] * len(rows), [None] * len(rows)
    for r, c in shape:
        i, j = rows[r], cols[c]
        out[i] = max(out[i], j + 1)
        inn[i] = j if inn[i] is None else min(inn[i], j)
    return tuple(out), tuple(x for x in inn if x)


def test_skew_normal_form_matches_cell_deletion_up_to_9():
    pairs = [(la, mu) for la in partitions_up_to(9) for mu in subpartitions(la)]
    assert len(pairs) == 1592
    for la, mu in pairs:
        normal = skew_normal_form(la, mu)
        assert normal == _normal_form_by_cells(la, mu), (la, mu)
        assert skew_normal_form(*normal) == normal, (la, mu)
    for la in partitions_up_to(9):
        assert skew_normal_form(la, ()) == (la, ())
        assert skew_normal_form(la, la) == ((), ())


def test_skew_normal_form_examples():
    assert skew_normal_form((3, 3, 1), (3,)) == ((3, 1), ())
    assert skew_normal_form((4, 2), (3,)) == ((3, 2), (2,))
    assert skew_normal_form((4, 4, 1), (2, 2)) == ((3, 3, 1), (1, 1))
    assert skew_normal_form((3, 2, 1), (1,)) == ((3, 2, 1), (1,))
    with pytest.raises(ValueError):
        skew_normal_form((2,), (3,))


def _pieces_by_cells(outer, inner):
    # the classes of the cells under row and column adjacency, top to bottom
    todo, pieces = set(cells(outer, inner)), []
    for start in sorted(todo):
        if start not in todo:
            continue
        todo.discard(start)
        stack, piece = [start], []
        while stack:
            r, c = stack.pop()
            piece.append((r, c))
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in todo:
                    todo.discard(nb)
                    stack.append(nb)
        pieces.append(_normalize_cells(piece))
    return pieces


def test_skew_pieces_examples():
    assert skew_pieces((2, 1), (1,)) == [((1,), ()), ((1,), ())]
    assert skew_pieces((3, 1, 1, 1, 1, 1), (1,)) == [((2,), ()), ((1,) * 5, ())]
    assert skew_pieces((2, 2), (1,)) == [((2, 2), (1,))]
    assert skew_pieces((3, 2, 1), (2, 1)) == [((1,), ())] * 3
    assert skew_pieces((4, 3, 1), (3,)) == [((1,), ()), ((3, 1), ())]
    assert skew_pieces((3, 3, 1), (2, 1)) == [((2, 2), (1,)), ((1,), ())]
    assert skew_pieces((), ()) == []


def test_skew_pieces_are_the_connected_pieces_up_to_9():
    diagrams = {skew_normal_form(la, mu) for la in partitions_up_to(9)
                for mu in subpartitions(la)} - {((), ())}
    assert len(diagrams) == 319
    for outer, inner in diagrams:
        pieces = skew_pieces(outer, inner)
        assert pieces == _pieces_by_cells(outer, inner), (outer, inner)
        # the pieces stack row by row and their cells partition the diagram
        assert sum(len(o) for o, _ in pieces) == len(outer)
        assert (sum(size(o) - size(i) for o, i in pieces)
                == size(outer) - size(inner))
        for piece in pieces:
            assert skew_normal_form(*piece) == piece
            assert skew_pieces(*piece) == [piece]
        # rows that share a column are never cut
        cuts, r = set(), 0
        for o, _ in pieces[:-1]:
            r += len(o)
            cuts.add(r)
        padded = inner + (0,) * (len(outer) - len(inner))
        for r in range(1, len(outer)):
            if padded[r - 1] < outer[r]:
                assert r not in cuts, (outer, inner, r)


def test_skew_half_turn_examples():
    assert skew_half_turn((2, 1), (1,)) == ((2, 1), (1,))
    assert skew_half_turn((2, 2), (1,)) == ((2, 1), ())
    assert skew_half_turn((3, 2, 1), (1,)) == ((3, 3, 2), (2, 1))
    assert skew_half_turn((2,) * 10, (1,) * 3) == ((2,) * 7 + (1,) * 3, ())
    assert skew_half_turn((3, 1), ()) == ((3, 3), (2,))
    assert skew_half_turn((), ()) == ((), ())


def test_skew_half_turn_turns_the_cells_up_to_9():
    diagrams = {skew_normal_form(la, mu) for la in partitions_up_to(9)
                for mu in subpartitions(la)} - {((), ())}
    assert len(diagrams) == 319
    for outer, inner in diagrams:
        turned = skew_half_turn(outer, inner)
        n, w = len(outer), outer[0]
        assert turned == _normalize_cells([(n - 1 - r, w - 1 - c)
                                           for r, c in cells(outer, inner)])
        assert skew_half_turn(*turned) == (outer, inner), (outer, inner)
        assert (size(turned[0]) - size(turned[1])
                == size(outer) - size(inner)), (outer, inner)
        assert column_count(*turned) == column_count(outer, inner)


def test_interval_examples():
    assert interval((), (1, 1)) == [(), (1,), (1, 1)]
    assert interval((1,), (2, 1)) == [(1,), (2,), (1, 1), (2, 1)]
    assert interval((2, 1), (2, 1)) == [(2, 1)]
    assert len(interval((), (2, 1))) == 5
    with pytest.raises(ValueError):
        interval((2, 2), (3, 1))


def test_interval_matches_bruteforce():
    for la in partitions_up_to(7):
        for mu in subpartitions(la):
            got = interval(mu, la)
            brute = [nu for nu in partitions_up_to(size(la))
                     if contains(mu, nu) and contains(nu, la)]
            assert got == sorted(brute, key=sort_key)
            assert len(set(got)) == len(got)


def test_mobius_examples():
    assert mobius((1,), (2, 1)) == 1
    assert mobius((), (2,)) == 0
    assert mobius((3, 1), (3, 1)) == 1
    assert mobius((2,), (1,)) == 0


def test_mobius_inversion_up_to_7():
    for la in partitions_up_to(7):
        for mu in subpartitions(la):
            total = sum(mobius(mu, nu) for nu in interval(mu, la))
            assert total == (1 if mu == la else 0)


def test_a_statistic_examples():
    assert a_statistic((3, 1), (2, 1)) == 2
    assert a_statistic((), ()) == 0
    assert a_statistic((5,), ()) == 0
    assert a_statistic((2,), (2,)) == 1


def test_partitions_up_to_counts_and_order():
    assert partitions_up_to(0) == [()]
    assert partitions_up_to(2) == [(), (1,), (2,), (1, 1)]
    assert len(partitions_up_to(4)) == 12
    counts = [len(partitions_of(n)) for n in range(16)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176]
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions_of(-1) == ()
    # partitions_of is the row builder's la = () case, so check it on its own
    for n, count in [*enumerate(counts), (20, 627), (30, 5604)]:
        ps = partitions_of(n)
        assert len(ps) == count, n
        assert all(as_partition(la) == la and size(la) == n for la in ps)
        assert all(sort_key(a) < sort_key(b) for a, b in zip(ps, ps[1:])), n


def test_partitions_of_containing_matches_scan():
    for n in range(16):
        for la in partitions_up_to(n):
            scan = [p for p in partitions_of(n) if contains(la, p)]
            assert partitions_of_containing(n, la) == scan, (n, la)
    assert partitions_of_containing(3, (2, 2)) == []
    assert partitions_of_containing(0, (1,)) == []
    assert partitions_of_containing(80, (1,) * 80) == [(1,) * 80]


def test_between_matches_a_filter_of_partitions_of():
    # every lo inside hi with |hi| <= 8, every n; partitions_of is pinned
    # to p(n) and reverse-lex order in test_partitions_up_to_counts_and_order
    small = partitions_up_to(8)
    for hi in small:
        for lo in small:
            if not contains(lo, hi):
                continue
            for n in range(size(hi) + 2):
                want = [nu for nu in partitions_of(n)
                        if contains(lo, nu) and contains(nu, hi)]
                assert _between(lo, hi, n) == want, (lo, hi, n)


def test_box_matches_a_filter_of_interval():
    # every lo inside hi with |hi| <= 8 and lo_i >= hi_{i+1} on every row:
    # the shapes of [(), hi] that contain lo, in descending tuple order
    boxes = 0
    for hi in partitions_up_to(8):
        for lo in subpartitions(hi):
            if all(x >= y for x, y in zip(lo + (0,) * len(hi), hi[1:])):
                want = sorted((nu for nu in interval((), hi) if contains(lo, nu)),
                              reverse=True)
                assert _box(lo, hi) == want, (lo, hi)
                boxes += 1
    assert boxes == 434  # the sum over hi of prod (hi_i - hi_{i+1} + 1)


def test_interval_and_partition_counts():
    # Catalan C_{k+1} shapes inside the staircase (k, ..., 1), C(10, 5)
    # inside the 5 x 5 box, and p(40)
    assert len(interval((), (6, 5, 4, 3, 2, 1))) == 429
    assert len(interval((), (7, 6, 5, 4, 3, 2, 1))) == 1430
    assert len(interval((), (5,) * 5)) == 252
    assert len(partitions_of(40)) == 37338


def test_strip_addition_helpers_match_bruteforce():
    for mu in partitions_up_to(6):
        for k in range(6):
            horiz = horizontal_strip_additions(mu, k)
            brute_h = [la for la in partitions_of(size(mu) + k)
                       if contains(mu, la) and is_horizontal_strip(la, mu)]
            assert horiz == sorted(brute_h, key=sort_key)


def test_vertical_strip_removals_match_bruteforce():
    for nu in partitions_up_to(7):
        got = vertical_strip_removals(nu)
        brute = [eta for eta in subpartitions(nu) if is_vertical_strip(nu, eta)]
        assert got == sorted(brute, key=sort_key)


def test_horizontal_strip_removals_match_bruteforce():
    # the mu with la/mu a horizontal strip are the interval [la[1:], la],
    # and row k of the branching table of la lists those of size |la| - k
    # in the same order; the pool is a filter of partitions_of, not
    # subpartitions, which reads the interval under test
    for la in partitions_up_to(7):
        strips = interval(la[1:], la)
        table = _branching(la)
        for k in range(size(la) + 2):
            brute = [mu for mu in partitions_of(size(la) - k)
                     if contains(mu, la) and is_horizontal_strip(la, mu)]
            assert [mu for mu in strips if size(mu) == size(la) - k] == brute
            assert list(table[k] if k < len(table) else ()) == brute, (la, k)


def test_text_forms_round_trip():
    assert format_partition((3, 2, 1)) == "[3,2,1]"
    assert format_partition(()) == "[]"
    assert format_skew((3, 2, 1), (1,)) == "[3,2,1]/[1]"
